"""Tests for memory-footprint observability (``repro.obs.memory``).

Two layers of guarantees live here:

* unit behaviour — ``peak_rss_bytes`` units, ``deep_sizeof`` walk
  semantics, memory-column round-trips (NaN ↔ JSON null), monitor
  registry rules, the consistency invariant;
* accountant honesty — every subsystem accountant registered by
  :meth:`Simulator._build_memory_accountants` is cross-checked against
  an *independent* sizeof oracle (``oracle_nbytes_<name>``, a
  ``gc.get_referents`` walk that shares no code with ``deep_sizeof``).
  ``tests/obs/test_memory_lint.py`` lints that every subsystem keeps
  such an oracle in the corpus.

The strict ≥90% heap-attribution floor is the large-scale acceptance
test at the bottom (``REPRO_BIG_TESTS=1``); the tier-1 consistency test
uses looser bounds because at toy scale the fixed-size containers'
overhead is a bigger share of the heap.
"""

import gc
import json
import math
import os
import sys
import tracemalloc
import types

import pytest

from repro.errors import ConfigurationError, TraceConsistencyError
from repro.graph.weight_cache import shared_weight_cache
from repro.obs.events import TraceEventKind
from repro.metrics.collector import CollectorTotals
from repro.obs.health import HealthReport, HealthSnapshot, render_prometheus
from repro.obs.memory import (
    NULL_MEMORY_MONITOR,
    SUBSYSTEMS,
    MemoryMonitor,
    NullMemoryMonitor,
    check_memory_consistency,
    deep_sizeof,
    peak_rss_bytes,
    render_memory_breakdown,
)
from repro.obs.recorder import MemoryRecorder
from repro.obs.timeseries import MEMORY_TABLE, TelemetryRow, render_rows
from repro.scenario import (
    RunSpec,
    ScenarioSpec,
    TraceSpec,
    build_trace,
    scheme_factory,
    simulator_config,
)
from repro.sim.simulator import Simulator


def _small_spec(mem_profile=True, **run_overrides):
    return ScenarioSpec(
        trace=TraceSpec(node_factor=0.3, time_factor=0.06),
        run=RunSpec(mem_profile=mem_profile, **run_overrides),
    )


def _window(**memory):
    """A health window carrying *memory* columns."""
    return HealthSnapshot(
        0, 0.0, 10.0, *CollectorTotals(0, 0, 0, 0, 0, 0, 0, 0),
        backlog=0, backlog_delta=0, success_ratio=math.nan,
        cache_hit_ratio=math.nan, queries_per_sim_second=0.0,
        delay_p50=math.nan, delay_p95=math.nan, delay_p99=math.nan,
        ncl_load_cv=math.nan, flash_crowd=False, **memory,
    )


def _build(spec, recorder=None):
    trace = build_trace(spec.trace)
    return Simulator(
        trace,
        scheme_factory(spec)(),
        spec.workload,
        simulator_config(spec),
        recorder=recorder,
    )


@pytest.fixture(scope="module")
def profiled_sim():
    """One completed small run keeping rows with memory columns."""
    sim = _build(_small_spec(timeseries=True))
    sim.run()
    return sim


# --- independent sizeof oracle ----------------------------------------------

#: fenced object kinds — code, not state (mirrors the accountant fence,
#: but via an entirely different mechanism: gc referents, not __dict__)
_ORACLE_SKIP = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
)


def _gc_sizeof(roots, exclude=()):
    """Independent deep-sizeof: ``gc.get_referents`` graph walk.

    Deliberately shares no code with :func:`deep_sizeof` — the oracle
    must be able to catch a bug in the accountants' walk, so it uses the
    garbage collector's own referent graph instead of ``__dict__`` /
    ``__slots__`` introspection.
    """
    seen = {id(obj) for obj in exclude}
    total, stack = 0, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _ORACLE_SKIP) or callable(obj):
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


# One oracle per subsystem, named oracle_nbytes_<name> — the memory
# lint requires exactly these identifiers in the test corpus.  Each
# mirrors its accountant's *ownership boundary* (what to exclude), but
# never its walk.


def oracle_nbytes_contact_graph(sim):
    # The rate estimator plus the snapshot the scheme holds.
    return _gc_sizeof([sim.estimator, sim.scheme.graph])


def oracle_nbytes_nodes(sim):
    # node.trace is the shared recorder (observability-owned).
    return sum(_gc_sizeof([node], exclude=[node.trace]) for node in sim.nodes)


def oracle_nbytes_scheme(sim):
    # The scheme's services reference simulator-owned state, and its
    # graph snapshot is contact_graph's; exclude them the same way
    # Simulator._scheme_nbytes pre-seeds its walk.
    exclude = [
        sim,
        sim.scheme.graph,
        sim.nodes,
        sim.metrics,
        sim.estimator,
        sim.workload_process,
        sim.engine,
        sim.recorder,
        sim.registry,
        sim.timeseries,
        sim.profiler,
        sim.workload,
        sim.trace,
        *sim.nodes,
    ]
    return _gc_sizeof([sim.scheme], exclude=exclude)


def oracle_nbytes_weight_cache(sim):
    return _gc_sizeof([shared_weight_cache()])


def oracle_nbytes_metrics(sim):
    return _gc_sizeof([sim.metrics])


def oracle_nbytes_workload(sim):
    return _gc_sizeof([sim.workload_process])


def oracle_nbytes_events(sim):
    return _gc_sizeof([sim.engine])


def oracle_nbytes_observability(sim):
    return _gc_sizeof([sim.recorder, sim.registry, sim.timeseries])


#: accountant/oracle agreement bounds.  The two walks fence different
#: things (the oracle's gc graph reaches cross-references the
#: accountant deliberately excludes, and vice versa for __dict__-only
#: state), so agreement is a ratio band, not equality.  Measured ratios
#: on the reference box sit in 0.40–1.25; the band is deliberately
#: loose so the test only fails for an accountant that is *wrong*
#: (zero, double-counting a big array, walking another subsystem).
_ORACLE_BOUNDS = {
    "contact_graph": (0.5, 2.0, oracle_nbytes_contact_graph),
    "nodes": (0.5, 2.5, oracle_nbytes_nodes),
    "scheme": (0.5, 2.5, oracle_nbytes_scheme),
    "metrics": (0.5, 2.0, oracle_nbytes_metrics),
    "workload": (0.5, 2.5, oracle_nbytes_workload),
    # the engine's events reference payloads owned elsewhere, which the
    # gc walk reaches but the accountant correctly excludes
    "events": (0.2, 2.0, oracle_nbytes_events),
    "observability": (0.5, 2.5, oracle_nbytes_observability),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_BOUNDS))
def test_accountant_against_oracle(profiled_sim, name):
    low, high, oracle = _ORACLE_BOUNDS[name]
    accountant = profiled_sim.memory_breakdown()[name]
    independent = oracle(profiled_sim)
    assert independent > 0, f"oracle for {name} saw no state"
    ratio = accountant / independent
    assert low <= ratio <= high, (
        f"{name}: accountant={accountant} oracle={independent} "
        f"ratio={ratio:.3f} outside [{low}, {high}]"
    )


def test_scheme_snapshot_is_counted_once(profiled_sim, monkeypatch):
    """The scheme's graph snapshot belongs to ``contact_graph``: leaving
    it out of the scheme walk changes nothing."""
    import repro.sim.simulator as simulator

    graph = profiled_sim.scheme.graph
    assert graph is not None
    breakdown = profiled_sim.memory_breakdown()
    assert breakdown["contact_graph"] >= deep_sizeof(graph)
    walk = simulator.deep_sizeof

    def walk_without_graph(obj, seen=None):
        seen = set() if seen is None else seen
        seen.add(id(graph))
        return walk(obj, seen)

    monkeypatch.setattr(simulator, "deep_sizeof", walk_without_graph)
    assert profiled_sim.memory_breakdown()["scheme"] == breakdown["scheme"]


def test_weight_cache_accountant_is_payload_lower_bound(profiled_sim):
    """The weight-cache accountant tracks array payloads only, so it
    must be a positive lower bound on the full-structure oracle."""
    accountant = profiled_sim.memory_breakdown()["weight_cache"]
    independent = oracle_nbytes_weight_cache(profiled_sim)
    assert 0 < accountant <= independent


def test_oracles_cover_every_subsystem():
    oracles = {name for name in SUBSYSTEMS}
    covered = set(_ORACLE_BOUNDS) | {"weight_cache"}
    assert covered == oracles


# --- peak_rss_bytes ----------------------------------------------------------


def test_peak_rss_is_plausible_and_monotone():
    first = peak_rss_bytes()
    assert isinstance(first, int)
    # Any live CPython process with numpy imported exceeds 10 MB.
    assert first > 10 * 2**20
    ballast = bytearray(8 * 2**20)
    second = peak_rss_bytes()
    assert second >= first  # high-water mark never goes down
    del ballast
    assert peak_rss_bytes() >= second


# --- deep_sizeof -------------------------------------------------------------


def test_deep_sizeof_counts_nested_state():
    payload = {"rows": [list(range(100)) for _ in range(10)]}
    assert deep_sizeof(payload) > sys.getsizeof(payload)


def test_deep_sizeof_dedups_shared_references():
    shared = list(range(1000))
    once = deep_sizeof([shared])
    twice = deep_sizeof([shared, shared])
    # the second reference adds nothing but the outer list slot
    assert twice - once < sys.getsizeof(shared)


def test_deep_sizeof_seen_preseed_excludes_owned_state():
    owned = list(range(1000))
    holder = {"owned": owned, "mine": [1, 2, 3]}
    full = deep_sizeof(holder)
    without = deep_sizeof(holder, seen={id(owned)})
    assert without < full


def test_deep_sizeof_fences_callables_and_modules():
    holder = {"fn": deep_sizeof, "mod": json, "cls": MemoryMonitor, "n": 1}
    # fenced entries contribute nothing, so the walk stays tiny
    assert deep_sizeof(holder) < 10_000


def test_deep_sizeof_walks_slots():
    class Slotted:
        __slots__ = ("payload",)

        def __init__(self):
            self.payload = list(range(1000))

    obj = Slotted()
    assert deep_sizeof(obj) > sys.getsizeof(obj.payload)


# --- memory columns on disk -------------------------------------------------


def test_memory_sample_round_trip_is_float_exact():
    """A window's memory columns survive health.jsonl bit for bit."""
    window = _window(
        rss_mb=0.1 + 0.2,  # not exactly representable in decimal
        py_heap_mb=123.456789012345,
        mem_accounted_mb=7.0,
        mem_top="nodes",
        mem_subsystems={"nodes": 1024, "events": 12},
    )
    back = HealthSnapshot.from_dict(json.loads(json.dumps(window.to_dict())))
    assert back.rss_mb == window.rss_mb
    assert back.py_heap_mb == window.py_heap_mb
    assert back.mem_accounted_mb == 7.0
    assert (back.mem_top, back.mem_subsystems) == ("nodes", {"nodes": 1024, "events": 12})


def test_memory_sample_nan_round_trips_as_json_null():
    row = TelemetryRow(
        1.0, *CollectorTotals(0, 0, 0, 0, 0, 0, 0, 0),
        live_items=0, cached_copies=0, pending_queries=0,
        rss_mb=float("nan"), py_heap_mb=float("nan"), mem_accounted_mb=2.0,
    )
    text = json.dumps(row.to_dict(), allow_nan=False)  # bare NaN is not JSON
    assert "null" in text
    assert json.loads(text)["mem_accounted_mb"] == 2.0
    back = HealthSnapshot.from_dict(
        json.loads(json.dumps(_window(py_heap_mb=float("nan")).to_dict()))
    )
    assert math.isnan(back.py_heap_mb) and math.isnan(back.rss_mb)


# --- MemoryMonitor registry --------------------------------------------------


def test_monitor_rejects_unknown_subsystem():
    with pytest.raises(ConfigurationError, match="unknown memory subsystem"):
        MemoryMonitor({"warp_drive": lambda: 0})


def test_monitor_rejects_duplicate_registration():
    monitor = MemoryMonitor({"nodes": lambda: 1})
    with pytest.raises(ConfigurationError, match="already registered"):
        monitor.register("nodes", lambda: 2)


def test_monitor_breakdown_and_sample():
    monitor = MemoryMonitor({"nodes": lambda: 3 * 2**20, "events": lambda: 2**20})
    assert monitor.subsystems == ("events", "nodes")
    assert monitor.breakdown() == {"events": 2**20, "nodes": 3 * 2**20}
    columns = monitor.columns()
    assert columns["mem_top"] == "nodes"
    assert columns["mem_accounted_mb"] == pytest.approx(4.0)
    assert columns["mem_subsystems"] == {"events": 2**20, "nodes": 3 * 2**20}
    assert columns["rss_mb"] > 0
    # the keys are exactly the row's memory columns
    row = TelemetryRow(
        1.0, *CollectorTotals(0, 0, 0, 0, 0, 0, 0, 0),
        live_items=0, cached_copies=0, pending_queries=0, **columns,
    )
    assert row.mem_top == "nodes"


def test_monitor_duty_cycles_the_breakdown_walk():
    """Fills inside the duty-cycle window reuse the last breakdown
    (bounded overhead); after the window a fresh walk runs."""
    calls = []
    monitor = MemoryMonitor({"nodes": lambda: calls.append(1) or 2**20})
    first = monitor.columns()
    second = monitor.columns()  # within cost/budget of the first walk
    assert len(calls) == 1
    assert second["mem_subsystems"] == first["mem_subsystems"]
    assert second["rss_mb"] > 0  # cheap columns still read per fill
    monitor._next_breakdown_wall = 0.0  # force the window shut
    monitor.columns()
    assert len(calls) == 2


def test_monitor_validates_breakdown_budget():
    with pytest.raises(ConfigurationError, match="breakdown_budget"):
        MemoryMonitor(breakdown_budget=0.0)


def test_null_monitor_is_inert():
    assert NULL_MEMORY_MONITOR.enabled is False
    assert isinstance(NULL_MEMORY_MONITOR, NullMemoryMonitor)
    assert NULL_MEMORY_MONITOR.subsystems == ()
    assert NULL_MEMORY_MONITOR.breakdown() == {}


def test_null_monitor_refuses_work():
    """Work that reaches the shared disabled monitor is a missing guard:
    it raises rather than returning made-up columns, and the singleton
    stays stateless."""
    with pytest.raises(ConfigurationError, match="enabled"):
        NULL_MEMORY_MONITOR.columns()
    with pytest.raises(ConfigurationError, match="off"):
        NULL_MEMORY_MONITOR.register("nodes", lambda: 1)
    assert NULL_MEMORY_MONITOR.subsystems == ()


# --- consistency invariant ---------------------------------------------------


def test_consistency_accepts_reconciled_breakdown():
    check_memory_consistency({"nodes": 95 * 2**20}, 100 * 2**20)


def test_consistency_rejects_low_coverage():
    with pytest.raises(TraceConsistencyError, match="cover only"):
        check_memory_consistency({"nodes": 10 * 2**20}, 100 * 2**20)


def test_consistency_rejects_overcount():
    with pytest.raises(TraceConsistencyError, match="claim"):
        check_memory_consistency({"nodes": 200 * 2**20}, 100 * 2**20)


def test_consistency_rejects_untraced_heap():
    with pytest.raises(TraceConsistencyError, match="tracemalloc"):
        check_memory_consistency({"nodes": 1}, float("nan"))


def test_consistency_validates_tolerances():
    with pytest.raises(ConfigurationError):
        check_memory_consistency({"nodes": 1}, 1.0, min_coverage=0.0)
    with pytest.raises(ConfigurationError):
        check_memory_consistency({"nodes": 1}, 1.0, max_overcount=0.5)


# --- rendering ---------------------------------------------------------------


def test_render_memory_table_limits_and_formats():
    records = [
        {"time": float(i), "rss_mb": 100.0 + i, "py_heap_mb": None,
         "mem_accounted_mb": 50.0, "mem_top": "nodes"}
        for i in range(5)
    ]
    lines = render_rows(records, (("time", "time", 12, 1),) + MEMORY_TABLE, limit=2)
    assert len(lines) == 4  # header + rule + 2 rows
    assert "rss_mb" in lines[0] and "mem_top" in lines[0]
    assert lines[-1].split() == ["4.0", "104.0", "-", "50.0", "nodes"]


def test_render_memory_breakdown_orders_largest_first():
    text = render_memory_breakdown({"nodes": 3 * 2**20, "events": 2**20})
    assert text.index("nodes") < text.index("events")
    assert "total" in text and "4.0 MB" in text


def test_render_memory_gauges_exports_prometheus_text():
    """The Prometheus exposition reads the memory gauges from the last
    window's end-row columns."""
    last = _window(
        rss_mb=100.0, py_heap_mb=40.0, mem_accounted_mb=39.0,
        mem_top="nodes", mem_subsystems={"nodes": 1024, "events": 64},
    )
    text = render_prometheus(HealthReport((_window(), last), (), (), None))
    assert f"repro_health_rss_bytes {100 * 2**20}" in text
    assert f"repro_memory_accounted_bytes {39 * 2**20}" in text
    assert 'repro_memory_subsystem_bytes{subsystem="nodes"} 1024' in text
    assert 'repro_memory_subsystem_bytes{subsystem="events"} 64' in text
    assert text.endswith("\n")
    unprofiled = render_prometheus(HealthReport((_window(),), (), (), None))
    assert "repro_health_rss_bytes" not in unprofiled


# --- simulator integration ---------------------------------------------------


def test_disabled_path_allocates_nothing():
    """Without ``mem_profile`` the simulator holds the shared null
    monitor — zero per-run allocation; without ``timeseries`` it keeps
    no rows."""
    sim = _build(_small_spec(mem_profile=False))
    assert sim.memory is NULL_MEMORY_MONITOR
    sim.run()
    assert len(sim.timeseries) == 0
    # the always-built accountants still answer on demand
    assert set(sim.memory_breakdown()) == set(SUBSYSTEMS)


def test_disabled_path_timeseries_has_nan_memory_columns():
    sim = _build(_small_spec(mem_profile=False, timeseries=True))
    sim.run()
    rows = sim.timeseries.rows
    assert rows
    assert all(math.isnan(row.rss_mb) for row in rows)
    assert all(row.mem_top == "" and row.mem_subsystems == {} for row in rows)


def test_profiled_run_collects_samples(profiled_sim):
    rows = profiled_sim.timeseries.rows
    assert rows
    times = [row.time for row in rows]
    assert times == sorted(times)
    for row in rows:
        assert row.rss_mb > 0
        assert row.mem_accounted_mb > 0
        assert row.mem_top in SUBSYSTEMS
        assert set(row.mem_subsystems) == set(SUBSYSTEMS)


def test_profiled_run_emits_memory_sampled_events():
    recorder = MemoryRecorder()
    sim = _build(_small_spec(timeseries=True), recorder=recorder)
    sim.run()
    sampled = [
        e for e in recorder.events if e.kind is TraceEventKind.MEMORY_SAMPLED
    ]
    assert len(sampled) == len(sim.timeseries.rows)
    assert sampled[0].attrs["top_subsystem"] in SUBSYSTEMS
    assert [e.attrs["rss_mb"] for e in sampled] == [
        row.rss_mb for row in sim.timeseries.rows
    ]


def test_breakdown_is_stable_under_churn(profiled_sim):
    """Repeated breakdowns attribute the same universe (no leaked or
    dropped keys) and each row's total equals its subsystem sum."""
    first = profiled_sim.memory_breakdown()
    second = profiled_sim.memory_breakdown()
    assert sorted(first) == sorted(SUBSYSTEMS) == sorted(second)
    for row in profiled_sim.timeseries.rows:
        assert row.mem_accounted_mb * 2**20 == pytest.approx(
            sum(row.mem_subsystems.values()), abs=1.0
        )


def test_small_scale_heap_reconciliation():
    """Tier-1 edition of the scale-out acceptance check: tracing from
    before the build, the accountants must land in a band around the
    traced heap delta.  (The strict 0.9 floor is the big-tier test —
    at toy scale fixed container overhead loosens the band.)"""
    shared_weight_cache().clear()  # process-wide singleton: drop bytes
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim = _build(_small_spec())
        sim.run()
        heap_delta = tracemalloc.get_traced_memory()[0] - base
        check_memory_consistency(
            sim.memory_breakdown(),
            heap_delta,
            min_coverage=0.4,
            max_overcount=3.0,
        )
    finally:
        if not was_tracing:
            tracemalloc.stop()


# --- large-scale acceptance (opt-in) ----------------------------------------


@pytest.mark.skipif(
    os.environ.get("REPRO_BIG_TESTS") != "1",
    reason="large-scale tier is opt-in: set REPRO_BIG_TESTS=1",
)
def test_sparse1e5_attribution_covers_ninety_percent():
    """Acceptance criterion: on the sparse 10⁵-node scenario the
    accountants attribute ≥90% of the tracemalloc-reported heap."""
    from repro.core.ncl import select_ncls  # noqa: F401  (import parity)

    shared_weight_cache().clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec = ScenarioSpec(
            trace=TraceSpec(
                name="sparse1e5", seed=1, node_factor=0.2, time_factor=0.1
            ),
            run=RunSpec(mem_profile=True),
        )
        sim = _build(spec)
        sim.run()
        heap_delta = tracemalloc.get_traced_memory()[0] - base
        check_memory_consistency(sim.memory_breakdown(), heap_delta)
    finally:
        tracemalloc.stop()
