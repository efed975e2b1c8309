"""Opt-in large-scale benchmarks: the 10⁵-node sparse scale-out tier.

Set ``REPRO_BIG_TESTS=1`` to enable (several minutes of wall clock);
the tier-1 suite and the default bench guard never run these.  Guarded
baseline lives in ``benchmarks/sim_large_baseline.json``:

    REPRO_BIG_TESTS=1 python -m repro bench \
        --benchmark-file benchmarks/test_bench_sim_large.py \
        --baseline benchmarks/sim_large_baseline.json [--update-baseline]

Each benchmark also acts as a memory guard twice over: peak RSS
(:func:`repro.obs.memory.peak_rss_bytes`, whole process, high-water
mark) must stay under the documented budget *here*, and the same peak
plus the per-subsystem attribution of ``Simulator.memory_breakdown()``
is stamped into ``extra_info`` so the bench guard's memory tier fails
any future run whose footprint grows past 1.2x the committed baseline.
The in-file budgets are deliberately loose bounds on the documented
measurements (README "Large-scale quickstart") — they catch an
accidental return of an N×N allocation (80 GB at 10⁵ nodes), not
kilobyte-level drift.
"""

import os

import pytest

from repro.graph.contact_graph import ContactGraph
from repro.obs.memory import peak_rss_bytes
from repro.scenario import (
    RunSpec,
    ScenarioSpec,
    SchemeSpec,
    TraceSpec,
    build_trace,
    scheme_factory,
    simulator_config,
)
from repro.sim.simulator import Simulator
from repro.workload.config import WorkloadConfig

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BIG_TESTS") != "1",
    reason="large-scale tier is opt-in: set REPRO_BIG_TESTS=1",
)

#: Peak-RSS budgets (MB).  A dense 10⁵×10⁵ float64 matrix alone would
#: be ~80 000 MB, so these bounds prove the sparse path held.  Measured
#: on the reference box: setup ≈ 0.8 GB, end-to-end ≈ 18 GB (the
#: simulator's per-node/per-query state dominates, not the graph — see
#: the attributed breakdown in README "Memory profiling").
SETUP_RSS_BUDGET_MB = 2_000
END_TO_END_RSS_BUDGET_MB = 24_000


def _peak_rss_mb() -> float:
    return peak_rss_bytes() / 2**20


def _spec(node_factor: float, time_factor: float, duration_fraction: float = 0.25):
    trace_spec = TraceSpec(
        name="sparse1e5", seed=1, node_factor=node_factor, time_factor=time_factor
    )
    trace = build_trace(trace_spec)
    spec = ScenarioSpec(
        trace=trace_spec,
        scheme=SchemeSpec(num_ncls=32),
        workload=WorkloadConfig(
            mean_data_lifetime=trace.duration * duration_fraction,
            mean_data_size=100_000_000,
        ),
        # One estimation per phase: at this scale the interesting cost is
        # the sparse pipeline itself, not the refresh cadence.
        run=RunSpec(graph_refresh_period=trace.duration),
    )
    return trace, spec


def test_bench_large_setup_1e5(benchmark):
    """Stream → sparse graph → k-NN NCL selection at the full 10⁵ nodes.

    This is the pure scale-out path: no dense matrix may be allocated
    anywhere (``rates`` raises on sparse graphs above the
    threshold), and the whole setup must fit the documented budget.

    ``ru_maxrss`` is a process-wide high-water mark, so this test must
    stay first in the file — after the end-to-end runs the ceiling
    would reflect their footprint, not setup's.
    """
    from repro.core.ncl import select_ncls
    from repro.traces.catalog import STREAM_PRESETS

    trace, _spec_unused = _spec(node_factor=1.0, time_factor=0.05)

    def setup():
        graph = ContactGraph.from_trace(trace)
        assert graph.is_sparse
        selection = select_ncls(
            graph, 32, STREAM_PRESETS["sparse1e5"].ncl_time_budget
        )
        return graph, selection

    graph, selection = benchmark.pedantic(setup, rounds=1, iterations=1)
    assert graph.num_nodes == 100_000
    assert len(selection.central_nodes) == 32
    peak = _peak_rss_mb()
    benchmark.extra_info["peak_rss_mb"] = peak
    assert peak < SETUP_RSS_BUDGET_MB, f"peak RSS {peak:.0f} MB over budget"


def test_bench_large_end_to_end_1e5(benchmark):
    """Full simulation at 10⁵ nodes on a time-scaled stream.

    ``time_factor=0.05`` keeps the event count benchmarkable while the
    node dimension — the one the sparse core exists for — stays at the
    full 100 000.  ``duration_fraction=0.5`` halves the query rounds:
    query volume scales with the node count, and at 10⁵ nodes the
    default cadence would make this a half-hour benchmark.

    Runs with ``mem_profile`` on, so the stamped ``mem_subsystems``
    attribution says *which* subsystem owns the documented ~18 GB — the
    bench guard's memory tier then holds both the total and the shape.
    """
    trace, spec = _spec(node_factor=1.0, time_factor=0.05, duration_fraction=0.5)
    spec = ScenarioSpec(
        trace=spec.trace,
        scheme=spec.scheme,
        workload=spec.workload,
        run=RunSpec(
            graph_refresh_period=trace.duration,
            mem_profile=True,
        ),
    )

    def run():
        sim = Simulator(
            trace, scheme_factory(spec)(), spec.workload, simulator_config(spec)
        )
        return sim, sim.run()

    sim, result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.queries_issued > 0
    assert sim.memory.samples, "mem_profile produced no samples"
    peak = _peak_rss_mb()
    benchmark.extra_info["peak_rss_mb"] = peak
    benchmark.extra_info["mem_subsystems"] = sim.memory_breakdown()
    assert peak < END_TO_END_RSS_BUDGET_MB, f"peak RSS {peak:.0f} MB over budget"


def test_bench_large_end_to_end_20k(benchmark):
    """Mid-scale end-to-end point (20k nodes) for trend visibility
    between the tier-1 scales and the full 10⁵ run."""
    trace, spec = _spec(node_factor=0.2, time_factor=0.25)

    def run():
        sim = Simulator(
            trace, scheme_factory(spec)(), spec.workload, simulator_config(spec)
        )
        return sim, sim.run()

    sim, result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.queries_issued > 0
    benchmark.extra_info["peak_rss_mb"] = _peak_rss_mb()
    benchmark.extra_info["mem_subsystems"] = sim.memory_breakdown()
