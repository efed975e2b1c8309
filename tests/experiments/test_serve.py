"""Tests for the long-lived batch replay (``repro serve``)."""

import dataclasses
import math
import os

import pytest

from repro.caching.nocache import NoCache
from repro.errors import ConfigurationError
from repro.experiments.serve import (
    BatchResult,
    ServeOutcome,
    ServeSession,
    serve_repeated,
    summarize_throughput,
)
from repro.obs.health import HealthMonitor, check_health_consistency
from repro.obs.slo import SLORule, parse_slo_rule
from repro.sim.dynamics import DynamicsConfig, DynamicsEvent
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig


def serve_trace(seed=4):
    return generate_synthetic_trace(
        SyntheticTraceConfig(
            name="serve-tiny",
            num_nodes=12,
            duration=6 * DAY,
            total_contacts=2500,
            granularity=60.0,
            seed=seed,
        )
    )


def workload(**overrides):
    return WorkloadConfig(
        mean_data_lifetime=12 * HOUR, mean_data_size=20 * MEGABIT, **overrides
    )


class CrashOnce:
    """Picklable scheme factory that kills its worker process on first
    use (an OOM-killed or segfaulting worker), then behaves like
    ``NoCache``.  The sentinel file makes the crash happen exactly once
    across all processes."""

    def __init__(self, sentinel_path):
        self.sentinel_path = sentinel_path

    def __call__(self):
        try:
            with open(self.sentinel_path, "x"):
                pass
        except FileExistsError:
            return NoCache()
        os._exit(1)  # hard kill: no exception, the pool just breaks


def bitwise_equal(a, b):
    """Recursive bitwise equality: floats compare by their IEEE-754
    bytes (NaN == NaN when the bit patterns match, +0.0 != -0.0),
    containers and dataclasses recurse."""
    import struct

    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        return type(a) is type(b) and all(
            bitwise_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            bitwise_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


def results_equal(a, b):
    """SimulationResult equality that treats NaN == NaN (an idle batch
    leaves ``mean_access_delay`` NaN in both runs; dataclass ``==``
    would call that a mismatch)."""
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float) and math.isnan(va) and math.isnan(vb):
            continue
        if va != vb:
            return False
    return True


class TestServeSession:
    def test_batches_cover_contiguous_windows(self):
        session = ServeSession(serve_trace(), NoCache(), workload())
        first = session.run_batch()
        second = session.run_batch(rounds=2)
        period = session.query_period
        warmup = session.simulator.warmup_end
        assert first.start == warmup
        assert first.end == warmup + period
        assert second.start == first.end
        assert second.end == warmup + 3 * period
        assert session.batches_run == 2
        session.finalize()

    def test_batches_issue_queries(self):
        session = ServeSession(serve_trace(), NoCache(), workload())
        batches = [session.run_batch() for _ in range(4)]
        assert sum(b.queries_issued for b in batches) > 0
        assert all(b.wall_seconds >= 0.0 for b in batches)
        result = session.finalize()
        assert result.queries_issued == sum(b.queries_issued for b in batches)

    def test_session_outlives_the_recorded_trace(self):
        """The whole point of serve mode: batches keep running after the
        trace's own evaluation window ends, by cycling its contacts."""
        trace = serve_trace()
        session = ServeSession(trace, NoCache(), workload())
        rounds_in_trace = int(
            (trace.end_time - session.simulator.warmup_end) / session.query_period
        )
        batches = [session.run_batch() for _ in range(rounds_in_trace + 4)]
        assert batches[-1].end > trace.end_time
        tail = sum(b.queries_issued for b in batches[rounds_in_trace:])
        assert tail > 0
        session.finalize()

    def test_run_batch_after_finalize_rejected(self):
        session = ServeSession(serve_trace(), NoCache(), workload())
        session.finalize()
        with pytest.raises(ConfigurationError):
            session.run_batch()

    def test_zero_round_batch_rejected(self):
        session = ServeSession(serve_trace(), NoCache(), workload())
        with pytest.raises(ConfigurationError):
            session.run_batch(rounds=0)
        session.finalize()

    def test_dynamics_incompatible_with_serving(self):
        dynamics = DynamicsConfig(events=(DynamicsEvent("leave", 0.5, node=1),))
        config = SimulatorConfig(dynamics=dynamics)
        with pytest.raises(ConfigurationError):
            ServeSession(serve_trace(), NoCache(), workload(), config)

    def test_run_and_serve_are_exclusive(self):
        sim = Simulator(serve_trace(), NoCache(), workload(), SimulatorConfig(seed=1))
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.start_session()


class TestBatchResult:
    def test_queries_per_second(self):
        batch = BatchResult(0, 0.0, 1.0, 500, 10, 0, 0, 3, wall_seconds=0.25)
        assert batch.queries_per_second == 2000.0

    def test_idle_batch_reports_zero(self):
        batch = BatchResult(0, 0.0, 1.0, 0, 0, 0, 0, 0, wall_seconds=0.25)
        assert batch.queries_per_second == 0.0

    def test_deterministic_fields_exclude_wall_clock(self):
        a = BatchResult(0, 0.0, 1.0, 5, 2, 1, 0, 3, wall_seconds=0.1)
        b = dataclasses.replace(a, wall_seconds=99.0)
        assert a.deterministic_fields == b.deterministic_fields

    def test_summarize_throughput(self):
        batches = [
            BatchResult(0, 0.0, 1.0, 100, 40, 0, 0, 5, wall_seconds=0.5),
            BatchResult(1, 1.0, 2.0, 300, 60, 0, 0, 2, wall_seconds=0.5),
        ]
        summary = summarize_throughput(batches)
        assert summary["batches"] == 2
        assert summary["queries_issued"] == 400
        assert summary["queries_satisfied"] == 100
        assert summary["queries_per_second"] == pytest.approx(400.0)

    def test_summarize_empty(self):
        """Satellite regression: an empty batch list must roll up to all
        zeros, never raise (rates have empty denominators)."""
        summary = summarize_throughput([])
        assert summary["batches"] == 0
        assert summary["queries_per_second"] == 0.0
        assert summary["queries_per_sim_second"] == 0.0
        assert summary["success_ratio"] == 0.0
        assert summary["sim_seconds"] == 0

    def test_summarize_zero_duration_batches(self):
        """Satellite regression: batches with zero wall-clock AND zero
        simulated duration must not divide by zero."""
        batches = [
            BatchResult(0, 5.0, 5.0, 10, 4, 0, 0, 1, wall_seconds=0.0),
            BatchResult(1, 5.0, 5.0, 0, 0, 0, 0, 1, wall_seconds=0.0),
        ]
        summary = summarize_throughput(batches)
        assert summary["queries_issued"] == 10
        assert summary["queries_per_second"] == 0.0
        assert summary["queries_per_sim_second"] == 0.0
        assert summary["success_ratio"] == pytest.approx(0.4)

    def test_summarize_success_and_sim_rate(self):
        batches = [
            BatchResult(0, 0.0, 10.0, 100, 40, 0, 0, 5, wall_seconds=0.5),
            BatchResult(1, 10.0, 20.0, 300, 60, 0, 0, 2, wall_seconds=0.5),
        ]
        summary = summarize_throughput(batches)
        assert summary["success_ratio"] == pytest.approx(0.25)
        assert summary["sim_seconds"] == pytest.approx(20.0)
        assert summary["queries_per_sim_second"] == pytest.approx(20.0)


class TestServeRepeated:
    def test_workers_match_serial_bitwise(self):
        """workers=4 must reproduce the serial serve outcomes bit for bit
        on every deterministic field (satellite e's batch contract)."""
        trace = serve_trace()
        seeds = [1, 2, 3, 4]
        serial = serve_repeated(
            trace, NoCache, workload(), seeds=seeds, batches=3
        )
        parallel = serve_repeated(
            trace, NoCache, workload(), seeds=seeds, batches=3, workers=4
        )
        assert len(serial) == len(parallel) == len(seeds)
        for out_s, out_p in zip(serial, parallel):
            assert results_equal(out_s.result, out_p.result)
            assert [b.deterministic_fields for b in out_s.batches] == [
                b.deterministic_fields for b in out_p.batches
            ]

    def test_worker_crash_is_retried_on_a_fresh_pool(self, tmp_path):
        """A worker that dies breaks the whole pool; the unfinished
        sessions rerun on a fresh pool and reproduce the serial outcomes,
        because each task carries its pinned seed."""
        trace = serve_trace()
        seeds = [1, 2, 3]
        serial = serve_repeated(trace, NoCache, workload(), seeds=seeds, batches=2)
        sentinel = tmp_path / "crashed.sentinel"
        crashing = CrashOnce(str(sentinel))
        recovered = serve_repeated(
            trace, crashing, workload(), seeds=seeds, batches=2, workers=2
        )
        assert sentinel.exists()
        assert len(recovered) == len(seeds)
        for out_s, out_p in zip(serial, recovered):
            assert results_equal(out_s.result, out_p.result)
            assert [b.deterministic_fields for b in out_s.batches] == [
                b.deterministic_fields for b in out_p.batches
            ]

    def test_seeds_are_pinned_in_order(self):
        outcomes = serve_repeated(
            serve_trace(), NoCache, workload(), seeds=[7, 8], batches=1
        )
        assert [outcome.result.seed for outcome in outcomes] == [7, 8]

    def test_unmonitored_outcome_has_no_health(self):
        outcomes = serve_repeated(
            serve_trace(), NoCache, workload(), seeds=[7], batches=1
        )
        assert isinstance(outcomes[0], ServeOutcome)
        assert outcomes[0].health is None

    def test_bursty_arrivals_served(self):
        wl = workload(arrival_process="bursty")
        outcomes = serve_repeated(
            serve_trace(), NoCache, wl, seeds=[5], batches=4
        )
        result, batches = outcomes[0].result, outcomes[0].batches
        assert result.queries_issued == sum(b.queries_issued for b in batches)


class TestServeHealth:
    """Tentpole: live health snapshots riding along serve sessions."""

    RULES = (
        SLORule("tight", "success_ratio", ">=", 0.99, sustain=1),
        SLORule("lenient_backlog", "backlog", "<=", 1e9, sustain=1),
    )

    def test_snapshots_tile_the_session(self):
        monitor = HealthMonitor()
        session = ServeSession(serve_trace(), NoCache(), workload(), health=monitor)
        batches = [session.run_batch() for _ in range(4)]
        session.finalize()
        report = monitor.report()
        assert len(report.snapshots) == 4
        for batch, snap in zip(batches, report.snapshots):
            assert (snap.index, snap.start, snap.end) == (
                batch.index,
                batch.start,
                batch.end,
            )
            assert snap.queries_issued == batch.queries_issued
            assert snap.queries_satisfied == batch.queries_satisfied
            assert snap.backlog == batch.pending_queries

    def test_snapshot_deltas_sum_to_collector_totals(self):
        monitor = HealthMonitor()
        session = ServeSession(serve_trace(), NoCache(), workload(), health=monitor)
        for _ in range(5):
            session.run_batch()
        totals = session.simulator.metrics.totals()
        result = session.finalize()
        report = monitor.report()
        check_health_consistency(report, totals, baseline=monitor.baseline)
        assert sum(s.queries_issued for s in report.snapshots) == result.queries_issued
        assert (
            sum(s.queries_satisfied for s in report.snapshots)
            == result.queries_satisfied
        )

    def test_health_matches_serial_vs_workers_bitwise(self):
        """The tentpole determinism contract: health snapshots, SLO
        transitions and anomalies are simulated-time functions only, so
        workers=4 reproduces the serial stream bit for bit."""
        trace = serve_trace()
        seeds = [1, 2, 3, 4]
        serial = serve_repeated(
            trace, NoCache, workload(), seeds=seeds, batches=3,
            slo_rules=self.RULES,
        )
        parallel = serve_repeated(
            trace, NoCache, workload(), seeds=seeds, batches=3, workers=4,
            slo_rules=self.RULES,
        )
        for out_s, out_p in zip(serial, parallel):
            assert out_s.health is not None and out_p.health is not None
            # IEEE-754 byte comparison: NaN == NaN when the bit patterns
            # match, and any drift in a real value breaks it.
            assert bitwise_equal(out_s.health, out_p.health)

    def test_always_breaching_rule_fires_deterministically(self):
        """An unreachable floor must violate on the first evidence-bearing
        window, in both serial and parallel runs."""
        rule = SLORule("impossible", "success_ratio", ">=", 2.0, sustain=1)
        outcomes = serve_repeated(
            serve_trace(), NoCache, workload(), seeds=[7], batches=3,
            slo_rules=(rule,),
        )
        health = outcomes[0].health
        assert health is not None
        violated = [t for t in health.transitions if t.kind == "slo.violated"]
        assert len(violated) == 1
        assert violated[0].rule == "impossible"
        first_evidence = next(
            s for s in health.snapshots if s.queries_issued > 0
        )
        assert violated[0].time == first_evidence.end

    def test_flash_crowd_window_annotated(self):
        """Flash-crowd serves record the surge window and mark the
        overlapping snapshots (the first replay cycle only)."""
        wl = workload(
            arrival_process="flash_crowd",
            arrival_params={"at": 0.0, "duration": 0.5, "probability": 0.9},
        )
        outcomes = serve_repeated(
            serve_trace(), NoCache, wl, seeds=[5], batches=4,
            monitor_health=True,
        )
        health = outcomes[0].health
        assert health is not None
        assert health.flash_window is not None
        start, end = health.flash_window
        assert start < end
        flagged = [s for s in health.snapshots if s.flash_crowd]
        assert flagged, "no snapshot overlapped the surge window"
        for snap in health.snapshots:
            assert snap.flash_crowd == (snap.start < end and start < snap.end)

    def test_slo_cli_specs_work_through_serve(self):
        outcomes = serve_repeated(
            serve_trace(), NoCache, workload(), seeds=[7], batches=2,
            slo_rules=(parse_slo_rule("backlog<=1e9"),),
        )
        health = outcomes[0].health
        assert health is not None
        assert health.transitions == ()
