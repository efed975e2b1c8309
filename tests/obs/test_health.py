"""Tests for the live health telemetry layer (``repro.obs.health``)."""

import dataclasses
import json
import math
import struct

import pytest

from repro.errors import TraceConsistencyError
from repro.metrics.collector import CollectorTotals
from repro.obs.events import TraceEventKind
from repro.obs.health import (
    ANOMALY_SIGNALS,
    CUSUMChangePoint,
    EWMADrift,
    HealthAnomaly,
    HealthMonitor,
    HealthReport,
    HealthSnapshot,
    check_health_consistency,
    render_health_table,
    render_prometheus,
)
from repro.obs.recorder import MemoryRecorder
from repro.obs.slo import SLOEngine, SLORule, SLOTransition
from repro.obs.timeseries import TelemetryRow, read_jsonl, write_jsonl


def make_snapshot(index=0, start=0.0, end=10.0, **overrides):
    fields = dict(
        index=index,
        start=start,
        end=end,
        queries_issued=10,
        queries_satisfied=4,
        duplicate_deliveries=1,
        late_deliveries=0,
        cache_lookups=8,
        cache_hits=2,
        data_generated=3,
        responses_delivered=5,
        backlog=6,
        backlog_delta=2,
        success_ratio=0.4,
        cache_hit_ratio=0.25,
        queries_per_sim_second=1.0,
        delay_p50=5.0,
        delay_p95=9.0,
        delay_p99=9.9,
        ncl_load_cv=0.1,
        flash_crowd=False,
    )
    fields.update(overrides)
    return HealthSnapshot(**fields)


def bitwise_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        return type(a) is type(b) and all(
            bitwise_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(bitwise_equal(x, y) for x, y in zip(a, b))
    return a == b


def make_row(time, totals, pending=0, ncl_load=None, **memory):
    return TelemetryRow(
        time,
        *totals,
        live_items=0,
        cached_copies=0,
        pending_queries=pending,
        ncl_load={} if ncl_load is None else ncl_load,
        **memory,
    )


class TestHealthSnapshot:
    def test_dict_round_trip(self):
        snap = make_snapshot(
            success_ratio=float("nan"),
            flash_crowd=True,
            rss_mb=70.5,
            mem_top="nodes",
            mem_subsystems={"nodes": 1024},
        )
        back = HealthSnapshot.from_dict(json.loads(json.dumps(snap.to_dict())))
        assert bitwise_equal(snap, back)

    def test_from_dict_requires_every_field(self):
        record = make_snapshot().to_dict()
        del record["mem_top"]
        with pytest.raises(KeyError):
            HealthSnapshot.from_dict(record)

    def test_window_is_the_difference_of_two_rows(self):
        before = make_row(10.0, CollectorTotals(4, 1, 0, 0, 4, 1, 2, 1), pending=3)
        after = make_row(
            30.0,
            CollectorTotals(14, 5, 1, 0, 12, 3, 2, 5),
            pending=7,
            ncl_load={1: 4, 2: 4},
            rss_mb=12.0,
            mem_top="nodes",
        )
        snap = HealthSnapshot.between(3, before, after, flash_window=(25.0, 40.0))
        assert (snap.index, snap.start, snap.end) == (3, 10.0, 30.0)
        assert snap.delta_totals() == CollectorTotals(10, 4, 1, 0, 8, 2, 0, 4)
        assert (snap.backlog, snap.backlog_delta) == (7, 4)
        assert snap.success_ratio == 0.4
        assert snap.cache_hit_ratio == 0.25
        assert snap.queries_per_sim_second == 0.5
        assert snap.ncl_load_cv == 0.0
        assert snap.flash_crowd is True
        assert (snap.rss_mb, snap.mem_top) == (12.0, "nodes")

    def test_delta_totals_mirror_collector_order(self):
        snap = make_snapshot()
        totals = snap.delta_totals()
        assert isinstance(totals, CollectorTotals)
        assert totals.queries_issued == snap.queries_issued
        assert totals.responses_delivered == snap.responses_delivered

    def test_anomaly_signals_are_real_fields(self):
        snap = make_snapshot()
        for signal in ANOMALY_SIGNALS:
            assert isinstance(float(getattr(snap, signal)), float)


class TestEWMADrift:
    def test_flags_large_deviation_after_warmup(self):
        detector = EWMADrift(alpha=0.3, k=3.0, warmup=5)
        assert all(detector.update(1.0 + 0.01 * i) is None for i in range(10))
        score = detector.update(100.0)
        assert score is not None and score > 3.0

    def test_quiet_stream_never_fires(self):
        detector = EWMADrift(alpha=0.3, k=4.0, warmup=5)
        assert all(detector.update(2.0) is None for _ in range(50))

    def test_nan_skipped(self):
        detector = EWMADrift(warmup=2)
        for value in (1.0, float("nan"), 1.0, float("nan"), 1.0):
            assert detector.update(value) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EWMADrift(alpha=0.0)
        with pytest.raises(ValueError):
            EWMADrift(k=0.0)
        with pytest.raises(ValueError):
            EWMADrift(warmup=0)


class TestCUSUMChangePoint:
    def test_detects_level_shift(self):
        detector = CUSUMChangePoint(drift=0.5, threshold=4.0, warmup=5)
        fired = []
        for value in [1.0, 1.1, 0.9, 1.0, 1.05, 0.95] + [5.0] * 20:
            score = detector.update(value)
            if score is not None:
                fired.append(score)
        assert fired and fired[0] > 0  # upward shift → positive statistic

    def test_resets_after_firing(self):
        detector = CUSUMChangePoint(drift=0.0, threshold=2.0, warmup=2)
        stream = [0.0, 1.0, 0.5] + [10.0] * 30
        scores = [detector.update(v) for v in stream]
        firings = [s for s in scores if s is not None]
        assert firings, "level shift must fire"
        first = scores.index(firings[0])
        # the window right after a firing starts from zero accumulators
        assert scores[first + 1] is None or scores[first + 1] != firings[0]

    def test_constant_stream_never_fires(self):
        detector = CUSUMChangePoint(warmup=3)
        assert all(detector.update(7.0) is None for _ in range(40))

    def test_validation(self):
        with pytest.raises(ValueError):
            CUSUMChangePoint(drift=-0.1)
        with pytest.raises(ValueError):
            CUSUMChangePoint(threshold=0.0)
        with pytest.raises(ValueError):
            CUSUMChangePoint(warmup=1)


class TestCheckHealthConsistency:
    def _report(self, snapshots):
        return HealthReport(
            snapshots=tuple(snapshots), transitions=(), anomalies=(), flash_window=None
        )

    def test_consistent_stream_passes(self):
        snaps = [
            make_snapshot(index=0, start=0.0, end=10.0, queries_issued=4),
            make_snapshot(index=1, start=10.0, end=20.0, queries_issued=6),
        ]
        totals = CollectorTotals(10, 8, 2, 0, 16, 4, 6, 10)
        check_health_consistency(self._report(snaps), totals)

    def test_counter_mismatch_raises(self):
        snaps = [make_snapshot(index=0, queries_issued=4)]
        totals = CollectorTotals(5, 4, 1, 0, 8, 2, 3, 5)
        with pytest.raises(TraceConsistencyError, match="queries_issued"):
            check_health_consistency(self._report(snaps), totals)

    def test_gap_between_windows_raises(self):
        snaps = [
            make_snapshot(index=0, start=0.0, end=10.0),
            make_snapshot(index=1, start=11.0, end=20.0),
        ]
        totals = CollectorTotals(20, 8, 2, 0, 16, 4, 6, 10)
        with pytest.raises(TraceConsistencyError, match="starts at"):
            check_health_consistency(self._report(snaps), totals)

    def test_out_of_order_indices_raise(self):
        snaps = [make_snapshot(index=1)]
        totals = CollectorTotals(10, 4, 1, 0, 8, 2, 3, 5)
        with pytest.raises(TraceConsistencyError, match="out of order"):
            check_health_consistency(self._report(snaps), totals)

    def test_baseline_subtracted(self):
        snaps = [make_snapshot(index=0, queries_issued=4)]
        baseline = CollectorTotals(100, 0, 0, 0, 0, 0, 0, 0)
        totals = CollectorTotals(104, 4, 1, 0, 8, 2, 3, 5)
        check_health_consistency(self._report(snaps), totals, baseline=baseline)


class TestHealthMonitorUnit:
    """Monitor behaviour against a scripted fake simulator — the
    deterministic flash-crowd scenario from the acceptance criteria."""

    class FakeMetrics:
        def __init__(self):
            self.totals_value = CollectorTotals(0, 0, 0, 0, 0, 0, 0, 0)
            self.open = 0

        def totals(self):
            return self.totals_value

    class FakeSimulator:
        warmup_end = 0.0

        def __init__(self):
            self.metrics = TestHealthMonitorUnit.FakeMetrics()
            self.workload_process = type("WP", (), {"arrivals": None})()

        def telemetry_row(self, now):
            return make_row(
                now, self.metrics.totals(), self.metrics.open, {1: 4, 2: 4}
            )

    def advance(self, sim, issued, satisfied):
        t = sim.metrics.totals_value
        sim.metrics.totals_value = CollectorTotals(
            t.queries_issued + issued,
            t.queries_satisfied + satisfied,
            t.duplicate_deliveries,
            t.late_deliveries,
            t.cache_lookups + issued,
            t.cache_hits + satisfied,
            t.data_generated,
            t.responses_delivered + satisfied,
        )
        sim.metrics.open += issued - satisfied

    def test_scripted_flash_crowd_slo_sequence(self):
        """baseline → surge (ratio collapses) → calm: the availability
        rule must fire exactly once and recover exactly once, at
        deterministic window ends."""
        sim = self.FakeSimulator()
        rule = SLORule("availability", "success_ratio", ">=", 0.5, sustain=2)
        recorder = MemoryRecorder()
        monitor = HealthMonitor([rule], recorder)
        monitor.attach(sim)
        # (issued, satisfied) per window: 3 healthy, 3 surging, 3 calm
        script = [(10, 8), (10, 9), (10, 8), (50, 5), (60, 4), (50, 5), (10, 8), (10, 9), (10, 8)]
        for i, (issued, satisfied) in enumerate(script):
            self.advance(sim, issued, satisfied)
            monitor.observe_window((i + 1) * 10.0)
        report = monitor.report()
        kinds = [(t.kind, t.time) for t in report.transitions]
        # violated after the 2nd surge window (sustain=2) at t=50, recovered
        # on the first calm window at t=70
        assert kinds == [("slo.violated", 50.0), ("slo.recovered", 70.0)]
        trace_kinds = [e.kind for e in recorder.events]
        assert trace_kinds == [
            TraceEventKind.SLO_VIOLATED,
            TraceEventKind.SLO_RECOVERED,
        ]
        check_health_consistency(
            report, sim.metrics.totals(), baseline=monitor.baseline
        )

    def test_replaying_script_is_deterministic(self):
        reports = []
        for _ in range(2):
            sim = self.FakeSimulator()
            monitor = HealthMonitor([SLORule("r", "backlog", "<=", 3.0)])
            monitor.attach(sim)
            for i in range(6):
                self.advance(sim, 5, 3)
                monitor.observe_window((i + 1) * 10.0)
            reports.append(monitor.report())
        assert bitwise_equal(reports[0], reports[1])

    def test_ncl_load_cv_balanced_is_zero(self):
        sim = self.FakeSimulator()
        monitor = HealthMonitor()
        monitor.attach(sim)
        self.advance(sim, 4, 2)
        snap = monitor.observe_window(10.0)
        assert snap.ncl_load_cv == 0.0  # loads {1: 4, 2: 4} are balanced

    def test_observe_before_attach_rejected(self):
        with pytest.raises(RuntimeError):
            HealthMonitor().observe_window(1.0)

    def test_anomaly_events_emitted_through_recorder(self):
        sim = self.FakeSimulator()
        recorder = MemoryRecorder()
        monitor = HealthMonitor(recorder=recorder, detector_warmup=3)
        monitor.attach(sim)
        # quiet backlog_delta stream, then a massive spike
        for i in range(12):
            self.advance(sim, 5, 5)
            monitor.observe_window((i + 1) * 10.0)
        self.advance(sim, 500, 0)
        monitor.observe_window(130.0)
        report = monitor.report()
        assert report.anomalies, "spike must trip a detector"
        assert any(a.signal == "backlog_delta" for a in report.anomalies)
        assert any(
            e.kind == TraceEventKind.HEALTH_ANOMALY for e in recorder.events
        )


class TestHealthLogAndRendering:
    def _report(self):
        snaps = (
            make_snapshot(index=0, start=0.0, end=10.0, flash_crowd=True),
            make_snapshot(
                index=1, start=10.0, end=20.0, success_ratio=float("nan")
            ),
        )
        transitions = (
            SLOTransition(10.0, "avail", "slo.violated", "success_ratio", 0.1, 0.5),
            SLOTransition(20.0, "avail", "slo.recovered", "success_ratio", 0.9, 0.5),
        )
        anomalies = (HealthAnomaly(20.0, "backlog_delta", "cusum", 9.0, 5.5),)
        return HealthReport(snaps, transitions, anomalies, (2.0, 8.0))

    def test_jsonl_round_trip_bitwise(self, tmp_path):
        report = self._report()
        path = tmp_path / "health.jsonl"
        write_jsonl(report.to_records(), path)
        assert bitwise_equal(HealthReport.from_records(read_jsonl(path)), report)

    def test_log_is_strict_json_and_non_finite_values_read_back(self, tmp_path):
        """NaN fields travel as null and a zero-variance EWMA score as
        "Infinity" / "-Infinity": every line parses strictly, and both
        read back as the values written."""
        report = self._report()._replace(
            anomalies=(
                HealthAnomaly(20.0, "backlog_delta", "ewma", 9.0, math.inf),
                HealthAnomaly(20.0, "cache_hit_ratio", "ewma", 0.0, -math.inf),
            )
        )
        path = tmp_path / "health.jsonl"
        write_jsonl(report.to_records(), path)

        def refuse(constant):
            raise ValueError(f"bare {constant} is not JSON")

        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=refuse)
        back = HealthReport.from_records(read_jsonl(path))
        assert math.isnan(back.snapshots[1].success_ratio)
        assert [a.score for a in back.anomalies] == [math.inf, -math.inf]
        assert bitwise_equal(back, report)

    def test_log_records_are_time_ordered(self, tmp_path):
        path = tmp_path / "health.jsonl"
        write_jsonl(self._report().to_records(), path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "health.meta"
        times = [record["t"] for record in lines[1:] if "t" in record]
        assert times == sorted(times)

    def test_render_table_marks_edges(self):
        text = render_health_table(self._report())
        assert "!avail" in text
        assert "+avail" in text
        assert "~backlog_delta[cusum]" in text
        assert "flash crowd [2, 8)" in text
        assert "2 windows" in text

    def test_render_table_limit(self):
        text = render_health_table(self._report(), limit=1)
        lines = [l for l in text.splitlines() if l and l[0] in "0123456789 "]
        # only the last window row survives the limit
        assert "   0 " not in text.splitlines()[2]

    def test_prometheus_exposition(self):
        engine = SLOEngine([SLORule("avail", "success_ratio", ">=", 0.5)])
        engine.evaluate(make_snapshot(success_ratio=0.1))
        text = render_prometheus(self._report(), engine)
        assert "# TYPE repro_health_success_ratio gauge" in text
        assert "repro_health_success_ratio NaN" in text  # last window had NaN
        assert "repro_health_windows_total 2" in text
        assert 'repro_slo_violated{rule="avail"} 1' in text
        assert text.endswith("\n")

    def test_prometheus_empty_report(self):
        empty = HealthReport((), (), (), None)
        text = render_prometheus(empty)
        assert "repro_health_windows_total 0" in text
        assert "repro_health_rss_bytes" not in text

    def test_render_table_shows_rss_column_only_with_memory(self):
        report = self._report()
        assert "rss_mb" not in render_health_table(report)
        last = dataclasses.replace(report.snapshots[-1], rss_mb=70.25)
        text = render_health_table(report._replace(snapshots=(report.snapshots[0], last)))
        assert "rss_mb" in text and "70.2" in text
