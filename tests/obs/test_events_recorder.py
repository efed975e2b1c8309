"""Unit tests for trace events, recorders, and metric primitives."""

import json
import math

import pytest

from repro.obs import (
    NULL_RECORDER,
    Counter,
    Histogram,
    JsonlRecorder,
    MemoryRecorder,
    MetricsRegistry,
    NullRecorder,
    TraceEvent,
    TraceEventKind,
    read_events,
)
from repro.obs.recorder import ensure_events
from repro.obs.timeseries import float_from_json


class TestTraceEvent:
    def test_json_round_trip_is_lossless(self):
        event = TraceEvent(
            time=12.5,
            kind=TraceEventKind.QUERY_SATISFIED,
            node=3,
            data_id=7,
            query_id=11,
            attrs={"created_at": 1.25},
        )
        assert TraceEvent.from_json(event.to_json()) == event

    def test_json_round_trips_floats_exactly(self):
        # The bit-exact metric cross-check depends on this property.
        time = 1.0 / 3.0 + 1e-16
        event = TraceEvent(time=time, kind=TraceEventKind.SAMPLE)
        assert TraceEvent.from_json(event.to_json()).time == time

    def test_lines_are_strict_json(self):
        """A non-finite attr (an EWMA score off a zero-variance baseline)
        or time follows the JSONL rule, so strict parsers accept the line."""

        def reject(constant):
            raise ValueError(f"bare {constant} token")

        event = TraceEvent(
            time=1.0, kind=TraceEventKind.HEALTH_ANOMALY, attrs={"score": math.inf}
        )
        record = json.loads(event.to_json(), parse_constant=reject)
        assert float_from_json(record["attrs"]["score"]) == math.inf
        back = TraceEvent.from_json(event.to_json())
        assert float_from_json(back.attrs["score"]) == math.inf
        untimed = TraceEvent(time=math.nan, kind=TraceEventKind.ROUTE_DECISION)
        json.loads(untimed.to_json(), parse_constant=reject)
        assert math.isnan(TraceEvent.from_json(untimed.to_json()).time)

    def test_omits_absent_ids(self):
        record = json.loads(TraceEvent(time=0.0, kind=TraceEventKind.SAMPLE).to_json())
        assert set(record) == {"t", "kind"}

    def test_kind_is_a_string_enum(self):
        assert TraceEventKind.DATA_GENERATED.value == "data_generated"
        assert TraceEventKind("query_created") is TraceEventKind.QUERY_CREATED

    def test_events_are_immutable(self):
        event = TraceEvent(time=0.0, kind=TraceEventKind.SAMPLE)
        with pytest.raises(AttributeError):
            event.time = 1.0


class TestRecorders:
    def test_null_recorder_is_disabled_and_tolerant(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)
        NULL_RECORDER.emit(TraceEvent(time=0.0, kind=TraceEventKind.SAMPLE))
        NULL_RECORDER.close()

    def test_memory_recorder_collects_in_order(self):
        recorder = MemoryRecorder()
        assert recorder.enabled
        for t in (0.0, 1.0, 2.0):
            recorder.emit(TraceEvent(time=t, kind=TraceEventKind.SAMPLE))
        assert len(recorder) == 3
        assert [e.time for e in recorder.events] == [0.0, 1.0, 2.0]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "run.jsonl"
        events = [
            TraceEvent(time=0.5, kind=TraceEventKind.DATA_GENERATED, node=1, data_id=2),
            TraceEvent(time=1.5, kind=TraceEventKind.QUERY_CREATED, node=3, query_id=4,
                       attrs={"time_constraint": 100.0}),
        ]
        with JsonlRecorder(path) as recorder:
            for event in events:
                recorder.emit(event)
            assert recorder.emitted == 2
        assert read_events(path) == events

    def test_jsonl_recorder_opens_lazily(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonlRecorder(path).close()  # no emit — no file
        assert not path.exists()

    def test_ensure_events_accepts_path_or_iterable(self, tmp_path):
        events = [TraceEvent(time=0.0, kind=TraceEventKind.SAMPLE)]
        assert ensure_events(iter(events)) == events
        path = tmp_path / "run.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.emit(events[0])
        assert ensure_events(path) == events


class TestCounter:
    def test_increments(self):
        counter = Counter("pushes")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("pushes").inc(-1)


class TestHistogram:
    def test_exact_count_sum_min_max(self):
        hist = Histogram("delay")
        for value in (5.0, 50.0, 5000.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 5055.0
        assert hist.min == 5.0 and hist.max == 5000.0
        assert hist.mean == pytest.approx(1685.0)

    def test_quantiles_at_bucket_resolution(self):
        hist = Histogram("delay", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.quantile(0.25) == 1.0
        assert hist.quantile(0.5) == 10.0
        # Past the finite edges the observed max bounds the answer —
        # never the +inf overflow edge.
        assert hist.quantile(1.0) == 500.0

    def test_quantile_boundaries(self):
        hist = Histogram("delay", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        # q=0 is the observed minimum, not the first bucket edge.
        assert hist.quantile(0.0) == 0.5
        # Bucket edges below the observed min clamp up to it.
        solo = Histogram("delay", bounds=(1.0, 10.0))
        solo.observe(5.0)
        assert solo.quantile(0.0) == 5.0
        assert solo.quantile(0.5) == 5.0
        assert solo.quantile(1.0) == 5.0

    def test_quantile_empty_all_qs(self):
        hist = Histogram("delay")
        for q in (0.0, 0.5, 1.0):
            assert math.isnan(hist.quantile(q))

    def test_empty_histogram(self):
        hist = Histogram("delay")
        assert math.isnan(hist.mean)
        assert math.isnan(hist.quantile(0.5))

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 1.0))

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram("delay").quantile(1.5)


class TestMetricsRegistry:
    def test_get_or_create_semantics(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_reports_everything(self):
        registry = MetricsRegistry()
        registry.counter("pushes").inc(3)
        registry.histogram("delay").observe(42.0)
        snapshot = registry.snapshot()
        assert snapshot["pushes"] == 3
        assert snapshot["delay"]["count"] == 1.0


class TestMerge:
    def test_counter_merge_adds(self):
        a, b = Counter("pushes"), Counter("pushes")
        a.inc(2)
        b.inc(5)
        a.merge(b)
        assert a.value == 7

    def test_histogram_merge_folds_everything(self):
        a = Histogram("delay", bounds=(1.0, 10.0))
        b = Histogram("delay", bounds=(1.0, 10.0))
        for value in (0.5, 5.0):
            a.observe(value)
        for value in (50.0, 2.0):
            b.observe(value)
        a.merge(b)
        assert a.count == 4
        assert a.total == pytest.approx(57.5)
        assert a.min == 0.5 and a.max == 50.0
        assert a.bucket_counts == [1, 2, 1]

    def test_histogram_merge_rejects_different_bounds(self):
        a = Histogram("delay", bounds=(1.0, 10.0))
        b = Histogram("delay", bounds=(1.0, 100.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_registry_merge_matches_single_registry(self):
        # Two workers each observing half the events must merge to the
        # same snapshot as one registry seeing all of them.
        merged, reference = MetricsRegistry(), MetricsRegistry()
        workers = [MetricsRegistry(), MetricsRegistry()]
        for i, value in enumerate((5.0, 50.0, 5000.0, 12.0)):
            workers[i % 2].counter("events").inc()
            workers[i % 2].histogram("delay").observe(value)
            reference.counter("events").inc()
            reference.histogram("delay").observe(value)
        for worker in workers:
            merged.merge(worker)
        assert merged.snapshot() == reference.snapshot()
