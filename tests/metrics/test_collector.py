"""Unit tests for metric collection."""

import math

import pytest

from repro.errors import SimulationError
from repro.metrics.collector import MetricsCollector
from tests.conftest import make_item, make_query


class TestQueryMetrics:
    def test_first_delivery_counts(self):
        collector = MetricsCollector()
        query = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        collector.on_query_created(query)
        assert collector.on_query_satisfied(query, now=30.0)
        assert not collector.on_query_satisfied(query, now=40.0)  # duplicate
        assert collector.queries_satisfied == 1

    def test_late_delivery_does_not_count(self):
        collector = MetricsCollector()
        query = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        collector.on_query_created(query)
        assert not collector.on_query_satisfied(query, now=150.0)
        assert collector.queries_satisfied == 0

    def test_unknown_query_raises(self):
        collector = MetricsCollector()
        query = make_query(query_id=1)
        with pytest.raises(SimulationError, match="query 1"):
            collector.on_query_satisfied(query, now=1.0)

    def test_is_satisfied(self):
        collector = MetricsCollector()
        query = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        collector.on_query_created(query)
        assert not collector.is_satisfied(1)
        collector.on_query_satisfied(query, now=5.0)
        assert collector.is_satisfied(1)


class TestDuplicateDeliveries:
    def test_duplicate_responses_count_one_distinct_query(self):
        """Regression: the successful ratio counts distinct satisfied
        query ids, never delivery events.  Two NCLs answering the same
        query (the common multi-copy case) must not double-count."""
        collector = MetricsCollector()
        query = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        collector.on_query_created(query)
        collector.on_query_satisfied(query, now=10.0)
        collector.on_query_satisfied(query, now=20.0)  # second NCL's copy
        collector.on_query_satisfied(query, now=30.0)  # and a third
        result = collector.finalize("test", seed=0)
        assert result.queries_satisfied == 1
        assert result.successful_ratio == 1.0
        assert result.mean_access_delay == pytest.approx(10.0)  # first only
        assert collector.duplicate_deliveries == 2

    def test_duplicate_counter_ignores_late_arrivals(self):
        # A copy past the constraint is a miss, not a duplicate delivery.
        collector = MetricsCollector()
        query = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        collector.on_query_created(query)
        collector.on_query_satisfied(query, now=150.0)
        assert collector.duplicate_deliveries == 0

    def test_responses_delivered_property(self):
        collector = MetricsCollector()
        collector.on_response_delivered()
        collector.on_response_delivered()
        assert collector.responses_delivered == 2


class TestLateDeliveries:
    def test_late_delivery_is_counted_explicitly(self):
        collector = MetricsCollector()
        query = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        collector.on_query_created(query)
        assert collector.record_delivery(query, now=150.0) == "late"
        assert collector.late_deliveries == 1
        assert collector.queries_satisfied == 0
        result = collector.finalize("test", seed=0)
        assert result.late_deliveries == 1
        assert result.duplicate_deliveries == 0

    def test_boundary_delivery_is_in_constraint(self):
        collector = MetricsCollector()
        query = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        collector.on_query_created(query)
        assert collector.record_delivery(query, now=100.0) == "first"
        assert collector.late_deliveries == 0

    def test_classification_precedence(self):
        # late beats duplicate: a second copy after expiry is late even
        # though the query was already satisfied.
        collector = MetricsCollector()
        query = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        collector.on_query_created(query)
        assert collector.record_delivery(query, now=50.0) == "first"
        assert collector.record_delivery(query, now=150.0) == "late"
        unknown = make_query(query_id=2, created_at=0.0, time_constraint=100.0)
        with pytest.raises(SimulationError, match="query 2"):
            collector.record_delivery(unknown, now=50.0)


class TestPendingQueries:
    def _issue(self, collector, query_id, created_at, constraint=100.0):
        query = make_query(
            query_id=query_id, created_at=created_at, time_constraint=constraint
        )
        collector.on_query_created(query)
        return query

    @pytest.mark.parametrize("via_record_delivery", [False, True])
    def test_open_set_retires_on_expiry_and_delivery(self, via_record_delivery):
        # Both delivery entry points must retire the query: the simulator
        # calls record_delivery, callers that only need the verdict call
        # on_query_satisfied.
        collector = MetricsCollector()
        early = self._issue(collector, 1, created_at=0.0)
        kept = self._issue(collector, 2, created_at=50.0)
        self._issue(collector, 3, created_at=50.0)
        assert collector.pending_queries(60.0) == 3
        if via_record_delivery:
            assert collector.record_delivery(kept, now=70.0) == "first"
        else:
            assert collector.on_query_satisfied(kept, now=70.0)
        assert collector.pending_queries(80.0) == 2
        # early expires at 100; strictly-after retires it
        assert collector.pending_queries(100.0) == 2
        assert collector.pending_queries(101.0) == 1
        assert collector.pending_queries(200.0) == 0
        assert early.expires_at == 100.0

    def test_streaming_mode_requires_monotone_times(self):
        collector = MetricsCollector()
        self._issue(collector, 1, created_at=0.0)
        collector.pending_queries(600.0)
        with pytest.raises(ValueError):
            collector.pending_queries(50.0)


class TestStreamingMode:
    def test_memory_is_bounded_by_open_not_issued(self):
        """10k sequential queries, each expiring before the next wave:
        per-query state must track the open window, never the history."""
        collector = MetricsCollector()
        for index in range(10_000):
            t = float(index)
            query = make_query(query_id=index, created_at=t, time_constraint=5.0)
            collector.on_query_created(query)
            if index % 2 == 0:
                collector.on_query_satisfied(query, now=t + 1.0)
            collector.pending_queries(t)
        assert collector.queries_issued == 10_000
        assert collector.open_queries <= 8          # ~constraint-width window
        assert len(collector._satisfied) <= 8

    def test_quantiles_observe_delays(self):
        collector = MetricsCollector()
        for index in range(6):
            query = make_query(query_id=index, created_at=0.0, time_constraint=100.0)
            collector.on_query_created(query)
            collector.on_query_satisfied(query, now=10.0 + index)
        assert 10.0 <= collector.delay_p50 <= 15.0


class TestFinalize:
    def test_ratio_and_delay(self):
        collector = MetricsCollector()
        fast = make_query(query_id=1, created_at=0.0, time_constraint=100.0)
        slow = make_query(query_id=2, created_at=0.0, time_constraint=100.0)
        missed = make_query(query_id=3, created_at=0.0, time_constraint=100.0)
        for q in (fast, slow, missed):
            collector.on_query_created(q)
        collector.on_query_satisfied(fast, now=10.0)
        collector.on_query_satisfied(slow, now=50.0)
        result = collector.finalize("test", seed=0)
        assert result.queries_issued == 3
        assert result.successful_ratio == pytest.approx(2 / 3)
        assert result.mean_access_delay == pytest.approx(30.0)

    def test_no_queries(self):
        result = MetricsCollector().finalize("idle", seed=0)
        assert result.successful_ratio == 0.0
        assert math.isnan(result.mean_access_delay)

    def test_caching_overhead_average(self):
        collector = MetricsCollector()
        collector.sample_copies_per_item(10, 5)
        collector.sample_copies_per_item(20, 5)
        collector.sample_copies_per_item(0, 0)  # ignored: nothing live
        result = collector.finalize("test", seed=0)
        assert result.caching_overhead == pytest.approx(3.0)

    def test_replacement_overhead(self):
        collector = MetricsCollector()
        for _ in range(4):
            collector.on_data_generated(make_item())
        collector.on_exchange(moved_items=6, bits=600)
        result = collector.finalize("test", seed=0)
        assert result.replacement_overhead == pytest.approx(1.5)
        assert result.exchanges == 1
        assert result.bits_transferred == 600

    def test_response_counters(self):
        collector = MetricsCollector()
        collector.on_response_emitted()
        collector.on_response_emitted()
        collector.on_response_delivered()
        result = collector.finalize("test", seed=0)
        assert result.responses_emitted == 2
        assert result.responses_delivered == 1
