"""Unit tests for the trace-derived metrics and the per-query audit.

Both are projections of the one replay: ``build_causality(events)``
then ``.metrics()`` or ``render_audit_report(index)``.  Satisfaction is
read from the delivery chains, so every satisfied query in these
streams carries the ``response_delivered`` event that satisfied it.
"""

import math

from repro.obs import (
    TraceEvent,
    TraceEventKind,
    build_causality,
    render_audit_report,
)


def _ev(time, kind, node=None, data_id=None, query_id=None, **attrs):
    return TraceEvent(
        time=time, kind=kind, node=node, data_id=data_id, query_id=query_id, attrs=attrs
    )


def _metrics(events):
    return build_causality(events).metrics()


def _report(events, **kwargs):
    return render_audit_report(build_causality(events), **kwargs)


class TestDeriveMetrics:
    def test_empty_trace(self):
        derived = _metrics([])
        assert derived.queries_issued == 0
        assert derived.successful_ratio == 0.0
        assert math.isnan(derived.mean_access_delay)
        assert derived.caching_overhead == 0.0

    def test_counts_distinct_query_ids_not_delivery_events(self):
        """Two NCLs answering the same query add two delivery events but
        at most one satisfied query."""
        events = [
            _ev(0.0, TraceEventKind.QUERY_CREATED, node=1, query_id=7, time_constraint=100.0),
            _ev(10.0, TraceEventKind.RESPONSE_DELIVERED, node=1, query_id=7),
            _ev(10.0, TraceEventKind.QUERY_SATISFIED, node=1, query_id=7, created_at=0.0),
            # the second NCL's copy arrives later
            _ev(20.0, TraceEventKind.RESPONSE_DELIVERED, node=1, query_id=7),
            _ev(20.0, TraceEventKind.DELIVERY_DUPLICATE, node=1, query_id=7),
        ]
        derived = _metrics(events)
        assert derived.queries_issued == 1
        assert derived.queries_satisfied == 1
        assert derived.delivery_events == 2
        assert derived.duplicate_deliveries == 1
        assert derived.successful_ratio == 1.0
        assert derived.mean_access_delay == 10.0  # first delivery only

    def test_delay_uses_created_at_attr(self):
        events = [
            _ev(5.0, TraceEventKind.QUERY_CREATED, query_id=1, time_constraint=100.0),
            _ev(5.0, TraceEventKind.QUERY_CREATED, query_id=2, time_constraint=100.0),
            _ev(15.0, TraceEventKind.RESPONSE_DELIVERED, query_id=1),
            _ev(15.0, TraceEventKind.QUERY_SATISFIED, query_id=1, created_at=5.0),
            _ev(45.0, TraceEventKind.RESPONSE_DELIVERED, query_id=2),
            _ev(45.0, TraceEventKind.QUERY_SATISFIED, query_id=2, created_at=5.0),
        ]
        derived = _metrics(events)
        assert derived.mean_access_delay == 25.0
        assert derived.successful_ratio == 1.0

    def test_overhead_skips_samples_with_no_live_items(self):
        events = [
            _ev(0.0, TraceEventKind.SAMPLE, cached_copies=10, live_items=5),
            _ev(1.0, TraceEventKind.SAMPLE, cached_copies=0, live_items=0),
            _ev(2.0, TraceEventKind.SAMPLE, cached_copies=20, live_items=5),
        ]
        assert _metrics(events).caching_overhead == 3.0

    def test_data_and_response_counters(self):
        events = [
            _ev(0.0, TraceEventKind.DATA_GENERATED, node=0, data_id=1),
            _ev(0.0, TraceEventKind.DATA_GENERATED, node=2, data_id=2),
            _ev(1.0, TraceEventKind.RESPONSE_EMITTED, node=3, query_id=1),
            _ev(2.0, TraceEventKind.DELIVERY_LATE, node=0, query_id=1),
        ]
        derived = _metrics(events)
        assert derived.data_generated == 2
        assert derived.responses_emitted == 1
        assert derived.late_deliveries == 1


class TestAuditQueries:
    def _lifecycle(self):
        return [
            _ev(0.0, TraceEventKind.QUERY_CREATED, node=1, data_id=9, query_id=7,
                time_constraint=50.0),
            _ev(1.0, TraceEventKind.QUERY_OBSERVED, node=2, query_id=7),
            _ev(1.0, TraceEventKind.QUERY_OBSERVED, node=3, query_id=7),
            _ev(2.0, TraceEventKind.RESPONSE_DECIDED, node=2, query_id=7,
                respond=True, probability=0.6, strategy="sigmoid"),
            _ev(2.0, TraceEventKind.RESPONSE_EMITTED, node=2, query_id=7),
            _ev(3.0, TraceEventKind.RESPONSE_FORWARDED, node=4, query_id=7),
            _ev(5.0, TraceEventKind.RESPONSE_DELIVERED, node=1, query_id=7),
            _ev(5.0, TraceEventKind.QUERY_SATISFIED, node=1, query_id=7, created_at=0.0),
        ]

    def test_full_lifecycle_audit(self):
        causality = build_causality(self._lifecycle())
        query = causality.queries[7]
        assert query.requester == 1
        assert query.data_id == 9
        assert query.created_at == 0.0
        assert query.expires_at == 50.0
        assert [node for _, node in query.observed] == [2, 3]
        assert len(query.decisions) == 1
        assert query.deliveries == 1
        assert query.satisfied_at == 5.0
        assert query.delay == 5.0
        assert query.outcome(trace_end=5.0) == "satisfied"
        assert render_audit_report(causality).splitlines()[-1] == (
            "query 7 [satisfied] data=9 requester=1 observed_by=2 decisions=1 "
            "emitted=1 forwards=1 deliveries=1 delay=5.0s"
        )

    def test_outcomes(self):
        events = [
            _ev(0.0, TraceEventKind.QUERY_CREATED, node=1, query_id=1, time_constraint=10.0),
            _ev(0.0, TraceEventKind.QUERY_CREATED, node=2, query_id=2, time_constraint=999.0),
        ]
        queries = build_causality(events).queries
        assert queries[1].outcome(trace_end=100.0) == "expired"
        assert queries[2].outcome(trace_end=100.0) == "pending"

    def test_events_without_query_id_are_skipped(self):
        events = [_ev(0.0, TraceEventKind.DATA_GENERATED, node=0, data_id=1)]
        assert build_causality(events).queries == {}


class TestRenderAuditReport:
    def _events(self):
        return [
            _ev(0.0, TraceEventKind.QUERY_CREATED, node=1, data_id=9, query_id=1,
                time_constraint=50.0),
            _ev(5.0, TraceEventKind.RESPONSE_DELIVERED, node=1, query_id=1),
            _ev(5.0, TraceEventKind.QUERY_SATISFIED, node=1, query_id=1, created_at=0.0),
            _ev(0.0, TraceEventKind.QUERY_CREATED, node=2, data_id=9, query_id=2,
                time_constraint=3.0),
            _ev(0.0, TraceEventKind.QUERY_CREATED, node=3, data_id=9, query_id=3,
                time_constraint=3.0),
        ]

    def test_report_headline_and_queries(self):
        report = _report(self._events())
        assert "3 queries" in report
        assert "query 1 [satisfied]" in report
        assert "query 2 [expired]" in report

    def test_only_filters_outcomes(self):
        report = _report(self._events(), only="satisfied")
        assert "query 1 [satisfied]" in report
        assert "query 2" not in report

    def test_limit_counts_only_matching_queries(self):
        report = _report(self._events(), limit=1, only="expired")
        assert "query 2 [expired]" in report
        assert "(1 more queries)" in report  # query 3, not the satisfied one


class TestTruncatedTraces:
    """A trace cut off mid-run (crash, disk-full, partial download) must
    still derive and render without arithmetic errors."""

    def test_empty_trace_renders(self):
        report = _report([])
        assert "0 events" in report
        assert "ratio=0.0000" in report
        assert "delay=n/a" in report

    def test_satisfied_without_created(self):
        # The QUERY_CREATED event fell before the truncation point: the
        # delivery chain still satisfies, and the delay falls back to
        # zero (no creation time was seen when the copy arrived).
        events = [
            _ev(9.0, TraceEventKind.RESPONSE_DELIVERED, node=1, query_id=4),
            _ev(9.0, TraceEventKind.QUERY_SATISFIED, node=1, query_id=4),
        ]
        derived = _metrics(events)
        assert derived.queries_issued == 0
        assert derived.queries_satisfied == 1
        assert derived.successful_ratio == 0.0  # no issued count to divide by
        assert derived.mean_access_delay == 0.0

    def test_audit_of_satisfied_without_created_has_no_delay(self):
        events = [
            _ev(9.0, TraceEventKind.RESPONSE_DELIVERED, node=1, query_id=4),
            _ev(9.0, TraceEventKind.QUERY_SATISFIED, node=1, query_id=4),
        ]
        query = build_causality(events).queries[4]
        assert query.satisfied_at == 9.0
        assert query.created_at is None
        assert query.delay is None
        assert query.outcome(trace_end=100.0) == "satisfied"
        report = _report(events)
        assert "query 4 [satisfied]" in report
        assert "delay=" not in report.splitlines()[-1]

    def test_created_without_resolution_stays_pending(self):
        events = [
            _ev(0.0, TraceEventKind.QUERY_CREATED, node=1, data_id=2, query_id=1,
                time_constraint=500.0),
            _ev(1.0, TraceEventKind.QUERY_OBSERVED, node=3, query_id=1),
        ]
        derived = _metrics(events)
        assert derived.queries_issued == 1
        assert derived.queries_satisfied == 0
        assert math.isnan(derived.mean_access_delay)
        report = _report(events)
        assert "query 1 [pending]" in report

    def test_orphan_response_events_only(self):
        events = [
            _ev(3.0, TraceEventKind.RESPONSE_FORWARDED, node=5, query_id=7),
            _ev(4.0, TraceEventKind.RESPONSE_DELIVERED, node=1, query_id=7),
        ]
        causality = build_causality(events)
        derived = causality.metrics()
        assert derived.delivery_events == 1
        # Satisfaction is read from the chains: with no query_created the
        # constraint is unknown, so the delivered copy satisfies a query
        # this trace never issued, and the missing query_satisfied is
        # reported as a mismatch rather than trusted.
        assert derived.queries_issued == 0
        assert derived.queries_satisfied == 1
        assert causality.mismatches() == [
            "query 7: query_satisfied at None, "
            "first in-constraint delivery chain at 4.0"
        ]
        report = render_audit_report(causality)
        assert "query 7 [satisfied]" in report
        assert "forwards=1 deliveries=1" in report
