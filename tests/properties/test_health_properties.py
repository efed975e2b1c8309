"""Property tests for the windowed-delta health contracts.

**Delta consistency** backs the live health monitor's design: chopping
a stream of collector events into arbitrary windows and summing each
window's :meth:`CollectorTotals.delta` must reproduce the final totals
bit-exactly, whatever the window boundaries (the foundation of
:func:`repro.obs.health.check_health_consistency`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data import Query
from repro.metrics.collector import CollectorTotals, MetricsCollector
from repro.obs.health import HealthMonitor, check_health_consistency
from repro.obs.slo import SLORule
from repro.obs.timeseries import TelemetryRow

# One collector event: (kind, payload) applied in stream order.
_EVENTS = st.lists(
    st.sampled_from(["query", "deliver", "lookup_hit", "lookup_miss", "data"]),
    min_size=0,
    max_size=60,
)


def _apply_events(collector, kinds):
    """Drive the collector with a deterministic event stream; yields the
    collector after every event so callers can snapshot anywhere."""
    qid = 0
    open_queries = []
    for kind in kinds:
        if kind == "query":
            query = Query(
                query_id=qid, requester=0, data_id=qid, created_at=float(qid),
                time_constraint=1e9,
            )
            collector.on_query_created(query)
            open_queries.append(query)
            qid += 1
        elif kind == "deliver" and open_queries:
            query = open_queries.pop(0)
            collector.on_query_satisfied(query, query.created_at + 1.0)
        elif kind == "lookup_hit":
            collector.on_cache_lookup(True)
        elif kind == "lookup_miss":
            collector.on_cache_lookup(False)
        elif kind == "data":
            collector._data_generated += 1  # cheap stand-in for on_data_generated
        yield collector


@given(kinds=_EVENTS, cuts=st.sets(st.integers(min_value=0, max_value=60)))
@settings(max_examples=200, deadline=None)
def test_window_deltas_sum_to_totals(kinds, cuts):
    """Sum of per-window CollectorTotals deltas == final totals, for any
    choice of window boundaries over any event stream."""
    collector = MetricsCollector()
    views = [collector.totals()]
    for i, state in enumerate(_apply_events(collector, kinds)):
        if i in cuts:
            views.append(state.totals())
    views.append(collector.totals())
    deltas = [later.delta(earlier) for earlier, later in zip(views, views[1:])]
    summed = CollectorTotals(
        *(sum(delta[i] for delta in deltas) for i in range(len(CollectorTotals._fields)))
    )
    assert summed == collector.totals().delta(views[0])


@given(kinds=_EVENTS)
@settings(max_examples=100, deadline=None)
def test_totals_are_monotone_per_field(kinds):
    """Every CollectorTotals counter is non-decreasing in stream order."""
    collector = MetricsCollector()
    previous = collector.totals()
    for state in _apply_events(collector, kinds):
        current = state.totals()
        assert all(a >= b for a, b in zip(current, previous))
        previous = current


@given(
    windows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),   # issued
            st.integers(min_value=0, max_value=30),   # satisfied (capped below)
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_monitor_snapshots_delta_consistent_for_any_schedule(windows):
    """HealthMonitor over a scripted metrics source: whatever the
    per-window activity, check_health_consistency accepts the stream
    and snapshot deltas reproduce the totals."""

    class FakeMetrics:
        def __init__(self):
            self.totals_value = CollectorTotals(0, 0, 0, 0, 0, 0, 0, 0)
            self.open = 0

    class FakeSimulator:
        warmup_end = 0.0

        def __init__(self):
            self.metrics = FakeMetrics()
            self.workload_process = type("WP", (), {"arrivals": None})()

        def telemetry_row(self, now):
            return TelemetryRow(
                now,
                *self.metrics.totals_value,
                live_items=0,
                cached_copies=0,
                pending_queries=self.metrics.open,
            )

    sim = FakeSimulator()
    monitor = HealthMonitor([SLORule("r", "backlog", "<=", 1e9)])
    monitor.attach(sim)
    for i, (issued, satisfied) in enumerate(windows):
        satisfied = min(satisfied, issued + sim.metrics.open)
        t = sim.metrics.totals_value
        sim.metrics.totals_value = CollectorTotals(
            t.queries_issued + issued,
            t.queries_satisfied + satisfied,
            t.duplicate_deliveries,
            t.late_deliveries,
            t.cache_lookups + issued,
            t.cache_hits + satisfied,
            t.data_generated + 1,
            t.responses_delivered + satisfied,
        )
        sim.metrics.open += issued - satisfied
        monitor.observe_window((i + 1) * 10.0)
    report = monitor.report()
    totals = sim.metrics.totals_value
    check_health_consistency(report, totals, baseline=monitor.baseline)
    assert sum(s.queries_issued for s in report.snapshots) == totals.queries_issued
