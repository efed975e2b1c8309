"""Property tests: the bounded collector against the exact arithmetic.

Two layers:

* **Event-stream level** — random delivery schedules, replayed in time
  order, fed to the collector and to an in-test oracle that keeps every
  query and its first in-time delivery: the counters must match and
  the mean delay must equal the oracle's ``sum(list) / len(list)``
  bit for bit (the running ``_delay_sum`` adds in delivery order).
  Per-query state must drain once every query has expired.
* **Whole-simulation level** — no simulated delivery arrives past its
  query's constraint, so ``late_deliveries`` is 0 in every run.  That
  is why classifying late before duplicate moves no simulated number.
"""

import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.caching import IntentionalCaching, IntentionalConfig, NoCache
from repro.core.data import Query
from repro.metrics.collector import MetricsCollector
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig


#: one schedule entry: (query index, issue time, constraint, delivery offsets)
query_schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),   # created_at
        st.floats(min_value=1.0, max_value=500.0),    # time_constraint
        st.lists(                                     # delivery delays
            st.floats(min_value=0.0, max_value=800.0),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(schedule=query_schedules)
def test_collectors_agree_on_any_delivery_schedule(schedule):
    collector = MetricsCollector()

    # Replay in global time order, as a simulation would.
    queries = []
    events = []
    for index, (created_at, constraint, delays) in enumerate(schedule):
        query = Query(
            query_id=index,
            requester=0,
            data_id=index,
            created_at=created_at,
            time_constraint=constraint,
        )
        queries.append(query)
        events.append((created_at, 0, "create", query))
        for delay in delays:
            events.append((created_at + delay, 1, "deliver", query))
    events.sort(key=lambda e: (e[0], e[1], e[3].query_id))

    # Oracle: every query and its first in-time delivery, kept in full.
    satisfied_at = {}
    late = duplicates = 0
    for now, _, kind, query in events:
        if kind == "create":
            collector.on_query_created(query)
            continue
        collector.record_delivery(query, now)
        if now > query.expires_at:
            late += 1
        elif query.query_id in satisfied_at:
            duplicates += 1
        else:
            satisfied_at[query.query_id] = now
    delays = [satisfied_at[qid] - queries[qid].created_at for qid in satisfied_at]

    assert collector.queries_issued == len(queries)
    assert collector.queries_satisfied == len(satisfied_at)
    assert collector.late_deliveries == late
    assert collector.duplicate_deliveries == duplicates

    result = collector.finalize("prop", seed=0)
    assert result.successful_ratio == len(satisfied_at) / len(queries)
    # Bitwise: both sides add the same delays in the same (delivery) order.
    if delays:
        assert result.mean_access_delay == sum(delays) / len(delays)
    else:
        assert math.isnan(result.mean_access_delay)


@settings(max_examples=60, deadline=None)
@given(schedule=query_schedules)
def test_streaming_state_stays_bounded(schedule):
    """After every query expires, the open set must be empty and the
    satisfied set prunable — no per-query state outlives its query
    (the bounded-memory contract, in miniature)."""
    streaming = MetricsCollector()
    horizon = 0.0
    for index, (created_at, constraint, delays) in enumerate(schedule):
        query = Query(
            query_id=index,
            requester=0,
            data_id=index,
            created_at=created_at,
            time_constraint=constraint,
        )
        streaming.on_query_created(query)
        for delay in sorted(delays):
            streaming.record_delivery(query, created_at + delay)
        horizon = max(horizon, query.expires_at)
    assert streaming.pending_queries(horizon + 1.0) == 0
    assert streaming.open_queries == 0
    streaming._retire_satisfied(horizon + 1.0)
    assert len(streaming._satisfied) == 0


@settings(max_examples=6, deadline=None)
@given(
    num_nodes=st.integers(min_value=6, max_value=14),
    contacts=st.integers(min_value=300, max_value=1500),
    lifetime_hours=st.floats(min_value=4.0, max_value=20.0),
    use_ncl=st.booleans(),
    seed=st.integers(min_value=0, max_value=30),
)
def test_simulation_never_delivers_late(
    num_nodes, contacts, lifetime_hours, use_ncl, seed
):
    """``try_respond`` refuses an expired query and ``process_responses``
    drops an expired bundle, so every delivery lands before expiry."""
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(
            name="prop-streaming",
            num_nodes=num_nodes,
            duration=3 * DAY,
            total_contacts=contacts,
            granularity=60.0,
            seed=seed,
        )
    )
    workload = WorkloadConfig(
        mean_data_lifetime=lifetime_hours * HOUR, mean_data_size=20 * MEGABIT
    )
    if use_ncl:
        scheme = IntentionalCaching(
            IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)
        )
    else:
        scheme = NoCache()
    result = Simulator(trace, scheme, workload, SimulatorConfig(seed=seed)).run()
    assert result.late_deliveries == 0
