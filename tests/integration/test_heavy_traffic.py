"""Heavy-traffic acceptance: bounded collector memory at scale.

The collector's memory contract: a run holds O(open) per-query state
no matter how many queries pass through.
The ungated tests prove it at ~10⁵ queries (fast enough for tier-1);
``REPRO_BIG_TESTS=1`` unlocks the full 10⁶-query acceptance runs, both
as a raw collector feed and as an end-to-end bursty serve session.
"""

import os

import pytest

from repro.caching.nocache import NoCache
from repro.core.data import Query
from repro.experiments.serve import ServeSession
from repro.metrics.collector import MetricsCollector
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig

BIG = os.environ.get("REPRO_BIG_TESTS") == "1"
big_only = pytest.mark.skipif(
    not BIG, reason="set REPRO_BIG_TESTS=1 for the 10^6-query acceptance runs"
)

#: per-query state allowance: the open window is one constraint wide, so
#: state must track the wave width (here ≤ 2 waves), never the history.
WAVE = 1_000


def drive_streaming_collector(num_queries: int) -> MetricsCollector:
    """Feed *num_queries* in overlapping waves; assert bounded state
    throughout (not only at the end — growth must never happen)."""
    collector = MetricsCollector()
    constraint = float(WAVE)  # each wave's queries expire as the next ends
    for index in range(num_queries):
        t = float(index)
        query = Query(
            query_id=index,
            requester=0,
            data_id=index,
            created_at=t,
            time_constraint=constraint,
        )
        collector.on_query_created(query)
        if index % 3 == 0:
            collector.record_delivery(query, t + 1.0)        # first
        if index % 9 == 0:
            collector.record_delivery(query, t + 2.0)        # duplicate
        if index % WAVE == 0:
            collector.pending_queries(t)
            assert collector.open_queries <= 2 * WAVE
            assert len(collector._satisfied) <= 2 * WAVE
    assert collector.queries_issued == num_queries
    return collector


def test_streaming_collector_bounded_at_100k():
    collector = drive_streaming_collector(100_000)
    result = collector.finalize("heavy", seed=0)
    assert result.queries_satisfied == pytest.approx(100_000 / 3, rel=0.01)
    assert result.mean_access_delay == 1.0


@big_only
def test_streaming_collector_bounded_at_1m():
    """Acceptance: 10⁶ queries, O(1) per-query state in the collector."""
    collector = drive_streaming_collector(1_000_000)
    assert collector.open_queries <= 2 * WAVE
    assert len(collector._satisfied) <= 2 * WAVE


def _bursty_session(num_nodes=24, seed=3):
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(
            name="heavy-bursty",
            num_nodes=num_nodes,
            duration=6 * DAY,
            total_contacts=4000,
            granularity=60.0,
            seed=seed,
        )
    )
    workload = WorkloadConfig(
        mean_data_lifetime=6 * HOUR,
        mean_data_size=20 * MEGABIT,
        arrival_process="bursty",
        arrival_params={"base": 0.5, "burst": 3.0},
    )
    return ServeSession(trace, NoCache(), workload)


def _assert_session_bounded(session, num_nodes):
    metrics = session.simulator.metrics
    # Open queries span at most the constraint window: one query round,
    # every node bursting — far below the cumulative issue count.
    assert metrics.open_queries <= 10 * num_nodes
    assert len(metrics._satisfied) <= 10 * num_nodes


def test_serve_session_bursty_bounded_memory():
    """Moderate ungated end-to-end check of the same contract."""
    session = _bursty_session()
    issued = 0
    for _ in range(8):
        batch = session.run_batch(rounds=20)
        issued += batch.queries_issued
        _assert_session_bounded(session, 24)
    assert issued > 2_000
    result = session.finalize()
    assert result.queries_issued == issued


@big_only
def test_serve_session_bursty_1m_queries():
    """Acceptance: a 10⁶-query bursty serve run completes with the
    collector holding a bounded open set (no per-query dict growth)."""
    session = _bursty_session(num_nodes=48, seed=9)
    issued = 0
    while issued < 1_000_000:
        batch = session.run_batch(rounds=500)
        issued += batch.queries_issued
        _assert_session_bounded(session, 48)
    result = session.finalize()
    assert result.queries_issued == issued
    assert result.queries_issued >= 1_000_000
