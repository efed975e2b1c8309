"""Causal reconstruction: push trees, response DAGs, chain-read metrics.

Unit tests drive :func:`build_causality` on hand-built event streams
where the expected chains are obvious; the acceptance tests prove the
headline contract on real runs — every satisfied query maps to exactly
one delivered chain, the chain arithmetic reproduces the collector's
metrics bit for bit, and every ``query_satisfied`` event matches its
chain — including across the churn scenario, where chains crossing
``node.failed``/``node.left``/``cache.migrated`` must terminate cleanly
with a break reason instead of dangling.
"""

import dataclasses
import json
import math
import os

import pytest

from repro.caching import IntentionalCaching, IntentionalConfig
from repro.errors import SimulationError
from repro.obs import (
    MemoryRecorder,
    build_causality,
    delivery_in_constraint,
    read_events,
    render_push_timeline,
    render_query_timeline,
    summarize_causality,
)
from repro.obs.events import TraceEvent, TraceEventKind
from repro.sim.invariants import check_trace_consistency
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def _ev(time, kind, node=None, data_id=None, query_id=None, **attrs):
    return TraceEvent(
        time=time, kind=kind, node=node, data_id=data_id, query_id=query_id,
        attrs=attrs,
    )


def _query_stream():
    """One query, two response copies: a 2-hop delivered chain (seq 1)
    and a 1-hop duplicate delivered later (seq 2)."""
    K = TraceEventKind
    return [
        _ev(0.0, K.QUERY_CREATED, node=0, data_id=5, query_id=7,
            time_constraint=100.0),
        _ev(1.0, K.QUERY_OBSERVED, node=3, query_id=7),
        _ev(1.0, K.RESPONSE_DECIDED, node=3, query_id=7, respond=True,
            probability=0.8),
        _ev(1.0, K.RESPONSE_EMITTED, node=3, query_id=7, sequence=1),
        _ev(4.0, K.RESPONSE_FORWARDED, node=4, query_id=7, carrier=3,
            responder=3, sequence=1, action="handover"),
        _ev(9.0, K.RESPONSE_DELIVERED, node=0, query_id=7, carrier=4,
            responder=3, sequence=1),
        _ev(9.0, K.QUERY_SATISFIED, node=0, query_id=7, created_at=0.0),
        _ev(2.0, K.RESPONSE_EMITTED, node=6, query_id=7, sequence=2),
        _ev(12.0, K.RESPONSE_DELIVERED, node=0, query_id=7, carrier=6,
            responder=6, sequence=2),
    ]


class TestResponseReconstruction:
    def test_copies_hops_and_custody(self):
        causality = build_causality(_query_stream())
        query = causality.queries[7]
        assert query.requester == 0 and query.data_id == 5
        assert query.expires_at == 100.0
        assert len(query.copies) == 2

        first = next(c for c in query.copies if c.sequence == 1)
        assert first.responder == 3
        assert [h.node for h in first.hops] == [4]
        assert first.hops[0].carrier == 3
        # delivery is the final hop of the chain
        assert first.hop_count == 2
        assert first.hop_delays() == [3.0, 5.0]
        assert first.delivered_at == 9.0 and first.delivered_by == 4
        # custody drained as the copy moved: 3 handed over, 4 delivered
        assert first.custody == []

        second = next(c for c in query.copies if c.sequence == 2)
        assert second.hop_count == 1
        assert second.delivered_at == 12.0

    def test_first_inconstraint_delivery_wins(self):
        causality = build_causality(_query_stream())
        query = causality.queries[7]
        assert query.first_delivery == (9.0, query.copies.index(
            query.satisfying_copy
        ))
        assert query.satisfying_copy.sequence == 1
        assert query.delay == 9.0
        assert causality.satisfied_order == [(7, 9.0, 9.0)]
        assert causality.delivery_events == 2
        summary = summarize_causality(causality)
        assert summary["duplicate_deliveries"] == 1
        assert summary["max_copies_per_query"] == 2

    def test_out_of_constraint_delivery_does_not_satisfy(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=10.0),
            _ev(1.0, K.RESPONSE_EMITTED, node=2, query_id=1, sequence=1),
            _ev(50.0, K.RESPONSE_DELIVERED, node=0, query_id=1, carrier=2,
                responder=2, sequence=1),
        ]
        causality = build_causality(events)
        query = causality.queries[1]
        assert query.first_delivery is None
        assert query.copies[0].delivered_at == 50.0
        assert query.outcome(causality.trace_end) == "expired"
        assert not delivery_in_constraint(50.0, query.expires_at)

    def test_boundary_delivery_exactly_at_expiry_satisfies(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=10.0),
            _ev(1.0, K.RESPONSE_EMITTED, node=2, query_id=1, sequence=1),
            _ev(10.0, K.RESPONSE_DELIVERED, node=0, query_id=1, carrier=2,
                responder=2, sequence=1),
            _ev(10.0, K.QUERY_SATISFIED, node=0, query_id=1, created_at=0.0),
        ]
        causality = build_causality(events)
        assert causality.queries[1].first_delivery == (10.0, 0)
        assert causality.mismatches() == []

    def test_self_service_synthesizes_zero_hop_copy(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=4, data_id=1, query_id=3,
                time_constraint=50.0),
            _ev(0.0, K.RESPONSE_DECIDED, node=4, query_id=3, respond=True,
                probability=1.0),
            _ev(0.0, K.QUERY_SATISFIED, node=4, query_id=3, created_at=0.0),
        ]
        causality = build_causality(events)
        query = causality.queries[3]
        assert len(query.copies) == 1
        copy = query.copies[0]
        assert copy.self_service and copy.responder == 4
        assert copy.delivered_at == 0.0 and copy.hop_count == 0
        assert query.delay == 0.0
        # self-service is not a RESPONSE_EMITTED/DELIVERED event
        assert causality.responses_emitted == 0
        assert causality.delivery_events == 0
        assert causality.mismatches() == []
        assert summarize_causality(causality)["self_service_deliveries"] == 1

    def test_sequence_less_trace_degrades_to_custody_matching(self):
        """Legacy traces without ``sequence`` attrs: a single candidate
        matches exactly; several candidates flag the query ambiguous."""
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=100.0),
            _ev(1.0, K.RESPONSE_EMITTED, node=2, query_id=1),
            _ev(5.0, K.RESPONSE_DELIVERED, node=0, query_id=1, carrier=2,
                responder=2),
        ]
        causality = build_causality(events)
        query = causality.queries[1]
        assert len(query.copies) == 1 and not query.ambiguous
        assert query.copies[0].delivered_at == 5.0

        # two copies from the same responder: matching is ambiguous
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=100.0),
            _ev(1.0, K.RESPONSE_EMITTED, node=2, query_id=1),
            _ev(2.0, K.RESPONSE_EMITTED, node=2, query_id=1),
            _ev(5.0, K.RESPONSE_DELIVERED, node=0, query_id=1, carrier=2,
                responder=2),
        ]
        query = build_causality(events).queries[1]
        assert query.ambiguous

    def test_truncated_trace_creates_orphan_copy(self):
        """A delivery whose emission predates the trace start still
        attaches — as an orphan copy, not a crash or silent drop.  An
        orphan with no ``responder`` attr is attributed to its first
        carrier, node 0 included."""
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=100.0),
            _ev(5.0, K.RESPONSE_DELIVERED, node=0, query_id=1, carrier=9,
                responder=9, sequence=44),
            _ev(0.0, K.QUERY_CREATED, node=3, data_id=1, query_id=2,
                time_constraint=100.0),
            _ev(6.0, K.RESPONSE_FORWARDED, node=5, query_id=2, carrier=0,
                sequence=45),
        ]
        queries = build_causality(events).queries
        query = queries[1]
        assert len(query.copies) == 1
        assert query.copies[0].orphan
        assert query.copies[0].delivered_at == 5.0

        relayed = queries[2].copies[0]
        assert relayed.orphan
        assert relayed.hops[0].carrier == 0
        assert relayed.responder == 0


class TestPushReconstruction:
    def test_chain_custody_and_completion(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.DATA_GENERATED, node=1, data_id=4, expires_at=500.0,
                size=1000),
            _ev(2.0, K.PUSH_FORWARDED, node=5, data_id=4, carrier=1,
                target_central=8),
            _ev(6.0, K.PUSH_FORWARDED, node=8, data_id=4, carrier=5,
                target_central=8),
            _ev(6.0, K.PUSH_COMPLETED, node=8, data_id=4, target_central=8),
            # a second chain toward another central, still in flight
            _ev(3.0, K.PUSH_FORWARDED, node=2, data_id=4, carrier=1,
                target_central=9),
        ]
        causality = build_causality(events)
        tree = causality.pushes[4]
        assert tree.source == 1 and tree.expires_at == 500.0
        assert len(tree.chains) == 2
        done = next(c for c in tree.chains if c.target_central == 8)
        assert done.origin == "source"
        assert [h.node for h in done.hops] == [5, 8]
        assert done.hop_delays() == [2.0, 4.0]
        assert done.completed_at == 6.0 and done.completed_node == 8
        assert done.state(causality.trace_end, tree.expires_at) == "completed"
        open_chain = next(c for c in tree.chains if c.target_central == 9)
        assert open_chain.custody == 2
        assert open_chain.state(causality.trace_end, tree.expires_at) == "in_flight"
        assert open_chain.state(1000.0, tree.expires_at) == "expired"

    def test_node_failure_breaks_custody_chain(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.DATA_GENERATED, node=1, data_id=4, expires_at=500.0),
            _ev(2.0, K.PUSH_FORWARDED, node=5, data_id=4, carrier=1,
                target_central=8),
            _ev(3.0, K.NODE_FAILED, node=5),
        ]
        causality = build_causality(events)
        chain = causality.pushes[4].chains[0]
        assert chain.break_reason == "node.failed"
        assert chain.custody is None
        assert chain.state(causality.trace_end, 500.0) == "broken:node.failed"

    def test_node_failure_breaks_response_custody(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=100.0),
            _ev(1.0, K.RESPONSE_EMITTED, node=2, query_id=1, sequence=1),
            _ev(3.0, K.NODE_LEFT, node=2),
        ]
        copy = build_causality(events).queries[1].copies[0]
        assert copy.break_reason == "node.left"
        assert copy.delivered_at is None

    def test_cache_migration_opens_new_chain(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.DATA_GENERATED, node=1, data_id=4, expires_at=500.0),
            _ev(10.0, K.CACHE_MIGRATED, node=6, data_id=4, to_central=9),
        ]
        tree = build_causality(events).pushes[4]
        chain = tree.chains[0]
        assert chain.origin == "migration"
        assert chain.started_at == 10.0 and chain.start_node == 6
        assert chain.target_central == 9


class TestConsistencyCheck:
    def test_detects_forged_satisfaction(self):
        """A query_satisfied with no matching delivered chain is an
        inconsistency, not a satisfied query."""
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=100.0),
            _ev(5.0, K.QUERY_SATISFIED, node=0, query_id=1, created_at=0.0),
        ]
        causality = build_causality(events)
        assert causality.mismatches() == [
            "query 1: query_satisfied at 5.0, "
            "first in-constraint delivery chain at None"
        ]
        assert causality.metrics().queries_satisfied == 0

    def test_detects_chain_without_satisfaction(self):
        """The converse: a copy delivered in time with no query_satisfied
        from the collector is listed too."""
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=100.0),
            _ev(1.0, K.RESPONSE_EMITTED, node=2, query_id=1, sequence=1),
            _ev(5.0, K.RESPONSE_DELIVERED, node=0, query_id=1, carrier=2,
                responder=2, sequence=1),
        ]
        causality = build_causality(events)
        assert causality.mismatches() == [
            "query 1: query_satisfied at None, "
            "first in-constraint delivery chain at 5.0"
        ]
        assert causality.metrics().queries_satisfied == 1

    def test_detects_satisfaction_at_another_time(self):
        K = TraceEventKind
        events = _query_stream() + [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=8,
                time_constraint=100.0),
            _ev(1.0, K.RESPONSE_EMITTED, node=2, query_id=8, sequence=3),
            _ev(5.0, K.RESPONSE_DELIVERED, node=0, query_id=8, carrier=2,
                responder=2, sequence=3),
            _ev(7.0, K.QUERY_SATISFIED, node=0, query_id=8, created_at=0.0),
        ]
        assert build_causality(events).mismatches() == [
            "query 8: query_satisfied at 7.0, "
            "first in-constraint delivery chain at 5.0"
        ]

    def test_clean_stream_has_no_mismatches(self):
        assert build_causality(_query_stream()).mismatches() == []


@pytest.fixture(scope="module")
def synthetic_run():
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(
            name="causality-acceptance",
            num_nodes=12,
            duration=4 * DAY,
            total_contacts=2500,
            granularity=60.0,
            seed=6,
        )
    )
    workload = WorkloadConfig(
        mean_data_lifetime=12 * HOUR, mean_data_size=30 * MEGABIT
    )
    recorder = MemoryRecorder()
    result = Simulator(
        trace,
        IntentionalCaching(IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)),
        workload,
        SimulatorConfig(seed=3),
        recorder=recorder,
    ).run()
    return recorder.events, result


class TestAcceptance:
    def test_chains_reproduce_collector_metrics_bit_exactly(self, synthetic_run):
        """The acceptance criterion: on a real traced run the causal
        chains reproduce the collector metrics bit-exactly, and every
        satisfied query maps to exactly one satisfying delivered chain."""
        events, result = synthetic_run
        causality = build_causality(events)
        assert causality.mismatches() == []
        check_trace_consistency(result, causality)
        derived = causality.metrics()
        assert derived.delivery_events == result.responses_delivered
        assert derived.data_generated == result.data_generated
        assert derived.duplicate_deliveries == result.duplicate_deliveries
        assert derived.late_deliveries == result.late_deliveries
        assert derived.caching_overhead == result.caching_overhead

        satisfied = causality.satisfied_ids()
        assert len(satisfied) == result.queries_satisfied
        assert len(set(satisfied)) == len(satisfied)
        for query_id in satisfied:
            query = causality.queries[query_id]
            assert query.satisfying_copy is not None
            in_constraint_first = [
                c for c in query.copies
                if c.delivered_at is not None
                and delivery_in_constraint(c.delivered_at, query.expires_at)
                and c.delivered_at == query.first_delivery[0]
            ]
            assert query.satisfying_copy in in_constraint_first

        issued = sum(1 for q in causality.queries.values() if q.created_seen)
        assert issued == result.queries_issued
        ratio = len(satisfied) / issued
        assert ratio == result.successful_ratio
        delays = [d for _, _, d in causality.satisfied_order]
        mean_delay = sum(delays) / len(delays) if delays else float("nan")
        if math.isnan(result.mean_access_delay):
            assert math.isnan(mean_delay)
        else:
            assert mean_delay == result.mean_access_delay

    def test_self_check_reads_the_delivery_chains(self, synthetic_run):
        """Moving one satisfying delivery 1 s later, still inside its
        constraint, leaves every query_satisfied event untouched but
        shifts the chain's delay: the self-check must catch it."""
        events, result = synthetic_run
        causality = build_causality(events)
        for query_id, time, _ in causality.satisfied_order:
            query = causality.queries[query_id]
            copy = query.satisfying_copy
            if not copy.self_service and time + 1.0 <= query.expires_at:
                break
        else:
            pytest.fail("no relayed delivery with a second of slack")
        position = next(
            i
            for i, event in enumerate(events)
            if event.kind is TraceEventKind.RESPONSE_DELIVERED
            and event.query_id == query_id
            and event.time == time
            and event.attrs.get("sequence") == copy.sequence
        )
        moved = list(events)
        moved[position] = dataclasses.replace(events[position], time=time + 1.0)
        with pytest.raises(SimulationError, match="mean_access_delay"):
            check_trace_consistency(result, build_causality(moved))

    def test_timeline_renderers_cover_every_query_and_data_item(
        self, synthetic_run
    ):
        events, _ = synthetic_run
        causality = build_causality(events)
        for query_id, query in causality.queries.items():
            text = render_query_timeline(causality, query_id)
            assert text.startswith(f"query {query_id} ")
            if query.first_delivery is not None:
                assert "<- satisfied" in text
        for data_id in causality.pushes:
            text = render_push_timeline(causality, data_id)
            assert text.startswith(f"data {data_id} ")
        with pytest.raises(KeyError):
            render_query_timeline(causality, 10**9)
        with pytest.raises(KeyError):
            render_push_timeline(causality, 10**9)


class TestChurnScenario:
    """Satellite 3: chains crossing churn events terminate cleanly."""

    @pytest.fixture(scope="class")
    def churn_events(self, tmp_path_factory):
        from repro.scenario import ScenarioSpec, run_scenario

        with open(os.path.join(EXAMPLES, "churn.json")) as handle:
            spec = ScenarioSpec.from_dict(json.load(handle))
        path = str(tmp_path_factory.mktemp("churn") / "trace.jsonl")
        run_scenario(spec, trace_path=path)
        return list(read_events(path))

    def test_churn_chains_break_cleanly_and_stay_consistent(self, churn_events):
        causality = build_causality(churn_events)
        # the cross-check holds even across failures/departures/migration
        assert causality.mismatches() == []

        chains = [
            chain
            for tree in causality.pushes.values()
            for chain in tree.chains
        ]
        broken = [c for c in chains if c.break_reason is not None]
        assert broken, "churn scenario produced no broken push chains"
        for chain in broken:
            assert chain.break_reason in ("node.failed", "node.left")
            assert chain.custody is None
            assert chain.completed_at is None
            state = chain.state(causality.trace_end, None)
            assert state == f"broken:{chain.break_reason}"

        migrations = [c for c in chains if c.origin == "migration"]
        assert migrations, "cache.migrated produced no migration chain"

        broken_copies = [
            copy
            for query in causality.queries.values()
            for copy in query.copies
            if copy.break_reason is not None
        ]
        assert broken_copies
        for copy in broken_copies:
            assert copy.delivered_at is None
            assert copy.custody == []

    def test_churn_summary_reports_break_reasons(self, churn_events):
        summary = summarize_causality(build_causality(churn_events))
        assert "node.failed" in summary["response_breaks"]
        assert any(
            state.startswith("broken:")
            for state in summary["push_chain_states"]
        )
