"""Property-based tests for trace generation and statistics.

Also home of the outcome-classification property: a query's outcome
is read from its delivery chain (:class:`repro.obs.causality.
QueryCausality`) through the shared :func:`classify_outcome` /
:func:`delivery_in_constraint` predicates — the collector's own boundary
rule — and the ``repro trace`` audit prints that same outcome, so
boundary deliveries and truncated traces classify one way everywhere.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.obs import (
    build_causality,
    classify_outcome,
    delivery_in_constraint,
    render_audit_report,
)
from repro.obs.events import TraceEvent, TraceEventKind
from repro.traces.stats import summarize_trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=40),
    total_contacts=st.integers(min_value=10, max_value=3000),
    duration_days=st.floats(min_value=0.5, max_value=30.0),
    seed=st.integers(min_value=0, max_value=1000),
    communities=st.integers(min_value=1, max_value=5),
)
def test_generated_traces_are_well_formed(
    num_nodes, total_contacts, duration_days, seed, communities
):
    config = SyntheticTraceConfig(
        name="prop",
        num_nodes=num_nodes,
        duration=duration_days * 86400.0,
        total_contacts=total_contacts,
        granularity=60.0,
        num_communities=communities,
        seed=seed,
    )
    trace = generate_synthetic_trace(config)
    assert trace.num_nodes == num_nodes
    for contact in trace:
        assert 0.0 <= contact.start <= contact.end <= config.duration
        assert 0 <= contact.node_a < contact.node_b < num_nodes
    # sorted by start time
    starts = [c.start for c in trace]
    assert starts == sorted(starts)


@settings(max_examples=20, deadline=None)
@given(
    num_nodes=st.integers(min_value=3, max_value=30),
    total_contacts=st.integers(min_value=50, max_value=2000),
    seed=st.integers(min_value=0, max_value=100),
)
def test_summary_statistics_are_consistent(num_nodes, total_contacts, seed):
    config = SyntheticTraceConfig(
        name="prop",
        num_nodes=num_nodes,
        duration=5 * 86400.0,
        total_contacts=total_contacts,
        granularity=30.0,
        seed=seed,
    )
    trace = generate_synthetic_trace(config)
    summary = summarize_trace(trace)
    assert summary.num_contacts == trace.num_contacts
    assert 0.0 <= summary.fraction_pairs_met <= 1.0
    assert summary.pairwise_frequency_met >= summary.pairwise_frequency_all - 1e-12
    assert summary.mean_contact_duration >= 0.0


def _query_events(created, constraint, delivery_offset, trail):
    """One query's stream: created, response emitted, maybe delivered.

    ``delivery_offset`` is the delivery time relative to ``expires_at``
    (None = never delivered; 0.0 = exactly at the boundary); ``trail``
    extends the trace past the last event, modelling truncation points
    on either side of the constraint.  ``QUERY_SATISFIED`` is emitted
    exactly when the recorder would have: for an in-constraint delivery.
    """
    K = TraceEventKind
    expires_at = created + constraint
    events = [
        TraceEvent(
            time=created, kind=K.QUERY_CREATED, node=0, data_id=1, query_id=1,
            attrs={"time_constraint": constraint},
        ),
        TraceEvent(
            time=created, kind=K.RESPONSE_EMITTED, node=2, query_id=1,
            attrs={"sequence": 1},
        ),
    ]
    last = created
    if delivery_offset is not None:
        delivered_at = expires_at + delivery_offset
        events.append(
            TraceEvent(
                time=delivered_at, kind=K.RESPONSE_DELIVERED, node=0, query_id=1,
                attrs={"carrier": 2, "responder": 2, "sequence": 1},
            )
        )
        if delivery_in_constraint(delivered_at, expires_at):
            events.append(
                TraceEvent(
                    time=delivered_at, kind=K.QUERY_SATISFIED, node=0, query_id=1,
                    attrs={"created_at": created},
                )
            )
        last = delivered_at
    if trail > 0:
        events.append(TraceEvent(time=last + trail, kind=K.SAMPLE, node=0))
    return events


@settings(max_examples=200, deadline=None)
@given(
    created=st.floats(min_value=0.0, max_value=1e6),
    constraint=st.floats(min_value=1e-3, max_value=1e6),
    delivery_offset=st.one_of(
        st.none(),
        st.just(0.0),  # exactly at the expiry boundary
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    trail=st.floats(min_value=0.0, max_value=2e6),
)
def test_audit_and_causality_outcomes_never_diverge(
    created, constraint, delivery_offset, trail
):
    """Boundary deliveries and truncated traces classify through the
    shared predicates, and the audit prints the chain's outcome."""
    events = _query_events(created, constraint, delivery_offset, trail)
    trace_end = max(e.time for e in events)
    causality = build_causality(events)
    query = causality.queries[1]
    assert causality.trace_end == trace_end
    expires_at = created + constraint
    satisfied_at = None
    if delivery_offset is not None:
        delivered_at = expires_at + delivery_offset
        if delivery_in_constraint(delivered_at, expires_at):
            satisfied_at = delivered_at
    outcome = query.outcome(trace_end)
    assert outcome == classify_outcome(satisfied_at, expires_at, trace_end)
    # the collector's query_satisfied and the chain always agree here
    assert causality.mismatches() == []
    assert f"query 1 [{outcome}]" in render_audit_report(causality)


def test_boundary_delivery_is_satisfied_in_both_layers():
    """A delivery landing exactly at ``expires_at`` satisfies — ``<=``,
    never ``<`` — in the audit, the chains, and the bare predicate."""
    events = _query_events(10.0, 5.0, 0.0, trail=1.0)
    trace_end = max(e.time for e in events)
    causality = build_causality(events)
    assert delivery_in_constraint(15.0, 15.0)
    assert "query 1 [satisfied]" in render_audit_report(causality)
    assert causality.queries[1].outcome(trace_end) == "satisfied"


def test_truncated_trace_is_pending_in_both_layers():
    """A trace ending before the constraint elapsed keeps the query
    pending (not expired) on both paths."""
    events = _query_events(0.0, 100.0, None, trail=0.0)
    trace_end = max(e.time for e in events)
    assert trace_end < 100.0
    causality = build_causality(events)
    assert classify_outcome(None, 100.0, trace_end) == "pending"
    assert "query 1 [pending]" in render_audit_report(causality)
    assert causality.queries[1].outcome(trace_end) == "pending"
