"""The one replay of a lifecycle trace: push trees, response DAGs, metrics.

The lifecycle trace records *what* happened; :func:`build_causality`
recovers *why*: for every data item, the custody chains its push copies
took toward their NCLs (``data_generated`` → ``push.forwarded``* →
``push_completed``), and for every query, the response DAG from creation
through observation, the Sec. V-C response decisions, per-copy relay
custody, and delivery (``query_created`` → ``query_observed`` →
``response_decided``/``emitted``/``forwarded``/``delivered``).

It is the only code that walks a trace's events.  Everything else reads
the :class:`CausalityIndex` it returns: the paper's Sec. VI metrics
(:meth:`CausalityIndex.metrics`), the per-query audit of ``repro trace``
(:func:`render_audit_report`), and the ``repro diagnose`` sections.
Satisfaction is read from the delivery chains; the collector's own
``query_satisfied`` verdicts are only compared against them
(:meth:`CausalityIndex.mismatches`).

Two properties make the reconstruction exact rather than heuristic:

* response events carry the bundle's process-unique ``sequence`` (one
  physical copy = one sequence), so forwards and deliveries attach to
  the right copy even when several responders serve one query;
* push bundles are unique per ``(data_id, target_central)`` at any one
  carrier, so a ``push.forwarded`` hop matches the chain whose custody
  sits at its ``carrier``.

Older traces without ``sequence`` attrs degrade to custody-based
matching (flagged ``ambiguous`` when more than one copy qualifies).

Chains crossing network-dynamics events terminate cleanly: a
``node.failed``/``node.left`` at the custody holder breaks the chain and
tags the break reason; a ``cache.migrated`` event opens a new
migration-origin chain toward the new central.  Outcomes classify
through :func:`classify_outcome` and :func:`delivery_in_constraint`, the
collector's own boundary rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.events import TraceEvent, TraceEventKind

__all__ = [
    "HANDLED_KINDS",
    "IGNORED_KINDS",
    "DerivedMetrics",
    "classify_outcome",
    "delivery_in_constraint",
    "Hop",
    "ResponseCopy",
    "QueryCausality",
    "PushChain",
    "PushTree",
    "CausalityIndex",
    "build_causality",
    "summarize_causality",
    "render_audit_report",
    "render_query_timeline",
    "render_push_timeline",
]

#: Event kinds the replay dispatches on.  Together with
#: :data:`IGNORED_KINDS` this must cover every :class:`TraceEventKind`
#: member — enforced by ``tests/obs/test_trace_kind_lint.py`` — so a
#: newly added event kind can never be dropped silently by the replay.
HANDLED_KINDS = frozenset(
    {
        TraceEventKind.DATA_GENERATED,
        TraceEventKind.PUSH_FORWARDED,
        TraceEventKind.PUSH_COMPLETED,
        TraceEventKind.DATA_EXPIRED,
        TraceEventKind.QUERY_CREATED,
        TraceEventKind.QUERY_OBSERVED,
        TraceEventKind.RESPONSE_DECIDED,
        TraceEventKind.RESPONSE_EMITTED,
        TraceEventKind.RESPONSE_FORWARDED,
        TraceEventKind.RESPONSE_DELIVERED,
        TraceEventKind.QUERY_SATISFIED,
        TraceEventKind.SAMPLE,
        TraceEventKind.DELIVERY_DUPLICATE,
        TraceEventKind.DELIVERY_LATE,
        TraceEventKind.NODE_FAILED,
        TraceEventKind.NODE_LEFT,
        TraceEventKind.CACHE_MIGRATED,
    }
)

#: Kinds that carry neither custody nor a metric: router verdicts,
#: buffer exchanges (data placement, not bundle custody), committee
#: re-elections (the migration events that follow are what move
#: copies), node (re)joins (joining cannot break a chain), and the
#: live-health annotations (SLO transitions, anomaly flags, the
#: flash-crowd window and memory-footprint samples are commentary
#: *about* the run, not steps of any item's custody).  The replay skips
#: them right after advancing ``trace_end``.
IGNORED_KINDS = frozenset(
    {
        TraceEventKind.ROUTE_DECISION,
        TraceEventKind.EXCHANGE,
        TraceEventKind.NCL_REELECTED,
        TraceEventKind.NODE_JOINED,
        TraceEventKind.SLO_VIOLATED,
        TraceEventKind.SLO_RECOVERED,
        TraceEventKind.HEALTH_ANOMALY,
        TraceEventKind.WORKLOAD_FLASH_CROWD_WINDOW,
        TraceEventKind.MEMORY_SAMPLED,
    }
)


def delivery_in_constraint(time: float, expires_at: Optional[float]) -> bool:
    """Does a delivery at *time* satisfy the query's time constraint?

    Mirrors :meth:`repro.metrics.collector.MetricsCollector.
    record_delivery`, which rejects only ``now > expires_at`` — a
    delivery landing **exactly at the boundary** counts as satisfied.
    Never use ``<`` or ``>=`` in its place, or the replay and the live
    counters would classify boundary deliveries differently.
    """
    return expires_at is None or time <= expires_at


def classify_outcome(
    satisfied_at: Optional[float],
    expires_at: Optional[float],
    trace_end: float,
) -> str:
    """``satisfied`` / ``expired`` / ``pending`` — the one shared rule.

    A trace truncated before the constraint elapsed (``trace_end <
    expires_at``) keeps the query *pending* rather than expired; a trace
    ending exactly at the constraint boundary classifies as expired only
    when no satisfaction was recorded (the collector would still have
    accepted a delivery at that instant, see
    :func:`delivery_in_constraint`).
    """
    if satisfied_at is not None:
        return "satisfied"
    if expires_at is not None and trace_end >= expires_at:
        return "expired"
    return "pending"


@dataclass(frozen=True)
class DerivedMetrics:
    """The paper's evaluation metrics, recomputed from the trace alone."""

    queries_issued: int
    queries_satisfied: int
    successful_ratio: float
    mean_access_delay: float
    caching_overhead: float
    data_generated: int
    delivery_events: int
    responses_emitted: int
    duplicate_deliveries: int = 0
    late_deliveries: int = 0


@dataclass(frozen=True)
class Hop:
    """One custody transfer: *carrier* handed the copy to *node*."""

    time: float
    carrier: int
    node: int
    action: str  # "handover" / "replicate" (responses), "push" (pushes)


@dataclass
class ResponseCopy:
    """One physical response copy (one :class:`ResponseBundle`)."""

    query_id: int
    responder: int
    sequence: Optional[int] = None
    emitted_at: Optional[float] = None
    #: True for the degenerate zero-hop chain: the requester itself held
    #: the data and the response decision delivered on the spot.
    self_service: bool = False
    hops: List[Hop] = field(default_factory=list)
    custody: List[int] = field(default_factory=list)
    delivered_at: Optional[float] = None
    delivered_by: Optional[int] = None
    break_reason: Optional[str] = None
    #: set when a sequence-less trace left more than one candidate copy
    orphan: bool = False

    @property
    def hop_count(self) -> int:
        if self.self_service:
            return 0
        return len(self.hops) + (0 if self.delivered_at is None else 1)

    def hop_delays(self) -> List[float]:
        """Per-hop latencies along the custody chain, emission first."""
        times = [self.emitted_at] if self.emitted_at is not None else []
        times += [hop.time for hop in self.hops]
        if self.delivered_at is not None:
            times.append(self.delivered_at)
        return [b - a for a, b in zip(times, times[1:])]


@dataclass
class QueryCausality:
    """The full response DAG of one query."""

    query_id: int
    requester: Optional[int] = None
    data_id: Optional[int] = None
    created_at: Optional[float] = None
    expires_at: Optional[float] = None
    created_seen: bool = False
    observed: List[Tuple[float, int]] = field(default_factory=list)
    #: (time, node, respond, probability) per Sec. V-C decision
    decisions: List[Tuple[float, int, bool, float]] = field(default_factory=list)
    copies: List[ResponseCopy] = field(default_factory=list)
    #: RESPONSE_DELIVERED events, counted even when one copy repeats
    deliveries: int = 0
    satisfied_at: Optional[float] = None  # from QUERY_SATISFIED events
    #: chain-derived first in-constraint delivery (time, copy index)
    first_delivery: Optional[Tuple[float, int]] = None
    ambiguous: bool = False

    @property
    def satisfying_copy(self) -> Optional[ResponseCopy]:
        if self.first_delivery is None:
            return None
        return self.copies[self.first_delivery[1]]

    @property
    def delay(self) -> Optional[float]:
        if self.first_delivery is None or self.created_at is None:
            return None
        return self.first_delivery[0] - self.created_at

    @property
    def chain_satisfied_at(self) -> Optional[float]:
        """When the first in-constraint copy arrived (``None``: never)."""
        return self.first_delivery[0] if self.first_delivery else None

    def outcome(self, trace_end: float) -> str:
        """Chain-derived outcome through the shared predicate."""
        return classify_outcome(self.chain_satisfied_at, self.expires_at, trace_end)


@dataclass
class PushChain:
    """Custody chain of one push copy toward one central node."""

    data_id: int
    target_central: int
    origin: str  # "source" / "migration" / "unknown"
    started_at: Optional[float] = None
    start_node: Optional[int] = None
    custody: Optional[int] = None
    hops: List[Hop] = field(default_factory=list)
    completed_at: Optional[float] = None
    completed_node: Optional[int] = None
    spilled: bool = False
    break_reason: Optional[str] = None

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    def hop_delays(self) -> List[float]:
        times = [self.started_at] if self.started_at is not None else []
        times += [hop.time for hop in self.hops]
        return [b - a for a, b in zip(times, times[1:])]

    def state(self, trace_end: float, expires_at: Optional[float]) -> str:
        if self.completed_at is not None:
            return "completed"
        if self.break_reason is not None:
            return f"broken:{self.break_reason}"
        if expires_at is not None and trace_end >= expires_at:
            return "expired"
        return "in_flight"


@dataclass
class PushTree:
    """All push chains of one data item (source → relays → NCLs)."""

    data_id: int
    source: Optional[int] = None
    generated_at: Optional[float] = None
    expires_at: Optional[float] = None
    size: Optional[int] = None
    chains: List[PushChain] = field(default_factory=list)
    #: (time, node) records of copies aging out
    expiries: List[Tuple[float, int]] = field(default_factory=list)

    def open_chains(self) -> List[PushChain]:
        return [
            c for c in self.chains if c.completed_at is None and c.break_reason is None
        ]


@dataclass
class CausalityIndex:
    """Everything :func:`build_causality` reconstructed from one trace."""

    queries: Dict[int, QueryCausality]
    pushes: Dict[int, PushTree]
    trace_end: float
    num_events: int
    data_generated: int
    delivery_events: int
    responses_emitted: int
    duplicate_deliveries: int
    late_deliveries: int
    #: running sum of cached copies per live item over the ``sample``
    #: events with live items, and the number of such samples
    copy_ratio_sum: float
    copy_samples: int
    #: (query_id, delivery time, delay) in stream order of the first
    #: in-constraint delivery — replays the collector's summation order
    satisfied_order: List[Tuple[int, float, float]]

    def satisfied_ids(self) -> List[int]:
        return [query_id for query_id, _, _ in self.satisfied_order]

    def metrics(self) -> DerivedMetrics:
        """The paper's Sec. VI metrics as a projection of the chains.

        Satisfaction counts **distinct query ids** with an in-constraint
        delivery chain, never delivery events: two NCLs answering one
        query are two ``response_delivered`` events but one satisfied
        query.  Delays and copy ratios add up one by one in stream order,
        exactly as the collector's ``+=`` does (``sum()`` compensates on
        Python ≥ 3.12), so a consistent run matches its counters bit for
        bit.
        """
        issued = sum(1 for query in self.queries.values() if query.created_seen)
        satisfied = len(self.satisfied_order)
        delay_sum = 0.0
        for _, _, delay in self.satisfied_order:
            delay_sum += delay
        samples = self.copy_samples
        return DerivedMetrics(
            queries_issued=issued,
            queries_satisfied=satisfied,
            successful_ratio=(satisfied / issued) if issued else 0.0,
            mean_access_delay=(delay_sum / satisfied) if satisfied else float("nan"),
            caching_overhead=(self.copy_ratio_sum / samples) if samples else 0.0,
            data_generated=self.data_generated,
            delivery_events=self.delivery_events,
            responses_emitted=self.responses_emitted,
            duplicate_deliveries=self.duplicate_deliveries,
            late_deliveries=self.late_deliveries,
        )

    def mismatches(self) -> List[str]:
        """Queries whose ``query_satisfied`` time differs from the chains.

        The collector emits ``query_satisfied`` from its own verdict; the
        chains say when the first in-constraint copy actually arrived.
        Either one without the other (``None``), or two different times,
        is listed.  Empty on a consistent trace.
        """
        return [
            f"query {query.query_id}: query_satisfied at {query.satisfied_at!r}, "
            f"first in-constraint delivery chain at {query.chain_satisfied_at!r}"
            for query in self.queries.values()
            if query.chain_satisfied_at != query.satisfied_at
        ]


def _copy_for(
    query: QueryCausality,
    carrier: Optional[int],
    responder: Optional[int],
    sequence: Optional[int],
) -> ResponseCopy:
    """The copy a forward/delivery event belongs to.

    Exact via ``sequence`` when present; otherwise custody + responder
    narrowing (legacy traces), creating an orphan copy when nothing
    matches (truncated traces).  An orphan without a ``responder`` attr
    is attributed to its first carrier, or ``-1`` when that is unknown.
    """
    if sequence is not None:
        for copy in query.copies:
            if copy.sequence == sequence:
                return copy
    else:
        candidates = [
            copy
            for copy in query.copies
            if copy.delivered_at is None
            and (carrier is None or carrier in copy.custody)
            and (responder is None or copy.responder == responder)
        ]
        if len(candidates) > 1:
            query.ambiguous = True
        if candidates:
            return candidates[0]
    if responder is None:
        responder = carrier if carrier is not None else -1
    copy = ResponseCopy(
        query_id=query.query_id,
        responder=responder,
        sequence=sequence,
        orphan=True,
        custody=[carrier] if carrier is not None else [],
    )
    query.copies.append(copy)
    return copy


def _chain_for(
    tree: PushTree, target: int, carrier: Optional[int]
) -> Optional[PushChain]:
    """The open chain toward *target* whose custody sits at *carrier*."""
    for chain in tree.chains:
        if (
            chain.target_central == target
            and chain.completed_at is None
            and chain.break_reason is None
            and (carrier is None or chain.custody == carrier)
        ):
            return chain
    return None


def build_causality(events: Iterable[TraceEvent]) -> CausalityIndex:
    """Replay an event stream into push trees, response DAGs and tallies."""
    queries: Dict[int, QueryCausality] = {}
    pushes: Dict[int, PushTree] = {}
    satisfied_order: List[Tuple[int, float, float]] = []
    copy_ratio_sum = 0.0
    copy_samples = 0
    trace_end = 0.0
    num_events = 0
    data_generated = 0
    delivery_events = 0
    responses_emitted = 0
    duplicate_deliveries = 0
    late_deliveries = 0

    def query_for(query_id: int) -> QueryCausality:
        query = queries.get(query_id)
        if query is None:
            query = queries[query_id] = QueryCausality(query_id=query_id)
        return query

    def tree_for(data_id: int) -> PushTree:
        tree = pushes.get(data_id)
        if tree is None:
            tree = pushes[data_id] = PushTree(data_id=data_id)
        return tree

    def record_delivery(query: QueryCausality, index: int, time: float) -> None:
        """First in-constraint delivery wins — the satisfying chain."""
        if query.first_delivery is not None:
            return
        if not delivery_in_constraint(time, query.expires_at):
            return
        query.first_delivery = (time, index)
        created = query.created_at if query.created_at is not None else time
        satisfied_order.append((query.query_id, time, time - created))

    for event in events:
        num_events += 1
        if event.time > trace_end:
            trace_end = event.time
        kind = event.kind
        if kind in IGNORED_KINDS:
            continue

        if kind is TraceEventKind.DATA_GENERATED:
            data_generated += 1
            assert event.data_id is not None
            tree = tree_for(event.data_id)
            tree.source = event.node
            tree.generated_at = event.time
            expires = event.attrs.get("expires_at")
            tree.expires_at = float(expires) if expires is not None else None
            size = event.attrs.get("size")
            tree.size = int(size) if size is not None else None

        elif kind is TraceEventKind.PUSH_FORWARDED:
            assert event.data_id is not None and event.node is not None
            tree = tree_for(event.data_id)
            carrier = event.attrs.get("carrier")
            target = int(event.attrs["target_central"])
            chain = _chain_for(tree, target, carrier)
            if chain is None:
                origin = "source" if carrier == tree.source else "unknown"
                chain = PushChain(
                    data_id=event.data_id,
                    target_central=target,
                    origin=origin,
                    started_at=tree.generated_at if origin == "source" else event.time,
                    start_node=carrier,
                    custody=carrier,
                )
                tree.chains.append(chain)
            chain.hops.append(
                Hop(
                    time=event.time,
                    carrier=int(carrier) if carrier is not None else -1,
                    node=event.node,
                    action="push",
                )
            )
            chain.custody = event.node

        elif kind is TraceEventKind.PUSH_COMPLETED:
            assert event.data_id is not None and event.node is not None
            tree = tree_for(event.data_id)
            target = int(event.attrs["target_central"])
            # Prefer the chain whose custody reached the completing node
            # (normal arrival); a spill that found the NCL already served
            # completes with custody still at the carrier.
            chain = _chain_for(tree, target, event.node) or _chain_for(
                tree, target, None
            )
            if chain is None:
                chain = PushChain(
                    data_id=event.data_id,
                    target_central=target,
                    origin="unknown",
                    start_node=event.node,
                )
                tree.chains.append(chain)
            chain.completed_at = event.time
            chain.completed_node = event.node
            chain.spilled = bool(event.attrs.get("spilled", False))
            chain.custody = event.node

        elif kind is TraceEventKind.DATA_EXPIRED:
            if event.data_id is not None and event.node is not None:
                tree_for(event.data_id).expiries.append((event.time, event.node))

        elif kind is TraceEventKind.QUERY_CREATED:
            assert event.query_id is not None
            query = query_for(event.query_id)
            query.created_seen = True
            query.requester = event.node
            query.data_id = event.data_id
            query.created_at = event.time
            constraint = event.attrs.get("time_constraint")
            if constraint is not None:
                query.expires_at = event.time + float(constraint)

        elif kind is TraceEventKind.QUERY_OBSERVED:
            if event.query_id is not None and event.node is not None:
                query_for(event.query_id).observed.append((event.time, event.node))

        elif kind is TraceEventKind.RESPONSE_DECIDED:
            assert event.query_id is not None
            query = query_for(event.query_id)
            respond = bool(event.attrs.get("respond", False))
            probability = float(event.attrs.get("probability", float("nan")))
            node = event.node if event.node is not None else -1
            query.decisions.append((event.time, node, respond, probability))
            if respond and query.requester is not None and node == query.requester:
                # Zero-hop chain: the requester served itself on the spot.
                copy = ResponseCopy(
                    query_id=query.query_id,
                    responder=node,
                    emitted_at=event.time,
                    self_service=True,
                    delivered_at=event.time,
                    delivered_by=node,
                )
                query.copies.append(copy)
                record_delivery(query, len(query.copies) - 1, event.time)

        elif kind is TraceEventKind.RESPONSE_EMITTED:
            assert event.query_id is not None
            responses_emitted += 1
            query = query_for(event.query_id)
            responder = event.node if event.node is not None else -1
            query.copies.append(
                ResponseCopy(
                    query_id=query.query_id,
                    responder=responder,
                    sequence=event.attrs.get("sequence"),
                    emitted_at=event.time,
                    custody=[responder],
                )
            )

        elif kind is TraceEventKind.RESPONSE_FORWARDED:
            assert event.query_id is not None and event.node is not None
            query = query_for(event.query_id)
            carrier = event.attrs.get("carrier")
            copy = _copy_for(
                query,
                carrier,
                event.attrs.get("responder"),
                event.attrs.get("sequence"),
            )
            action = str(event.attrs.get("action", "handover"))
            copy.hops.append(
                Hop(
                    time=event.time,
                    carrier=int(carrier) if carrier is not None else -1,
                    node=event.node,
                    action=action,
                )
            )
            if action == "handover" and carrier in copy.custody:
                copy.custody.remove(carrier)
            if event.node not in copy.custody:
                copy.custody.append(event.node)

        elif kind is TraceEventKind.RESPONSE_DELIVERED:
            assert event.query_id is not None
            delivery_events += 1
            query = query_for(event.query_id)
            query.deliveries += 1
            if query.requester is None:
                query.requester = event.node
            carrier = event.attrs.get("carrier")
            copy = _copy_for(
                query,
                carrier,
                event.attrs.get("responder"),
                event.attrs.get("sequence"),
            )
            copy.delivered_at = event.time
            copy.delivered_by = int(carrier) if carrier is not None else None
            if carrier in copy.custody:
                copy.custody.remove(carrier)
            record_delivery(query, query.copies.index(copy), event.time)

        elif kind is TraceEventKind.QUERY_SATISFIED:
            assert event.query_id is not None
            query = query_for(event.query_id)
            if query.satisfied_at is None:
                query.satisfied_at = event.time
                if query.created_at is None:
                    created = event.attrs.get("created_at")
                    if created is not None:
                        query.created_at = float(created)

        elif kind is TraceEventKind.SAMPLE:
            live = int(event.attrs.get("live_items", 0))
            if live > 0:
                copy_ratio_sum += int(event.attrs["cached_copies"]) / live
                copy_samples += 1

        elif kind is TraceEventKind.DELIVERY_DUPLICATE:
            duplicate_deliveries += 1

        elif kind is TraceEventKind.DELIVERY_LATE:
            late_deliveries += 1

        elif kind in (TraceEventKind.NODE_FAILED, TraceEventKind.NODE_LEFT):
            assert event.node is not None
            reason = kind.value
            for query in queries.values():
                for copy in query.copies:
                    if copy.delivered_at is not None or copy.break_reason:
                        continue
                    if event.node in copy.custody:
                        copy.custody.remove(event.node)
                        if not copy.custody:
                            copy.break_reason = reason
            for tree in pushes.values():
                for chain in tree.open_chains():
                    if chain.custody == event.node:
                        chain.break_reason = reason
                        chain.custody = None

        elif kind is TraceEventKind.CACHE_MIGRATED:
            assert event.data_id is not None and event.node is not None
            tree = tree_for(event.data_id)
            tree.chains.append(
                PushChain(
                    data_id=event.data_id,
                    target_central=int(event.attrs["to_central"]),
                    origin="migration",
                    started_at=event.time,
                    start_node=event.node,
                    custody=event.node,
                )
            )

    return CausalityIndex(
        queries=queries,
        pushes=pushes,
        trace_end=trace_end,
        num_events=num_events,
        data_generated=data_generated,
        delivery_events=delivery_events,
        responses_emitted=responses_emitted,
        duplicate_deliveries=duplicate_deliveries,
        late_deliveries=late_deliveries,
        copy_ratio_sum=copy_ratio_sum,
        copy_samples=copy_samples,
        satisfied_order=satisfied_order,
    )


# --- summaries -------------------------------------------------------------


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def summarize_causality(causality: CausalityIndex) -> Dict[str, object]:
    """Aggregate chain statistics for the diagnose report."""
    queries = list(causality.queries.values())
    satisfying = [q.satisfying_copy for q in queries if q.satisfying_copy is not None]
    hop_delays = [d for copy in satisfying for d in copy.hop_delays()]
    fan_out = [len(q.copies) for q in queries if q.copies]
    broken_copies: Dict[str, int] = {}
    for query in queries:
        for copy in query.copies:
            if copy.break_reason:
                broken_copies[copy.break_reason] = (
                    broken_copies.get(copy.break_reason, 0) + 1
                )
    chains = [chain for tree in causality.pushes.values() for chain in tree.chains]
    chain_states: Dict[str, int] = {}
    for tree in causality.pushes.values():
        for chain in tree.chains:
            state = chain.state(causality.trace_end, tree.expires_at)
            chain_states[state] = chain_states.get(state, 0) + 1
    completed = [c for c in chains if c.completed_at is not None]
    return {
        "queries": len(queries),
        "queries_satisfied": len(causality.satisfied_order),
        "self_service_deliveries": sum(
            1 for c in satisfying if c.self_service
        ),
        "mean_delivery_hops": _mean([float(c.hop_count) for c in satisfying]),
        "mean_hop_delay": _mean(hop_delays),
        "mean_copies_per_query": _mean([float(n) for n in fan_out]),
        "max_copies_per_query": max(fan_out, default=0),
        "delivery_events": causality.delivery_events,
        "duplicate_deliveries": causality.delivery_events
        - sum(1 for c in satisfying if not c.self_service),
        "response_breaks": broken_copies,
        "push_trees": len(causality.pushes),
        "push_chains": len(chains),
        "push_chain_states": chain_states,
        "mean_push_hops": _mean([float(c.hop_count) for c in completed]),
        "ambiguous_queries": sum(1 for q in queries if q.ambiguous),
    }


# --- rendering ---------------------------------------------------------------


def _fmt_delay(delay: Optional[float]) -> str:
    if delay is None or math.isnan(delay):
        return "n/a"
    if delay >= 3600.0:
        return f"{delay / 3600.0:.2f}h"
    return f"{delay:.1f}s"


def render_audit_report(
    causality: CausalityIndex,
    limit: Optional[int] = None,
    only: Optional[str] = None,
) -> str:
    """Human-readable per-query audit of a trace (``repro trace``).

    ``only`` filters by outcome (``satisfied`` / ``expired`` /
    ``pending``); ``limit`` caps the number of query lines printed.
    """
    metrics = causality.metrics()
    lines = [
        f"trace: {causality.num_events} events, {metrics.data_generated} data "
        f"items, {metrics.queries_issued} queries",
        f"derived: ratio={metrics.successful_ratio:.4f} "
        f"delay={_fmt_delay(metrics.mean_access_delay)} "
        f"copies/item={metrics.caching_overhead:.3f} "
        f"deliveries={metrics.delivery_events} "
        f"responses={metrics.responses_emitted}",
        "",
    ]
    trace_end = causality.trace_end
    selected = [
        (query, query.outcome(trace_end))
        for query in causality.queries.values()
        if only is None or query.outcome(trace_end) == only
    ]
    for shown, (query, outcome) in enumerate(selected):
        if limit is not None and shown >= limit:
            lines.append(f"... ({len(selected) - shown} more queries)")
            break
        emitted = sum(
            1
            for copy in query.copies
            if not copy.self_service and copy.emitted_at is not None
        )
        delay = query.delay
        lines.append(
            f"query {query.query_id} [{outcome}] data={query.data_id} "
            f"requester={query.requester} "
            f"observed_by={len({node for _, node in query.observed})} "
            f"decisions={len(query.decisions)} emitted={emitted} "
            f"forwards={sum(len(copy.hops) for copy in query.copies)} "
            f"deliveries={query.deliveries}"
            + (f" delay={_fmt_delay(delay)}" if delay is not None else "")
        )
    return "\n".join(lines)




def _rel(time: Optional[float], anchor: Optional[float]) -> str:
    if time is None:
        return "?"
    if anchor is None:
        return f"@{time:.1f}"
    return f"+{time - anchor:.1f}s"


def render_query_timeline(
    causality: CausalityIndex, query_id: int
) -> str:
    """One query's response DAG as an indented timeline."""
    query = causality.queries.get(query_id)
    if query is None:
        raise KeyError(f"query {query_id} not in trace")
    anchor = query.created_at
    outcome = query.outcome(causality.trace_end)
    lines = [
        f"query {query.query_id} [{outcome}] data={query.data_id} "
        f"requester={query.requester} created={query.created_at} "
        f"expires={query.expires_at}"
    ]
    if query.observed:
        first_time, first_node = query.observed[0]
        lines.append(
            f"  observed by {len({n for _, n in query.observed})} node(s); "
            f"first node {first_node} {_rel(first_time, anchor)}"
        )
    if query.decisions:
        yes = sum(1 for _, _, respond, _ in query.decisions if respond)
        lines.append(
            f"  decisions: {len(query.decisions)} "
            f"({yes} respond / {len(query.decisions) - yes} decline)"
        )
    satisfying = query.satisfying_copy
    delay = query.delay
    satisfied_marker = (
        f"  <- satisfied (delay {delay:.1f}s)" if delay is not None else "  <- satisfied"
    )
    for index, copy in enumerate(query.copies):
        tag = " (self-service)" if copy.self_service else ""
        seq = f" seq={copy.sequence}" if copy.sequence is not None else ""
        lines.append(
            f"  copy #{index} responder={copy.responder}{seq} "
            f"emitted {_rel(copy.emitted_at, anchor)}{tag}"
        )
        previous = copy.emitted_at
        for hop in copy.hops:
            delta = (
                f"  [Δ {hop.time - previous:.1f}s]" if previous is not None else ""
            )
            lines.append(
                f"    {_rel(hop.time, anchor)}  {hop.carrier} -> {hop.node} "
                f"{hop.action}{delta}"
            )
            previous = hop.time
        if copy.delivered_at is not None and not copy.self_service:
            delta = (
                f"  [Δ {copy.delivered_at - previous:.1f}s]"
                if previous is not None
                else ""
            )
            if copy is satisfying:
                marker = satisfied_marker
            elif delivery_in_constraint(copy.delivered_at, query.expires_at):
                marker = "  (duplicate delivery)"
            else:
                marker = "  (out of constraint)"
            lines.append(
                f"    {_rel(copy.delivered_at, anchor)}  "
                f"{copy.delivered_by} -> {query.requester} delivered{delta}{marker}"
            )
        elif copy.self_service and copy is satisfying:
            lines.append(f"    delivered on the spot{satisfied_marker}")
        elif copy.break_reason:
            lines.append(f"    chain broken: {copy.break_reason}")
        elif copy.delivered_at is None:
            state = classify_outcome(None, query.expires_at, causality.trace_end)
            where = (
                f" in custody of {sorted(copy.custody)}" if copy.custody else ""
            )
            lines.append(f"    undelivered [{state}]{where}")
    if not query.copies:
        lines.append("  no response copies")
    return "\n".join(lines)


def render_push_timeline(causality: CausalityIndex, data_id: int) -> str:
    """One data item's push tree as an indented timeline."""
    tree = causality.pushes.get(data_id)
    if tree is None:
        raise KeyError(f"data item {data_id} not in trace")
    anchor = tree.generated_at
    lines = [
        f"data {tree.data_id} source={tree.source} generated={tree.generated_at} "
        f"expires={tree.expires_at} size={tree.size}"
    ]
    for chain in tree.chains:
        state = chain.state(causality.trace_end, tree.expires_at)
        lines.append(
            f"  chain -> central {chain.target_central} [{state}] "
            f"origin={chain.origin} start=node {chain.start_node}"
        )
        previous = chain.started_at
        for hop in chain.hops:
            delta = (
                f"  [Δ {hop.time - previous:.1f}s]" if previous is not None else ""
            )
            lines.append(
                f"    {_rel(hop.time, anchor)}  {hop.carrier} -> {hop.node}{delta}"
            )
            previous = hop.time
        if chain.completed_at is not None:
            spill = " (spilled)" if chain.spilled else ""
            lines.append(
                f"    {_rel(chain.completed_at, anchor)}  cached at node "
                f"{chain.completed_node}{spill}"
            )
        elif chain.break_reason:
            lines.append(f"    chain broken: {chain.break_reason}")
        elif chain.custody is not None:
            lines.append(f"    custody at node {chain.custody}")
    if not tree.chains:
        lines.append("  no push chains")
    if tree.expiries:
        lines.append(f"  expired at {len(tree.expiries)} node(s)")
    return "\n".join(lines)
