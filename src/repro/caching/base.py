"""Caching-scheme interface and the contact machinery all schemes share.

A scheme reacts to four simulator callbacks — data generation, query
generation, contacts, and deliveries — through the narrow
:class:`SchemeServices` facade the simulator hands it at attach time.

The heavy lifting common to every scheme lives here:

* housekeeping (expiry of data, queries, and bundles);
* delivering response bundles when the carrier meets the requester;
* forwarding response bundles along the path-weight gradient toward the
  requester ("any existing data forwarding protocol", Sec. V-B);
* emitting responses when a node that observed a query can serve it, and
  the symmetric push/pull conjunction: a node that *receives* data while
  holding a matching active query responds as well (Sec. V's "push and
  pull caching strategies conjoin at the NCLs").

Subclasses define how queries disseminate, where data gets cached, and
which replacement policy runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.data import DataItem, Query
from repro.core.response import AlwaysRespond, ResponseStrategy
from repro.graph.contact_graph import ContactGraph
from repro.metrics.collector import MetricsCollector
from repro.obs.events import TraceEvent, TraceEventKind
from repro.obs.primitives import MetricsRegistry
from repro.obs.profile import NULL_PROFILER, Profiler
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.routing.base import DecisionObserver, ForwardAction, ForwardDecision
from repro.routing.rate_gradient import RateGradientRouter
from repro.sim.bundles import ResponseBundle
from repro.sim.network import TransferBudget
from repro.sim.node import Node

__all__ = ["SchemeServices", "CachingScheme"]


@dataclass
class SchemeServices:
    """Facade over the simulator, given to a scheme at attach time.

    Attributes
    ----------
    nodes:
        All node states, indexed by node id.
    rng:
        The scheme's private random stream.
    metrics:
        The run's metric collector.
    deliver:
        Callback ``deliver(query, data, now)`` the scheme invokes when the
        requester receives a data copy; the simulator records satisfaction
        and re-enters the scheme through ``on_data_delivered``.
    lookup_data:
        ``lookup_data(data_id) -> DataItem | None`` — the global data
        catalogue.  Used by the baselines to address queries at the data
        source (in deployments, source identity is embedded in the data
        id); the intentional scheme never consults it.
    response_horizon:
        Default horizon (seconds) for the response-routing gradient —
        the workload's query time constraint.
    recorder:
        The run's lifecycle trace sink (``NULL_RECORDER`` when tracing
        is off; every emit site guards on ``recorder.enabled``).
    clock:
        ``() -> float`` returning the current simulation time, for hooks
        that fire outside a timestamped callback (router observers).
    profiler:
        The run's phase profiler (``NULL_PROFILER`` when profiling is
        off; every span site guards on ``profiler.enabled``).
    registry:
        The run's aggregate instrument registry; schemes bump counters
        (e.g. re-election rounds) through it.  ``None`` keeps older
        hand-built services working; use :meth:`counter` to tolerate it.
    """

    nodes: Sequence[Node]
    rng: np.random.Generator
    metrics: MetricsCollector
    deliver: Callable[[Query, DataItem, float], None]
    lookup_data: Callable[[int], Optional[DataItem]]
    response_horizon: float
    recorder: TraceRecorder = NULL_RECORDER
    clock: Optional[Callable[[], float]] = None
    profiler: Profiler = NULL_PROFILER
    registry: Optional[MetricsRegistry] = None

    def count(self, name: str, value: int = 1) -> None:
        """Bump counter *name* if a registry is attached (no-op otherwise)."""
        if self.registry is not None:
            self.registry.counter(name).inc(value)


class CachingScheme(abc.ABC):
    """Base class for all caching schemes."""

    #: scheme name used in configs, reports and figures
    name: str = "abstract"

    def __init__(self) -> None:
        self.services: Optional[SchemeServices] = None
        self.graph: Optional[ContactGraph] = None
        self._response_router: Optional[RateGradientRouter] = None
        self._response_strategy: ResponseStrategy = AlwaysRespond()

    # --- simulator lifecycle ---------------------------------------------

    def attach(self, services: SchemeServices) -> None:
        """Receive the simulator facade; called once before warm-up ends.

        Responses return by "any existing data forwarding protocol"
        (Sec. V-B) — modelled for *every* scheme as local-knowledge
        social forwarding (:class:`RateGradientRouter`), since no node
        maintains administrator-grade path tables toward arbitrary
        requesters.
        """
        self.services = services
        self._response_router = RateGradientRouter()
        self._response_router.set_observer(self.route_observer())

    def route_observer(self) -> Optional[DecisionObserver]:
        """The trace hook routers should call per verdict (None when off).

        Subclasses install this on every router they create (the
        intentional scheme's push/query gradients, for instance) so the
        trace shows why a bundle moved — or stalled — at each contact.
        """
        services = self.services
        if services is None or not services.recorder.enabled:
            return None
        recorder = services.recorder
        clock = services.clock or (lambda: float("nan"))

        def observe(
            carrier: int, peer: int, destination: int, decision: ForwardDecision
        ) -> None:
            recorder.emit(
                TraceEvent(
                    time=clock(),
                    kind=TraceEventKind.ROUTE_DECISION,
                    node=carrier,
                    attrs={
                        "peer": peer,
                        "destination": destination,
                        "action": decision.action.value,
                        "carrier_score": decision.carrier_score,
                        "peer_score": decision.peer_score,
                    },
                )
            )

        return observe

    def on_graph_updated(self, graph: ContactGraph, now: float) -> None:
        """A fresh contact-rate snapshot was published."""
        self.graph = graph
        if self._response_router is not None:
            self._response_router.update_graph(graph)

    def on_warmup_complete(self, now: float) -> None:
        """The first trace half ended; NCL-style setup happens here."""

    def on_topology_changed(self, now: float) -> None:
        """A node joined, left, or failed (network dynamics).

        Fired *before* the same-instant graph refresh, so schemes can
        mark expensive graph-reactions (NCL re-election) as due instead
        of re-running them on every periodic refresh.
        """

    def on_data_delivered(self, node: Node, data: DataItem, query: Query, now: float) -> None:
        """The requester received *data*; RandomCache-style hooks go here."""

    # --- mandatory scheme behaviour --------------------------------------

    @abc.abstractmethod
    def on_data_generated(self, node: Node, data: DataItem, now: float) -> None:
        """A node generated new data."""

    @abc.abstractmethod
    def on_query_generated(self, node: Node, query: Query, now: float) -> None:
        """A node issued a query."""

    @abc.abstractmethod
    def on_contact(self, a: Node, b: Node, now: float, budget: TransferBudget) -> None:
        """Two nodes are in contact with the given transfer budget."""

    # --- shared machinery --------------------------------------------------

    def _require_services(self) -> SchemeServices:
        if self.services is None:
            raise RuntimeError(f"scheme {self.name!r} used before attach()")
        return self.services

    def housekeeping(self, node: Node, now: float) -> None:
        """Expire data, queries and bundles on *node*."""
        node.expire_data(now)
        node.expire_queries(now)
        node.drop_expired_bundles(now)

    # .. responses ........................................................

    def set_response_strategy(self, strategy: ResponseStrategy) -> None:
        self._response_strategy = strategy

    def try_respond(self, node: Node, query: Query, now: float) -> bool:
        """Emit a response from *node* for *query* if possible.

        A node responds at most once per query, must actually hold the
        data, and passes its response strategy's probabilistic decision
        (Sec. V-C).  A refusal is final for this node — the paper's
        caching nodes decide once per received query.
        """
        services = self._require_services()
        if query.query_id in node.responded_queries or query.is_expired(now):
            return False
        data = node.find_data(query.data_id, now)
        # Each first serving attempt is one cache lookup; a hit means a
        # *cached* copy answers (origin copies at the source don't count).
        services.metrics.on_cache_lookup(
            data is not None and data.data_id in node.buffer
        )
        if data is None:
            return False
        if data.data_id in node.buffer:
            # A cache hit: refresh recency state so LRU/GDS replacement
            # sees real access patterns.
            node.buffer.get(data.data_id)
            self.on_cache_hit(node, data, now)
        node.responded_queries.add(query.query_id)
        decision = self._response_strategy.decide(query, now, node.node_id, services.rng)
        if services.recorder.enabled:
            services.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.RESPONSE_DECIDED,
                    node=node.node_id,
                    data_id=data.data_id,
                    query_id=query.query_id,
                    attrs={
                        "respond": decision.respond,
                        "probability": decision.probability,
                        "strategy": decision.strategy,
                    },
                )
            )
        if not decision.respond:
            return False
        if node.node_id == query.requester:
            services.deliver(query, data, now)
            return True
        bundle = ResponseBundle(
            created_at=now,
            expires_at=query.expires_at,
            data=data,
            query=query,
            responder=node.node_id,
        )
        node.store_bundle(bundle)
        services.metrics.on_response_emitted()
        if services.recorder.enabled:
            services.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.RESPONSE_EMITTED,
                    node=node.node_id,
                    data_id=data.data_id,
                    query_id=query.query_id,
                    attrs={"sequence": bundle.sequence},
                )
            )
        return True

    def answer_pending_queries(self, node: Node, data_id: int, now: float) -> None:
        """Push/pull conjunction: data just arrived at *node*; respond to
        the active queries for it this node has already observed."""
        for query in node.pending_queries_for(data_id, now):
            self.try_respond(node, query, now)

    def process_responses(
        self, x: Node, y: Node, now: float, budget: TransferBudget
    ) -> None:
        """Deliver/forward the response bundles carried by *x* toward *y*.

        Delivery (y is the requester) takes precedence, then gradient
        forwarding.  Call symmetrically for both contact directions.
        """
        services = self._require_services()
        for bundle in x.bundles:
            if not isinstance(bundle, ResponseBundle):
                continue
            if bundle.is_expired(now) or services.metrics.is_satisfied(
                bundle.query.query_id
            ):
                x.drop_bundle(bundle.key)
                continue
            if y.node_id == bundle.query.requester:
                if budget.try_consume(bundle.size_bits):
                    x.drop_bundle(bundle.key)
                    services.metrics.on_response_delivered()
                    if services.recorder.enabled:
                        services.recorder.emit(
                            TraceEvent(
                                time=now,
                                kind=TraceEventKind.RESPONSE_DELIVERED,
                                node=y.node_id,
                                data_id=bundle.data.data_id,
                                query_id=bundle.query.query_id,
                                attrs={
                                    "carrier": x.node_id,
                                    "responder": bundle.responder,
                                    "sequence": bundle.sequence,
                                },
                            )
                        )
                    services.deliver(bundle.query, bundle.data, now)
                continue
            if self.graph is None or self._response_router is None:
                continue
            if y.has_seen(bundle.key):
                continue
            decision = self._response_router.decide(
                x.node_id,
                y.node_id,
                bundle.query.requester,
                self.graph,
                bundle.query.remaining(now),
            )
            if decision.transfers:
                if budget.try_consume(bundle.size_bits):
                    if decision.action is ForwardAction.HANDOVER:
                        x.drop_bundle(bundle.key)
                    y.store_bundle(bundle)
                    if services.recorder.enabled:
                        services.recorder.emit(
                            TraceEvent(
                                time=now,
                                kind=TraceEventKind.RESPONSE_FORWARDED,
                                node=y.node_id,
                                data_id=bundle.data.data_id,
                                query_id=bundle.query.query_id,
                                attrs={
                                    "carrier": x.node_id,
                                    "action": decision.action.value,
                                    "responder": bundle.responder,
                                    "sequence": bundle.sequence,
                                },
                            )
                        )
                    self.on_response_relayed(y, bundle, now)

    def on_response_relayed(self, relay: Node, bundle: ResponseBundle, now: float) -> None:
        """Hook: a relay just took over a response bundle.  Incidental
        caching schemes (CacheData, BundleCache) cache pass-by data here."""

    def on_cache_hit(self, node: Node, data: DataItem, now: float) -> None:
        """Hook: a cached item just served a query.  Schemes whose
        replacement policy tracks recency (LRU) or aging (GDS) forward
        the access here."""

    # .. convenience -----------------------------------------------------

    @property
    def nodes(self) -> Sequence[Node]:
        return self._require_services().nodes

    def node(self, node_id: int) -> Node:
        return self._require_services().nodes[node_id]

    def cached_copy_count(self, now: float) -> int:
        """Total unexpired cached copies across all buffers (overhead metric)."""
        total = 0
        for node in self._require_services().nodes:
            total += sum(1 for d in node.buffer.items() if not d.is_expired(now))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"
