"""Shared machinery for the incidental-caching baselines (Sec. VI).

None of the four baselines (NoCache, RandomCache, CacheData,
BundleCache) has NCL structure.  As in the ad-hoc setting CacheData [29]
comes from, a requester addresses its query to the **data source**
("each query result is returned only by the data source" — NoCache), and
the query travels along the opportunistic path-weight gradient toward
that source.  Relays that happen to hold a cached copy intercept the
query and answer it; which nodes hold such copies is exactly what the
four baselines differ in:

* NoCache — nobody caches, only the source answers;
* RandomCache — requesters cache what they received;
* CacheData — relays cache pass-by reply data they observed to be
  popular (but in a DTN they see only the fragmentary query history that
  happens to route through them — the paper's core criticism);
* BundleCache — well-connected relays cache pass-by bundles, so the hub
  nodes that queries naturally route through hold the copies.

Responses return along the same gradient transport the intentional
scheme uses, so the comparison isolates caching behaviour.
"""

from __future__ import annotations

from typing import Optional

from repro.caching.base import CachingScheme, SchemeServices
from repro.core.data import DataItem, Query
from repro.routing.base import ForwardAction
from repro.routing.rate_gradient import RateGradientRouter
from repro.graph.contact_graph import ContactGraph
from repro.sim.bundles import QueryBundle
from repro.sim.network import TransferBudget
from repro.sim.node import Node

__all__ = ["IncidentalScheme"]


class IncidentalScheme(CachingScheme):
    """Base for baselines: source-addressed queries, no push, no exchange.

    ``QueryBundle.target_central`` is reused to carry the query's
    destination — the data source — since the baselines have no central
    nodes.
    """

    def __init__(self) -> None:
        super().__init__()
        self._query_router: Optional[RateGradientRouter] = None

    def attach(self, services: SchemeServices) -> None:
        super().attach(services)
        # Baselines have no administrator-maintained path tables; their
        # source-addressed queries ride the same local-knowledge social
        # forwarding as responses.
        self._query_router = RateGradientRouter()

    def on_graph_updated(self, graph: ContactGraph, now: float) -> None:
        super().on_graph_updated(graph, now)
        if self._query_router is not None:
            self._query_router.update_graph(graph)

    def on_data_generated(self, node: Node, data: DataItem, now: float) -> None:
        """No push: data stays at its source until queried."""
        self.answer_pending_queries(node, data.data_id, now)

    def on_query_generated(self, node: Node, query: Query, now: float) -> None:
        services = self._require_services()
        node.observe_query(query, now)
        source = services.lookup_data(query.data_id)
        if source is None:
            return
        bundle = QueryBundle(
            created_at=now,
            expires_at=query.expires_at,
            query=query,
            target_central=source.source,
        )
        node.store_bundle(bundle)
        self.try_respond(node, query, now)

    def _forward_queries(
        self, x: Node, y: Node, now: float, budget: TransferBudget
    ) -> None:
        """Advance x's query bundles toward the data source through y."""
        if self.graph is None or self._query_router is None:
            return
        for bundle in x.bundles:
            if not isinstance(bundle, QueryBundle):
                continue
            if bundle.is_expired(now):
                x.drop_bundle(bundle.key)
                continue
            destination = bundle.target_central
            assert destination is not None  # baselines always set the source
            if y.has_seen(bundle.key):
                continue
            decision = self._query_router.decide(
                x.node_id, y.node_id, destination, self.graph, bundle.query.remaining(now)
            )
            if not decision.transfers:
                continue
            if not budget.try_consume(bundle.size_bits):
                continue
            if decision.action is ForwardAction.HANDOVER:
                x.drop_bundle(bundle.key)
            if y.node_id != destination:
                replica = QueryBundle(
                    created_at=bundle.created_at,
                    expires_at=bundle.expires_at,
                    query=bundle.query,
                    target_central=destination,
                )
                y.store_bundle(replica)
            y.observe_query(bundle.query, now)
            self.try_respond(y, bundle.query, now)

    def on_contact(self, a: Node, b: Node, now: float, budget: TransferBudget) -> None:
        self.housekeeping(a, now)
        self.housekeeping(b, now)
        self.process_responses(a, b, now, budget)
        self.process_responses(b, a, now, budget)
        self._forward_queries(a, b, now, budget)
        self._forward_queries(b, a, now, budget)
