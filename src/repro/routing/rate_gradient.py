"""Contact-rate / social-ranking forwarding (local knowledge only).

The paper's scheme owes its maintained opportunistic-path tables to the
network administrator's NCL infrastructure (Sec. IV-A); generic DTN
traffic — the baselines' source-addressed queries, and every scheme's
response return path ("any existing data forwarding protocol") — has no
such luxury.  This router models the standard social-forwarding recipe
(PRoPHET/SimBet/BubbleRap family) that needs only locally observable
state:

* a node that has *direct* contact history with the destination scores
  by that contact rate λ(n, dest);
* a node with no direct history scores by its aggregate contact rate
  (its social hubness), scaled to stay strictly below every direct
  score.

A carrier hands the bundle to a strictly higher-scoring peer — climb the
social hierarchy until someone who actually meets the destination takes
over, then climb the direct-rate gradient.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.contact_graph import ContactGraph
from repro.routing.base import ForwardAction, ForwardDecision, ObservableRouter

__all__ = ["RateGradientRouter"]


class RateGradientRouter(ObservableRouter):
    """Single-copy forwarding on (direct rate, social hubness) scores."""

    name = "rate_gradient"

    def __init__(self, replicate: bool = False):
        self._replicate = replicate
        self._graph: Optional[ContactGraph] = None
        self._aggregate: Optional[np.ndarray] = None
        self._hub_scale: float = 1.0

    def update_graph(self, graph: ContactGraph) -> None:
        """Recompute the hubness scores unless they already describe
        *graph* (graphs never change after they are built, and the
        router holds the one it scored, so identity is enough)."""
        if graph is self._graph:
            return
        self._graph = graph
        self._aggregate = graph.aggregate_rates()
        max_aggregate = float(self._aggregate.max()) if self._aggregate.size else 0.0
        # Scale hubness scores into (0, smallest positive direct rate):
        # any node with direct history always outranks any node without.
        _indptr, _indices, data = graph.csr_rates()
        floor = float(data.min()) if data.size else 1.0
        self._hub_scale = (floor / (max_aggregate + 1.0)) * 0.5 if max_aggregate > 0 else 0.0

    def score(self, node: int, destination: int, graph: ContactGraph) -> float:
        """The forwarding score of *node* for *destination*."""
        self.update_graph(graph)
        direct = graph.rate(node, destination)
        if direct > 0:
            return direct
        assert self._aggregate is not None
        return float(self._aggregate[node]) * self._hub_scale

    def decide(
        self,
        carrier: int,
        peer: int,
        destination: int,
        graph: ContactGraph,
        time_budget: float,
    ) -> ForwardDecision:
        if peer == destination:
            return self._observe(
                carrier,
                peer,
                destination,
                ForwardDecision(
                    action=ForwardAction.HANDOVER, carrier_score=0.0, peer_score=1.0
                ),
            )
        carrier_score = self.score(carrier, destination, graph)
        peer_score = self.score(peer, destination, graph)
        if peer_score > carrier_score:
            action = (
                ForwardAction.REPLICATE if self._replicate else ForwardAction.HANDOVER
            )
        else:
            action = ForwardAction.KEEP
        return self._observe(
            carrier,
            peer,
            destination,
            ForwardDecision(
                action=action, carrier_score=carrier_score, peer_score=peer_score
            ),
        )
