"""Weight-gradient (delegation) forwarding — the paper's push/pull relay rule.

Sec. V-A: "we use the opportunistic path weight to the central node as
the relay selection metric ... A relay forwards data to another node with
higher metric than itself, and deletes its own data copy afterwards",
which probabilistically shortens the remaining delay at every hop.

Each node maintains its shortest-opportunistic-path weight to every
destination it routes toward (the paper's nodes maintain exactly this for
the central nodes).  The router holds those vectors for the current
contact-graph snapshot and refills them in one batched call to the
process-wide :mod:`repro.graph.weight_cache` when the snapshot changes —
so the push and query routers of one scheme (and the NCL selection that
preceded them) share a single computation per (graph, destination,
horizon), and a forwarding decision is one array read.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import PathMode
from repro.graph.weight_cache import shared_weight_cache
from repro.routing.base import ForwardAction, ForwardDecision, ObservableRouter

__all__ = ["GradientRouter"]


class GradientRouter(ObservableRouter):
    """Unicast by climbing the path-weight gradient toward the destination.

    Parameters
    ----------
    horizon:
        Time budget T at which path weights are evaluated (the paper uses
        a per-trace T, Sec. IV-B).  Weights are *maintained tables*, so
        the horizon is fixed per router rather than per bundle.
    mode:
        Shortest-path objective (see :class:`repro.graph.paths.PathMode`).
    replicate:
        When ``True`` the carrier keeps its copy after forwarding
        (multi-copy gradient); the paper's push deletes the carrier copy,
        so the default is single-copy handover.
    """

    name = "gradient"

    def __init__(
        self,
        horizon: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
        replicate: bool = False,
    ):
        if horizon <= 0:
            raise ConfigurationError("gradient horizon must be positive")
        self._horizon = float(horizon)
        self._mode = mode
        self._replicate = replicate
        # Weight vectors of the snapshot ``(self._graph, self._version)``,
        # keyed by destination, and the destinations routed toward since
        # that snapshot was installed.
        self._graph: Optional[ContactGraph] = None
        self._version = -1
        self._vectors: Dict[int, np.ndarray] = {}
        self._routed: Set[int] = set()

    @property
    def horizon(self) -> float:
        return self._horizon

    def update_graph(self, graph: ContactGraph) -> None:
        """Install a fresh rate snapshot.

        Nothing is computed here.  The weight table is keyed on
        ``(graph, graph.version)`` and refills on the first decision
        against any other graph or version — including an in-place
        ``set_rate`` on the installed instance — so a snapshot that no
        bundle routes over costs nothing.
        """

    def weight_to(self, node: int, destination: int, graph: ContactGraph) -> float:
        """The maintained path weight from *node* to *destination*."""
        return float(self._weights_to(destination, graph)[node])

    def _weights_to(self, destination: int, graph: ContactGraph) -> np.ndarray:
        """The path-weight vector toward *destination* on *graph*.

        A new snapshot refills the table in one batched cache call that
        covers the destinations routed toward during the previous
        snapshot; a destination first seen in this snapshot is fetched
        on its own.
        """
        if graph is not self._graph or graph.version != self._version:
            carried = sorted(self._routed)
            vectors = shared_weight_cache().weight_rows(
                graph, carried, self._horizon, self._mode
            )
            self._graph, self._version = graph, graph.version
            self._vectors = dict(zip(carried, vectors))
            self._routed = set()
        self._routed.add(destination)
        vector = self._vectors.get(destination)
        if vector is None:
            vector = self._vectors[destination] = shared_weight_cache().weights(
                graph, destination, self._horizon, self._mode
            )
        return vector

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
        weights = self._weights_to(destination, graph)
        carrier_score = float(weights[carrier])
        peer_score = float(weights[peer])
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
