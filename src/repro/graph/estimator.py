"""Online contact-rate estimation (paper Sec. III-B / VI-A).

"A node updates its contact rates with other nodes in real time based on
the up-to-date contact counts since the network starts."  This module
implements that estimator for the whole network: contacts are recorded as
they occur, and a :class:`ContactGraph` snapshot can be taken at any
simulation time.

Every snapshot is built from scratch: its rates divide each pair's
contact count by the time elapsed since the origin, so a snapshot taken
at a later time rescales every rate.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.mathutils.poisson import RateEstimator

__all__ = ["OnlineContactGraphEstimator"]


class OnlineContactGraphEstimator:
    """Incremental time-average estimator of all pairwise contact rates.

    Parameters
    ----------
    num_nodes:
        Network size.
    origin:
        Network start time; the denominator of every rate estimate is
        (now − origin).
    sparse:
        Storage mode of the snapshot graphs, forwarded to
        :class:`ContactGraph`: ``True``/``False`` force it, ``None``
        (default) lets the graph auto-select by node count — dense
        below the threshold (the historical representation), adjacency
        lists above it.
    """

    def __init__(
        self,
        num_nodes: int,
        origin: float = 0.0,
        sparse: Optional[bool] = None,
    ):
        if num_nodes < 1:
            raise ConfigurationError("estimator needs at least one node")
        self._num_nodes = int(num_nodes)
        self._origin = float(origin)
        self._sparse = sparse
        self._estimators: Dict[Tuple[int, int], RateEstimator] = {}
        self._inactive: Set[int] = set()

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def origin(self) -> float:
        return self._origin

    def record_contact(self, i: int, j: int, timestamp: float) -> None:
        """Record one contact between *i* and *j* at *timestamp*."""
        if not (0 <= i < self._num_nodes and 0 <= j < self._num_nodes):
            raise ConfigurationError(f"node ids out of range: ({i}, {j})")
        if i == j:
            raise ConfigurationError("self-contacts are not allowed")
        pair = (min(i, j), max(i, j))
        estimator = self._estimators.get(pair)
        if estimator is None:
            estimator = RateEstimator(origin=self._origin, anchor="origin")
            self._estimators[pair] = estimator
        estimator.record(timestamp)

    def set_node_active(self, node: int, active: bool) -> None:
        """Mark *node* as (in)active; inactive nodes report rate 0.

        Churn and failure events (:mod:`repro.sim.dynamics`) call this so
        the next snapshot, built in the same instant, reflects the
        changed topology.
        """
        if not 0 <= node < self._num_nodes:
            raise ConfigurationError(f"node id out of range: {node}")
        if active:
            self._inactive.discard(node)
        else:
            self._inactive.add(node)

    def is_node_active(self, node: int) -> bool:
        return node not in self._inactive

    def contact_count(self, i: int, j: int) -> int:
        pair = (min(i, j), max(i, j))
        estimator = self._estimators.get(pair)
        return estimator.count if estimator else 0

    def total_contacts(self) -> int:
        return sum(e.count for e in self._estimators.values())

    def rate(self, i: int, j: int, now: float) -> float:
        """Current rate estimate λ̂ᵢⱼ at simulated time *now*."""
        if i in self._inactive or j in self._inactive:
            return 0.0
        pair = (min(i, j), max(i, j))
        estimator = self._estimators.get(pair)
        if estimator is None:
            return 0.0
        return estimator.rate(now)

    def snapshot(self, now: float) -> ContactGraph:
        """A fresh :class:`ContactGraph` of the rate estimates at time *now*."""
        elapsed = now - self._origin
        if elapsed <= 0:
            return ContactGraph(self._num_nodes, sparse=self._sparse)
        return ContactGraph(
            self._num_nodes,
            (
                (i, j, estimator.count / elapsed)
                for (i, j), estimator in self._estimators.items()
                if i not in self._inactive and j not in self._inactive
            ),
            sparse=self._sparse,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OnlineContactGraphEstimator(nodes={self._num_nodes}, "
            f"pairs_observed={len(self._estimators)})"
        )
