"""BundleCache baseline — contact-pattern-aware incidental caching in
DTNs (after [23], Sec. VI).

[23] packs data as bundles and lets well-connected relays cache pass-by
bundles to minimise the average access delay toward future requesters.
Reimplementation (documented in DESIGN.md): a relay taking over a
response bundle caches the data iff the relay's aggregate contact rate is
in the top ``connectivity_quantile`` of the network — i.e. hubs cache
pass-by data — and replacement evicts by a delay-minimising utility
(popularity × the relay's aggregate contact rate), which is [23]'s
objective expressed on our substrate.

This gives BundleCache the qualitative behaviour the paper measures:
clearly better than the ad-hoc transplants (its copies sit at
well-connected nodes), clearly worse than intentional NCL caching (no
coordination, no push, duplicated copies — the paper reports ~50% gap).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.data import DataItem
from repro.core.replacement import UtilityKnapsackPolicy
from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.sim.bundles import ResponseBundle
from repro.sim.node import Node
from repro.caching.incidental import IncidentalScheme

__all__ = ["BundleCache"]


class BundleCache(IncidentalScheme):
    """Hub relays cache pass-by bundles; utility-based eviction."""

    name = "bundlecache"

    def __init__(self, connectivity_quantile: float = 0.5):
        super().__init__()
        if not 0.0 < connectivity_quantile <= 1.0:
            raise ConfigurationError("connectivity_quantile must be in (0, 1]")
        self.connectivity_quantile = float(connectivity_quantile)
        self._admit = UtilityKnapsackPolicy(probabilistic=False)
        self._rate_threshold: Optional[float] = None
        self._aggregate_rates: Optional[np.ndarray] = None

    def on_graph_updated(self, graph: ContactGraph, now: float) -> None:
        super().on_graph_updated(graph, now)
        rates = graph.aggregate_rates()
        self._aggregate_rates = rates
        positive = rates[rates > 0]
        if positive.size:
            self._rate_threshold = float(
                np.quantile(positive, self.connectivity_quantile)
            )
        else:
            self._rate_threshold = None

    def _is_hub(self, node_id: int) -> bool:
        if self._rate_threshold is None or self._aggregate_rates is None:
            return False
        return bool(self._aggregate_rates[node_id] >= self._rate_threshold)

    def _utility_fn(self, node: Node) -> Callable[[DataItem], float]:
        rate = 0.0
        if self._aggregate_rates is not None:
            total = float(self._aggregate_rates.max()) or 1.0
            rate = float(self._aggregate_rates[node.node_id]) / total

        def utility(item: DataItem) -> float:
            return node.popularity.popularity(item.data_id, item.expires_at) * rate

        return utility

    def on_response_relayed(self, relay: Node, bundle: ResponseBundle, now: float) -> None:
        if relay.find_data(bundle.data.data_id, now) is not None:
            return
        if self._is_hub(relay.node_id):
            self._admit.admit(
                relay.buffer, bundle.data, now, utility=self._utility_fn(relay)
            )
            self.answer_pending_queries(relay, bundle.data.data_id, now)
