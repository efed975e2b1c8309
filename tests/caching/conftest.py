"""Harness for scheme-level unit tests.

Builds a scheme attached to hand-crafted nodes and a fixed contact graph
so individual protocol steps (push hops, query forwarding, responses,
exchanges) can be driven one contact at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.caching.base import CachingScheme, SchemeServices
from repro.core.data import DataItem, Query
from repro.graph.contact_graph import ContactGraph
from repro.metrics.collector import MetricsCollector
from repro.sim.network import TransferBudget
from repro.sim.node import Node
from repro.units import HOUR, MEGABIT


class SchemeHarness:
    """Attach a scheme to N nodes over a fixed contact graph."""

    def __init__(
        self,
        scheme: CachingScheme,
        graph: ContactGraph,
        buffer_capacity: int = 400 * MEGABIT,
        response_horizon: float = 12 * HOUR,
        seed: int = 0,
    ):
        self.scheme = scheme
        self.graph = graph
        self.nodes = [Node(i, buffer_capacity) for i in range(graph.num_nodes)]
        self.metrics = MetricsCollector()
        self.delivered: List[Tuple[Query, DataItem, float]] = []
        self.catalog: Dict[int, DataItem] = {}

        def deliver(query: Query, data: DataItem, now: float) -> None:
            first = self.metrics.on_query_satisfied(query, now)
            self.delivered.append((query, data, now))
            if first:
                scheme.on_data_delivered(self.nodes[query.requester], data, query, now)

        services = SchemeServices(
            nodes=self.nodes,
            rng=np.random.default_rng(seed),
            metrics=self.metrics,
            deliver=deliver,
            lookup_data=lambda data_id: self.catalog.get(data_id),
            response_horizon=response_horizon,
        )
        scheme.attach(services)
        scheme.on_graph_updated(graph, now=0.0)
        scheme.on_warmup_complete(now=0.0)

    def add_data(self, item: DataItem, now: float = 0.0) -> None:
        self.catalog[item.data_id] = item
        node = self.nodes[item.source]
        node.generate_data(item)
        self.metrics.on_data_generated(item)
        self.scheme.on_data_generated(node, item, now)

    def add_query(self, query: Query, now: Optional[float] = None) -> None:
        self.metrics.on_query_created(query)
        self.scheme.on_query_generated(
            self.nodes[query.requester], query, now if now is not None else query.created_at
        )

    def contact(self, a: int, b: int, now: float, budget_bits: int = 10**12) -> TransferBudget:
        budget = TransferBudget(budget_bits)
        self.scheme.on_contact(self.nodes[a], self.nodes[b], now, budget)
        return budget


@pytest.fixture
def hub_spoke_graph() -> ContactGraph:
    """Node 0 is a strong hub; 1-4 are leaves; node 5 is a second-tier
    relay between leaf 4 and the hub."""
    return ContactGraph(
        6,
        [(0, leaf, 2.0 / HOUR) for leaf in (1, 2, 3)]
        + [(0, 5, 4.0 / HOUR), (5, 4, 2.0 / HOUR)],
    )
