"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.data import DataItem, Query
from repro.graph.contact_graph import ContactGraph
from repro.traces.contact import Contact, ContactTrace
from repro.units import DAY, HOUR, MEGABIT


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def line_graph() -> ContactGraph:
    """0 - 1 - 2 - 3 chain with decreasing rates."""
    return ContactGraph(
        4, [(0, 1, 1.0 / HOUR), (1, 2, 1.0 / (2 * HOUR)), (2, 3, 1.0 / (4 * HOUR))]
    )


@pytest.fixture
def star_graph() -> ContactGraph:
    """Hub node 0 connected to five leaves; leaves are not connected."""
    return ContactGraph(6, [(0, leaf, 1.0 / HOUR) for leaf in range(1, 6)])


@pytest.fixture
def small_trace() -> ContactTrace:
    """A deterministic 4-node trace with a hub structure.

    Node 0 is the hub: it meets everyone repeatedly; the leaves never
    meet each other.
    """
    contacts = []
    t = 0.0
    for round_index in range(30):
        base = round_index * HOUR
        for leaf in (1, 2, 3):
            contacts.append(Contact(base + leaf * 60.0, base + leaf * 60.0 + 300.0, 0, leaf))
    return ContactTrace(contacts, num_nodes=4, granularity=60.0, name="unit-hub")


def make_item(
    data_id: int = 0,
    source: int = 0,
    size: int = 10 * MEGABIT,
    created_at: float = 0.0,
    lifetime: float = 1 * DAY,
) -> DataItem:
    return DataItem(
        data_id=data_id,
        source=source,
        size=size,
        created_at=created_at,
        expires_at=created_at + lifetime,
    )


def make_query(
    query_id: int = 0,
    requester: int = 1,
    data_id: int = 0,
    created_at: float = 0.0,
    time_constraint: float = 12 * HOUR,
) -> Query:
    return Query(
        query_id=query_id,
        requester=requester,
        data_id=data_id,
        created_at=created_at,
        time_constraint=time_constraint,
    )


@pytest.fixture
def item_factory():
    return make_item


@pytest.fixture
def query_factory():
    return make_query
