"""Runtime invariant checking for the simulator (opt-in sanitizer).

With ``SimulatorConfig(validate_invariants=True)`` the simulator audits
node state after every contact it processes.  The checks are the
structural truths every caching scheme must preserve; a violation
raises :class:`SimulationError` at the event that introduced it, rather
than surfacing later as a silently wrong metric.

The checks cost a few microseconds per node per contact — off by
default, on in the test suite's integration runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.errors import SimulationError
from repro.sim.bundles import PushBundle, QueryBundle, ResponseBundle
from repro.sim.node import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.results import SimulationResult
    from repro.obs.causality import CausalityIndex

__all__ = [
    "check_node",
    "check_nodes",
    "check_buffer_occupancy",
    "check_trace_consistency",
]


def check_node(node: Node, now: float) -> None:
    """Audit one node's state; raises :class:`SimulationError` on breach."""
    buffer = node.buffer
    items = buffer.items()

    # --- buffer accounting ----------------------------------------------
    used = sum(d.size for d in items)
    if used != buffer.used:
        raise SimulationError(
            f"node {node.node_id}: buffer accounting drift "
            f"(sum of sizes {used} != used {buffer.used})"
        )
    if buffer.used > buffer.capacity:
        raise SimulationError(
            f"node {node.node_id}: buffer over capacity "
            f"({buffer.used} > {buffer.capacity})"
        )
    ids = [d.data_id for d in items]
    if len(set(ids)) != len(ids):
        raise SimulationError(f"node {node.node_id}: duplicate cached data ids {ids}")

    # --- bundle sanity ---------------------------------------------------
    seen_keys = set()
    for bundle in node.bundles:
        if bundle.key in seen_keys:
            raise SimulationError(
                f"node {node.node_id}: duplicate bundle key {bundle.key!r}"
            )
        seen_keys.add(bundle.key)
        if isinstance(bundle, PushBundle):
            if bundle.data.is_expired(now):
                raise SimulationError(
                    f"node {node.node_id}: carries push for expired data "
                    f"{bundle.data.data_id}"
                )
        elif isinstance(bundle, QueryBundle):
            if bundle.query.is_expired(now) and not bundle.is_expired(now):
                raise SimulationError(
                    f"node {node.node_id}: query bundle outlives its query "
                    f"{bundle.query.query_id}"
                )
        elif isinstance(bundle, ResponseBundle):
            if bundle.expires_at > bundle.query.expires_at:
                raise SimulationError(
                    f"node {node.node_id}: response outlives query "
                    f"{bundle.query.query_id}"
                )

    # --- query-history sanity ------------------------------------------
    for query_id, query in node.active_queries.items():
        if query.query_id != query_id:
            raise SimulationError(
                f"node {node.node_id}: query table key mismatch "
                f"({query_id} != {query.query_id})"
            )


def check_nodes(nodes: Iterable[Node], now: float) -> None:
    """Audit several nodes (the two parties of a contact, typically)."""
    for node in nodes:
        check_node(node, now)


def check_buffer_occupancy(nodes: Iterable[Node]) -> None:
    """Assert per-node buffer occupancy never exceeds capacity.

    The Sec. V-D exchange withdraws items from two buffers and refills
    them; a refill bug (double-placement, exempt-item miscount) shows up
    as ``used > capacity``.  This is the O(1)-per-node fast check run
    after **every** pairwise exchange — unlike :func:`check_node`'s full
    audit, it is cheap enough to stay on unconditionally.
    """
    for node in nodes:
        buffer = node.buffer
        if buffer.used > buffer.capacity:
            raise SimulationError(
                f"node {node.node_id}: buffer over capacity after replacement "
                f"({buffer.used} > {buffer.capacity})"
            )
        if buffer.used < 0:
            raise SimulationError(
                f"node {node.node_id}: negative buffer occupancy {buffer.used}"
            )


def _floats_equal(a: float, b: float) -> bool:
    """Exact equality with NaN == NaN (both paths had nothing to average)."""
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b


def check_trace_consistency(
    result: "SimulationResult", causality: "CausalityIndex"
) -> None:
    """Cross-check the counters against the trace's delivery chains.

    :meth:`~repro.obs.causality.CausalityIndex.metrics` reads the
    metrics from the chains in the collector's summation order, so a
    consistent run agrees **exactly** (floats included); any mismatch
    means an event was double-counted, dropped, or emitted from the
    wrong hook.  Raises :class:`SimulationError` naming the first
    divergent metric, or listing every query whose ``query_satisfied``
    event disagrees with its chain.
    """
    derived = causality.metrics()
    checks = (
        ("queries_issued", result.queries_issued, derived.queries_issued),
        ("queries_satisfied", result.queries_satisfied, derived.queries_satisfied),
        ("successful_ratio", result.successful_ratio, derived.successful_ratio),
        ("mean_access_delay", result.mean_access_delay, derived.mean_access_delay),
        ("caching_overhead", result.caching_overhead, derived.caching_overhead),
        ("data_generated", result.data_generated, derived.data_generated),
        ("responses_delivered", result.responses_delivered, derived.delivery_events),
        (
            "duplicate_deliveries",
            result.duplicate_deliveries,
            derived.duplicate_deliveries,
        ),
        ("late_deliveries", result.late_deliveries, derived.late_deliveries),
    )
    for name, counted, traced in checks:
        if isinstance(counted, float) or isinstance(traced, float):
            equal = _floats_equal(float(counted), float(traced))
        else:
            equal = counted == traced
        if not equal:
            raise SimulationError(
                f"trace/counter divergence on {name}: "
                f"counters say {counted!r}, trace derives {traced!r}"
            )
    mismatches = causality.mismatches()
    if mismatches:
        raise SimulationError(
            "query_satisfied events disagree with the delivery chains:\n  "
            + "\n  ".join(mismatches)
        )
