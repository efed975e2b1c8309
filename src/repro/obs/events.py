"""Trace event records — the vocabulary of the observability layer.

One :class:`TraceEvent` is one step of a data item's or query's
lifecycle.  Events are flat (time, kind, optional node/data/query ids,
plus a free-form ``attrs`` mapping) so they serialise losslessly to one
JSON object per line and back; Python's ``json`` round-trips floats
exactly (``repr``-based), which is what lets the trace-derived metrics
match the live counters bit for bit.  Lines follow the package's one
JSONL rule (:func:`repro.obs.timeseries.jsonable`): strict JSON, NaN as
``null`` and ±inf as ``"Infinity"`` / ``"-Infinity"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Mapping, Optional

from repro.obs.timeseries import float_from_json, jsonable

__all__ = ["TraceEventKind", "TraceEvent"]


class TraceEventKind(str, Enum):
    """Lifecycle stages recorded by the hooks (see DESIGN.md §7)."""

    # data lifecycle
    DATA_GENERATED = "data_generated"        # source created an item
    PUSH_COMPLETED = "push_completed"        # a push copy reached its NCL
    DATA_EXPIRED = "data_expired"            # an item aged out at a node
    PUSH_FORWARDED = "push.forwarded"        # a push copy moved to a new relay
    # query lifecycle
    QUERY_CREATED = "query_created"          # requester issued the query
    QUERY_OBSERVED = "query_observed"        # a node recorded the query
    RESPONSE_DECIDED = "response_decided"    # Sec. V-C probabilistic decision
    RESPONSE_EMITTED = "response_emitted"    # a holder emitted a response copy
    RESPONSE_FORWARDED = "response_forwarded"  # a relay took over a response
    RESPONSE_DELIVERED = "response_delivered"  # a copy reached the requester
    QUERY_SATISFIED = "query_satisfied"      # first in-constraint delivery
    DELIVERY_DUPLICATE = "delivery.duplicate"  # redundant copy, already satisfied
    DELIVERY_LATE = "delivery.late"          # copy arrived past the constraint
    # network-wide bookkeeping
    ROUTE_DECISION = "route_decision"        # a router's forwarding verdict
    EXCHANGE = "exchange"                    # Sec. V-D pairwise replacement
    SAMPLE = "sample"                        # periodic caching-overhead sample
    # network dynamics (churn, failure, NCL re-election)
    NODE_JOINED = "node.joined"              # a node (re)joined the network
    NODE_LEFT = "node.left"                  # a node departed gracefully
    NODE_FAILED = "node.failed"              # a node crashed, losing its state
    NCL_REELECTED = "ncl.reelected"          # the top-K central set changed
    CACHE_MIGRATED = "cache.migrated"        # a copy re-pushed toward new NCLs
    # live health telemetry (serve-mode SLOs and anomaly detection)
    SLO_VIOLATED = "slo.violated"            # a rule breached for its sustain window
    SLO_RECOVERED = "slo.recovered"          # a previously violated rule is healthy
    HEALTH_ANOMALY = "health.anomaly"        # EWMA drift / CUSUM change-point fired
    WORKLOAD_FLASH_CROWD_WINDOW = "workload.flash_crowd_window"  # one-time surge-window announcement
    # memory-footprint telemetry (per-subsystem attribution sampling)
    MEMORY_SAMPLED = "memory.sampled"        # periodic RSS/heap/breakdown sample


@dataclass(frozen=True)
class TraceEvent:
    """One span-like record of the run's event stream."""

    time: float
    kind: TraceEventKind
    node: Optional[int] = None
    data_id: Optional[int] = None
    query_id: Optional[int] = None
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """One compact strict-JSON line (stable key order for diffability)."""
        record: Dict[str, Any] = {"t": self.time, "kind": self.kind.value}
        if self.node is not None:
            record["node"] = self.node
        if self.data_id is not None:
            record["data"] = self.data_id
        if self.query_id is not None:
            record["query"] = self.query_id
        if self.attrs:
            record["attrs"] = self.attrs
        return json.dumps(
            jsonable(record), separators=(",", ":"), sort_keys=True, allow_nan=False
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        record = json.loads(line)
        return cls(
            time=float_from_json(record["t"]),
            kind=TraceEventKind(record["kind"]),
            node=record.get("node"),
            data_id=record.get("data"),
            query_id=record.get("query"),
            attrs=record.get("attrs", {}),
        )
