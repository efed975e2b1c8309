"""Probabilistic response strategies (paper Sec. V-C).

Multiple NCLs may all hold a copy of the requested data; only the first
copy that reaches the requester is useful, so each caching node decides
*probabilistically* whether to respond at all.  Two strategies are given
by the paper, chosen by how much network state a node maintains:

* :class:`PathAwareResponse` — with unconstrained storage a node knows
  its shortest opportunistic path to every node, and responds with
  probability p_CR(T_q − t₀): the weight of its path to the requester
  evaluated at the query's *remaining* time.
* :class:`SigmoidResponse` — with only per-NCL state the node falls back
  to Eq. (4)'s sigmoid of the query's *elapsed* time (see the
  interpretation note in :mod:`repro.mathutils.sigmoid`).

:class:`AlwaysRespond` disables the optimisation (every caching node
replies), which is the natural ablation baseline for the overhead/
accessibility trade-off the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from repro.core.data import Query
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import PathMode
from repro.graph.weight_cache import shared_weight_cache
from repro.mathutils.hypoexponential import path_delivery_probability
from repro.mathutils.sigmoid import ResponseSigmoid

__all__ = [
    "ResponseDecision",
    "ResponseStrategy",
    "AlwaysRespond",
    "SigmoidResponse",
    "PathAwareResponse",
]


@dataclass(frozen=True)
class ResponseDecision:
    """Outcome of one response decision, kept for metrics/auditing."""

    respond: bool
    probability: float
    strategy: str


class ResponseStrategy(Protocol):
    """A caching node's respond-or-not policy."""

    def decide(
        self,
        query: Query,
        now: float,
        caching_node: int,
        rng: np.random.Generator,
    ) -> ResponseDecision:
        """Decide whether *caching_node* returns its cached copy."""
        ...


class AlwaysRespond:
    """Deterministically respond — the no-optimisation ablation."""

    name = "always"

    def decide(
        self,
        query: Query,
        now: float,
        caching_node: int,
        rng: np.random.Generator,
    ) -> ResponseDecision:
        return ResponseDecision(respond=True, probability=1.0, strategy=self.name)


class SigmoidResponse:
    """Eq. (4): respond with probability p_R(t₀) of the elapsed time.

    Parameters mirror the paper: ``p_max ∈ (0, 1]`` and
    ``p_min ∈ (p_max/2, p_max)``; k₂ depends on the query's own time
    constraint T_q, so sigmoids are memoised per distinct T_q (the
    workload typically uses one constraint for every query).

    The elapsed time t₀ is clamped to [0, T_q] **before** Eq. (4) is
    evaluated: a late-forwarded query with t₀ > T_q would otherwise
    extrapolate the sigmoid past p_max (its supremum is k₁ = 2·p_min,
    which exceeds p_max whenever p_min > p_max/2 — i.e. always), and a
    clock skew giving t₀ < 0 would drop the probability below p_min.
    """

    name = "sigmoid"

    def __init__(self, p_min: float = 0.45, p_max: float = 0.8):
        # Validate eagerly with a representative constraint; per-query
        # sigmoids reuse the same (p_min, p_max).
        ResponseSigmoid(p_min, p_max, time_constraint=1.0)
        self._p_min = p_min
        self._p_max = p_max
        self._sigmoids: dict = {}

    @property
    def p_min(self) -> float:
        return self._p_min

    @property
    def p_max(self) -> float:
        return self._p_max

    def _sigmoid_for(self, time_constraint: float) -> ResponseSigmoid:
        sigmoid = self._sigmoids.get(time_constraint)
        if sigmoid is None:
            sigmoid = self._sigmoids[time_constraint] = ResponseSigmoid(
                self._p_min, self._p_max, time_constraint
            )
        return sigmoid

    def probability(self, query: Query, now: float) -> float:
        sigmoid = self._sigmoid_for(query.time_constraint)
        # Query.elapsed clamps to [0, T_q]; ResponseSigmoid.__call__
        # clamps again, so the bound survives any caller handing raw
        # ``now - created_at`` deltas to the sigmoid directly.
        return sigmoid(query.elapsed(now))

    def decide(
        self,
        query: Query,
        now: float,
        caching_node: int,
        rng: np.random.Generator,
    ) -> ResponseDecision:
        probability = self.probability(query, now)
        return ResponseDecision(
            respond=bool(rng.random() < probability),
            probability=probability,
            strategy=self.name,
        )


class PathAwareResponse:
    """Respond with probability p_CR(T_q − t₀), the weight of the node's
    shortest opportunistic path to the requester over the remaining time.

    Requires a contact-graph snapshot; the simulator refreshes it through
    :meth:`update_graph`.  Falls back to a configurable floor probability
    when the requester is unreachable on the snapshot (rate estimates may
    lag reality, and a zero floor would starve such requesters forever).
    """

    name = "path_aware"

    def __init__(
        self,
        graph: Optional[ContactGraph] = None,
        mode: PathMode = PathMode.EXPECTED_DELAY,
        floor: float = 0.05,
    ):
        if not 0.0 <= floor <= 1.0:
            raise ValueError("floor must be a probability")
        self._graph = graph
        self._mode = mode
        self._floor = floor

    def update_graph(self, graph: ContactGraph) -> None:
        self._graph = graph

    def probability(self, query: Query, now: float, caching_node: int) -> float:
        remaining = query.remaining(now)
        if remaining <= 0.0:
            return 0.0
        if self._graph is None:
            return self._floor
        # Expected-delay paths don't depend on the budget, so the hop-rate
        # rows come from the shared content-keyed cache and only the
        # Eq. (2) evaluation runs per decision.
        rates = (
            shared_weight_cache()
            .rate_tuples(self._graph, caching_node, remaining, self._mode)
            .path_rates(query.requester)
        )
        if rates is None:
            return self._floor
        return max(self._floor, path_delivery_probability(rates, remaining))

    def decide(
        self,
        query: Query,
        now: float,
        caching_node: int,
        rng: np.random.Generator,
    ) -> ResponseDecision:
        probability = self.probability(query, now, caching_node)
        return ResponseDecision(
            respond=bool(rng.random() < probability),
            probability=probability,
            strategy=self.name,
        )
