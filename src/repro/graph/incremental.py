"""Incremental all-pairs weight-matrix maintenance under edge churn.

The simulator recomputes ``ncl_metrics`` — an Eq. 3 reduction over the
all-pairs weight matrix — on every graph refresh and every churn-driven
re-election, yet between refreshes only a handful of contact rates
change.  This module maintains the expected-delay weight matrix, its
Dijkstra tree (``dist``/``pred``) and per-pair hop counts as mutable
state, and on a rate change recomputes only the *dirty* source rows.

Bitwise contract
----------------
The updated matrix must be **bit-for-bit identical** to a from-scratch
:func:`repro.graph.paths.shortest_path_weight_matrix` on the new graph —
the shared :class:`~repro.graph.weight_cache.PathWeightCache` serves
either under the same content fingerprint, and downstream contracts
(parallel == serial simulation, trace↔counter consistency) assume one
canonical value per fingerprint.  Three ingredients deliver this:

* **Row independence.** scipy's Dijkstra with ``indices=[s]`` returns
  exactly row *s* of the all-sources run, so dirty rows can be replaced
  one by one.
* **Conservative dirtying.** A source row is kept only when *no* heap
  event of its Dijkstra run could have involved a changed edge, in
  either the old or the new run.  For a changed edge (u, v) the label of
  v at the moment u settles is bounded above by the best candidate
  through v's *unchanged* neighbours settled strictly earlier
  (``dist[s,x] < dist[s,u]``); if ``dist[s,u] + min(c_old, c_new)`` is
  not strictly below that bound (both directions), the edge can never
  have relaxed anything in either run, the two heap histories coincide,
  and the stored ``dist``/``pred`` row equals the scratch row exactly —
  ties included, because a tie never produces a strict improvement.
* **Padding discipline.** The batched Eq. 2 evaluation is sensitive to
  the hop-slot pad width at the last ulp (numpy's pairwise summation
  regroups once rows exceed its block size), so re-evaluated pairs are
  padded to the full build's width, and if the *global* maximum hop
  count changes at all the update is abandoned in favour of a scratch
  rebuild (rare: it takes a diameter-altering topology change).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import (
    _expected_delay_dijkstra,
    _pair_weights_from_tree,
)

__all__ = ["TreeState", "build_state", "update_state"]

#: Give up on incremental maintenance beyond this many changed edges —
#: the O(changed · N · degree) dirty analysis would rival the scratch
#: rebuild it is meant to avoid.
_MAX_CHANGED_EDGES = 128

#: Likewise when the dirty-row fraction exceeds this share of sources.
_MAX_DIRTY_FRACTION = 0.5


@dataclass
class TreeState:
    """Mutable all-pairs state for one (graph size, time budget) stream.

    ``weights`` is the *master* writable copy — the cache hands out
    read-only copies, never views into this array.
    """

    num_nodes: int
    time_budget: float
    rates: np.ndarray  # dense symmetric rate matrix (owned copy)
    dist: np.ndarray
    pred: np.ndarray
    weights: np.ndarray
    hop_counts: np.ndarray  # per-pair hops, 0 on/below diagonal & unreachable
    pad_width: int


def build_state(graph: ContactGraph, time_budget: float) -> Tuple[np.ndarray, TreeState]:
    """From-scratch build; returns ``(weights, state)``.

    Performs exactly the computation of
    :func:`~repro.graph.paths.shortest_path_weight_matrix` in
    expected-delay mode (same Dijkstra, same pair batch) while keeping
    the tree for later updates.
    """
    n = graph.num_nodes
    dist, pred = _expected_delay_dijkstra(graph)
    rates = graph.rate_matrix()
    ii, jj = np.triu_indices(n, k=1)
    reachable = np.isfinite(dist[ii, jj])
    ii, jj = ii[reachable], jj[reachable]
    weights = np.zeros((n, n))
    np.fill_diagonal(weights, 1.0)
    hop_counts = np.zeros((n, n), dtype=np.int64)
    pad_width = 1
    if len(ii):
        pair_weights, hops = _pair_weights_from_tree(rates, pred, ii, jj, time_budget)
        weights[ii, jj] = pair_weights
        weights[jj, ii] = pair_weights
        hop_counts[ii, jj] = hops
        pad_width = max(int(hops.max()), 1)
    state = TreeState(
        num_nodes=n,
        time_budget=float(time_budget),
        rates=rates,
        dist=dist,
        pred=pred,
        weights=weights.copy(),
        hop_counts=hop_counts,
        pad_width=pad_width,
    )
    return weights, state


def _label_bound(
    dist: np.ndarray,
    neighbor_nodes: np.ndarray,
    neighbor_costs: np.ndarray,
    anchor: int,
) -> np.ndarray:
    """Per-source upper bound on a node's Dijkstra label at the moment
    *anchor* settles: the best candidate through neighbours settled
    strictly before anchor.  ``inf`` where no such neighbour exists."""
    if len(neighbor_nodes) == 0:
        return np.full(dist.shape[0], np.inf)
    dn = dist[:, neighbor_nodes]
    candidates = np.where(
        dn < dist[:, anchor][:, None], dn + neighbor_costs[None, :], np.inf
    )
    return candidates.min(axis=1)


def update_state(
    state: TreeState, graph: ContactGraph, time_budget: float
) -> Optional[np.ndarray]:
    """Advance *state* to the graph's current rates; returns the new
    weight matrix, or ``None`` when the caller should rebuild from
    scratch (too much churn, hop-width change, shape mismatch).

    On success the state is mutated in place and the returned matrix is
    bitwise identical to a scratch build on the new graph.
    """
    if graph.is_sparse or graph.num_nodes != state.num_nodes:
        return None
    if float(time_budget) != state.time_budget:
        return None
    n = state.num_nodes
    new_rates = graph.rate_matrix()
    old_rates = state.rates
    changed_mask = np.triu(new_rates != old_rates, k=1)
    changed = np.argwhere(changed_mask)
    if len(changed) == 0:
        # Content-identical rates hit the cache by fingerprint before
        # reaching here; this branch is pure defence.
        return state.weights.copy()
    if len(changed) > _MAX_CHANGED_EDGES:
        return None

    with np.errstate(divide="ignore"):
        old_costs = np.where(old_rates > 0.0, 1.0 / np.maximum(old_rates, 1e-300), np.inf)
        new_costs = np.where(new_rates > 0.0, 1.0 / np.maximum(new_rates, 1e-300), np.inf)
    unchanged_edge = (new_rates == old_rates) & (new_rates > 0.0)

    dist = state.dist
    dirty = np.zeros(n, dtype=bool)
    for u, v in changed:
        u, v = int(u), int(v)
        c_min = min(old_costs[u, v], new_costs[u, v])
        for a, b in ((u, v), (v, u)):
            # Could edge (a → b) have produced a heap event in any row's
            # sweep, in either run?  Bound b's label at a's settle time
            # by its unchanged neighbours settled strictly earlier.
            nb = np.nonzero(unchanged_edge[:, b])[0]
            bound = _label_bound(dist, nb, new_costs[nb, b], a)
            dirty |= np.isfinite(dist[:, a]) & (dist[:, a] + c_min < bound)

    dirty_rows = np.nonzero(dirty)[0]
    if len(dirty_rows) == 0:
        # The changed edges were unused and uncompetitive in every
        # sweep: dist/pred/weights are already the scratch answer, only
        # the rates snapshot needs refreshing.
        state.rates = new_rates
        return state.weights.copy()
    if len(dirty_rows) > n * _MAX_DIRTY_FRACTION:
        return None

    new_dist, new_pred = _expected_delay_dijkstra(graph, sources=list(dirty_rows))
    state.dist[dirty_rows] = new_dist
    state.pred[dirty_rows] = new_pred.astype(state.pred.dtype, copy=False)

    # Re-evaluate exactly the pairs whose *source* row (the smaller
    # index — the row the scratch build reads the predecessor chain
    # from) went dirty; every other pair's chain and hop rates are
    # untouched, so its stored weight equals the scratch value.
    ii_parts: List[np.ndarray] = []
    jj_parts: List[np.ndarray] = []
    for s in dirty_rows:
        js = np.arange(int(s) + 1, n)
        ii_parts.append(np.full(len(js), int(s), dtype=np.int64))
        jj_parts.append(js)
    ii = np.concatenate(ii_parts)
    jj = np.concatenate(jj_parts)
    reachable = np.isfinite(state.dist[ii, jj])
    ii_r, jj_r = ii[reachable], jj[reachable]
    if len(ii_r):
        pair_weights, hops = _pair_weights_from_tree(
            new_rates, state.pred, ii_r, jj_r, time_budget, pad_width=state.pad_width
        )
        if int(hops.max()) > state.pad_width:
            # The diameter grew: a scratch batch would use a wider pad,
            # shifting every >block-size row by an ulp.  Rebuild.
            return None
        state.hop_counts[ii_r, jj_r] = hops
        state.weights[ii_r, jj_r] = pair_weights
        state.weights[jj_r, ii_r] = pair_weights
    ii_u, jj_u = ii[~reachable], jj[~reachable]
    state.hop_counts[ii_u, jj_u] = 0
    state.weights[ii_u, jj_u] = 0.0
    state.weights[jj_u, ii_u] = 0.0
    if max(int(state.hop_counts.max()), 1) != state.pad_width:
        # The global maximum hop count shrank — same ulp hazard as above.
        return None
    state.rates = new_rates
    return state.weights.copy()
