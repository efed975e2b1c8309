"""k-nearest-contact sparse path-weight kernel (scale-out Eq. 2/3).

At 10⁵ nodes the all-pairs weight matrix of :mod:`repro.graph.paths` is
un-materialisable (N² doubles is 80 GB) and even one full Dijkstra per
source is too slow, because every source sweep would visit the whole
graph.  This module computes the Eq. (2) delivery weights that the NCL
metric (Eq. 3) actually needs — the weights to each node's *k nearest
contacts* — with an early-stopped Dijkstra per source over the graph's
CSR structure: the sweep settles exactly ``k`` destinations and stops,
so per-source cost scales with the local neighbourhood, not with N, and
no N×N array is ever allocated at scale.

Truncation error: path weights decay with expected delay, and Dijkstra
settles destinations in ascending expected-delay order, so the dropped
(N−1−k) terms of a node's Eq. 3 sum are each no larger than the
smallest kept term's weight bound p(T; d_k) — the truncated metric is a
lower bound that converges monotonically to the exact metric as k grows
(larger k only ever adds non-negative terms; see DESIGN.md §5c).

The per-source sweep is a binary-heap Dijkstra keyed on the distinct
pairs ``(dist, node)``, whose pop order any min-heap reproduces exactly.
Graphs below :data:`_SCIPY_MAX_NODES` nodes get the same rows from one
all-sources scipy Dijkstra instead: the kept destinations are the first
k of each distance row in ``(dist, node)`` order, and each one's
predecessor is rebuilt with the heap's own tie rule, so the tree is the
heap's and not the one scipy picks (:func:`_knn_rows_scipy`).  The
dense :func:`_reference_knn_weight_rows` oracle runs the full
pure-python reference Dijkstra and truncates afterwards; property tests
pin the sparse kernel to it and both cores to each other byte for byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.errors import PathError
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import PathMode
from repro.mathutils.hypoexponential import (
    hypoexponential_cdf_batch,
    path_delivery_probability,
)
from repro.obs.profile import active_profiler, maybe_span

__all__ = ["KnnWeightRows", "knn_weight_rows", "knn_weight_matrix"]

#: Sources per kernel batch: bounds the live hop-row scratch to
#: ``_CHUNK_SOURCES * k`` rows regardless of graph size.
_CHUNK_SOURCES = 2048

#: Graphs with fewer nodes take :func:`_knn_rows_scipy`; larger ones the
#: per-source heap of :func:`_knn_rows_core`.  scipy sweeps every node
#: from every source, while the heap stops after k, so the heap wins
#: once N is large against k (measured crossover: DESIGN.md §5c).
_SCIPY_MAX_NODES = 1024


@dataclass(frozen=True)
class KnnWeightRows:
    """CSR-shaped k-nearest path weights: row *i* holds p_ij(T) for the
    (up to) k nearest contacts j of node i, column indices ascending."""

    num_nodes: int
    k: int
    time_budget: float
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(destination ids, weights) of node *i*'s kept pairs."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.weights[lo:hi]

    def row_sums(self) -> np.ndarray:
        """Σⱼ p_ij(T) per source — the Eq. 3 numerator (diagonal excluded).

        ``np.bincount`` accumulates strictly sequentially, so the sum is
        deterministic for identical weights.
        """
        sources = np.repeat(
            np.arange(self.num_nodes), np.diff(self.indptr)
        )
        return np.bincount(sources, weights=self.weights, minlength=self.num_nodes)

    def to_dense(self) -> np.ndarray:
        """Dense N×N view (diagonal 1, dropped pairs 0) — small-N tests
        compare this against the dense weight matrix."""
        dense = np.zeros((self.num_nodes, self.num_nodes))
        np.fill_diagonal(dense, 1.0)
        sources = np.repeat(
            np.arange(self.num_nodes), np.diff(self.indptr)
        )
        dense[sources, self.indices] = self.weights
        return dense


def knn_weight_rows(
    graph: ContactGraph,
    time_budget: float,
    k: int,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> KnnWeightRows:
    """Eq. (2) weights from every node to its k nearest contacts.

    Runs one early-stopped sparse Dijkstra per source and scores all
    settled paths in chunked :func:`hypoexponential_cdf_batch` calls.
    Memory is O(N·k + E); never O(N²) at scale.  Graphs below
    :data:`_SCIPY_MAX_NODES` nodes get the same rows from one scipy
    sweep over all sources, whose scratch holds a few N×N arrays
    (8 MB each just below the threshold).
    """
    if time_budget <= 0:
        raise PathError("time budget must be positive")
    if k < 1:
        raise PathError("k must be at least 1")
    if mode is not PathMode.EXPECTED_DELAY:
        raise PathError("k-NN truncation is defined for expected-delay mode only")
    with maybe_span(active_profiler(), "kernel.knn_rows"):
        return _knn_weight_rows(graph, time_budget, k)


def _knn_weight_rows(
    graph: ContactGraph, time_budget: float, k: int
) -> KnnWeightRows:
    n = graph.num_nodes
    k = min(int(k), max(n - 1, 1))
    indptr, indices, data = graph.csr_rates()
    rows_core = _knn_rows_scipy if n < _SCIPY_MAX_NODES else _knn_rows_core
    counts_parts: List[np.ndarray] = []
    index_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    for start in range(0, n, _CHUNK_SOURCES):
        sources = np.arange(start, min(start + _CHUNK_SOURCES, n), dtype=np.int64)
        dest, hop_rows, counts = rows_core(indptr, indices, data, sources, k)
        valid = dest >= 0
        dest = dest[valid]
        rows = hop_rows[valid]
        if len(dest):
            # Trim trailing all-zero hop columns (rows are left-aligned)
            # before the batched Eq. (2) call.
            hops = (rows > 0.0).sum(axis=1)
            width = max(int(hops.max()), 1)
            chunk_weights = hypoexponential_cdf_batch(rows[:, :width], time_budget)
            # Canonical CSR: destinations ascending within each source.
            src_of_row = np.repeat(sources - start, counts)
            order = np.argsort(src_of_row * np.int64(n + 1) + dest, kind="stable")
            index_parts.append(dest[order])
            weight_parts.append(chunk_weights[order])
        counts_parts.append(counts)
    all_counts = np.concatenate(counts_parts) if counts_parts else np.zeros(0, np.int64)
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(all_counts, out=out_indptr[1:])
    out_indices = (
        np.concatenate(index_parts) if index_parts else np.zeros(0, np.int64)
    )
    out_weights = (
        np.concatenate(weight_parts) if weight_parts else np.zeros(0)
    )
    return KnnWeightRows(
        num_nodes=n,
        k=k,
        time_budget=float(time_budget),
        indptr=out_indptr,
        indices=out_indices,
        weights=out_weights,
    )


def _knn_rows_core(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    sources: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-source early-stopped Dijkstra behind :func:`knn_weight_rows`.

    For each source: binary-heap Dijkstra keyed on ``(dist, node)``
    (all heap keys distinct — re-pushes strictly improve the distance —
    so pop order is implementation-independent), strict ``<``
    relaxation, neighbours relaxed in ascending CSR order: the exact
    recipe of the reference Dijkstra in :mod:`repro.graph.paths`, which
    makes the settled prefix a prefix of the full sweep's settle order.
    Stops after settling k destinations.

    Returns ``(dest, hop_rows, counts)``: per source, up to k settled
    destination ids (slot-padded with −1 into ``dest[t*k:(t+1)*k]``),
    their left-aligned source→destination hop-rate rows, and the number
    settled.
    """
    m = len(sources)
    dest = np.full(m * k, -1, dtype=np.int64)
    hop_rows = np.zeros((m * k, k))
    counts = np.zeros(m, dtype=np.int64)
    inf = float("inf")
    for t in range(m):
        s = int(sources[t])
        dist: Dict[int, float] = {s: 0.0}
        pred: Dict[int, int] = {}
        pred_rate: Dict[int, float] = {}
        settled: set = set()
        heap: List[Tuple[float, int]] = [(0.0, s)]
        base = t * k
        found = 0
        while heap and found < k:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            if node != s:
                row = base + found
                dest[row] = node
                hops: List[float] = []
                cur = node
                while cur != s:
                    hops.append(pred_rate[cur])
                    cur = pred[cur]
                hops.reverse()
                hop_rows[row, : len(hops)] = hops
                found += 1
                if found == k:
                    break
            for e in range(int(indptr[node]), int(indptr[node + 1])):
                nb = int(indices[e])
                if nb in settled:
                    continue
                rate = float(data[e])
                candidate = d + 1.0 / rate
                if candidate < dist.get(nb, inf):
                    dist[nb] = candidate
                    pred[nb] = node
                    pred_rate[nb] = rate
                    heapq.heappush(heap, (candidate, nb))
        counts[t] = found
    return dest, hop_rows, counts


def _knn_rows_scipy(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    sources: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_knn_rows_core`'s output, byte for byte, from one scipy
    Dijkstra over all *sources*.

    * Distances: scipy sets each one to the minimum over in-neighbours u
      of ``dist[u] + 1/λ_uv``, the float additions the heap makes; a
      minimum does not depend on which tree either side keeps.
    * Kept set: while every tree edge raises the distance, the heap pops
      in ascending ``(dist, node)`` order, so its first k settled nodes
      follow the source in a stable argsort of the distance row.
    * Tree: relaxation is strict ``<`` in settle order, so the heap's
      predecessor of v is the in-neighbour u with the smallest
      ``(dist[u], u)`` among those where ``dist[u] + 1/λ_uv == dist[v]``,
      and the hop rate is the entry in u's CSR row.  scipy's own
      predecessors may pick another tree: k/T rates tie exactly, and the
      tied trees carry different rate multisets.
    * Guard: a predecessor as far as v itself (an edge cost below half
      an ulp of the path cost) can reorder the heap's pops, so such a
      chunk goes to the heap instead.
    """
    n = len(indptr) - 1
    m = len(sources)
    costs = 1.0 / data
    dist = _csgraph_dijkstra(
        _scipy_csr_matrix((costs, indices, indptr), shape=(n, n)),
        directed=True,
        indices=sources,
    ).reshape(m, n)
    order = np.argsort(dist, axis=1, kind="stable")
    width = min(k, n - 1)
    kept = order[:, 1 : width + 1]
    kept_dist = np.take_along_axis(dist, kept, axis=1)
    valid = np.isfinite(kept_dist)  # a prefix of each row
    # CSR entries grouped by column: each node's in-edges, rows ascending.
    by_col = np.argsort(indices, kind="stable")
    in_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=in_ptr[1:])
    edge_row = np.repeat(np.arange(n), np.diff(indptr))
    # One entry per (kept pair, in-edge of its node).
    src_of, slot_of = np.nonzero(valid)
    node = kept[src_of, slot_of]
    node_dist = kept_dist[src_of, slot_of]
    lo = in_ptr[node]
    deg = in_ptr[node + 1] - lo
    first_entry = np.cumsum(deg) - deg
    pair = np.repeat(np.arange(len(node)), deg)
    edge = by_col[np.arange(len(pair)) + np.repeat(lo - first_entry, deg)]
    relaxer = edge_row[edge]
    relaxer_dist = dist[src_of[pair], relaxer]
    ties = relaxer_dist + costs[edge] == node_dist[pair]
    # Stable sort by (pair, dist of tied relaxer); entries already run in
    # ascending relaxer id, so each pair's first entry is the heap's pick.
    pick = np.lexsort((np.where(ties, relaxer_dist, np.inf), pair))[first_entry]
    # Guard: every kept node has a tied relaxer strictly closer than
    # itself.  (A node other than the source at distance 0 would fail it,
    # so each row also starts at its source.)
    if not (ties[pick].all() and (relaxer_dist[pick] < node_dist).all()):
        return _knn_rows_core(indptr, indices, data, sources, k)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n), axis=1)
    # Kept node j of source t owns hop row t*k + j; the extra last row is
    # every source's own, all zeros.  A predecessor sorts before its
    # node, so rows fill in slot order, each from its predecessor's
    # left-aligned row plus one hop.
    source_row = m * k
    pred_rank = rank[src_of, relaxer[pick]]
    pred_row = np.full((m, width), source_row, dtype=np.int64)
    pred_row[src_of, slot_of] = np.where(
        pred_rank > 0, src_of * k + pred_rank - 1, source_row
    )
    hop_rate = np.zeros((m, width))
    hop_rate[src_of, slot_of] = data[edge[pick]]
    hop_rows = np.zeros((source_row + 1, k))
    depth = np.zeros(source_row + 1, dtype=np.int64)
    first_row = np.arange(m) * k
    for j in range(width):
        row, parent = first_row + j, pred_row[:, j]
        hop_rows[row] = hop_rows[parent]
        depth[row] = depth[parent] + 1
        hop_rows[row, depth[row] - 1] = hop_rate[:, j]
    dest = np.full((m, k), -1, dtype=np.int64)
    dest[:, :width] = np.where(valid, kept, -1)
    return dest.reshape(-1), hop_rows[:source_row], valid.sum(axis=1)


def knn_weight_matrix(
    graph: ContactGraph,
    time_budget: float,
    k: int,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Dense N×N matrix of the k-NN truncated weights (small-N helper).

    With ``k >= N-1`` this equals the full
    :func:`repro.graph.paths.shortest_path_weight_matrix` to oracle
    tolerance — the truncation keeps everything.
    """
    return knn_weight_rows(graph, time_budget, k, mode).to_dense()


def _reference_knn_weight_rows(
    graph: ContactGraph,
    time_budget: float,
    k: int,
) -> np.ndarray:
    """Dense pure-python oracle for the ``knn_weight_rows`` kernel.

    Runs the *full* reference expected-delay Dijkstra per source
    (no early stop, no CSR — the graph's neighbor lists directly),
    records the settle order, keeps the first k settled destinations,
    and scores each hop tuple with the scalar Eq. (2).  Returns the
    dense N×N matrix (diagonal 1, dropped pairs 0) that
    :meth:`KnnWeightRows.to_dense` must reproduce.  Equal distances
    cannot make oracle and kernel diverge: both heaps key on the
    distinct ``(dist, node)`` pairs.
    """
    n = graph.num_nodes
    k = min(int(k), max(n - 1, 1))
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, 1.0)
    inf = float("inf")
    for s in range(n):
        dist: Dict[int, float] = {s: 0.0}
        pred: Dict[int, int] = {}
        settled: set = set()
        settle_order: List[int] = []
        heap: List[Tuple[float, int]] = [(0.0, s)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            settle_order.append(node)
            for nb in graph.neighbors(node):
                if nb in settled:
                    continue
                candidate = d + 1.0 / graph.rate(node, nb)
                if candidate < dist.get(nb, inf):
                    dist[nb] = candidate
                    pred[nb] = node
                    heapq.heappush(heap, (candidate, nb))
        kept = [node for node in settle_order if node != s][:k]
        for node in kept:
            hops: List[float] = []
            cur = node
            while cur != s:
                hops.append(graph.rate(pred[cur], cur))
                cur = pred[cur]
            hops.reverse()
            dense[s, node] = path_delivery_probability(hops, time_budget)
    return dense
