"""Opportunistic paths and their weights (paper Definition 1, Eq. 1–2).

A path between A and B on the contact graph is a node sequence whose hop
rates (λ₁, …, λ_r) define a hypoexponential end-to-end delay; the *path
weight* p_AB(T) is the probability that the delay is at most T.  "The
data transmission delay between two nodes ... is measured by the weight
of the shortest opportunistic path" (Sec. IV-A).

Two notions of "shortest" are supported:

* :attr:`PathMode.EXPECTED_DELAY` (default) — minimise the expected delay
  Σₖ 1/λₖ with a textbook Dijkstra, then score the resulting path with
  Eq. (2).  Additive costs make this exact for its own objective and
  fast, and at the paper's scales it picks the same hub-routed paths.
* :attr:`PathMode.MAX_PROBABILITY` — greedy label-setting that directly
  maximises p(T).  Extending a path can only decrease its weight, so
  labels settle in non-increasing weight order, exactly like Dijkstra;
  because the hypoexponential weight is not hop-separable the result is a
  (high-quality) heuristic rather than a guaranteed optimum.  Tests
  cross-check the two modes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.errors import PathError
from repro.graph.contact_graph import ContactGraph
from repro.mathutils.hypoexponential import (
    hypoexponential_cdf_batch,
    path_delivery_probability,
)
from repro.obs.profile import active_profiler, maybe_span

__all__ = [
    "PathMode",
    "OpportunisticPath",
    "shortest_path",
    "shortest_paths_from",
    "shortest_path_weights_from",
    "shortest_path_weight_rows",
    "shortest_path_weight_matrix",
    "HopRows",
    "hop_rate_tuples_from",
]

#: Most destination rows one batched weight sweep evaluates at once.  A
#: sweep's transient memory — the Eq. (2) batch and the hop-slot walk
#: behind it — grows with sources × nodes, so on large
#: graphs the sources are split into chunks of at most this many rows
#: (at least one source each).  Rows do not depend on the chunking.
#: Trace-scale graphs (tens to hundreds of nodes) fit all K central
#: sources in one chunk; above 2048 nodes a sweep goes one source at a
#: time and peaks where a single-source sweep does (batching 8 sources
#: of a 5000-node sparse graph in one chunk measured 4.5× the
#: tracemalloc peak of single sweeps, and ran no faster).  The
#: all-pairs matrix is not chunked.
_SWEEP_ROWS = 4096


class PathMode(Enum):
    """Objective used to define the shortest opportunistic path."""

    EXPECTED_DELAY = "expected_delay"
    MAX_PROBABILITY = "max_probability"


@dataclass(frozen=True)
class OpportunisticPath:
    """A concrete r-hop opportunistic path (paper Definition 1)."""

    nodes: Tuple[int, ...]
    rates: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise PathError("a path needs at least one node")
        if len(self.rates) != len(self.nodes) - 1:
            raise PathError(
                f"{len(self.nodes)} nodes require {len(self.nodes) - 1} hop rates, "
                f"got {len(self.rates)}"
            )
        if any(rate <= 0 for rate in self.rates):
            raise PathError("hop rates must be positive")

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def destination(self) -> int:
        return self.nodes[-1]

    @property
    def hop_count(self) -> int:
        return len(self.rates)

    @property
    def expected_delay(self) -> float:
        """E[delay] = Σ 1/λₖ (0 for the trivial single-node path)."""
        return sum(1.0 / rate for rate in self.rates)

    def weight(self, time_budget: float) -> float:
        """Paper Eq. (2): P(delay ≤ time_budget)."""
        return path_delivery_probability(self.rates, time_budget)

    def __len__(self) -> int:
        return len(self.nodes)


def _dijkstra_expected_delay(
    graph: ContactGraph, source: int
) -> Dict[int, OpportunisticPath]:
    """Single-source shortest paths minimising expected delay."""
    dist: Dict[int, float] = {source: 0.0}
    prev: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled: set = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for neighbor in graph.neighbors(node):
            if neighbor in settled:
                continue
            candidate = d + 1.0 / graph.rate(node, neighbor)
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return _paths_from_predecessors(graph, source, prev, settled)


def _dijkstra_max_probability(
    graph: ContactGraph, source: int, time_budget: float
) -> Dict[int, OpportunisticPath]:
    """Greedy label-setting maximising the path weight p(T)."""
    best_prob: Dict[int, float] = {source: 1.0}
    best_rates: Dict[int, Tuple[float, ...]] = {source: ()}
    prev: Dict[int, int] = {}
    # Max-heap via negated probability; tie-break on node id for determinism.
    heap: List[Tuple[float, int]] = [(-1.0, source)]
    settled: Dict[int, None] = {}  # in settle order
    while heap:
        neg_prob, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled[node] = None
        rates_here = best_rates[node]
        for neighbor in graph.neighbors(node):
            if neighbor in settled:
                continue
            extended = rates_here + (graph.rate(node, neighbor),)
            prob = path_delivery_probability(extended, time_budget)
            if prob > best_prob.get(neighbor, 0.0):
                best_prob[neighbor] = prob
                best_rates[neighbor] = extended
                prev[neighbor] = node
                heapq.heappush(heap, (-prob, neighbor))
    return _paths_from_predecessors(graph, source, prev, settled)


def _paths_from_predecessors(
    graph: ContactGraph,
    source: int,
    prev: Dict[int, int],
    reachable: Iterable[int],
) -> Dict[int, OpportunisticPath]:
    paths: Dict[int, OpportunisticPath] = {}
    for node in reachable:
        sequence = [node]
        while sequence[-1] != source:
            sequence.append(prev[sequence[-1]])
        sequence.reverse()
        rates = tuple(
            graph.rate(a, b) for a, b in zip(sequence, sequence[1:])
        )
        paths[node] = OpportunisticPath(tuple(sequence), rates)
    return paths


def shortest_paths_from(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> Dict[int, OpportunisticPath]:
    """Shortest opportunistic paths from *source* to every reachable node.

    The returned mapping includes the trivial zero-hop path to *source*
    itself (weight 1 for any non-negative budget).
    """
    if not 0 <= source < graph.num_nodes:
        raise PathError(f"source {source} outside graph of {graph.num_nodes} nodes")
    if time_budget <= 0:
        raise PathError("time budget must be positive")
    if mode is PathMode.EXPECTED_DELAY:
        return _dijkstra_expected_delay(graph, source)
    return _dijkstra_max_probability(graph, source, time_budget)


def shortest_path(
    graph: ContactGraph,
    source: int,
    destination: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> Optional[OpportunisticPath]:
    """Shortest opportunistic path between two nodes, or ``None`` if
    disconnected on the contact graph."""
    return shortest_paths_from(graph, source, time_budget, mode).get(destination)


# --- vectorized expected-delay kernels (scipy.sparse.csgraph) -----------
#
# The expected-delay objective is an ordinary additive shortest path on
# the 1/λ cost matrix, so the whole sweep — including the all-pairs case
# the NCL metric needs — takes its distances from scipy's C Dijkstra and
# its trees from one vectorized pass over the edges
# (:func:`_expected_delay_trees`).  One walk of the predecessor rows
# (:func:`_hop_walk`) recovers every requested path's hop rates at once,
# and :func:`_path_weights` scores them from their sorted rates.  The
# pure-Python implementations above are retained as ``_reference_*``
# oracles (property-tested to 1e-9).

#: Most (source, directed edge) pairs one tie pass of
#: :func:`_expected_delay_trees` holds, so that its scratch does not grow
#: with the number of sources.
_TREE_ENTRIES = 1 << 18


def _expected_delay_trees(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    sources: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Expected-delay shortest-path trees on a contact graph's symmetric
    CSR rate arrays.

    Returns ``(dist, pred)``, one row per source (every node when
    *sources* is ``None``): scipy's Dijkstra distances on the 1/λ costs,
    and the reference heap's trees (:func:`_dijkstra_expected_delay`),
    −1 at a row's source and where a node is unreachable.  A distance is
    the minimum of ``dist[u] + 1/λ_uv`` over the neighbours u, whichever
    tree is kept.  The heap relaxes with strict ``<`` and, while every
    tree edge raises the distance, settles in ``(dist, node)`` order, so
    its predecessor of v is the neighbour u with the smallest
    ``(dist[u], u)`` among those where ``dist[u] + 1/λ_uv == dist[v]``.
    Where a node has no such u strictly closer than itself (an edge cost
    below half an ulp of the path cost), the heap may settle in another
    order: ``pred`` is then ``None``, and the caller runs the per-source
    heap.
    """
    n = len(indptr) - 1
    costs = 1.0 / data
    dist = np.atleast_2d(
        _csgraph_dijkstra(
            _scipy_csr_matrix((costs, indices, indptr), shape=(n, n)),
            directed=True,
            indices=sources,
        )
    )
    pred = np.full(dist.shape, -1, dtype=np.int64)
    degree = np.diff(indptr)
    row_of = np.repeat(np.arange(n), degree)
    chunk = max(1, _TREE_ENTRIES // max(1, len(indices)))
    resolved = 0
    for lo in range(0, len(dist), chunk):
        # Node-major, so each CSR entry gathers one contiguous row: entry
        # e of row v is the edge into v from u = indices[e].
        by_node = np.ascontiguousarray(dist[lo : lo + chunk].T)
        m = by_node.shape[1]
        via = by_node[indices]
        via += costs[:, None]
        tie = via == np.repeat(by_node, degree, axis=0)
        edge, row = np.divmod(np.flatnonzero(tie), m)
        node, relaxer = row_of[edge], indices[edge]
        relaxer_dist = by_node[relaxer, row]
        closer = relaxer_dist < by_node[node, row]  # also drops unreachable
        row, node, relaxer = row[closer], node[closer], relaxer[closer]
        relaxer_dist = relaxer_dist[closer]
        # Per (row, node): the closest tied relaxer, then the smallest id.
        group = row * n + node
        closest = np.full(m * n, np.inf)
        np.minimum.at(closest, group, relaxer_dist)
        keep = relaxer_dist == closest[group]
        pick = np.full(m * n, n)
        np.minimum.at(pick, group[keep], relaxer[keep])
        resolved += np.count_nonzero(pick < n)
        pred[lo : lo + m] = np.where(pick < n, pick, -1).reshape(m, n)
    if resolved != np.count_nonzero(np.isfinite(dist)) - len(dist):
        return dist, None  # a reachable node without a closer relaxer
    return dist, pred


def _hop_walk(
    csr: Tuple[np.ndarray, ...], pred: np.ndarray, rows: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Hop rates of the tree paths to ``nodes[i]`` in the predecessor rows
    ``pred[rows[i]]`` (:func:`_expected_delay_trees`' layout: negative at
    a row's source and where a node is unreachable), on the CSR rate
    arrays *csr*.

    The rate of every tree edge is read once from *csr*, found by one
    ``searchsorted`` over the CSR keys ``row·N + column``, so nothing
    N×N is allocated.  Then all pairs walk back toward their sources
    together, one hop slot per step.  Returns ``(back, hops)``:
    ``back[i, c]`` is the rate of the c-th hop counted back from
    ``nodes[i]`` (zero past its source) and ``hops[i]`` is the pair's hop
    count.  Every requested node must be reachable.
    """
    indptr, indices, data = csr
    n = len(indptr) - 1
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
    # Flat indices row·N + node into the predecessor rows.
    pred = pred.ravel()
    tree = np.flatnonzero(pred >= 0)
    tree_rate = np.zeros(len(pred))
    tree_rate[tree] = data[np.searchsorted(keys, pred[tree] * n + tree % n)]
    live = np.arange(len(nodes))
    base = np.asarray(rows, dtype=np.int64) * n
    at = base + nodes
    steps: List[Tuple[np.ndarray, np.ndarray]] = []
    while True:
        step = pred[at]
        keep = np.flatnonzero(step >= 0)
        if not len(keep):
            break
        live, base, at = live[keep], base[keep], at[keep]
        steps.append((live, tree_rate[at]))
        at = base + step[keep]
    back = np.zeros((len(nodes), max(1, len(steps))))
    hops = np.zeros(len(nodes), dtype=np.int64)
    for column, (pairs, rates) in enumerate(steps):
        back[pairs, column] = rates
        hops[pairs] += 1
    return back, hops


def _tree_walk(
    graph: ContactGraph, sources: Sequence[int], time_budget: float, mode: PathMode
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every reachable (source, node) pair of the shortest-path trees of
    *sources* (validated), with its :func:`_hop_walk` rows.

    Returns ``(rows, nodes, back, hops)``: pair i is
    ``(sources[rows[i]], nodes[i])``, in row-major order, sources
    included (zero hops).  Expected-delay trees come from one
    :func:`_expected_delay_trees` over all *sources*; max-probability
    trees, and expected-delay ones where its guard fails, from the
    pure-Python search, one source at a time.
    """
    csr = graph.csr_rates()
    pred = None
    if mode is PathMode.EXPECTED_DELAY:
        dist, pred = _expected_delay_trees(*csr, sources)
        reach = np.isfinite(dist)
    if pred is None:
        pred = np.full((len(sources), graph.num_nodes), -1, dtype=np.int64)
        reach = np.zeros(pred.shape, dtype=bool)
        for row, source in enumerate(sources):
            for node, path in shortest_paths_from(graph, source, time_budget, mode).items():
                reach[row, node] = True
                if path.hop_count:
                    pred[row, node] = path.nodes[-2]
    rows, nodes = np.nonzero(reach)
    back, hops = _hop_walk(csr, pred, rows, nodes)
    return rows, nodes, back, hops


def _path_weights(rates: np.ndarray, time_budget: float) -> np.ndarray:
    """Eq. (2) weights of paths given as zero-padded hop-rate rows, each
    row's rates in any order and any columns (an all-zero row is a
    zero-hop path, weight 1).

    Each row's rates are sorted, the padding first, and the whole batch
    is one :func:`hypoexponential_cdf_batch` call, whose every stage is
    row-independent and whose row sums ignore padding.  So a weight's
    bits depend only on its path's rate multiset: not on hop order or
    direction, nor on padding, nor on the other rows of the batch.  A
    path and its reverse are one row, which the batch's duplicate-row
    collapse scores once.  This is the one batched Eq. (2) evaluation of
    a path: weight rows, the all-pairs matrix, k-NN rows and calibration
    probes all score here.
    """
    width = int(np.count_nonzero(rates, axis=1).max(initial=1))
    return hypoexponential_cdf_batch(np.sort(rates, axis=1)[:, -width:], time_budget)


def _left_aligned(back: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """A walk's hop slots in hop order from the source, zero-padded on
    the right (``_left_aligned(back, hops)[i, :hops[i]]`` is pair i's
    path)."""
    slot = hops[:, None] - 1 - np.arange(back.shape[1])
    return np.where(slot >= 0, np.take_along_axis(back, np.maximum(slot, 0), 1), 0.0)


class HopRows(NamedTuple):
    """Hop rates of the shortest opportunistic paths from one source.

    ``rates[j, :hops[j]]`` are the rates of the path to node ``j`` in hop
    order from the source, zero-padded on the right to the longest path;
    ``hops[j]`` is 0 at the source and -1 where ``j`` is unreachable.
    """

    rates: np.ndarray
    hops: np.ndarray

    def path_rates(self, node: int) -> Optional[np.ndarray]:
        """The hop rates of the path to *node*, or ``None`` if unreachable."""
        hops = int(self.hops[node])
        return None if hops < 0 else self.rates[node, :hops]


def hop_rate_tuples_from(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> HopRows:
    """Hop rates of the shortest opportunistic paths from *source*.

    The cheap sibling of :func:`shortest_paths_from` when only the rate
    sequences are needed: one :func:`_tree_walk` builds every row
    without materialising :class:`OpportunisticPath` objects in
    expected-delay mode.
    """
    if not 0 <= source < graph.num_nodes:
        raise PathError(f"source {source} outside graph of {graph.num_nodes} nodes")
    if time_budget <= 0:
        raise PathError("time budget must be positive")
    with maybe_span(active_profiler(), "kernel.rate_tuples"):
        _, nodes, back, path_hops = _tree_walk(graph, [source], time_budget, mode)
        rates = np.zeros((graph.num_nodes, back.shape[1]))
        rates[nodes] = _left_aligned(back, path_hops)
        hops = np.full(graph.num_nodes, -1, dtype=np.int64)
        hops[nodes] = path_hops
        return HopRows(rates, hops)


def shortest_path_weights_from(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Vector of path weights p_{source,j}(T) for every node j.

    Unreachable nodes get weight 0; the source itself gets weight 1.
    This is the inner quantity of the NCL metric (Eq. 3).  The
    one-source case of :func:`shortest_path_weight_rows`.
    """
    return shortest_path_weight_rows(graph, [source], time_budget, mode)[0]


def shortest_path_weight_rows(
    graph: ContactGraph,
    sources: Sequence[int],
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Path-weight vectors from several sources in one sweep.

    Row ``r`` is p_{sources[r], j}(T) for every node j, scored on source
    ``sources[r]``'s own tree and byte-identical to what a sweep from
    that source alone returns (see :func:`_weight_rows`), so K
    central-node vectors cost one graph conversion instead of K.
    Graphs too large for that are swept in chunks of sources (see
    :data:`_SWEEP_ROWS`).
    """
    sources = [int(source) for source in sources]
    for source in sources:
        if not 0 <= source < graph.num_nodes:
            raise PathError(
                f"source {source} outside graph of {graph.num_nodes} nodes"
            )
    if time_budget <= 0:
        raise PathError("time budget must be positive")
    if not sources:
        return np.zeros((0, graph.num_nodes))
    with maybe_span(active_profiler(), "kernel.weight_rows"):
        chunk = max(1, _SWEEP_ROWS // graph.num_nodes)
        return np.vstack(
            [
                _weight_rows(graph, sources[i : i + chunk], time_budget, mode)
                for i in range(0, len(sources), chunk)
            ]
        )


def _weight_rows(
    graph: ContactGraph, sources: List[int], time_budget: float, mode: PathMode
) -> np.ndarray:
    """Weight rows for *sources* (validated, non-empty).

    Expected-delay mode scores every reachable (source, node) pair of
    one :func:`_tree_walk` with :func:`_path_weights`, so each row
    depends only on its own source's tree.  Max-probability rows are the
    pure-Python sweeps.
    """
    if mode is not PathMode.EXPECTED_DELAY:
        return np.vstack(
            [
                _reference_shortest_path_weights_from(graph, s, time_budget, mode)
                for s in sources
            ]
        )
    rows, nodes, back, _ = _tree_walk(graph, sources, time_budget, mode)
    weights = np.zeros((len(sources), graph.num_nodes))
    weights[rows, nodes] = _path_weights(back, time_budget)
    return weights


def shortest_path_weight_matrix(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """All-pairs path-weight matrix W with W[i, j] = p_{ij}(T).

    The NCL metric (Eq. 3) and selection consume rows of this matrix.
    Row i is byte for byte ``shortest_path_weight_rows(graph, [i], T)``:
    the rows of all sources from one all-sources sweep, without the
    source chunking (the result is N×N anyway).  Each row follows its own
    source's tree, so W is asymmetric only where equal-cost trees carry
    different rate multisets.
    """
    if time_budget <= 0:
        raise PathError("time budget must be positive")
    with maybe_span(active_profiler(), "kernel.weight_matrix"):
        return _weight_rows(graph, list(range(graph.num_nodes)), time_budget, mode)


def _reference_weight_matrix(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Pure-Python oracle for :func:`shortest_path_weight_matrix`: one
    reference single-source sweep per row.  The vectorized matrix is
    pinned to this to 1e-9 on random graphs."""
    return np.vstack(
        [
            _reference_shortest_path_weights_from(graph, s, time_budget, mode)
            for s in range(graph.num_nodes)
        ]
    )


def _reference_shortest_path_weights_from(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Pure-Python oracle for :func:`shortest_path_weights_from`.

    Kept as the correctness reference for the vectorized kernel
    (property tests assert agreement to 1e-9 on random graphs).
    """
    weights = np.zeros(graph.num_nodes)
    for node, path in shortest_paths_from(graph, source, time_budget, mode).items():
        weights[node] = path.weight(time_budget)
    return weights
