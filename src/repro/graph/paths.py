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
#: sweep's transient memory — the padded Eq. (2) batch and the hop-slot
#: walk behind it — grows with sources × nodes, so on large
#: graphs the sources are split into chunks of at most this many rows
#: (at least one source each).  Rows do not depend on the chunking.
#: Trace-scale graphs (tens to hundreds of nodes) fit all K central
#: sources in one chunk; above 2048 nodes a sweep goes one source at a
#: time and peaks where a single-source sweep does (batching 8 sources
#: of a 5000-node sparse graph in one chunk measured 4.5× the
#: tracemalloc peak of single sweeps, and ran no faster).
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
# the NCL metric needs — runs through scipy's C Dijkstra.  One walk of
# the predecessor rows (:func:`_hop_walk`) recovers every requested
# path's hop rates at once, and the rows are scored in one batched
# Eq. (2) evaluation.  The pure-Python implementations above are
# retained as ``_reference_*`` oracles (property-tested to 1e-9).


def _expected_delay_dijkstra(
    graph: ContactGraph, sources: Optional[Sequence[int]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """scipy Dijkstra on the 1/λ cost matrix; returns (dist, predecessors).

    Both outputs are 2D, one row per requested source (all nodes when
    *sources* is ``None``).  Zero-rate entries are non-edges.

    Both storage modes hand scipy the CSR cost matrix built from
    :meth:`ContactGraph.csr_rates`, never allocating N×N.  scipy turns a
    dense cost matrix into this same CSR before it searches (row-major,
    ascending columns, zero means no edge), so for a dense graph the
    result, scipy's tie-breaking included, is that of a search on the
    dense 1/λ matrix, except that a rate in (0, 1e-300) costs its exact
    1/λ rather than a cost clamped at 1e300.
    """
    indptr, indices, data = graph.csr_rates()
    n = graph.num_nodes
    costs = _scipy_csr_matrix((1.0 / data, indices, indptr), shape=(n, n))
    dist, predecessors = _csgraph_dijkstra(
        costs,
        directed=False,
        indices=sources,
        return_predecessors=True,
    )
    return np.atleast_2d(dist), np.atleast_2d(predecessors)


def _hop_walk(
    graph: ContactGraph, pred: np.ndarray, rows: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Hop rates of the tree paths to ``nodes[i]`` in the predecessor rows
    ``pred[rows[i]]`` of one :func:`_expected_delay_dijkstra` call.

    All pairs walk back toward their sources together, one hop slot per
    step, until each reaches its source (scipy's negative predecessor).
    Each step reads the rates of the edges it crosses from
    :meth:`ContactGraph.csr_rates`, found by one ``searchsorted`` over
    the CSR keys ``row·N + column``, so both storage modes share the
    walk and nothing N×N is allocated.  Returns ``(back, hops)``:
    ``back[i, c]`` is the rate of the c-th hop counted back from
    ``nodes[i]`` (zero past its source) and ``hops[i]`` is the pair's
    hop count.  Every requested node must be reachable.
    """
    indptr, indices, data = graph.csr_rates()
    n = graph.num_nodes
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
    cur = np.array(nodes, dtype=np.int64)
    prev = pred[rows, cur].astype(np.int64)
    hops = np.zeros(len(cur), dtype=np.int64)
    live = np.flatnonzero(prev >= 0)
    columns: List[np.ndarray] = []
    while len(live):
        column = np.zeros(len(cur))
        column[live] = data[np.searchsorted(keys, prev[live] * n + cur[live])]
        columns.append(column)
        hops[live] += 1
        cur[live] = prev[live]
        prev[live] = pred[rows[live], cur[live]]
        live = live[prev[live] >= 0]
    back = np.column_stack(columns) if columns else np.zeros((len(cur), 1))
    return back, hops


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
    ``order`` lists the other reachable nodes in the order the search
    settles them: ascending expected delay, ties by node id
    (max-probability mode: non-increasing weight, ties by node id).
    """

    rates: np.ndarray
    hops: np.ndarray
    order: np.ndarray

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
    sequences are needed (path weights, calibration probes): in
    expected-delay mode one scipy Dijkstra and one :func:`_hop_walk`
    build every row without materialising :class:`OpportunisticPath`
    objects.  Max-probability paths come from the pure-Python search.
    """
    if not 0 <= source < graph.num_nodes:
        raise PathError(f"source {source} outside graph of {graph.num_nodes} nodes")
    if time_budget <= 0:
        raise PathError("time budget must be positive")
    with maybe_span(active_profiler(), "kernel.rate_tuples"):
        return _hop_rate_tuples_from(graph, source, time_budget, mode)


def _hop_rate_tuples_from(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode,
) -> HopRows:
    hops = np.full(graph.num_nodes, -1, dtype=np.int64)
    if mode is not PathMode.EXPECTED_DELAY:
        paths = shortest_paths_from(graph, source, time_budget, mode)
        width = max(1, max(path.hop_count for path in paths.values()))
        rates = np.zeros((graph.num_nodes, width))
        for node, path in paths.items():
            rates[node, : path.hop_count] = path.rates
            hops[node] = path.hop_count
        order = np.array([node for node in paths if node != source], dtype=np.int64)
        return HopRows(rates, hops, order)
    dist, pred = _expected_delay_dijkstra(graph, sources=[source])
    nodes = np.flatnonzero(np.isfinite(dist[0]))
    back, path_hops = _hop_walk(graph, pred, np.zeros_like(nodes), nodes)
    rates = np.zeros((graph.num_nodes, back.shape[1]))
    rates[nodes] = _left_aligned(back, path_hops)
    hops[nodes] = path_hops
    order = nodes[np.argsort(dist[0, nodes], kind="stable")]
    return HopRows(rates, hops, order[order != source])


def shortest_path_weights_from(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Vector of path weights p_{source,j}(T) for every node j.

    Unreachable nodes get weight 0; the source itself gets weight 1.
    This is the inner quantity of the NCL metric (Eq. 3) — contact rates
    are symmetric, so p_{ij} = p_{ji}.  The one-source case of
    :func:`shortest_path_weight_rows`.
    """
    return shortest_path_weight_rows(graph, [source], time_budget, mode)[0]


def shortest_path_weight_rows(
    graph: ContactGraph,
    sources: Sequence[int],
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Path-weight vectors from several sources in one sweep.

    Row ``r`` is p_{sources[r], j}(T) for every node j, byte-identical
    to what a sweep from that source alone returns.  In expected-delay
    mode the whole batch is one scipy Dijkstra over all sources, one
    :func:`_hop_walk` and one batched Eq. (2) evaluation per distinct pad
    width (see :func:`_expected_delay_weight_rows`), so K central-node
    vectors cost one graph conversion instead of K.  Graphs too large for that are
    swept in chunks of sources (see :data:`_SWEEP_ROWS`).
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
        if mode is not PathMode.EXPECTED_DELAY:
            return np.vstack(
                [
                    _reference_shortest_path_weights_from(graph, s, time_budget, mode)
                    for s in sources
                ]
            )
        chunk = max(1, _SWEEP_ROWS // graph.num_nodes)
        return np.vstack(
            [
                _expected_delay_weight_rows(graph, sources[i : i + chunk], time_budget)
                for i in range(0, len(sources), chunk)
            ]
        )


def _expected_delay_weight_rows(
    graph: ContactGraph, sources: List[int], time_budget: float
) -> np.ndarray:
    """Expected-delay weight rows for *sources* (validated, non-empty).

    One :func:`_hop_walk` over every reachable (source, node) pair; each
    source's rows are left-aligned and padded to its own longest path,
    as a single-source sweep pads them, and sources are grouped by that
    width so each group is one :func:`hypoexponential_cdf_batch` call.
    The grouping is what keeps rows byte-identical across batch
    compositions: every stage of the batch is row-independent, but
    numpy's pairwise row sum groups its terms by row width, so a row
    padded wider can differ in the last ulp.
    """
    dist, pred = _expected_delay_dijkstra(graph, sources)
    rows, nodes = np.nonzero(np.isfinite(dist))
    back, hops = _hop_walk(graph, pred, rows, nodes)
    hop_rates = _left_aligned(back, hops)
    widths = np.ones(len(sources), dtype=np.int64)
    np.maximum.at(widths, rows, hops)
    weights = np.zeros((len(sources), graph.num_nodes))
    for width in np.unique(widths):
        pick = np.flatnonzero(widths[rows] == width)
        weights[rows[pick], nodes[pick]] = hypoexponential_cdf_batch(
            hop_rates[pick, :width], time_budget
        )
    return weights


def shortest_path_weight_matrix(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """All-pairs path-weight matrix W with W[i, j] = p_{ij}(T).

    The NCL metric (Eq. 3) and selection consume rows of this matrix.
    In expected-delay mode one all-sources scipy Dijkstra and one
    :func:`_hop_walk` feed a single batched Eq. (2) evaluation across
    every (source, destination) pair of the upper triangle.
    """
    if time_budget <= 0:
        raise PathError("time budget must be positive")
    with maybe_span(active_profiler(), "kernel.weight_matrix"):
        return _shortest_path_weight_matrix(graph, time_budget, mode)


def _shortest_path_weight_matrix(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode,
) -> np.ndarray:
    n = graph.num_nodes
    if mode is not PathMode.EXPECTED_DELAY:
        return np.vstack(
            [shortest_path_weights_from(graph, s, time_budget, mode) for s in range(n)]
        )
    dist, pred = _expected_delay_dijkstra(graph)
    # Rates are symmetric and Eq. (2) is invariant under hop reordering,
    # so p_ij = p_ji: only the upper triangle of reachable pairs is
    # evaluated.  The Dijkstra pass is scipy's C implementation — its
    # tie-breaking between equal-cost trees picks the rate multisets
    # that define the result.
    ii, jj = np.triu_indices(n, k=1)
    reachable = np.isfinite(dist[ii, jj])
    ii, jj = ii[reachable], jj[reachable]
    weights = np.zeros((n, n))
    np.fill_diagonal(weights, 1.0)  # trivial zero-hop path to oneself
    if len(ii):
        # Each row reads source → destination with leading zero padding.
        # Eq. (2) is order-invariant mathematically but *not* in float
        # arithmetic, so rows keep the hop order the scalar oracle
        # evaluates.
        back, _ = _hop_walk(graph, pred, ii, jj)
        pair_weights = hypoexponential_cdf_batch(back[:, ::-1], time_budget)
        weights[ii, jj] = pair_weights
        weights[jj, ii] = pair_weights
    return weights


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
