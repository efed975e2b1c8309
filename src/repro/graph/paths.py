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
from typing import Dict, List, Optional, Sequence, Tuple

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
    "hop_rate_tuples_from",
]

#: Most destination rows one batched weight sweep evaluates at once.  A
#: sweep's transient memory — the padded Eq. (2) batch and the Python
#: hop-rate tuples behind it — grows with sources × nodes, so on large
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
    settled: set = set()
    while heap:
        neg_prob, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
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
    reachable: set,
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
# the NCL metric needs — runs through scipy's C Dijkstra.  Hop-rate
# tuples are recovered from the predecessor matrix and scored in one
# batched Eq. (2) evaluation.  The pure-Python implementations above are
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


def _rate_tuples_from_predecessors(
    graph: ContactGraph,
    source: int,
    dist_row: np.ndarray,
    pred_row: np.ndarray,
) -> Dict[int, Tuple[float, ...]]:
    """Rebuild hop-rate tuples for one source from a predecessor row.

    Nodes are processed in increasing-distance order so every node's
    predecessor tuple already exists (hop costs are strictly positive,
    hence dist[pred] < dist[node]).  Rates are read edge by edge through
    :meth:`ContactGraph.rate`, which works in both storage modes without
    materialising the matrix.
    """
    tuples: Dict[int, Tuple[float, ...]] = {source: ()}
    reachable = np.isfinite(dist_row)
    order = np.argsort(dist_row[reachable], kind="stable")
    nodes = np.nonzero(reachable)[0][order]
    for node in nodes:
        node = int(node)
        if node == source:
            continue
        pred = int(pred_row[node])
        tuples[node] = tuples[pred] + (graph.rate(pred, node),)
    return tuples


def hop_rate_tuples_from(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> Dict[int, Tuple[float, ...]]:
    """Hop-rate tuples of the shortest opportunistic paths from *source*.

    The cheap sibling of :func:`shortest_paths_from` when only the rate
    sequences are needed (path weights, calibration probes): in
    expected-delay mode it runs through the vectorized scipy Dijkstra
    without materialising :class:`OpportunisticPath` objects.
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
) -> Dict[int, Tuple[float, ...]]:
    if mode is not PathMode.EXPECTED_DELAY:
        paths = shortest_paths_from(graph, source, time_budget, mode)
        return {node: path.rates for node, path in paths.items()}
    dist, pred = _expected_delay_dijkstra(graph, sources=[source])
    return _rate_tuples_from_predecessors(graph, source, dist[0], pred[0])


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
    mode the whole batch is one scipy Dijkstra over all sources plus one
    batched Eq. (2) evaluation per distinct pad width (see
    :func:`_expected_delay_weight_rows`), so K central-node vectors cost
    one graph conversion instead of K.  Graphs too large for that are
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

    Each source's hop-rate tuples are zero-padded to its own longest
    path, as a single-source sweep pads them, and sources are grouped
    by that width so each group is one :func:`hypoexponential_cdf_batch`
    call.  The grouping is what keeps rows byte-identical across batch
    compositions: every stage of the batch is row-independent, but
    numpy's pairwise row sum groups its terms by row width, so a row
    padded wider can differ in the last ulp.
    """
    weights = np.zeros((len(sources), graph.num_nodes))
    dist, pred = _expected_delay_dijkstra(graph, sources)
    # width -> [(row, destination nodes, their hop-rate tuples)]
    groups: Dict[int, List[Tuple[int, List[int], List[Tuple[float, ...]]]]] = {}
    for row, source in enumerate(sources):
        tuples = _rate_tuples_from_predecessors(graph, source, dist[row], pred[row])
        width = max(1, max(len(rates) for rates in tuples.values()))
        groups.setdefault(width, []).append((row, list(tuples), list(tuples.values())))
    for members in groups.values():
        values = hypoexponential_cdf_batch(
            [rates for _, _, rate_rows in members for rates in rate_rows], time_budget
        )
        start = 0
        for row, nodes, _ in members:
            weights[row, nodes] = values[start : start + len(nodes)]
            start += len(nodes)
    return weights


def shortest_path_weight_matrix(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """All-pairs path-weight matrix W with W[i, j] = p_{ij}(T).

    The NCL metric (Eq. 3) and selection consume rows of this matrix.
    In expected-delay mode one all-sources scipy Dijkstra feeds a single
    batched Eq. (2) evaluation across every (source, destination) pair.
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
    rates = graph.rates
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
        pair_weights = hypoexponential_cdf_batch(
            _hop_slot_matrix(rates, pred, ii, jj), time_budget
        )
        weights[ii, jj] = pair_weights
        weights[jj, ii] = pair_weights
    return weights


def _hop_slot_matrix(
    rates: np.ndarray, pred: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """Padded per-pair hop-rate matrix from the predecessor matrix.

    Hop rates are pulled out of the predecessor matrix one hop *slot* at
    a time (walking destination → source) across all pairs
    simultaneously, then the slot columns are reversed so each row reads
    source → destination with leading zero padding.  Eq. (2) is
    order-invariant mathematically but *not* in float arithmetic — near
    the closed form's separation threshold its coefficients are large
    and cancelling, and summation order moves the result at the 1e-8
    level — so rows are kept in the same hop order the scalar oracle
    evaluates.
    """
    columns: List[np.ndarray] = []
    cur = jj.copy()
    active = cur != ii
    while active.any():
        prev = np.where(active, pred[ii, cur], cur)
        step = np.zeros(len(ii))
        step[active] = rates[prev[active], cur[active]]
        columns.append(step)
        cur = prev
        active = cur != ii
    columns.reverse()
    return np.column_stack(columns) if columns else np.zeros((len(ii), 1))


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
