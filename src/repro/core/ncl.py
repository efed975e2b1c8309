"""NCL selection metric and top-K central-node selection (paper Sec. IV).

The metric of node *i* (Eq. 3) is

    Cᵢ = (1 / (N−1)) · Σ_{j≠i} p_{ji}(T),

the average probability that data reaches *i* from a uniformly random
node within the time budget T along the shortest opportunistic path.
Contact rates are symmetric, so a path weighs the same both ways and
one single-source computation per node suffices: node i's own tree
decides between equal-cost paths (DESIGN.md §5b).

The network administrator selects the top-K metric nodes as central nodes
before any data access (Sec. IV-A); :func:`select_ncls` reproduces that
step and also records, for every node, its closest central node — used by
the caching scheme's utility weighting.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import (
    PathMode,
    _path_weights,
    _reference_shortest_path_weights_from,
    _tree_walk,
)
from repro.graph.sparse import _reference_knn_weight_rows
from repro.graph.weight_cache import shared_weight_cache

__all__ = [
    "DEFAULT_KNN_K",
    "ncl_metric",
    "ncl_metrics",
    "sparse_ncl_metrics",
    "_reference_ncl_metrics",
    "_reference_sparse_ncl_metrics",
    "select_ncls",
    "select_ncls_by",
    "calibrate_time_budget",
    "NCLSelection",
    "SELECTION_STRATEGIES",
]

#: Default k-NN truncation width for sparse-graph NCL metrics.  Real DTN
#: contact graphs concentrate almost all of a node's Eq. 3 mass in its
#: few dozen best-connected peers (weights decay with expected delay);
#: 32 keeps the truncated sum within the noise floor of rate estimation
#: while holding the per-source sweep O(k·degree·log).
DEFAULT_KNN_K = 32


def ncl_metric(
    graph: ContactGraph,
    node: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> float:
    """The Eq. (3) metric Cᵢ of a single node."""
    if graph.num_nodes < 2:
        raise ConfigurationError("NCL metric needs at least two nodes")
    weights = shared_weight_cache().weights(graph, node, time_budget, mode)
    # Exclude the node itself (its trivial path has weight 1).
    return float((weights.sum() - weights[node]) / (graph.num_nodes - 1))


def ncl_metrics(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
    knn_k: Optional[int] = None,
) -> np.ndarray:
    """Vector of Eq. (3) metrics for every node in the graph.

    Dense graphs run through the vectorized all-pairs weight matrix (one
    scipy Dijkstra + one batched Eq. 2 evaluation, cached per graph
    content); :func:`_reference_ncl_metrics` is the retained pure-Python
    oracle.  Sparse graphs — or any graph when *knn_k* is given — route
    to :func:`sparse_ncl_metrics`, which never allocates N×N.
    """
    if graph.num_nodes < 2:
        raise ConfigurationError("NCL metric needs at least two nodes")
    if graph.is_sparse or knn_k is not None:
        k = DEFAULT_KNN_K if knn_k is None else knn_k
        return sparse_ncl_metrics(graph, time_budget, k, mode)
    weights = shared_weight_cache().weight_matrix(graph, time_budget, mode)
    return (weights.sum(axis=1) - np.diag(weights)) / (graph.num_nodes - 1)


def sparse_ncl_metrics(
    graph: ContactGraph,
    time_budget: float,
    k: int = DEFAULT_KNN_K,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Eq. (3) metrics over the k-NN truncated sparse weight rows.

    A lower bound on :func:`ncl_metrics` that converges monotonically as
    *k* grows (truncation only drops non-negative terms) and matches the
    full metric up to summation round-off once ``k >= N-1``.  Its hot
    loop is :func:`~repro.graph.sparse.knn_weight_rows`; the row sums
    are a sequential ``np.bincount``.
    """
    if graph.num_nodes < 2:
        raise ConfigurationError("NCL metric needs at least two nodes")
    rows = shared_weight_cache().knn_rows(graph, time_budget, k, mode)
    return rows.row_sums() / (graph.num_nodes - 1)


def _reference_sparse_ncl_metrics(
    graph: ContactGraph,
    time_budget: float,
    k: int = DEFAULT_KNN_K,
) -> np.ndarray:
    """Dense pure-python oracle for :func:`sparse_ncl_metrics`: row means
    of the dense :func:`_reference_knn_weight_rows` matrix (full
    reference Dijkstra per source, truncated afterwards).  Property
    tests pin the sparse kernel path to this at 1e-9."""
    if graph.num_nodes < 2:
        raise ConfigurationError("NCL metric needs at least two nodes")
    dense = _reference_knn_weight_rows(graph, time_budget, k)
    return (dense.sum(axis=1) - np.diag(dense)) / (graph.num_nodes - 1)


def _reference_ncl_metrics(
    graph: ContactGraph,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Pure-Python oracle for :func:`ncl_metrics` (N independent Dijkstras
    with per-path scalar Eq. 2 evaluation); property tests and the kernel
    benchmarks assert agreement with the vectorized path to 1e-9."""
    if graph.num_nodes < 2:
        raise ConfigurationError("NCL metric needs at least two nodes")
    metrics = np.zeros(graph.num_nodes)
    for node in range(graph.num_nodes):
        weights = _reference_shortest_path_weights_from(graph, node, time_budget, mode)
        metrics[node] = (weights.sum() - weights[node]) / (graph.num_nodes - 1)
    return metrics


@dataclass(frozen=True)
class NCLSelection:
    """Result of the administrator's NCL selection.

    Attributes
    ----------
    central_nodes:
        Node ids of the K selected central nodes, highest metric first.
    metrics:
        The full Eq. (3) metric vector (all nodes).
    time_budget:
        The T used in the metric.
    nearest_central:
        For each node, the central node with the highest path weight from
        it (ties broken toward the higher-metric central node); ``-1``
        for nodes disconnected from every NCL.
    weights_to_central:
        ``weights_to_central[c]`` is the path-weight vector from central
        node *c* to every node (symmetric, so also node→c weights).
    """

    central_nodes: Tuple[int, ...]
    metrics: np.ndarray
    time_budget: float
    nearest_central: np.ndarray
    weights_to_central: Dict[int, np.ndarray]

    @property
    def k(self) -> int:
        return len(self.central_nodes)

    def is_central(self, node: int) -> bool:
        return node in self.central_nodes

    def weight_to(self, node: int, central: int) -> float:
        """Path weight p(T) between *node* and central node *central*."""
        return float(self.weights_to_central[central][node])

    def best_weight(self, node: int) -> float:
        """Path weight from *node* to its nearest central node."""
        central = int(self.nearest_central[node])
        if central < 0:
            return 0.0
        return self.weight_to(node, central)

    def rank_of(self, node: int) -> Optional[int]:
        """0-based rank of *node* among central nodes, or ``None``."""
        try:
            return self.central_nodes.index(node)
        except ValueError:
            return None


def select_ncls(
    graph: ContactGraph,
    k: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
    knn_k: Optional[int] = None,
) -> NCLSelection:
    """Select the top-K central nodes by the Eq. (3) metric.

    Ties are broken by node id so the selection is deterministic.
    Sparse graphs rank by the k-NN truncated metric (*knn_k*, defaulting
    to :data:`DEFAULT_KNN_K`); the per-central weight vectors are still
    exact single-source sweeps.
    """
    if k < 1:
        raise ConfigurationError("at least one NCL is required")
    if k > graph.num_nodes:
        raise ConfigurationError(
            f"cannot select {k} NCLs from {graph.num_nodes} nodes"
        )
    metrics = ncl_metrics(graph, time_budget, mode, knn_k=knn_k)
    order: List[int] = sorted(
        range(graph.num_nodes), key=lambda n: (-metrics[n], n)
    )
    return _build_selection(graph, tuple(order[:k]), metrics, time_budget, mode)


def _build_selection(
    graph: ContactGraph,
    central_nodes: Tuple[int, ...],
    metrics: np.ndarray,
    time_budget: float,
    mode: PathMode,
) -> NCLSelection:
    vectors = shared_weight_cache().weight_rows(graph, central_nodes, time_budget, mode)
    weights_to_central = dict(zip(central_nodes, vectors))
    nearest = np.full(graph.num_nodes, -1, dtype=int)
    best = np.zeros(graph.num_nodes)
    for c in central_nodes:  # iteration order = selection priority
        weights = weights_to_central[c]
        better = weights > best
        nearest[better] = c
        best[better] = weights[better]
    return NCLSelection(
        central_nodes=central_nodes,
        metrics=metrics,
        time_budget=time_budget,
        nearest_central=nearest,
        weights_to_central=weights_to_central,
    )


def _rank_by_degree(graph: ContactGraph) -> List[int]:
    return sorted(range(graph.num_nodes), key=lambda n: (-graph.degree(n), n))


def _rank_by_aggregate_rate(graph: ContactGraph) -> List[int]:
    totals = graph.aggregate_rates()
    return sorted(range(graph.num_nodes), key=lambda n: (-totals[n], n))


#: strategies accepted by :func:`select_ncls_by` — the Eq. (3) metric the
#: paper proposes plus the cheaper heuristics its ablations should be
#: compared against (degree centrality, total contact rate, random).
SELECTION_STRATEGIES = ("metric", "degree", "aggregate_rate", "random")


def select_ncls_by(
    graph: ContactGraph,
    k: int,
    time_budget: float,
    strategy: str = "metric",
    mode: PathMode = PathMode.EXPECTED_DELAY,
    seed: int = 0,
    knn_k: Optional[int] = None,
) -> NCLSelection:
    """Select K central nodes by an alternative ranking strategy.

    ``"metric"`` is the paper's Eq. (3) selection (identical to
    :func:`select_ncls`); ``"degree"`` ranks by contact-graph degree,
    ``"aggregate_rate"`` by total contact rate, and ``"random"`` draws a
    seeded uniform sample — the ablations for Sec. IV's claim that
    *appropriate* NCL selection matters.

    The returned :class:`NCLSelection` still carries the Eq. (3) metric
    vector so the quality of the chosen centrals can be inspected.
    """
    if strategy not in SELECTION_STRATEGIES:
        raise ConfigurationError(
            f"unknown selection strategy {strategy!r}; choose from {SELECTION_STRATEGIES}"
        )
    if strategy == "metric":
        return select_ncls(graph, k, time_budget, mode, knn_k=knn_k)
    if k < 1 or k > graph.num_nodes:
        raise ConfigurationError(
            f"cannot select {k} NCLs from {graph.num_nodes} nodes"
        )
    if strategy == "degree":
        order = _rank_by_degree(graph)
    elif strategy == "aggregate_rate":
        order = _rank_by_aggregate_rate(graph)
    else:  # random
        rng = np.random.default_rng(seed)
        order = list(rng.permutation(graph.num_nodes))
    central_nodes = tuple(int(n) for n in order[:k])
    metrics = ncl_metrics(graph, time_budget, mode, knn_k=knn_k)
    return _build_selection(graph, central_nodes, metrics, time_budget, mode)


def calibrate_time_budget(
    graph: ContactGraph,
    target_median: float = 0.5,
    mode: PathMode = PathMode.EXPECTED_DELAY,
    sample_sources: Optional[int] = None,
    seed: int = 0,
    tolerance: float = 0.05,
    max_iterations: int = 40,
) -> float:
    """Choose the metric time budget T adaptively (paper Sec. IV-B).

    "Inappropriate values of T will make C_i close to 0 or 1 ...
    different values of T are used adaptively ... to ensure the
    differentiation of the NCL selection metric values."  This helper
    automates that choice: binary-search the T at which the *median*
    node metric hits ``target_median``, so the distribution is neither
    saturated at 1 nor collapsed at 0.

    In EXPECTED_DELAY mode shortest paths are independent of T, so the
    per-source path computation runs once and only the hypoexponential
    weights are re-evaluated per probe.  ``sample_sources`` restricts
    the calibration to a random subset of source nodes for large graphs.
    """
    if not 0.0 < target_median < 1.0:
        raise ConfigurationError("target_median must be in (0, 1)")
    if graph.num_nodes < 2:
        raise ConfigurationError("calibration needs at least two nodes")

    sources = list(range(graph.num_nodes))
    if sample_sources is not None and sample_sources < len(sources):
        rng = np.random.default_rng(seed)
        sources = sorted(rng.choice(sources, size=sample_sources, replace=False))

    # Walk the sampled sources' trees once (paths don't depend on T in
    # expected-delay mode; in max-probability mode this is a fixed-point
    # approximation anchored at a mid-range budget); every bisection
    # probe scores the walk's paths in one Eq. (2) pass.
    anchor = 1.0
    positive = [rate for _, _, rate in graph.edges()]
    if positive:
        anchor = 1.0 / float(np.median(positive))
    rows, _, rates, hops = _tree_walk(graph, sources, max(anchor, 1.0), mode)
    rows, rates = rows[hops > 0], rates[hops > 0]

    def median_metric(budget: float) -> float:
        totals = np.bincount(
            rows, weights=_path_weights(rates, budget), minlength=len(sources)
        )
        return float(np.median(totals / (graph.num_nodes - 1)))

    # Bracket the target.
    lo, hi = anchor, anchor
    for _ in range(60):
        if median_metric(lo) <= target_median:
            break
        lo /= 2.0
    for _ in range(60):
        if median_metric(hi) >= target_median:
            break
        hi *= 2.0
    if median_metric(hi) < target_median:
        return hi  # graph too sparse to ever reach the target
    for _ in range(max_iterations):
        mid = math.sqrt(lo * hi)  # geometric bisection on a time scale
        value = median_metric(mid)
        if abs(value - target_median) <= tolerance:
            return mid
        if value < target_median:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
