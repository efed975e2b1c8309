"""Sparse-core properties: k-NN kernel vs dense oracles, the sparse flag.

The scale-out path must never change answers, only cost:

* the ``knn_weight_rows`` kernel agrees with its dense pure-python
  oracle ``_reference_knn_weight_rows`` (1e-9) across contact densities,
  and with ``k >= N-1`` recovers the full dense weight matrix;
* ``sparse_ncl_metrics`` agrees with its dense oracle
  ``_reference_sparse_ncl_metrics`` and converges monotonically in k to
  the exact ``ncl_metrics``;
* the ``sparse`` flag only routes NCL selection: a forced-sparse graph
  produces bitwise the same kernel outputs as a forced-dense one;
* the kernel's two cores — the first k nodes of each expected-delay
  tree, and the per-source heap — return byte-identical rows on any
  graph, and at k = N−1 the rows are the weight matrix's;
* end-to-end, a forced-sparse run equals a forced-dense run bitwise
  when both use the same (k-NN) metric, serial and with workers=4.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ncl import (
    _reference_sparse_ncl_metrics,
    ncl_metrics,
    sparse_ncl_metrics,
)
from repro.graph import sparse as sparse_module
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import shortest_path_weight_matrix
from repro.graph.sparse import (
    _knn_rows_core,
    _knn_rows_tree,
    _reference_knn_weight_rows,
    knn_weight_matrix,
    knn_weight_rows,
)
from repro.graph.weight_cache import shared_weight_cache
from repro.traces.catalog import TRACE_PRESETS, load_preset_trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, WEEK
from repro.workload.config import WorkloadConfig


def _graph(seed=2, num_nodes=16, contacts_per_node=60, sparse=None):
    return ContactGraph.from_trace(
        generate_synthetic_trace(
            SyntheticTraceConfig(
                name=f"sparse-prop-{seed}-{contacts_per_node}",
                num_nodes=num_nodes,
                duration=4 * DAY,
                total_contacts=num_nodes * contacts_per_node,
                granularity=60.0,
                seed=seed,
            )
        ),
        sparse=sparse,
    )


#: random sparse edge sets: n nodes, a rate per drawn (i, j) pair
graph_cases = st.integers(min_value=4, max_value=20).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False),
            ),
            min_size=1,
            max_size=3 * n,
        ),
    )
)


def _from_case(case, sparse=None):
    n, raw = case
    edges = {}
    for i, j, rate in raw:
        if i != j:
            edges[(min(i, j), max(i, j))] = rate
    return ContactGraph(
        n, [(i, j, rate) for (i, j), rate in edges.items()], sparse=sparse
    )


# --- k-NN kernel vs dense oracle across densities --------------------------


@pytest.mark.parametrize("contacts_per_node", [6, 25, 120])
@pytest.mark.parametrize("k", [1, 4, 15])
def test_knn_rows_match_dense_oracle_across_densities(contacts_per_node, k):
    graph = _graph(seed=3, contacts_per_node=contacts_per_node)
    fast = knn_weight_matrix(graph, 1 * WEEK, k)
    slow = _reference_knn_weight_rows(graph, 1 * WEEK, k)
    np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)


@settings(max_examples=40, deadline=None)
@given(case=graph_cases, k=st.integers(min_value=1, max_value=24))
# W[5, 7] is a 7-hop path with four rates within 0.6% of each other
# (Σ|C_k| = 3.4e8): the oracle's scalar closed form read it 1.49e-8
# short of 1.0 until the Eq. 2 gate sent it to the matrix exponential.
@example(
    case=(
        9,
        [
            (0, 5, 0.007856216205547247),
            (0, 6, 0.001953125),
            (1, 2, 0.00390625),
            (1, 6, 0.0078125),
            (2, 4, 0.009765625),
            (3, 4, 0.007820987096350544),
            (3, 7, 0.007860347392412252),
            (5, 8, 0.0078125),
        ],
    ),
    k=8,
)
def test_knn_rows_match_dense_oracle_random(case, k):
    graph = _from_case(case)
    fast = knn_weight_matrix(graph, 6 * HOUR, k)
    slow = _reference_knn_weight_rows(graph, 6 * HOUR, k)
    np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)


@pytest.mark.parametrize("contacts_per_node", [6, 25, 120])
def test_full_k_recovers_dense_weight_matrix(contacts_per_node):
    graph = _graph(seed=5, contacts_per_node=contacts_per_node)
    n = graph.num_nodes
    dense = shortest_path_weight_matrix(graph, 1 * WEEK)
    truncated = knn_weight_matrix(graph, 1 * WEEK, n - 1)
    np.testing.assert_allclose(truncated, dense, atol=1e-9, rtol=0)


#: trace-style rates count/elapsed over one day: exact ties are common
quantised_rates = st.integers(min_value=1, max_value=4).map(lambda c: c / 86400.0)
continuous_rates = st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False)


@st.composite
def random_graphs(draw):
    """Random graphs on 2–30 nodes, with quantised or continuous rates."""
    n = draw(st.integers(min_value=2, max_value=30))
    edge_probability = draw(st.floats(min_value=0.05, max_value=0.6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    rates = quantised_rates if draw(st.booleans()) else continuous_rates
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_probability
    ]
    return ContactGraph(n, [(i, j, draw(rates)) for i, j in pairs])


#: From 0, node 3 ties at 1.5 d through relaxers 2 and 4, both at 1 d;
#: the two paths carry different rate multisets.
TIED_RELAXERS = ContactGraph(
    5,
    [(0, 1, 2 / DAY), (0, 4, 1 / DAY), (1, 2, 2 / DAY), (2, 3, 2 / DAY), (3, 4, 2 / DAY)],
)


@settings(max_examples=60, deadline=None)
@given(graph=random_graphs(), heap=st.booleans())
@example(graph=TIED_RELAXERS, heap=False)
@example(graph=TIED_RELAXERS, heap=True)
def test_full_k_rows_are_the_weight_matrix_bit_for_bit(graph, heap):
    """Every expected-delay sweep keeps the reference heap's tree, and
    every path is scored from its sorted rates: at k = N−1 the k-NN rows
    are the matrix, byte for byte, from either k-NN core, ties
    included."""
    n = graph.num_nodes
    with pytest.MonkeyPatch.context() as patch:
        if heap:
            patch.setattr(sparse_module, "_SCIPY_MAX_NODES", 0)
        truncated = knn_weight_matrix(graph, 6 * HOUR, n - 1)
    assert truncated.tobytes() == shortest_path_weight_matrix(graph, 6 * HOUR).tobytes()


def test_full_k_rows_are_the_weight_matrix_on_a_tied_trace_graph():
    """The UCSD first-half graph (node factor 0.3, seed 7) at the preset
    T ties equal-cost paths in many cells; at k = N−1 the k-NN rows are
    still the matrix byte for byte, and the truncated Eq. 3 metric is the
    exact one up to summation round-off."""
    trace = load_preset_trace("ucsd", seed=7, node_factor=0.3, time_factor=0.15)
    graph = ContactGraph.from_trace(trace, until=trace.start_time + trace.duration / 2)
    budget = TRACE_PRESETS["ucsd"].ncl_time_budget
    n = graph.num_nodes
    matrix = shortest_path_weight_matrix(graph, budget)
    assert knn_weight_matrix(graph, budget, n - 1).tobytes() == matrix.tobytes()
    shared_weight_cache().clear()
    exact = ncl_metrics(graph, budget)
    truncated = sparse_ncl_metrics(graph, budget, n - 1)
    np.testing.assert_allclose(truncated, exact, atol=1e-12, rtol=0)


@pytest.mark.parametrize("contacts_per_node", [6, 25, 120])
def test_sparse_ncl_metrics_match_oracle_and_dense(contacts_per_node):
    graph = _graph(seed=7, contacts_per_node=contacts_per_node)
    n = graph.num_nodes
    shared_weight_cache().clear()
    sparse = sparse_ncl_metrics(graph, 1 * WEEK, k=n - 1)
    oracle = _reference_sparse_ncl_metrics(graph, 1 * WEEK, k=n - 1)
    np.testing.assert_allclose(sparse, oracle, atol=1e-9, rtol=0)
    shared_weight_cache().clear()
    exact = ncl_metrics(graph, 1 * WEEK)
    np.testing.assert_allclose(sparse, exact, atol=1e-9, rtol=0)


# --- the two k-NN cores agree byte for byte -------------------------------


@st.composite
def knn_core_cases(draw):
    """(n, edges, k) with quantised or continuous rates, any k."""
    n = draw(st.integers(min_value=1, max_value=30))
    rates = quantised_rates if draw(st.booleans()) else continuous_rates
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node, rates), max_size=3 * n))
    return n, [(i, j, rate) for i, j, rate in edges if i != j], draw(
        st.integers(min_value=1, max_value=40)
    )


@settings(max_examples=80, deadline=None)
@given(case=knn_core_cases(), sparse=st.booleans())
# From node 0 the heap settles 2, 3, 1 (the 3–1 hop costs less than half
# an ulp of 1.0), not the (dist, node) order 1, 2, 3: the guard's case.
@example(case=(4, [(0, 2, 1.0), (0, 3, 1.0), (3, 1, 1e20)], 3), sparse=True)
@example(case=(1, [], 5), sparse=True)
@example(case=(2, [(0, 1, 0.5)], 1), sparse=False)
@example(case=(2, [], 4), sparse=True)
# k >= n - 1 and three components (two of them isolated nodes).
@example(case=(7, [(0, 1, 0.25), (1, 2, 0.5), (4, 5, 1.0)], 9), sparse=True)
# Node 3 is reached at cost 5 through 2 (1 + 4) and through 1 (2 + 3):
# the heap keeps the closer relaxer 2, not the smaller id 1.
@example(
    case=(4, [(0, 2, 1.0), (2, 3, 0.25), (0, 1, 0.5), (1, 3, 1 / 3)], 3), sparse=True
)
# Node 3 has two relaxers at distance 2, 1 direct and 2 over two hops:
# the heap keeps the smaller id 1, so node 3's path is 0–1–3, not 0–4–2–3.
@example(
    case=(5, [(0, 1, 0.5), (0, 4, 1.0), (4, 2, 1.0), (1, 3, 0.5), (2, 3, 0.5)], 4),
    sparse=False,
)
def test_knn_cores_are_byte_identical(case, sparse):
    """The first k nodes of each expected-delay tree are the heap's rows
    exactly.  Every other tier-1 graph is small enough to take the tree
    core, so the heap core runs here and where a test lowers the
    threshold."""
    n, edges, k = case
    graph = ContactGraph(n, edges, sparse=sparse)
    _assert_knn_cores_agree(*graph.csr_rates(), k)


def test_knn_cores_agree_on_zero_cost_edges():
    """Infinite rates cost nothing: nodes 0 and 1 tie source 4 at
    distance 0 and sort ahead of it.  A contact graph refuses infinite
    rates, so the CSR arrays of edges (4, 0, inf), (4, 1, inf),
    (1, 2, 1), (3, 2, 2) are written out."""
    indptr = np.array([0, 1, 3, 5, 6, 8])
    indices = np.array([4, 2, 4, 1, 3, 2, 0, 1])
    data = np.array([math.inf, 1.0, math.inf, 1.0, 2.0, 2.0, math.inf, math.inf])
    _assert_knn_cores_agree(indptr, indices, data, 4)


def _assert_knn_cores_agree(indptr, indices, data, k):
    n = len(indptr) - 1
    sources = np.arange(n, dtype=np.int64)
    k = min(k, max(n - 1, 1))  # as knn_weight_rows clips it
    fast = _knn_rows_tree(indptr, indices, data, sources, k)
    heap = _knn_rows_core(indptr, indices, data, sources, k)
    for name, a, b in zip(("dest", "hop_rows", "counts"), fast, heap):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


# --- monotone convergence in k --------------------------------------------


@settings(max_examples=25, deadline=None)
@given(case=graph_cases)
def test_knn_metric_monotone_in_k(case):
    """Larger k only adds non-negative Eq. 3 terms: the truncated metric
    is non-decreasing in k (to summation-order rounding) and bounded by
    the exact metric."""
    graph = _from_case(case)
    n = graph.num_nodes
    previous = None
    for k in range(1, n):
        metrics = sparse_ncl_metrics(graph, 6 * HOUR, k=k)
        if previous is not None:
            assert np.all(metrics >= previous - 1e-12)
        previous = metrics
    shared_weight_cache().clear()
    exact = ncl_metrics(graph, 6 * HOUR)
    assert np.all(previous <= exact + 1e-9)


# --- storage-mode independence --------------------------------------------


@settings(max_examples=30, deadline=None)
@given(case=graph_cases, k=st.integers(min_value=1, max_value=12))
def test_knn_rows_bitwise_across_storage_modes(case, k):
    dense_store = _from_case(case, sparse=False)
    sparse_store = _from_case(case, sparse=True)
    a = knn_weight_rows(dense_store, 6 * HOUR, k)
    b = knn_weight_rows(sparse_store, 6 * HOUR, k)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(
        dense_store.aggregate_rates(), sparse_store.aggregate_rates()
    )


# --- end-to-end: storage mode invisible, serial == workers=4 ---------------


def _assert_same_fields(a, b):
    """Field-wise equality that treats NaN == NaN (no-success delays)."""
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    assert da.keys() == db.keys()
    for key in da:
        x, y = da[key], db[key]
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), key
        else:
            assert x == y, key


def _sparse_spec(knn_k, sparse_graph):
    from repro.scenario import RunSpec, ScenarioSpec, SchemeSpec, TraceSpec

    return ScenarioSpec(
        trace=TraceSpec(name="infocom05", seed=1, node_factor=0.6, time_factor=0.3),
        scheme=SchemeSpec(name="intentional", num_ncls=3, knn_k=knn_k),
        run=RunSpec(seed=7, sparse_graph=sparse_graph),
    )


def _run_end_to_end(spec):
    from repro.scenario import build_trace, scheme_factory, simulator_config
    from repro.sim.simulator import Simulator

    trace = build_trace(spec.trace)
    workload = WorkloadConfig(
        mean_data_lifetime=trace.duration * 0.1, mean_data_size=100_000_000
    )
    sim = Simulator(trace, scheme_factory(spec)(), workload, simulator_config(spec))
    return sim.run()


def test_end_to_end_bitwise_across_storage_modes():
    """With the same truncated metric on both sides, forcing sparse
    storage must not change a single result field (N≤100 trace scale)."""
    dense_result = _run_end_to_end(_sparse_spec(knn_k=8, sparse_graph=False))
    sparse_result = _run_end_to_end(_sparse_spec(knn_k=8, sparse_graph=True))
    _assert_same_fields(dense_result, sparse_result)


def test_sparse_serial_matches_workers():
    """The forced-sparse pipeline through the process-pool runner must
    aggregate bitwise-identically to the serial sweep."""
    from repro.experiments.runner import run_experiment
    from repro.scenario import build_trace, scheme_factory, simulator_config

    spec = _sparse_spec(knn_k=8, sparse_graph=True)
    trace = build_trace(spec.trace)
    workload = WorkloadConfig(
        mean_data_lifetime=trace.duration * 0.1, mean_data_size=100_000_000
    )
    seeds = (7, 8, 9, 10)
    config = simulator_config(spec)
    serial = run_experiment(trace, scheme_factory(spec), workload, seeds, config=config)
    parallel = run_experiment(
        trace, scheme_factory(spec), workload, seeds, config=config, workers=4
    )
    _assert_same_fields(serial.aggregate, parallel.aggregate)
    for a, b in zip(serial.results, parallel.results):
        _assert_same_fields(a, b)

