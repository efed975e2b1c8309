"""Property tests pinning the vectorized kernels to their scalar oracles.

The batch hypoexponential CDF and the scipy-Dijkstra NCL metrics are
performance rewrites of pure-Python reference code; these tests assert
the rewrites are *numerically interchangeable* with the originals —
including on the adversarial inputs (near-duplicate rates, disconnected
graphs) that motivated the fallback machinery.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.ncl import _reference_ncl_metrics, ncl_metrics
from repro.graph import paths
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import (
    _reference_shortest_path_weights_from,
    hop_rate_tuples_from,
    shortest_path_weight_matrix,
    shortest_path_weight_rows,
    shortest_path_weights_from,
)
from repro.mathutils.hypoexponential import (
    hypoexponential_cdf,
    hypoexponential_cdf_batch,
    pad_rate_rows,
)

rate_row = st.lists(
    st.floats(min_value=1e-5, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


@st.composite
def rate_rows_with_near_duplicates(draw):
    """Batches of rate tuples, a fraction perturbed into near-duplicates."""
    rows = draw(st.lists(rate_row, min_size=1, max_size=12))
    for row in rows:
        if len(row) >= 2 and draw(st.booleans()):
            jitter = draw(st.floats(min_value=-1e-9, max_value=1e-9))
            row[1] = row[0] * (1.0 + jitter)
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=rate_rows_with_near_duplicates(), t=st.floats(min_value=0.0, max_value=1e4))
def test_batch_cdf_matches_scalar(rows, t):
    batch = hypoexponential_cdf_batch(rows, t)
    for row, value in zip(rows, batch):
        assert abs(value - hypoexponential_cdf(row, t)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    rows=rate_rows_with_near_duplicates(),
    ts=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=1),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batch_cdf_matches_scalar_with_per_row_times(rows, ts, seed):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 1e4, len(rows))
    batch = hypoexponential_cdf_batch(rows, times)
    for row, t, value in zip(rows, times, batch):
        assert abs(value - hypoexponential_cdf(row, float(t))) < 1e-10


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(rate_row, min_size=1, max_size=8), t=st.floats(min_value=0.0, max_value=1e4))
def test_batch_cdf_accepts_padded_matrix_form(rows, t):
    ragged = hypoexponential_cdf_batch(rows, t)
    padded = hypoexponential_cdf_batch(pad_rate_rows(rows), t)
    np.testing.assert_array_equal(ragged, padded)


def _random_graph(num_nodes: int, edge_probability: float, seed: int) -> ContactGraph:
    rng = np.random.default_rng(seed)
    rates = np.zeros((num_nodes, num_nodes))
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                rates[i, j] = rates[j, i] = rng.uniform(1e-4, 1.0)
    return ContactGraph.from_rate_matrix(rates)


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=14),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.floats(min_value=0.5, max_value=1e4),
)
def test_scipy_ncl_metrics_match_reference(num_nodes, edge_probability, seed, budget):
    """The acceptance oracle: vectorized Eq. (3) == pure-Python Eq. (3)
    on random graphs, including disconnected ones.

    Tolerance note: the vectorized matrix evaluates each unordered pair
    once (p_ij = p_ji) while the reference sweeps every source row, so
    half the pairs are compared across *reversed* hop orders.  Near the
    closed form's separation threshold (adjacent rates within ~1e-6
    relative) its coefficients are large and cancelling, and either
    evaluation order carries a genuine ~1e-8 absolute error against the
    matrix-exponential truth — 1e-7 is the honest agreement bound, not
    1e-9 (hypothesis found rates separated by 5.7e-6 that exceed it).
    """
    graph = _random_graph(num_nodes, edge_probability, seed)
    fast = ncl_metrics(graph, budget)
    reference = _reference_ncl_metrics(graph, budget)
    np.testing.assert_allclose(fast, reference, atol=1e-7, rtol=0)


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=14),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.floats(min_value=0.5, max_value=1e4),
)
def test_scipy_weight_vector_matches_reference(num_nodes, edge_probability, seed, budget):
    graph = _random_graph(num_nodes, edge_probability, seed)
    source = seed % num_nodes
    fast = shortest_path_weights_from(graph, source, budget)
    reference = _reference_shortest_path_weights_from(graph, source, budget)
    np.testing.assert_allclose(fast, reference, atol=1e-9, rtol=0)


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=12),
    edge_probability=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.floats(min_value=0.5, max_value=1e4),
)
def test_weight_matrix_rows_are_single_source_sweeps(num_nodes, edge_probability, seed, budget):
    graph = _random_graph(num_nodes, edge_probability, seed)
    matrix = shortest_path_weight_matrix(graph, budget)
    assert matrix.shape == (num_nodes, num_nodes)
    np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
    for source in range(num_nodes):
        # 1e-7, not 1e-9: rows mix pairs evaluated in both hop orders
        # (see the tolerance note on the NCL oracle test above).
        np.testing.assert_allclose(
            matrix[source],
            _reference_shortest_path_weights_from(graph, source, budget),
            atol=1e-7,
            rtol=0,
        )


def _single_source_sweep(graph: ContactGraph, source: int, budget: float) -> np.ndarray:
    """One source on its own: hop-rate tuples into one Eq. (2) batch,
    padded to that source's longest path."""
    tuples = hop_rate_tuples_from(graph, source, budget)
    weights = np.zeros(graph.num_nodes)
    nodes = list(tuples)
    weights[nodes] = hypoexponential_cdf_batch([tuples[n] for n in nodes], budget)
    return weights


def _assert_rows_are_single_source_sweeps(graph, sources, budget):
    rows = shortest_path_weight_rows(graph, sources, budget)
    assert rows.shape == (len(sources), graph.num_nodes)
    for row, source in zip(rows, sources):
        alone = shortest_path_weights_from(graph, source, budget)
        assert row.tobytes() == alone.tobytes()
        assert row.tobytes() == _single_source_sweep(graph, source, budget).tobytes()


@st.composite
def weight_row_cases(draw):
    """Random graphs in either storage mode, with optional path backbone
    (so sources at its ends grow deeper trees than those in the middle,
    and pad widths differ) and optionally quantised rates (so batches
    repeat hop tuples and cross the Eq. 2 dedup threshold), plus a
    source list that may repeat sources."""
    num_nodes = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    edge_probability = draw(st.floats(min_value=0.0, max_value=0.5))
    quantised = draw(st.booleans())
    backbone = draw(st.booleans())
    edges = []
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if (backbone and j == i + 1) or rng.random() < edge_probability:
                rate = rng.integers(1, 4) / 8.0 if quantised else rng.uniform(1e-4, 1.0)
                edges.append((i, j, rate))
    graph = ContactGraph.from_edges(num_nodes, edges, sparse=draw(st.booleans()))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    sources = draw(st.lists(node, min_size=1, max_size=10))
    return graph, sources, draw(st.floats(min_value=0.5, max_value=1e4))


@settings(max_examples=60, deadline=None)
@given(case=weight_row_cases())
def test_weight_rows_are_byte_identical_to_single_source_sweeps(case):
    """The batched sweep must not move a single bit of any row: the
    routers and NCL selection read these vectors, and the simulation
    outputs are pinned bitwise."""
    _assert_rows_are_single_source_sweeps(*case)


def _chain(sparse: bool) -> ContactGraph:
    """A 13-node chain with well-separated rates."""
    rates = [0.05 * 1.5**i for i in range(12)]
    return ContactGraph.from_edges(
        13, [(i, i + 1, rate) for i, rate in enumerate(rates)], sparse=sparse
    )


#: chain sources whose trees are 12, 6, 12, 12, 9, 12 and 12 hops deep
CHAIN_SOURCES = [0, 6, 12, 0, 3, 12, 0]


def test_weight_rows_mix_pad_widths_and_cross_the_dedup_threshold():
    """A 6-hop row summed at width 6 and at width 12 can differ in the
    last ulp (numpy sums eight or more terms pairwise), so this fails if
    rows of different widths share a batch.  The width-12 group is 65
    rows, past the Eq. 2 dedup threshold that no single 13-row sweep
    reaches."""
    for sparse in (False, True):
        _assert_rows_are_single_source_sweeps(_chain(sparse), CHAIN_SOURCES, 30.0)


def test_weight_rows_do_not_depend_on_source_chunking(monkeypatch):
    graph = _chain(sparse=True)
    whole = shortest_path_weight_rows(graph, CHAIN_SOURCES, 30.0)
    sweeps = []
    dijkstra = paths._expected_delay_dijkstra

    def recording(g, sources):
        sweeps.append(list(sources))
        return dijkstra(g, sources)

    monkeypatch.setattr(paths, "_SWEEP_ROWS", 2 * graph.num_nodes)
    monkeypatch.setattr(paths, "_expected_delay_dijkstra", recording)
    chunked = shortest_path_weight_rows(graph, CHAIN_SOURCES, 30.0)
    assert sweeps == [[0, 6], [12, 0], [3, 12], [0]]  # two sources per chunk
    assert chunked.tobytes() == whole.tobytes()
