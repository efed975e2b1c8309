"""Property tests pinning the vectorized kernels to their scalar oracles.

The batch hypoexponential CDF and the scipy-Dijkstra NCL metrics are
performance rewrites of pure-Python reference code; these tests assert
the rewrites are *numerically interchangeable* with the originals —
including on the adversarial inputs (near-duplicate rates, disconnected
graphs) that motivated the fallback machinery.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse.csgraph import dijkstra

from repro.core.ncl import _reference_ncl_metrics, ncl_metric, ncl_metrics
from repro.graph import paths
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import (
    _reference_shortest_path_weights_from,
    hop_rate_tuples_from,
    shortest_path_weight_matrix,
    shortest_path_weight_rows,
    shortest_path_weights_from,
)
from repro.graph.weight_cache import PathWeightCache, shared_weight_cache
from repro.mathutils import hypoexponential
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


#: trace-style rates: few distinct values, so rows repeat and tie
quantised_rate = st.integers(min_value=1, max_value=8).map(lambda c: c / 8.0)


@st.composite
def duplicated_batches(draw):
    """Batches past the dedup threshold drawn from a small vocabulary:
    repeated rows, the same row at several times, zero-hop rows, and
    repeated-rate rows that take the expm fallback."""
    vocabulary = draw(
        st.lists(
            st.one_of(
                st.lists(quantised_rate, max_size=5),
                st.tuples(quantised_rate, st.integers(min_value=2, max_value=4)).map(
                    lambda pair: [pair[0]] * pair[1]
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    times = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 3.0]) | st.floats(min_value=0.0, max_value=1e3),
            min_size=1,
            max_size=3,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(vocabulary) - 1),
                st.integers(min_value=0, max_value=len(times) - 1),
            ),
            min_size=hypoexponential._DEDUP_MIN_ROWS,
            max_size=160,
        )
    )
    rows = pad_rate_rows([vocabulary[i] for i, _ in picks])
    if draw(st.booleans()):
        return rows, times[0]
    return rows, np.array([times[j] for _, j in picks])


@settings(max_examples=40, deadline=None)
@given(batch=duplicated_batches())
def test_batch_dedup_is_invisible(batch):
    """Collapsing duplicate (row, t) pairs must not move a bit: each
    batch equals itself evaluated with the collapse disabled, both from
    a cold expm memo."""
    rows, t = batch
    hypoexponential._MATRIX_CDF_CACHE.clear()
    deduped = hypoexponential_cdf_batch(rows, t)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypoexponential, "_DEDUP_MIN_ROWS", len(rows) + 1)
        hypoexponential._MATRIX_CDF_CACHE.clear()
        whole = hypoexponential_cdf_batch(rows, t)
    assert deduped.tobytes() == whole.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=rate_rows_with_near_duplicates(),
    lead=st.lists(st.integers(min_value=0, max_value=12), min_size=12, max_size=12),
    t=st.floats(min_value=0.0, max_value=1e4),
)
def test_batch_rows_ignore_their_padding(rows, lead, t):
    """Up to twelve zeros in front of each row, and trailing zeros to a
    common width of up to 18 columns (where numpy's row sum would go
    pairwise), move no bit of any row."""
    width = max(len(row) + pad for row, pad in zip(rows, lead))
    shifted = np.zeros((len(rows), width))
    for i, (row, pad) in enumerate(zip(rows, lead)):
        shifted[i, pad : pad + len(row)] = row
    plain = hypoexponential_cdf_batch(rows, t)
    assert hypoexponential_cdf_batch(shifted, t).tobytes() == plain.tobytes()


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

    Tolerance note: the vectorized matrix scores each path from its
    sorted rates while the reference scores it in hop order.  Near the
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
        # 1e-7, not 1e-9: sorted rates against hop order (see the
        # tolerance note on the NCL oracle test above).
        np.testing.assert_allclose(
            matrix[source],
            _reference_shortest_path_weights_from(graph, source, budget),
            atol=1e-7,
            rtol=0,
        )


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=30),
    edge_probability=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
    all_sources=st.booleans(),
)
def test_dense_sweeps_match_scipy_on_the_dense_cost_matrix(
    num_nodes, edge_probability, seed, all_sources
):
    """Dense graphs hand scipy the CSR cost matrix; scipy converts a
    dense matrix to that same CSR, so the distances equal a search on the
    dense 1/λ matrix byte for byte.  The trees are the reference heap's,
    quantised-rate ties included."""
    rng = np.random.default_rng(seed)
    rates = np.zeros((num_nodes, num_nodes))
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                rates[i, j] = rates[j, i] = rng.integers(1, 4) / 8.0
    graph = ContactGraph.from_rate_matrix(rates, sparse=False)
    sources = None if all_sources else [int(s) for s in rng.integers(0, num_nodes, 3)]
    dist, pred = paths._expected_delay_trees(*graph.csr_rates(), sources)
    with np.errstate(divide="ignore"):
        costs = np.where(rates > 0.0, 1.0 / np.maximum(rates, 1e-300), 0.0)
    want_dist = dijkstra(costs, directed=False, indices=sources)
    assert dist.tobytes() == np.atleast_2d(want_dist).tobytes()
    want_pred = np.full(dist.shape, -1, dtype=np.int64)
    for row, source in enumerate(range(num_nodes) if sources is None else sources):
        for node, path in paths._dijkstra_expected_delay(graph, source).items():
            if path.hop_count:
                want_pred[row, node] = path.nodes[-2]
    assert pred.tobytes() == want_pred.tobytes()


def _python_walk(graph: ContactGraph, source: int):
    """Hop-rate tuples of one source's tree, node by node: nodes in
    ascending expected delay (ties by id) each extend their predecessor's
    tuple by one :meth:`ContactGraph.rate` read."""
    dist, pred = paths._expected_delay_trees(*graph.csr_rates(), [source])
    reachable = np.flatnonzero(np.isfinite(dist[0]))
    tuples = {source: ()}
    for node in reachable[np.argsort(dist[0, reachable], kind="stable")]:
        node = int(node)
        if node != source:
            before = int(pred[0, node])
            tuples[node] = tuples[before] + (graph.rate(before, node),)
    return tuples


def _single_source_sweep(graph: ContactGraph, source: int, budget: float) -> np.ndarray:
    """One source on its own, each path scored alone: its hop-rate tuple,
    sorted, as a one-row Eq. (2) batch."""
    weights = np.zeros(graph.num_nodes)
    for node, rates in _python_walk(graph, source).items():
        weights[node] = hypoexponential_cdf_batch([sorted(rates)], budget)[0]
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
    (so sources at its ends grow deeper trees than those in the middle)
    and optionally quantised rates (so batches repeat hop tuples and
    cross the Eq. 2 dedup threshold), plus a source list that may repeat
    sources."""
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
    graph = ContactGraph(num_nodes, edges, sparse=draw(st.booleans()))
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


def _padded(rate_rows, width: int) -> np.ndarray:
    """Rate tuples zero-padded on the right to *width*."""
    out = np.zeros((len(rate_rows), width))
    for i, rates in enumerate(rate_rows):
        out[i, : len(rates)] = rates
    return out


@settings(max_examples=60, deadline=None)
@given(case=weight_row_cases())
def test_hop_walk_rows_match_a_per_node_python_walk(case):
    """The vectorized walk rebuilds every path's hop rates byte for byte:
    a source's :class:`HopRows` (left-aligned), and the walk's own rows
    from the destination back to the source."""
    graph, sources, budget = case
    for source in sources:
        tuples = _python_walk(graph, source)
        rows = hop_rate_tuples_from(graph, source, budget)
        width = max(1, max(len(rates) for rates in tuples.values()))
        want = [tuples.get(node, ()) for node in range(graph.num_nodes)]
        assert rows.rates.tobytes() == _padded(want, width).tobytes()
        assert rows.hops.tolist() == [
            len(tuples[node]) if node in tuples else -1 for node in range(graph.num_nodes)
        ]
    dist, pred = paths._expected_delay_trees(*graph.csr_rates(), sources)
    row_ids, nodes = np.nonzero(np.isfinite(dist))
    back, hops = paths._hop_walk(graph.csr_rates(), pred, row_ids, nodes)
    want = [_python_walk(graph, sources[r])[j] for r, j in zip(row_ids, nodes)]
    assert hops.tolist() == [len(rates) for rates in want]
    width = max(1, max(hops))
    assert paths._left_aligned(back, hops).tobytes() == _padded(want, width).tobytes()
    backward = [rates[::-1] for rates in want]
    assert back.tobytes() == _padded(backward, width).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=weight_row_cases())
def test_weight_matrix_is_the_all_source_rows(case):
    """Row i of the all-pairs matrix is source i's own sweep, byte for
    byte: each row follows its own source's tree and scores each path
    from its sorted rates alone."""
    graph, _, budget = case
    n = graph.num_nodes
    matrix = shortest_path_weight_matrix(graph, budget)
    assert matrix.tobytes() == shortest_path_weight_rows(graph, range(n), budget).tobytes()
    for source in range(n):
        assert matrix[source].tobytes() == _single_source_sweep(graph, source, budget).tobytes()


@settings(max_examples=40, deadline=None)
@given(case=weight_row_cases())
def test_cached_rows_do_not_depend_on_a_cached_matrix(case):
    """A cache holding the all-pairs matrix serves its rows; one without
    it sweeps: the vectors are the same bytes either way."""
    graph, sources, budget = case
    swept = PathWeightCache().weight_rows(graph, sources, budget)
    cache = PathWeightCache()
    cache.weight_matrix(graph, budget)
    served = cache.weight_rows(graph, sources, budget)
    assert cache.misses == 1  # the matrix; every row was a hit
    assert [row.tobytes() for row in served] == [row.tobytes() for row in swept]


@settings(max_examples=40, deadline=None)
@given(case=weight_row_cases())
def test_ncl_metric_is_its_entry_of_ncl_metrics(case):
    """One node's Eq. (3) metric from a lone sweep equals its entry of
    the all-node metric vector bit for bit (dense storage: sparse graphs
    rank by the k-NN metric)."""
    graph, _, budget = case
    graph = ContactGraph(graph.num_nodes, graph.edges(), sparse=False)
    shared_weight_cache().clear()
    metrics = ncl_metrics(graph, budget)
    for node in range(graph.num_nodes):
        shared_weight_cache().clear()
        assert ncl_metric(graph, node, budget) == metrics[node]
    shared_weight_cache().clear()


def _chain(sparse: bool) -> ContactGraph:
    """A 13-node chain with well-separated rates."""
    rates = [0.05 * 1.5**i for i in range(12)]
    return ContactGraph(
        13, [(i, i + 1, rate) for i, rate in enumerate(rates)], sparse=sparse
    )


#: chain sources whose trees are 12, 6, 12, 12, 9, 12 and 12 hops deep
CHAIN_SOURCES = [0, 6, 12, 0, 3, 12, 0]


def test_rows_ignore_padding_and_the_dedup_threshold():
    """Ten copies of the chain sources make one 910-row batch, past the
    Eq. 2 dedup threshold that no lone 13-row sweep reaches, in which the
    6-hop tree of source 6 is padded to the 12 hops of source 0's; a
    lone sweep from 6 pads it to 6.  Rows of eight or more hops sum
    pairwise under numpy's row sum, so a padding-dependent sum shows."""
    for sparse in (False, True):
        _assert_rows_are_single_source_sweeps(_chain(sparse), CHAIN_SOURCES * 10, 30.0)


def test_weight_matrix_scores_sorted_rows():
    """Every cell of the all-pairs matrix is its path scored alone from
    its sorted rates, so the chain's matrix, whose paths run both ways,
    is symmetric bit for bit."""
    for sparse in (False, True):
        graph = _chain(sparse)
        matrix = shortest_path_weight_matrix(graph, 30.0)
        want = [_single_source_sweep(graph, i, 30.0) for i in range(graph.num_nodes)]
        assert matrix.tobytes() == np.vstack(want).tobytes()
        assert matrix.tobytes() == np.ascontiguousarray(matrix.T).tobytes()


def test_weight_rows_do_not_depend_on_source_chunking(monkeypatch):
    graph = _chain(sparse=True)
    whole = shortest_path_weight_rows(graph, CHAIN_SOURCES, 30.0)
    sweeps = []
    trees = paths._expected_delay_trees

    def recording(indptr, indices, data, sources):
        sweeps.append(list(sources))
        return trees(indptr, indices, data, sources)

    monkeypatch.setattr(paths, "_SWEEP_ROWS", 2 * graph.num_nodes)
    monkeypatch.setattr(paths, "_expected_delay_trees", recording)
    chunked = shortest_path_weight_rows(graph, CHAIN_SOURCES, 30.0)
    assert sweeps == [[0, 6], [12, 0], [3, 12], [0]]  # two sources per chunk
    assert chunked.tobytes() == whole.tobytes()
