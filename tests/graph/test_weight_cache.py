"""Unit tests for the content-keyed path-weight cache."""

import numpy as np
import pytest

from repro.core.ncl import sparse_ncl_metrics
from repro.graph import weight_cache
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import PathMode, shortest_path_weights_from
from repro.graph.weight_cache import PathWeightCache, shared_weight_cache


@pytest.fixture
def graph():
    return ContactGraph(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.25)])


@pytest.fixture(params=[4, 300], ids=str)
def sized_graph(request, graph):
    """The 4-node chain, or a random 300-node graph: more nodes than the
    cache holds entries, so its matrix must be one entry, not one per row."""
    if request.param == 4:
        return graph
    rng = np.random.default_rng(0)
    return ContactGraph(
        request.param,
        (
            (i, int(j), float(rng.uniform(0.1, 1.0)))
            for i in range(request.param)
            for j in rng.choice(request.param, 6, replace=False)
            if j != i
        ),
    )


class TestPathWeightCache:
    def test_hit_returns_same_array(self, graph):
        cache = PathWeightCache()
        first = cache.weights(graph, 0, 10.0)
        second = cache.weights(graph, 0, 10.0)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_values_match_direct_computation(self, graph):
        cache = PathWeightCache()
        np.testing.assert_array_equal(
            cache.weights(graph, 0, 10.0), shortest_path_weights_from(graph, 0, 10.0)
        )

    def test_cached_arrays_are_read_only(self, graph):
        cache = PathWeightCache()
        weights = cache.weights(graph, 0, 10.0)
        with pytest.raises(ValueError):
            weights[0] = 99.0

    def test_cached_knn_rows_are_read_only(self, graph):
        shared_weight_cache().clear()
        before = sparse_ncl_metrics(graph, 10.0, k=3)
        rows = shared_weight_cache().knn_rows(graph, 10.0, 3)
        for array in (rows.indptr, rows.indices, rows.weights):
            with pytest.raises(ValueError):
                array[:] = 0
        # The metric reads the same cached rows, untouched.
        assert sparse_ncl_metrics(graph, 10.0, k=3).tobytes() == before.tobytes()
        assert shared_weight_cache().misses == 1
        shared_weight_cache().clear()

    def test_identical_content_shares_entries_across_instances(self):
        # Two snapshots built at the same simulated instant (a churn
        # refresh landing on a periodic one): distinct objects, same rates.
        a, b = (ContactGraph(3, [(0, 1, 1.0), (1, 2, 0.5)]) for _ in range(2))
        cache = PathWeightCache()
        cache.weights(a, 0, 5.0)
        cache.weights(b, 0, 5.0)
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_budgets_and_sources_miss(self, graph):
        cache = PathWeightCache()
        cache.weights(graph, 0, 10.0)
        cache.weights(graph, 0, 20.0)
        cache.weights(graph, 1, 10.0)
        assert cache.misses == 3 and cache.hits == 0

    def test_lru_eviction_bounds_size(self, graph):
        cache = PathWeightCache(maxsize=2)
        for budget in (1.0, 2.0, 3.0, 4.0):
            cache.weights(graph, 0, budget)
        assert len(cache) == 2
        cache.weights(graph, 0, 4.0)  # newest entry survived
        assert cache.hits == 1

    def test_weight_matrix_seeds_single_source_rows(self, sized_graph):
        cache = PathWeightCache()
        matrix = cache.weight_matrix(sized_graph, 10.0)
        assert cache.weight_matrix(sized_graph, 10.0) is matrix
        row = cache.weights(sized_graph, 2, 10.0)
        # both served from the matrix, not recomputed
        assert (cache.hits, cache.misses) == (2, 1)
        np.testing.assert_array_equal(row, matrix[2])

    def test_weight_rows_after_weight_matrix_computes_nothing(
        self, sized_graph, monkeypatch
    ):
        cache = PathWeightCache()
        matrix = cache.weight_matrix(sized_graph, 10.0)
        hits, misses = cache.hits, cache.misses

        def no_sweep(*args):
            raise AssertionError("matrix rows must be served, not recomputed")

        monkeypatch.setattr(weight_cache, "shortest_path_weight_rows", no_sweep)
        sources = [2, 0, 2, sized_graph.num_nodes - 1]
        rows = cache.weight_rows(sized_graph, sources, 10.0)
        assert (cache.hits, cache.misses) == (hits + 4, misses)  # per vector
        for row, source in zip(rows, sources):
            assert np.shares_memory(row, matrix)
            np.testing.assert_array_equal(row, matrix[source])
        assert cache.weight_matrix(sized_graph, 10.0) is matrix

    def test_weight_rows_count_per_vector(self, graph):
        cache = PathWeightCache()
        cache.weights(graph, 1, 10.0)
        rows = cache.weight_rows(graph, [0, 1, 3, 0], 10.0)
        # 1 was cached; 0 and 3 are computed once each, 0 only once
        assert (cache.hits, cache.misses) == (1, 3)
        for row, source in zip(rows, [0, 1, 3, 0]):
            assert not row.flags.writeable
            np.testing.assert_array_equal(
                row, shortest_path_weights_from(graph, source, 10.0)
            )
        again = cache.weight_rows(graph, [3, 0], 10.0)
        assert (cache.hits, cache.misses) == (3, 3)
        assert again[0] is rows[2] and again[1] is rows[0]

    def test_rate_tuples_budget_independent_in_expected_delay_mode(self, graph):
        cache = PathWeightCache()
        first = cache.rate_tuples(graph, 0, 10.0)
        second = cache.rate_tuples(graph, 0, 999.0)
        assert first is second
        assert first.path_rates(3).tolist() == [1.0, 0.5, 0.25]
        assert first.path_rates(0).tolist() == []
        assert not any(array.flags.writeable for array in first)

    def test_rate_tuples_budget_keyed_in_max_probability_mode(self, graph):
        cache = PathWeightCache()
        cache.rate_tuples(graph, 0, 10.0, PathMode.MAX_PROBABILITY)
        cache.rate_tuples(graph, 0, 999.0, PathMode.MAX_PROBABILITY)
        assert cache.misses == 2

    def test_clear_resets_counters(self, graph):
        cache = PathWeightCache()
        cache.weights(graph, 0, 10.0)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            PathWeightCache(maxsize=0)


class TestStaleCacheProtection:
    """Regression: the shared cache is content-keyed, so a rate matrix
    that changed after its fingerprint was taken would silently serve
    stale paths.  The graph closes that hole by being a value: its matrix
    is read-only from construction, and it never shares the caller's
    input array.
    """

    def test_in_place_write_on_rates_view_raises(self, graph):
        with pytest.raises(ValueError):
            graph.rates[0, 3] = 99.0

    def test_rates_view_cannot_be_made_writable(self, graph):
        view = graph.rates
        with pytest.raises(ValueError):
            view.flags.writeable = True  # base array is non-writable

    def test_from_rate_matrix_copies_the_input(self, graph):
        rates = np.array(graph.rates)
        copy = ContactGraph.from_rate_matrix(rates)
        fingerprint = copy.fingerprint()
        rates[0, 3] = rates[3, 0] = 7.0  # caller's array stays theirs
        assert copy.fingerprint() == fingerprint == graph.fingerprint()
        assert copy.rate(0, 3) == 0.0

    def test_from_rate_matrix_validates(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ContactGraph.from_rate_matrix(np.zeros((4, 3)))  # not square
        bad = np.zeros((4, 4))
        bad[0, 1] = bad[1, 0] = -1.0
        with pytest.raises(ConfigurationError):
            ContactGraph.from_rate_matrix(bad)  # negative rate
        asym = np.zeros((4, 4))
        asym[0, 1] = 1.0
        with pytest.raises(ConfigurationError):
            ContactGraph.from_rate_matrix(asym)  # asymmetric


class TestSharedCache:
    def test_shared_singleton(self):
        assert shared_weight_cache() is shared_weight_cache()
