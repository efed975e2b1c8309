"""Unit tests for the contact graph."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.traces.contact import Contact, ContactTrace


class TestConstruction:
    def test_from_rate_matrix(self):
        rates = np.array([[0.0, 0.5], [0.5, 0.0]])
        graph = ContactGraph.from_rate_matrix(rates)
        assert graph.rate(0, 1) == 0.5
        assert graph.num_edges == 1

    def test_from_rate_matrix_clears_diagonal(self):
        rates = np.array([[9.0, 0.5], [0.5, 9.0]])
        graph = ContactGraph.from_rate_matrix(rates)
        assert graph.rate(0, 0) == 0.0

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ConfigurationError):
            ContactGraph.from_rate_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            ContactGraph.from_rate_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            ContactGraph.from_rate_matrix(np.zeros((2, 3)))

    def test_rejects_one_way_edge(self):
        # 0 -> 1 below allclose's tolerance and no 1 -> 0: the graph
        # would list 1 as 0's neighbour while nothing reaches 0.
        rates = np.zeros((3, 3))
        rates[0, 1] = 5e-9
        rates[1, 2] = rates[2, 1] = 1e-3
        with pytest.raises(ConfigurationError):
            ContactGraph.from_rate_matrix(rates)

    def test_rejects_asymmetry_of_one_ulp(self):
        rates = np.array([[0.0, 0.5], [np.nextafter(0.5, 1.0), 0.0]])
        with pytest.raises(ConfigurationError):
            ContactGraph.from_rate_matrix(rates)

    def test_needs_at_least_one_node(self):
        with pytest.raises(ConfigurationError):
            ContactGraph(0)

    def test_edge_triple_sets_both_directions(self):
        graph = ContactGraph(3, [(0, 2, 0.7)])
        assert graph.rate(2, 0) == 0.7
        assert graph.neighbors(2) == (0,)

    def test_rejects_invalid_edge_triples(self):
        for bad in [(1, 1, 0.5), (0, 1, -0.5), (0, 3, 0.5), (0.5, 1, 0.5)]:
            with pytest.raises(ConfigurationError):
                ContactGraph(3, [(0, 2, 0.7), bad])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_later_triple_overrides_earlier(self, sparse):
        edges = [(0, 1, 0.5), (1, 0, 0.25), (1, 2, 0.5), (2, 1, 0.0)]
        graph = ContactGraph(3, edges, sparse=sparse)
        assert graph.rate(0, 1) == graph.rate(1, 0) == 0.25
        assert graph.rate(1, 2) == graph.rate(2, 1) == 0.0
        assert graph.neighbors(2) == () and graph.num_edges == 1
        assert list(graph.edges()) == [(0, 1, 0.25)]


class TestFromTrace:
    def test_time_average_rates(self):
        contacts = [Contact(10.0, 20.0, 0, 1), Contact(50.0, 60.0, 0, 1)]
        trace = ContactTrace(contacts, num_nodes=3)
        graph = ContactGraph.from_trace(trace)
        # 2 contacts over trace span (10 -> 60) elapsed = 50
        assert graph.rate(0, 1) == pytest.approx(2 / 50.0)
        assert graph.rate(1, 2) == 0.0

    def test_until_limits_observations(self):
        contacts = [Contact(10.0, 20.0, 0, 1), Contact(80.0, 90.0, 0, 1)]
        trace = ContactTrace(contacts, num_nodes=2)
        graph = ContactGraph.from_trace(trace, until=50.0)
        assert graph.rate(0, 1) == pytest.approx(1 / 40.0)

    def test_rejects_horizon_before_start(self):
        trace = ContactTrace([Contact(10.0, 20.0, 0, 1)], num_nodes=2)
        with pytest.raises(ConfigurationError):
            ContactGraph.from_trace(trace, until=10.0)


class TestAccessors:
    def test_neighbors_and_degree(self, star_graph):
        assert sorted(star_graph.neighbors(0)) == [1, 2, 3, 4, 5]
        assert star_graph.degree(0) == 5
        assert star_graph.degree(1) == 1
        assert star_graph.neighbors(1) == (0,)

    def test_edges_iteration(self, star_graph):
        edges = list(star_graph.edges())
        assert len(edges) == 5
        assert all(i < j for i, j, _ in edges)

    def test_mean_degree(self, star_graph):
        assert star_graph.mean_degree() == pytest.approx(10 / 6)

    def test_expected_intercontact(self, line_graph):
        assert line_graph.expected_intercontact(0, 1) == pytest.approx(3600.0)
        assert line_graph.expected_intercontact(0, 3) == float("inf")

    def test_rates_view_is_read_only(self, line_graph):
        for sparse in (False, True):
            graph = ContactGraph(4, line_graph.edges(), sparse=sparse)
            view = graph.rates
            np.testing.assert_array_equal(view, line_graph.rates)
            with pytest.raises(ValueError):
                view[0, 1] = 99.0
            with pytest.raises(ValueError):
                view.flags.writeable = True
            assert graph.rate(0, 1) != 99.0


class TestVersioning:
    """Content identity: the fingerprint the path-weight cache keys on."""

    def test_fingerprint_tracks_content(self):
        empty = ContactGraph(3)
        assert empty.fingerprint() == ContactGraph(3).fingerprint()
        one_edge = ContactGraph(3, [(0, 1, 0.5)])
        assert one_edge.fingerprint() != empty.fingerprint()
        assert one_edge.fingerprint() == ContactGraph(3, [(1, 0, 0.5)]).fingerprint()

    def test_fingerprint_includes_node_count(self):
        assert ContactGraph(2).fingerprint() != ContactGraph(3).fingerprint()
