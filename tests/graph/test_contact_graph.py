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

    def test_needs_at_least_one_node(self):
        with pytest.raises(ConfigurationError):
            ContactGraph(0)


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

    def test_neighbors_cache_invalidated_by_mutation(self, star_graph):
        before = star_graph.neighbors(1)
        star_graph.set_rate(1, 2, 0.25)
        assert star_graph.neighbors(1) == (0, 2)
        assert before == (0,)

    def test_edges_iteration(self, star_graph):
        edges = list(star_graph.edges())
        assert len(edges) == 5
        assert all(i < j for i, j, _ in edges)

    def test_mean_degree(self, star_graph):
        assert star_graph.mean_degree() == pytest.approx(10 / 6)

    def test_expected_intercontact(self, line_graph):
        assert line_graph.expected_intercontact(0, 1) == pytest.approx(3600.0)
        assert line_graph.expected_intercontact(0, 3) == float("inf")

    def test_set_rate_symmetric(self):
        graph = ContactGraph(3)
        graph.set_rate(0, 2, 0.7)
        assert graph.rate(2, 0) == 0.7

    def test_set_rate_rejects_self_loop(self):
        graph = ContactGraph(3)
        with pytest.raises(ConfigurationError):
            graph.set_rate(1, 1, 0.5)

    def test_rate_matrix_is_copy(self, line_graph):
        matrix = line_graph.rate_matrix()
        matrix[0, 1] = 99.0
        assert line_graph.rate(0, 1) != 99.0


class TestVersioning:
    def test_version_bumps_on_mutation(self):
        graph = ContactGraph(3)
        v0 = graph.version
        graph.set_rate(0, 1, 0.5)
        assert graph.version > v0

    def test_versions_unique_across_instances(self):
        a = ContactGraph(2)
        b = ContactGraph(2)
        assert a.version != b.version
        a.set_rate(0, 1, 1.0)
        b.set_rate(0, 1, 1.0)
        assert a.version != b.version

    def test_fingerprint_tracks_content(self):
        a = ContactGraph(3)
        b = ContactGraph(3)
        assert a.fingerprint() == b.fingerprint()
        a.set_rate(0, 1, 0.5)
        assert a.fingerprint() != b.fingerprint()
        b.set_rate(0, 1, 0.5)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_includes_node_count(self):
        assert ContactGraph(2).fingerprint() != ContactGraph(3).fingerprint()
