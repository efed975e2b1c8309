"""Unit tests for opportunistic paths and shortest-path computation."""

import pytest

from repro.errors import PathError
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import (
    OpportunisticPath,
    PathMode,
    shortest_path,
    shortest_path_weights_from,
    shortest_paths_from,
)
from repro.mathutils.hypoexponential import path_delivery_probability
from repro.units import HOUR


class TestOpportunisticPath:
    def test_weight_matches_eq2(self):
        path = OpportunisticPath((0, 1, 2), (1 / HOUR, 1 / (2 * HOUR)))
        assert path.weight(3 * HOUR) == pytest.approx(
            path_delivery_probability([1 / HOUR, 1 / (2 * HOUR)], 3 * HOUR)
        )

    def test_expected_delay(self):
        path = OpportunisticPath((0, 1, 2), (0.5, 0.25))
        assert path.expected_delay == pytest.approx(2.0 + 4.0)

    def test_trivial_path(self):
        path = OpportunisticPath((7,), ())
        assert path.hop_count == 0
        assert path.expected_delay == 0.0
        assert path.weight(100.0) == 1.0

    def test_validation(self):
        with pytest.raises(PathError):
            OpportunisticPath((), ())
        with pytest.raises(PathError):
            OpportunisticPath((0, 1), ())
        with pytest.raises(PathError):
            OpportunisticPath((0, 1), (0.0,))


class TestShortestPaths:
    def test_line_graph_paths(self, line_graph):
        paths = shortest_paths_from(line_graph, 0, time_budget=10 * HOUR)
        assert paths[3].nodes == (0, 1, 2, 3)
        assert paths[0].nodes == (0,)

    def test_direct_vs_two_hop(self):
        # 0-2 direct is slow; 0-1-2 through a fast relay is quicker.
        graph = ContactGraph(
            3,
            [
                (0, 2, 1.0 / (10 * HOUR)),
                (0, 1, 1.0 / HOUR),
                (1, 2, 1.0 / HOUR),
            ],
        )
        path = shortest_path(graph, 0, 2, time_budget=5 * HOUR)
        assert path.nodes == (0, 1, 2)

    def test_disconnected_returns_none(self):
        graph = ContactGraph(3, [(0, 1, 0.5)])
        assert shortest_path(graph, 0, 2, time_budget=10.0) is None

    def test_modes_agree_on_simple_graph(self, line_graph):
        for destination in range(4):
            a = shortest_path(line_graph, 0, destination, 10 * HOUR, PathMode.EXPECTED_DELAY)
            b = shortest_path(line_graph, 0, destination, 10 * HOUR, PathMode.MAX_PROBABILITY)
            assert a.nodes == b.nodes

    def test_max_probability_prefers_higher_weight(self):
        # direct link vs 2-hop: the 2-hop pair is much faster per hop.
        graph = ContactGraph(
            3,
            [
                (0, 2, 1.0 / (20 * HOUR)),
                (0, 1, 1.0 / (0.5 * HOUR)),
                (1, 2, 1.0 / (0.5 * HOUR)),
            ],
        )
        budget = 2 * HOUR
        path = shortest_path(graph, 0, 2, budget, PathMode.MAX_PROBABILITY)
        direct = path_delivery_probability([1.0 / (20 * HOUR)], budget)
        assert path.weight(budget) > direct

    def test_source_validation(self, line_graph):
        with pytest.raises(PathError):
            shortest_paths_from(line_graph, 99, 10.0)
        with pytest.raises(PathError):
            shortest_paths_from(line_graph, 0, 0.0)


class TestWeightVector:
    def test_weights_bounded_and_source_is_one(self, line_graph):
        weights = shortest_path_weights_from(line_graph, 0, 10 * HOUR)
        assert weights[0] == 1.0
        assert all(0.0 <= w <= 1.0 for w in weights)

    def test_unreachable_weight_zero(self):
        graph = ContactGraph(3, [(0, 1, 0.5)])
        weights = shortest_path_weights_from(graph, 0, 10.0)
        assert weights[2] == 0.0

    def test_weights_decay_along_line(self, line_graph):
        weights = shortest_path_weights_from(line_graph, 0, 10 * HOUR)
        assert weights[1] > weights[2] > weights[3]

    def test_symmetry(self, line_graph):
        from_0 = shortest_path_weights_from(line_graph, 0, 10 * HOUR)
        from_3 = shortest_path_weights_from(line_graph, 3, 10 * HOUR)
        assert from_0[3] == pytest.approx(from_3[0])
