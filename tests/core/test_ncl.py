"""Unit tests for NCL metric and selection (paper Eq. 3, Sec. IV)."""

import numpy as np
import pytest

from repro.core.ncl import ncl_metric, ncl_metrics, select_ncls, select_ncls_by
from repro.errors import ConfigurationError, PathError
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import shortest_path_weights_from
from repro.units import HOUR


class TestMetric:
    def test_hub_has_highest_metric(self, star_graph):
        metrics = ncl_metrics(star_graph, time_budget=2 * HOUR)
        assert metrics[0] == metrics.max()

    def test_metric_matches_definition(self, star_graph):
        # C_i = mean of path weights from all other nodes (Eq. 3).
        budget = 2 * HOUR
        weights = shortest_path_weights_from(star_graph, 0, budget)
        expected = (weights.sum() - 1.0) / 5
        assert ncl_metric(star_graph, 0, budget) == pytest.approx(expected)

    def test_metric_bounded(self, line_graph):
        metrics = ncl_metrics(line_graph, time_budget=5 * HOUR)
        assert all(0.0 <= m <= 1.0 for m in metrics)

    def test_metric_grows_with_budget(self, line_graph):
        short = ncl_metric(line_graph, 1, time_budget=1 * HOUR)
        long = ncl_metric(line_graph, 1, time_budget=20 * HOUR)
        assert long > short

    def test_isolated_node_has_zero_metric(self):
        graph = ContactGraph(3, [(0, 1, 0.5)])
        metrics = ncl_metrics(graph, time_budget=100.0)
        assert metrics[2] == 0.0

    def test_single_node_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            ncl_metrics(ContactGraph(1), time_budget=10.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: ncl_metrics(g, 2 * HOUR, knn_k=0),
            lambda g: select_ncls(g, 1, 2 * HOUR, knn_k=0),
            lambda g: select_ncls_by(g, 1, 2 * HOUR, "degree", knn_k=0),
        ],
        ids=["ncl_metrics", "select_ncls", "select_ncls_by"],
    )
    def test_knn_k_zero_is_refused_not_defaulted(self, star_graph, call):
        # knn_k=0 is a width, not "unset": it fails as k=0 does in
        # sparse_ncl_metrics instead of running DEFAULT_KNN_K.
        with pytest.raises(PathError, match="k must be at least 1"):
            call(star_graph)


class TestSelection:
    def test_top_k_by_metric(self, star_graph):
        selection = select_ncls(star_graph, k=2, time_budget=2 * HOUR)
        assert selection.central_nodes[0] == 0  # hub first
        assert selection.k == 2

    def test_deterministic_tie_break_by_node_id(self, star_graph):
        # all leaves have identical metrics; ties break toward lower ids
        selection = select_ncls(star_graph, k=3, time_budget=2 * HOUR)
        assert selection.central_nodes == (0, 1, 2)

    def test_nearest_central_assignment(self, star_graph):
        selection = select_ncls(star_graph, k=1, time_budget=2 * HOUR)
        assert all(selection.nearest_central == 0)

    def test_central_node_weight_to_itself_is_one(self, star_graph):
        selection = select_ncls(star_graph, k=2, time_budget=2 * HOUR)
        for central in selection.central_nodes:
            assert selection.weight_to(central, central) == 1.0
            assert selection.best_weight(central) == 1.0

    def test_disconnected_node_has_no_central(self):
        graph = ContactGraph(4, [(0, 1, 0.5), (0, 2, 0.5)])
        selection = select_ncls(graph, k=1, time_budget=100.0)
        assert selection.nearest_central[3] == -1
        assert selection.best_weight(3) == 0.0

    def test_rank_of(self, star_graph):
        selection = select_ncls(star_graph, k=2, time_budget=2 * HOUR)
        assert selection.rank_of(selection.central_nodes[0]) == 0
        assert selection.rank_of(99 % 6) is None or isinstance(
            selection.rank_of(3), (int, type(None))
        )

    def test_is_central(self, star_graph):
        selection = select_ncls(star_graph, k=1, time_budget=2 * HOUR)
        assert selection.is_central(0)
        assert not selection.is_central(1)

    def test_k_validation(self, star_graph):
        with pytest.raises(ConfigurationError):
            select_ncls(star_graph, k=0, time_budget=10.0)
        with pytest.raises(ConfigurationError):
            select_ncls(star_graph, k=7, time_budget=10.0)

    def test_skewed_graph_selects_hubs(self):
        # two-community graph: nodes 0 and 5 are community hubs.
        graph = ContactGraph(
            10,
            [(0, leaf, 1.0 / HOUR) for leaf in range(1, 5)]
            + [(5, leaf, 1.0 / HOUR) for leaf in range(6, 10)]
            + [(0, 5, 1.0 / (2 * HOUR))],
        )
        selection = select_ncls(graph, k=2, time_budget=3 * HOUR)
        assert set(selection.central_nodes) == {0, 5}
