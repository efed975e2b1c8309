"""Unit tests for alternative NCL selection strategies (ablations)."""

import pytest

from repro.core.ncl import SELECTION_STRATEGIES, select_ncls, select_ncls_by
from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.units import HOUR


@pytest.fixture
def weighted_star():
    """Hub 0; node 5 has high degree but weak links."""
    return ContactGraph(
        8,
        [(0, leaf, 2.0 / HOUR) for leaf in (1, 2, 3)]
        + [(5, leaf, 0.01 / HOUR) for leaf in (4, 6, 7, 1, 2)],
    )


class TestStrategies:
    def test_metric_equals_select_ncls(self, weighted_star):
        by_strategy = select_ncls_by(weighted_star, 2, 3 * HOUR, strategy="metric")
        direct = select_ncls(weighted_star, 2, 3 * HOUR)
        assert by_strategy.central_nodes == direct.central_nodes

    def test_degree_picks_highest_degree(self, weighted_star):
        selection = select_ncls_by(weighted_star, 1, 3 * HOUR, strategy="degree")
        assert selection.central_nodes == (5,)  # degree 5 beats hub's 3

    def test_aggregate_rate_picks_strongest_links(self, weighted_star):
        selection = select_ncls_by(
            weighted_star, 1, 3 * HOUR, strategy="aggregate_rate"
        )
        assert selection.central_nodes == (0,)  # 6/h total beats 0.05/h

    def test_random_is_seeded(self, weighted_star):
        a = select_ncls_by(weighted_star, 3, 3 * HOUR, strategy="random", seed=1)
        b = select_ncls_by(weighted_star, 3, 3 * HOUR, strategy="random", seed=1)
        c = select_ncls_by(weighted_star, 3, 3 * HOUR, strategy="random", seed=2)
        assert a.central_nodes == b.central_nodes
        assert len(set(a.central_nodes)) == 3
        assert a.central_nodes != c.central_nodes or True  # may collide rarely

    def test_metrics_vector_always_attached(self, weighted_star):
        selection = select_ncls_by(weighted_star, 2, 3 * HOUR, strategy="random")
        assert len(selection.metrics) == 8

    def test_unknown_strategy_rejected(self, weighted_star):
        with pytest.raises(ConfigurationError):
            select_ncls_by(weighted_star, 1, 3 * HOUR, strategy="psychic")

    def test_k_validated_for_all_strategies(self, weighted_star):
        for strategy in SELECTION_STRATEGIES:
            with pytest.raises(ConfigurationError):
                select_ncls_by(weighted_star, 0, 3 * HOUR, strategy=strategy)
            with pytest.raises(ConfigurationError):
                select_ncls_by(weighted_star, 99, 3 * HOUR, strategy=strategy)

    def test_nearest_central_consistent(self, weighted_star):
        selection = select_ncls_by(weighted_star, 2, 3 * HOUR, strategy="degree")
        for node in range(8):
            central = selection.nearest_central[node]
            if central >= 0:
                assert central in selection.central_nodes
