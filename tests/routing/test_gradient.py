"""Unit tests for weight-gradient forwarding."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.paths import shortest_path_weights_from
from repro.graph.weight_cache import shared_weight_cache
from repro.routing.base import ForwardAction
from repro.routing.gradient import GradientRouter
from repro.units import HOUR


class TestDecisions:
    def test_handover_to_destination(self, line_graph):
        router = GradientRouter(horizon=10 * HOUR)
        decision = router.decide(2, 3, 3, line_graph, 1.0)
        assert decision.action is ForwardAction.HANDOVER

    def test_uphill_forwarding(self, line_graph):
        router = GradientRouter(horizon=10 * HOUR)
        # node 1 is closer to 0 than node 2 is
        decision = router.decide(2, 1, 0, line_graph, 1.0)
        assert decision.action is ForwardAction.HANDOVER
        assert decision.peer_score > decision.carrier_score

    def test_downhill_keeps(self, line_graph):
        router = GradientRouter(horizon=10 * HOUR)
        decision = router.decide(1, 2, 0, line_graph, 1.0)
        assert decision.action is ForwardAction.KEEP

    def test_equal_scores_keep(self, star_graph):
        router = GradientRouter(horizon=2 * HOUR)
        # two leaves are symmetric with respect to a third leaf
        decision = router.decide(1, 2, 3, star_graph, 1.0)
        assert decision.action is ForwardAction.KEEP

    def test_replicate_mode(self, line_graph):
        router = GradientRouter(horizon=10 * HOUR, replicate=True)
        decision = router.decide(2, 1, 0, line_graph, 1.0)
        assert decision.action is ForwardAction.REPLICATE

    def test_weight_cache_consistent_with_fresh_compute(self, line_graph):
        router = GradientRouter(horizon=10 * HOUR)
        first = router.weight_to(3, 0, line_graph)
        second = router.weight_to(3, 0, line_graph)  # cached
        assert first == second

    def test_graph_update_invalidates_cache(self, line_graph, star_graph):
        horizon = 2 * HOUR
        router = GradientRouter(horizon=horizon)
        before = [router.weight_to(n, 3, line_graph) for n in range(4)]
        after = [router.weight_to(n, 3, star_graph) for n in range(6)]
        expected = shortest_path_weights_from(star_graph, 3, horizon)
        assert after == expected.tolist()
        assert after[:4] != before  # the line graph's table is not reused

    def test_in_place_rate_change_refreshes_weights(self, line_graph):
        horizon = 2 * HOUR
        router = GradientRouter(horizon=horizon)
        before = router.weight_to(0, 3, line_graph)
        line_graph.set_rate(0, 3, 1.0 / HOUR)  # same instance, new version
        expected = shortest_path_weights_from(line_graph, 3, horizon)
        assert router.weight_to(0, 3, line_graph) == expected[0] > before
        decision = router.decide(0, 1, 3, line_graph, 1.0)
        assert decision.carrier_score == expected[0]
        assert decision.peer_score == expected[1]

    def test_new_snapshot_refills_routed_destinations_in_one_call(
        self, line_graph, monkeypatch
    ):
        cache = shared_weight_cache()
        batches = []
        original = cache.weight_rows

        def recording(graph, sources, *args):
            batches.append(list(sources))
            return original(graph, sources, *args)

        monkeypatch.setattr(cache, "weight_rows", recording)
        router = GradientRouter(horizon=10 * HOUR)
        router.decide(1, 2, 0, line_graph, 1.0)
        router.decide(1, 2, 3, line_graph, 1.0)
        line_graph.set_rate(0, 2, 1.0 / HOUR)
        batches.clear()
        router.decide(2, 1, 3, line_graph, 1.0)
        router.decide(2, 1, 3, line_graph, 1.0)
        assert batches == [[0, 3]]  # one refill, nothing fetched per decision
        line_graph.set_rate(1, 3, 1.0 / HOUR)
        batches.clear()
        router.decide(2, 1, 3, line_graph, 1.0)
        router.decide(2, 0, 1, line_graph, 1.0)
        # only 3 was routed toward in the previous snapshot; 1 is new and
        # comes on its own
        assert batches == [[3], [1]]

    def test_horizon_validation(self):
        with pytest.raises(ConfigurationError):
            GradientRouter(horizon=0.0)
