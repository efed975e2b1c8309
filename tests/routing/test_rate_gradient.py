"""Unit tests for local-knowledge social forwarding."""

from repro.graph.contact_graph import ContactGraph
from repro.routing.base import ForwardAction
from repro.routing.rate_gradient import RateGradientRouter
from repro.units import HOUR


def two_community_graph():
    """0 hub of {1,2}; 3 hub of {4,5}; hubs linked."""
    graph = ContactGraph(6)
    graph.set_rate(0, 1, 2.0 / HOUR)
    graph.set_rate(0, 2, 2.0 / HOUR)
    graph.set_rate(3, 4, 2.0 / HOUR)
    graph.set_rate(3, 5, 2.0 / HOUR)
    graph.set_rate(0, 3, 1.0 / HOUR)
    return graph


class TestScores:
    def test_direct_contact_beats_hubness(self):
        graph = two_community_graph()
        router = RateGradientRouter()
        # node 4 meets 5's... wait: direct rate(4,5)=0; but 3 meets 5.
        direct_score = router.score(3, 5, graph)
        hub_score = router.score(0, 5, graph)  # 0 never meets 5
        assert direct_score > hub_score

    def test_hubness_orders_non_knowing_nodes(self):
        graph = two_community_graph()
        router = RateGradientRouter()
        # neither 1 nor 0 meets node 5 directly; 0 is the bigger hub
        assert router.score(0, 5, graph) > router.score(1, 5, graph)

    def test_all_scores_nonnegative(self):
        graph = two_community_graph()
        router = RateGradientRouter()
        for node in range(6):
            for dest in range(6):
                if node != dest:
                    assert router.score(node, dest, graph) >= 0.0


class TestDecisions:
    def test_destination_handover(self):
        graph = two_community_graph()
        router = RateGradientRouter()
        assert (
            router.decide(0, 5, 5, graph, 1.0).action is ForwardAction.HANDOVER
        )

    def test_climbs_to_destination_community(self):
        graph = two_community_graph()
        router = RateGradientRouter()
        # bundle at node 1 destined for node 5: 1 -> 0 (bigger hub)
        assert router.decide(1, 0, 5, graph, 1.0).action is ForwardAction.HANDOVER
        # 0 -> 3 (3 meets 5 directly, beats any hubness score)
        assert router.decide(0, 3, 5, graph, 1.0).action is ForwardAction.HANDOVER
        # 3 keeps until it meets 5 (no one scores higher)
        assert router.decide(3, 4, 5, graph, 1.0).action is ForwardAction.KEEP

    def test_replicate_mode(self):
        graph = two_community_graph()
        router = RateGradientRouter(replicate=True)
        assert router.decide(1, 0, 5, graph, 1.0).action is ForwardAction.REPLICATE

    def test_empty_graph_keeps_everything(self):
        graph = ContactGraph(3)
        router = RateGradientRouter()
        assert router.decide(0, 1, 2, graph, 1.0).action is ForwardAction.KEEP


class TestGraphUpdates:
    def test_in_place_rate_change_refreshes_hub_scores(self):
        graph = ContactGraph(4)
        graph.set_rate(0, 1, 1.0)
        graph.set_rate(1, 2, 1.0)
        router = RateGradientRouter()
        assert router.score(3, 0, graph) == 0.0  # node 3 meets nobody
        graph.set_rate(3, 2, 0.5)  # same instance, new version
        fresh = RateGradientRouter().score(3, 0, graph)
        assert router.score(3, 0, graph) == fresh > 0.0
