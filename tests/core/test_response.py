"""Unit tests for probabilistic response strategies (paper Sec. V-C)."""

import numpy as np
import pytest

from repro.core.response import AlwaysRespond, PathAwareResponse, SigmoidResponse
from repro.graph.contact_graph import ContactGraph
from repro.units import HOUR


class TestAlwaysRespond:
    def test_always_true(self, query_factory, rng):
        strategy = AlwaysRespond()
        decision = strategy.decide(query_factory(), now=0.0, caching_node=3, rng=rng)
        assert decision.respond
        assert decision.probability == 1.0


class TestSigmoidResponse:
    def test_probability_boundaries(self, query_factory):
        strategy = SigmoidResponse(p_min=0.45, p_max=0.8)
        query = query_factory(created_at=0.0, time_constraint=10 * HOUR)
        assert strategy.probability(query, now=0.0) == pytest.approx(0.45)
        assert strategy.probability(query, now=10 * HOUR) == pytest.approx(0.8)

    def test_probability_rises_with_elapsed_time(self, query_factory):
        strategy = SigmoidResponse()
        query = query_factory(created_at=0.0, time_constraint=1000.0)
        probs = [strategy.probability(query, now=t) for t in (0, 250, 500, 1000)]
        assert probs == sorted(probs)

    def test_decision_frequency_tracks_probability(self, query_factory, rng):
        strategy = SigmoidResponse(p_min=0.45, p_max=0.8)
        query = query_factory(created_at=0.0, time_constraint=100.0)
        decisions = [
            strategy.decide(query, now=0.0, caching_node=1, rng=rng).respond
            for _ in range(4000)
        ]
        assert np.mean(decisions) == pytest.approx(0.45, abs=0.03)

    def test_invalid_parameters_rejected_eagerly(self):
        with pytest.raises(ValueError):
            SigmoidResponse(p_min=0.3, p_max=0.8)  # p_min <= p_max/2

    def test_elapsed_clamped_below_at_zero(self, query_factory):
        """Clock skew handing t₀ < 0 must pin the probability at p_min —
        the sigmoid would otherwise dip below its floor."""
        strategy = SigmoidResponse(p_min=0.45, p_max=0.8)
        query = query_factory(created_at=100.0, time_constraint=1000.0)
        assert strategy.probability(query, now=0.0) == pytest.approx(0.45)
        assert strategy.probability(query, now=-500.0) == pytest.approx(0.45)

    def test_elapsed_clamped_above_at_constraint(self, query_factory):
        """A late-forwarded query with t₀ > T_q must pin at p_max: the
        unclamped Eq. (4) supremum is k₁ = 2·p_min > p_max, so without
        the clamp stale queries would be answered with probability > p_max
        (and eventually > 1)."""
        strategy = SigmoidResponse(p_min=0.45, p_max=0.8)
        query = query_factory(created_at=0.0, time_constraint=1000.0)
        assert strategy.probability(query, now=1500.0) == pytest.approx(0.8)
        assert strategy.probability(query, now=1e9) == pytest.approx(0.8)

    def test_probability_never_exceeds_bounds(self, query_factory):
        strategy = SigmoidResponse(p_min=0.45, p_max=0.8)
        query = query_factory(created_at=0.0, time_constraint=500.0)
        for now in (-100.0, 0.0, 250.0, 500.0, 501.0, 1e6):
            prob = strategy.probability(query, now=now)
            assert 0.45 <= prob <= 0.8

    def test_sigmoids_memoised_per_time_constraint(self, query_factory):
        strategy = SigmoidResponse()
        a = query_factory(query_id=1, time_constraint=100.0)
        b = query_factory(query_id=2, time_constraint=100.0)
        c = query_factory(query_id=3, time_constraint=200.0)
        for query in (a, b, c):
            strategy.probability(query, now=0.0)
        assert len(strategy._sigmoids) == 2


class TestPathAwareResponse:
    def test_uses_path_weight_to_requester(self, line_graph, query_factory):
        strategy = PathAwareResponse(line_graph, floor=0.0)
        query = query_factory(requester=3, created_at=0.0, time_constraint=20 * HOUR)
        # caching node 2 is one hop (rate 1/4h) from requester 3
        prob = strategy.probability(query, now=0.0, caching_node=2)
        from repro.mathutils.hypoexponential import path_delivery_probability

        assert prob == pytest.approx(
            path_delivery_probability([1.0 / (4 * HOUR)], 20 * HOUR)
        )

    def test_expired_query_never_answered(self, line_graph, query_factory):
        strategy = PathAwareResponse(line_graph)
        query = query_factory(requester=3, created_at=0.0, time_constraint=10.0)
        assert strategy.probability(query, now=999.0, caching_node=0) == 0.0

    def test_unreachable_requester_gets_floor(self, query_factory):
        graph = ContactGraph(3, [(0, 1, 0.5)])
        strategy = PathAwareResponse(graph, floor=0.07)
        query = query_factory(requester=2, created_at=0.0, time_constraint=100.0)
        assert strategy.probability(query, now=0.0, caching_node=0) == 0.07

    def test_no_graph_gives_floor(self, query_factory):
        strategy = PathAwareResponse(None, floor=0.05)
        query = query_factory(created_at=0.0, time_constraint=100.0)
        assert strategy.probability(query, now=0.0, caching_node=0) == 0.05

    def test_update_graph(self, line_graph, query_factory):
        strategy = PathAwareResponse(None, floor=0.0)
        strategy.update_graph(line_graph)
        query = query_factory(requester=1, created_at=0.0, time_constraint=10 * HOUR)
        assert strategy.probability(query, now=0.0, caching_node=0) > 0.0

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            PathAwareResponse(None, floor=1.5)
