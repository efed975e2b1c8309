"""Unit tests for the intentional NCL caching scheme (paper Sec. V)."""

import pytest

from repro.caching.intentional import IntentionalCaching, IntentionalConfig
from repro.caching.nocache import NoCache
from repro.errors import ConfigurationError
from repro.sim.bundles import PushBundle, QueryBundle, ResponseBundle
from repro.units import HOUR, MEGABIT
from tests.caching.conftest import SchemeHarness
from tests.conftest import make_item, make_query


def make_scheme(k=1, response="always", **kwargs):
    return IntentionalCaching(
        IntentionalConfig(
            num_ncls=k,
            ncl_time_budget=2 * HOUR,
            response_strategy=response,
            **kwargs,
        )
    )


class TestConfig:
    def test_defaults_valid(self):
        IntentionalConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_ncls": 0},
            {"ncl_time_budget": 0.0},
            {"response_strategy": "bogus"},
            {"fresh_exemption_fraction": 1.5},
        ],
    )
    def test_invalid_configs(self, overrides):
        with pytest.raises(ConfigurationError):
            IntentionalConfig(**overrides)


class TestNCLSelection:
    def test_hub_selected_as_central(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        assert harness.scheme.selection.central_nodes == (0,)

    def test_scheme_unusable_before_warmup(self, hub_spoke_graph):
        scheme = make_scheme()
        with pytest.raises(RuntimeError):
            scheme._require_selection()


class TestPush:
    def test_data_generation_emits_one_push_per_ncl(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=2), hub_spoke_graph)
        item = make_item(data_id=1, source=1, size=10 * MEGABIT)
        harness.add_data(item)
        pushes = [b for b in harness.nodes[1].bundles if isinstance(b, PushBundle)]
        assert len(pushes) == 2
        assert {b.target_central for b in pushes} == set(
            harness.scheme.selection.central_nodes
        )

    def test_push_completes_on_direct_contact_with_central(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        item = make_item(data_id=1, source=1, size=10 * MEGABIT)
        harness.add_data(item)
        harness.contact(1, 0, now=10.0)
        assert item.data_id in harness.nodes[0].buffer
        # source keeps its origin copy
        assert harness.nodes[1].find_data(1, now=10.0) is item

    def test_push_consumes_budget(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        item = make_item(data_id=1, source=1, size=10 * MEGABIT)
        harness.add_data(item)
        budget = harness.contact(1, 0, now=10.0)
        assert budget.consumed >= 10 * MEGABIT

    def test_push_waits_when_budget_too_small(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        item = make_item(data_id=1, source=1, size=10 * MEGABIT)
        harness.add_data(item)
        harness.contact(1, 0, now=10.0, budget_bits=100)  # can't afford
        assert item.data_id not in harness.nodes[0].buffer
        # bundle still carried; a later richer contact completes the push
        harness.contact(1, 0, now=20.0)
        assert item.data_id in harness.nodes[0].buffer

    def test_source_waits_when_central_full(self, hub_spoke_graph):
        harness = SchemeHarness(
            make_scheme(k=1), hub_spoke_graph, buffer_capacity=15 * MEGABIT
        )
        filler = make_item(data_id=99, source=0, size=12 * MEGABIT)
        harness.nodes[0].buffer.put(filler)
        item = make_item(data_id=1, source=1, size=10 * MEGABIT)
        harness.add_data(item)
        harness.contact(1, 0, now=10.0)
        # push could not place the copy, but the bundle survives at the source
        pushes = [b for b in harness.nodes[1].bundles if isinstance(b, PushBundle)]
        assert len(pushes) == 1

    def test_spill_to_ncl_member_when_central_full(self, hub_spoke_graph):
        harness = SchemeHarness(
            make_scheme(k=1), hub_spoke_graph, buffer_capacity=15 * MEGABIT
        )
        # central (node 0) is full
        harness.nodes[0].buffer.put(make_item(data_id=99, source=0, size=12 * MEGABIT))
        item = make_item(data_id=1, source=1, size=10 * MEGABIT)
        harness.add_data(item)
        harness.contact(1, 0, now=10.0)  # central full -> bundle spills
        pushes = [b for b in harness.nodes[1].bundles if isinstance(b, PushBundle)]
        assert pushes and pushes[0].spilling
        # meeting another NCL member with room places the copy there
        harness.contact(1, 2, now=20.0)
        assert item.data_id in harness.nodes[2].buffer

    def test_relay_handover_removes_temporal_copy(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        # craft: leaf 4 generates; gradient goes 4 -> 5 -> 0
        item = make_item(data_id=1, source=4, size=10 * MEGABIT)
        harness.add_data(item)
        harness.contact(4, 5, now=10.0)
        assert item.data_id in harness.nodes[5].buffer
        harness.contact(5, 0, now=20.0)
        assert item.data_id in harness.nodes[0].buffer
        assert item.data_id not in harness.nodes[5].buffer  # temporal copy moved

    def test_shared_copy_not_stolen_by_other_push(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=2), hub_spoke_graph)
        # centrals are 0 (hub) and 5 (second-tier)
        centrals = harness.scheme.selection.central_nodes
        assert set(centrals) == {0, 5}
        item = make_item(data_id=1, source=4, size=10 * MEGABIT)
        harness.add_data(item)
        harness.contact(4, 5, now=10.0)  # push to 5 completes; 0-push relays via 5
        assert item.data_id in harness.nodes[5].buffer
        harness.contact(5, 0, now=20.0)  # 0-push hands a NEW copy to 0
        assert item.data_id in harness.nodes[0].buffer
        assert item.data_id in harness.nodes[5].buffer  # 5's own copy stays


class TestPull:
    def test_query_multicast_one_bundle_per_ncl(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=2), hub_spoke_graph)
        query = make_query(query_id=1, requester=3, data_id=9)
        harness.add_query(query)
        bundles = [b for b in harness.nodes[3].bundles if isinstance(b, QueryBundle)]
        assert len(bundles) == 2

    def test_central_answers_from_cache(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        item = make_item(data_id=1, source=1, size=10 * MEGABIT)
        harness.add_data(item)
        harness.contact(1, 0, now=10.0)  # cache at central
        query = make_query(query_id=1, requester=2, data_id=1, created_at=20.0)
        harness.add_query(query)
        harness.contact(2, 0, now=30.0)  # query reaches central, response emitted
        responses = [
            b for b in harness.nodes[0].bundles if isinstance(b, ResponseBundle)
        ]
        assert len(responses) == 1
        harness.contact(0, 2, now=40.0)  # response delivered on next meeting
        assert harness.metrics.is_satisfied(1)

    def test_query_history_recorded_along_path(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        query = make_query(query_id=1, requester=2, data_id=7, created_at=0.0)
        harness.add_query(query)
        harness.contact(2, 0, now=5.0)
        assert harness.nodes[0].popularity.request_count(7) == 1

    @pytest.mark.parametrize("kind", ["query", "push", "incidental_query", "response"])
    def test_router_not_asked_for_a_bundle_the_peer_has_seen(
        self, hub_spoke_graph, monkeypatch, kind
    ):
        """A peer that already holds a bundle gets no copy, so no router
        is asked to decide one (nor traces a decision): the intentional
        scheme's queries and pushes, the baselines' queries, responses."""
        scheme = NoCache() if kind in ("incidental_query", "response") else make_scheme(k=1)
        harness = SchemeHarness(scheme, hub_spoke_graph)
        item = make_item(data_id=7, source=1, size=10 * MEGABIT)
        harness.add_data(item)
        if kind == "push":
            router, carrier = scheme._push_router, 1
            (bundle,) = [b for b in harness.nodes[1].bundles if isinstance(b, PushBundle)]
        elif kind == "response":
            router, carrier = scheme._response_router, 1
            query = make_query(query_id=1, requester=4, data_id=7, created_at=0.0)
            harness.metrics.on_query_created(query)
            bundle = ResponseBundle(
                created_at=0.0, expires_at=query.expires_at, data=item, query=query
            )
            harness.nodes[1].store_bundle(bundle)
        else:
            router, carrier = scheme._query_router, 2
            harness.add_query(make_query(query_id=1, requester=2, data_id=7, created_at=0.0))
            (bundle,) = [b for b in harness.nodes[2].bundles if isinstance(b, QueryBundle)]
        harness.nodes[0].store_bundle(bundle)
        asked = []
        decide = router.decide
        monkeypatch.setattr(
            router, "decide", lambda *args: asked.append(args) or decide(*args)
        )
        harness.contact(carrier, 0, now=5.0)
        assert asked == []

    def test_push_pull_conjunction(self, hub_spoke_graph):
        """Data arriving after the query still answers it (Sec. V)."""
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        query = make_query(
            query_id=1, requester=2, data_id=1, created_at=0.0, time_constraint=12 * HOUR
        )
        harness.add_query(query)
        harness.contact(2, 0, now=5.0)  # query waits at central
        item = make_item(data_id=1, source=1, size=10 * MEGABIT)
        harness.add_data(item, now=10.0)
        harness.contact(1, 0, now=20.0)  # push arrives -> response emitted
        responses = [
            b for b in harness.nodes[0].bundles if isinstance(b, ResponseBundle)
        ]
        assert len(responses) == 1

    def test_requester_with_data_satisfied_immediately(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        item = make_item(data_id=1, source=2, size=10 * MEGABIT)
        harness.add_data(item)
        query = make_query(query_id=1, requester=2, data_id=1, created_at=1.0)
        harness.add_query(query)
        assert harness.metrics.is_satisfied(1)


class TestReplacement:
    def test_exchange_runs_between_caching_nodes(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        a, b = harness.nodes[1], harness.nodes[2]
        old = make_item(data_id=1, source=1, size=10 * MEGABIT)
        hot = make_item(data_id=2, source=2, size=10 * MEGABIT)
        a.buffer.put(old)
        b.buffer.put(hot)
        # make both items non-fresh and known to the nodes
        for node in (a, b):
            node.popularity.record_request(1, 0.0)
            node.popularity.record_request(2, 0.0)
        harness.contact(1, 2, now=10.0)
        assert harness.metrics.finalize("x", 0).exchanges == 1

    def test_no_exchange_when_one_side_empty(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        harness.nodes[1].buffer.put(make_item(data_id=1, source=1, size=10 * MEGABIT))
        harness.contact(1, 2, now=10.0)
        assert harness.metrics.finalize("x", 0).exchanges == 0

    def test_exchange_rolled_back_when_budget_too_small(self, hub_spoke_graph):
        harness = SchemeHarness(make_scheme(k=1), hub_spoke_graph)
        a, b = harness.nodes[1], harness.nodes[2]
        items = [
            make_item(data_id=1, source=1, size=10 * MEGABIT),
            make_item(data_id=2, source=2, size=10 * MEGABIT),
        ]
        a.buffer.put(items[0])
        b.buffer.put(items[1])
        ids_before = (set(a.buffer.data_ids()), set(b.buffer.data_ids()))
        harness.contact(1, 2, now=10.0, budget_bits=100)
        assert (set(a.buffer.data_ids()), set(b.buffer.data_ids())) == ids_before


class TestAdaptiveTimeBudget:
    def test_none_budget_triggers_calibration(self, hub_spoke_graph):
        scheme = IntentionalCaching(
            IntentionalConfig(num_ncls=1, ncl_time_budget=None, response_strategy="always")
        )
        harness = SchemeHarness(scheme, hub_spoke_graph)
        assert scheme.ncl_time_budget is not None
        assert scheme.ncl_time_budget > 0
        assert scheme.selection is not None

    def test_explicit_budget_is_used_verbatim(self, hub_spoke_graph):
        scheme = make_scheme(k=1)
        SchemeHarness(scheme, hub_spoke_graph)
        assert scheme.ncl_time_budget == 2 * HOUR
