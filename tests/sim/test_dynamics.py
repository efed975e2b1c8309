"""Network-dynamics units: event validation, scheduling, node purge,
estimator activity, and the topology-gated re-election trigger."""

import pytest

from repro.caching import IntentionalCaching, IntentionalConfig, NoCache
from repro.errors import ConfigurationError
from repro.graph.estimator import OnlineContactGraphEstimator
from repro.sim.dynamics import (
    DYNAMICS_ACTIONS,
    DynamicsConfig,
    DynamicsEvent,
    NetworkDynamics,
)
from repro.sim.engine import EventEngine
from repro.sim.events import EventKind
from repro.sim.node import Node
from repro.units import MEGABIT
from tests.conftest import make_item


class TestDynamicsEvent:
    def test_rejects_unknown_action(self):
        with pytest.raises(ConfigurationError, match="unknown dynamics action"):
            DynamicsEvent(action="explode", at_fraction=0.5, node=1)

    def test_rejects_out_of_window_fraction(self):
        with pytest.raises(ConfigurationError, match="at_fraction"):
            DynamicsEvent(action="leave", at_fraction=1.5, node=1)

    @pytest.mark.parametrize("action", ["join", "leave", "fail"])
    def test_node_actions_require_a_node(self, action):
        with pytest.raises(ConfigurationError, match="needs a node id"):
            DynamicsEvent(action=action, at_fraction=0.5)

    def test_fail_central_needs_no_node(self):
        event = DynamicsEvent(action="fail_central", at_fraction=0.5, central_rank=2)
        assert event.node is None

    def test_rejects_negative_central_rank(self):
        with pytest.raises(ConfigurationError, match="central_rank"):
            DynamicsEvent(action="fail_central", at_fraction=0.5, central_rank=-1)

    @pytest.mark.parametrize("action", DYNAMICS_ACTIONS)
    def test_dict_round_trip(self, action):
        if action == "fail_central":
            event = DynamicsEvent(action=action, at_fraction=0.25, central_rank=1)
        else:
            event = DynamicsEvent(action=action, at_fraction=0.25, node=3)
        assert DynamicsEvent.from_dict(event.to_dict()) == event


class TestDynamicsConfig:
    def test_empty_config_is_falsy(self):
        assert not DynamicsConfig()
        assert DynamicsConfig(
            events=(DynamicsEvent(action="leave", at_fraction=0.5, node=1),)
        )

    def test_rejects_non_event_entries(self):
        with pytest.raises(ConfigurationError, match="DynamicsEvent"):
            DynamicsConfig(events=({"action": "leave"},))

    def test_dict_round_trip(self):
        config = DynamicsConfig(
            events=(
                DynamicsEvent(action="fail_central", at_fraction=0.3),
                DynamicsEvent(action="join", at_fraction=0.9, node=2),
            )
        )
        assert DynamicsConfig.from_dict(config.to_dict()) == config


class TestNetworkDynamics:
    def _fired(self, config, start, end):
        engine = EventEngine()
        fired = []
        engine.register(
            EventKind.NETWORK_DYNAMICS,
            lambda event: fired.append((event.time, event.payload)),
        )
        dynamics = NetworkDynamics(config, num_nodes=8)
        scheduled = dynamics.schedule(engine, start, end)
        engine.run()
        return scheduled, fired

    def test_fractions_map_onto_evaluation_window(self):
        config = DynamicsConfig(
            events=(
                DynamicsEvent(action="leave", at_fraction=0.0, node=1),
                DynamicsEvent(action="join", at_fraction=0.5, node=1),
            )
        )
        scheduled, fired = self._fired(config, start=100.0, end=300.0)
        assert scheduled == 2
        assert [time for time, _ in fired] == [100.0, 200.0]

    def test_fraction_one_lands_inside_the_window(self):
        config = DynamicsConfig(
            events=(DynamicsEvent(action="fail", at_fraction=1.0, node=1),)
        )
        _, fired = self._fired(config, start=0.0, end=100.0)
        assert len(fired) == 1
        assert fired[0][0] < 100.0

    def test_rejects_node_beyond_network(self):
        config = DynamicsConfig(
            events=(DynamicsEvent(action="leave", at_fraction=0.5, node=99),)
        )
        with pytest.raises(ConfigurationError, match="network has"):
            NetworkDynamics(config, num_nodes=8)

    def test_rejects_empty_window(self):
        dynamics = NetworkDynamics(DynamicsConfig(), num_nodes=4)
        with pytest.raises(ConfigurationError, match="positive length"):
            dynamics.schedule(EventEngine(), 10.0, 10.0)


class TestNodePurge:
    def test_purge_clears_volatile_state_and_reports_counts(self):
        node = Node(0, buffer_capacity=100 * MEGABIT)
        node.buffer.put(make_item(data_id=1))
        node.generate_data(make_item(data_id=2, source=0))
        dropped = node.purge()
        assert dropped["cached"] == 1
        assert dropped["origin"] == 1
        assert node.buffer.items() == []
        assert node.origin == {}
        assert node.active_queries == {}

    def test_purge_keeps_seen_history(self):
        # _seen_bundles guards against re-accepting the same bundle after
        # a rejoin; history survives the purge on purpose.
        node = Node(0, buffer_capacity=100 * MEGABIT)
        node._seen_bundles.add(("push", 1, 2))
        node.purge()
        assert ("push", 1, 2) in node._seen_bundles


class TestEstimatorActivity:
    def test_inactive_node_reports_zero_rate(self):
        est = OnlineContactGraphEstimator(num_nodes=3)
        est.record_contact(0, 1, 10.0)
        est.set_node_active(1, False)
        assert est.rate(0, 1, now=100.0) == 0.0
        assert not est.is_node_active(1)
        est.set_node_active(1, True)
        assert est.rate(0, 1, now=100.0) > 0.0

    def test_inactive_pairs_excluded_from_snapshot(self):
        est = OnlineContactGraphEstimator(num_nodes=3)
        est.record_contact(0, 1, 10.0)
        est.record_contact(0, 2, 10.0)
        est.set_node_active(1, False)
        graph = est.snapshot(now=100.0)
        assert graph.rate(0, 1) == 0.0
        assert graph.rate(0, 2) > 0.0

    def test_activity_change_shows_in_the_next_snapshot(self):
        # A topology change must show up immediately: a vanished node
        # reports rate 0 in the very next snapshot.
        est = OnlineContactGraphEstimator(num_nodes=3)
        est.record_contact(0, 1, 10.0)
        first = est.snapshot(now=50.0)
        est.set_node_active(1, False)
        second = est.snapshot(now=60.0)
        assert second is not first
        assert second.rate(0, 1) == 0.0


class TestTopologyGatedReelection:
    def test_base_scheme_hook_is_a_noop(self):
        NoCache().on_topology_changed(0.0)  # must not raise

    def test_intentional_marks_reelection_due(self):
        scheme = IntentionalCaching(IntentionalConfig(reelect=True))
        assert scheme._topology_dirty is False
        scheme.on_topology_changed(5.0)
        assert scheme._topology_dirty is True
