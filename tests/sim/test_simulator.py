"""Unit tests for the simulation orchestrator."""

import pytest

from repro.caching.intentional import IntentionalCaching, IntentionalConfig
from repro.caching.nocache import NoCache
from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.contact import Contact, ContactTrace
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig


def tiny_trace(seed=4):
    return generate_synthetic_trace(
        SyntheticTraceConfig(
            name="tiny",
            num_nodes=12,
            duration=6 * DAY,
            total_contacts=2500,
            granularity=60.0,
            seed=seed,
        )
    )


def workload():
    return WorkloadConfig(mean_data_lifetime=12 * HOUR, mean_data_size=20 * MEGABIT)


class TestLifecycle:
    def test_run_returns_result(self):
        sim = Simulator(tiny_trace(), NoCache(), workload(), SimulatorConfig(seed=1))
        result = sim.run()
        assert 0.0 <= result.successful_ratio <= 1.0
        assert result.queries_satisfied <= result.queries_issued

    def test_runs_exactly_once(self):
        sim = Simulator(tiny_trace(), NoCache(), workload(), SimulatorConfig(seed=1))
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_empty_trace_rejected(self):
        trace = ContactTrace([], num_nodes=3)
        with pytest.raises(ConfigurationError):
            Simulator(trace, NoCache(), workload())

    def test_warmup_boundary(self):
        sim = Simulator(tiny_trace(), NoCache(), workload())
        assert sim.warmup_end == pytest.approx(
            sim.trace.start_time + sim.trace.duration / 2
        )


class TestDeterminism:
    def test_same_seed_same_result(self):
        results = [
            Simulator(
                tiny_trace(),
                IntentionalCaching(
                    IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)
                ),
                workload(),
                SimulatorConfig(seed=9),
            ).run()
            for _ in range(2)
        ]
        assert results[0].successful_ratio == results[1].successful_ratio
        assert results[0].queries_issued == results[1].queries_issued
        assert results[0].caching_overhead == results[1].caching_overhead

    def test_different_seed_different_workload(self):
        a = Simulator(tiny_trace(), NoCache(), workload(), SimulatorConfig(seed=1)).run()
        b = Simulator(tiny_trace(), NoCache(), workload(), SimulatorConfig(seed=2)).run()
        assert (a.queries_issued, a.data_generated) != (b.queries_issued, b.data_generated)


class TestBufferAssignment:
    def test_buffers_within_configured_range(self):
        wl = workload()
        sim = Simulator(tiny_trace(), NoCache(), wl, SimulatorConfig(seed=1))
        for node in sim.nodes:
            assert wl.buffer_min <= node.buffer.capacity <= wl.buffer_max


class TestEventScheduling:
    def test_workload_only_in_second_half(self):
        sim = Simulator(tiny_trace(), NoCache(), workload(), SimulatorConfig(seed=1))
        sim.run()
        for item in sim.workload_process.generated_items:
            assert item.created_at >= sim.warmup_end

    def test_estimator_sees_all_contacts(self):
        trace = tiny_trace()
        sim = Simulator(trace, NoCache(), workload(), SimulatorConfig(seed=1))
        sim.run()
        assert sim.estimator.total_contacts() == trace.num_contacts

    def test_metrics_accounting_consistent(self):
        sim = Simulator(tiny_trace(), NoCache(), workload(), SimulatorConfig(seed=1))
        result = sim.run()
        assert result.queries_satisfied <= result.responses_emitted + result.queries_satisfied
        assert result.data_generated == sim.workload_process.data_items_generated


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"link_capacity": 0.0},
            {"graph_refresh_period": 0.0},
            {"sample_period": -1.0},
        ],
    )
    def test_invalid_simulator_configs(self, overrides):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(**overrides)


class TestRefreshSnapshots:
    def test_every_refresh_builds_a_fresh_snapshot(self, monkeypatch):
        from repro.graph.estimator import OnlineContactGraphEstimator

        graphs = []
        original = OnlineContactGraphEstimator.snapshot

        def spy(est, now):
            # Keep the graph object alive: id() values of collected
            # graphs get recycled, which would fake distinctness.
            graphs.append(original(est, now))
            return graphs[-1]

        monkeypatch.setattr(OnlineContactGraphEstimator, "snapshot", spy)
        Simulator(tiny_trace(), NoCache(), workload(), SimulatorConfig(seed=1)).run()
        assert len(graphs) > 1  # the set-up snapshot plus refreshes
        assert len({id(graph) for graph in graphs}) == len(graphs)
