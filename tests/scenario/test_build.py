"""Builders: spec → trace/scheme/config, picklability, end-to-end run."""

import pickle

import pytest

from repro.caching import (
    BundleCache,
    CacheData,
    IntentionalCaching,
    NoCache,
    RandomCache,
)
from repro.core.replacement import FIFOPolicy
from repro.core.response import AlwaysRespond, PathAwareResponse, SigmoidResponse
from repro.experiments.runner import run_single
from repro.scenario import (
    SCHEMES,
    RunSpec,
    ScenarioSpec,
    SchemeSpec,
    TraceSpec,
    build_scheme,
    build_trace,
    resolve_ncl_time_budget,
    scheme_factory,
    simulator_config,
)
from repro.sim.dynamics import DynamicsConfig, DynamicsEvent
from repro.traces.catalog import TRACE_PRESETS
from repro.workload.config import WorkloadConfig

EXPECTED_CLASSES = {
    "intentional": IntentionalCaching,
    "nocache": NoCache,
    "randomcache": RandomCache,
    "cachedata": CacheData,
    "bundlecache": BundleCache,
}


class TestBuildScheme:
    @pytest.mark.parametrize("name", sorted(EXPECTED_CLASSES))
    def test_every_registered_scheme_builds(self, name):
        scheme = build_scheme(SchemeSpec(name=name))
        assert isinstance(scheme, EXPECTED_CLASSES[name])

    def test_intentional_carries_spec_knobs(self):
        scheme = build_scheme(
            SchemeSpec(num_ncls=3, response_strategy="path_aware", reelect=True),
            ncl_time_budget=1800.0,
        )
        assert scheme.config.num_ncls == 3
        assert scheme.config.ncl_time_budget == 1800.0
        assert scheme.config.response_strategy == "path_aware"
        assert scheme.config.reelect is True

    def test_replacement_factory_is_invoked_per_build(self):
        scheme = build_scheme(SchemeSpec(), replacement=FIFOPolicy)
        assert isinstance(scheme.replacement, FIFOPolicy)

    @pytest.mark.parametrize(
        "name, cls",
        [("sigmoid", SigmoidResponse), ("path_aware", PathAwareResponse), ("always", AlwaysRespond)],
    )
    def test_response_strategies_run_end_to_end(self, small_trace, name, cls):
        """Each registered response strategy drives a real (tiny) run."""
        scheme = build_scheme(SchemeSpec(response_strategy=name, num_ncls=2))
        workload = WorkloadConfig(
            mean_data_lifetime=small_trace.duration * 0.5,
            mean_data_size=1_000_000,
        )
        result = run_single(small_trace, scheme, workload, seed=7)
        assert isinstance(scheme._response_strategy, cls)
        assert result.queries_issued >= 0


class TestFactoriesAndConfig:
    def test_scheme_factory_is_picklable(self):
        factory = scheme_factory(ScenarioSpec())
        rebuilt = pickle.loads(pickle.dumps(factory))
        assert isinstance(rebuilt(), IntentionalCaching)

    def test_factory_builds_fresh_instances(self):
        factory = scheme_factory(ScenarioSpec(scheme=SchemeSpec(name="nocache")))
        assert factory() is not factory()

    def test_explicit_budget_wins(self):
        spec = ScenarioSpec(scheme=SchemeSpec(ncl_time_budget=42.0))
        assert resolve_ncl_time_budget(spec) == 42.0

    def test_preset_trace_supplies_published_budget(self):
        spec = ScenarioSpec(trace=TraceSpec(name="infocom05"))
        assert (
            resolve_ncl_time_budget(spec)
            == TRACE_PRESETS["infocom05"].ncl_time_budget
        )

    def test_simulator_config_maps_run_knobs(self):
        spec = ScenarioSpec(
            run=RunSpec(seed=13, graph_refresh_period=300.0, profile=True),
            dynamics=DynamicsConfig(
                events=(DynamicsEvent(action="join", at_fraction=0.5, node=1),)
            ),
        )
        config = simulator_config(spec, trace_path="/tmp/t.jsonl")
        assert config.seed == 13
        assert config.graph_refresh_period == 300.0
        assert config.profile is True
        assert config.trace_path == "/tmp/t.jsonl"
        assert config.dynamics is spec.dynamics

    def test_static_scenario_has_no_dynamics(self):
        assert simulator_config(ScenarioSpec()).dynamics is None


class TestBuildTrace:
    def test_preset_trace_resolves_with_scaling(self):
        trace = build_trace(TraceSpec(name="ucsd", node_factor=0.1, time_factor=0.02))
        assert trace.num_nodes > 0
        assert trace.num_contacts > 0
