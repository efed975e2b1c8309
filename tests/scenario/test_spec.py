"""ScenarioSpec: JSON round-trip identity, validation, provenance."""

import pytest

from repro.errors import ConfigurationError
from repro.scenario import RunSpec, ScenarioSpec, SchemeSpec, TraceSpec
from repro.sim.dynamics import DynamicsConfig, DynamicsEvent
from repro.workload.config import WorkloadConfig


def _full_spec() -> ScenarioSpec:
    return ScenarioSpec(
        trace=TraceSpec(name="infocom06", seed=3, node_factor=0.5, time_factor=0.25),
        scheme=SchemeSpec(
            name="intentional",
            num_ncls=3,
            ncl_time_budget=3600.0,
            response_strategy="path_aware",
            reelect=True,
        ),
        workload=WorkloadConfig(mean_data_lifetime=7200.0, mean_data_size=1_000_000),
        run=RunSpec(seed=11, repeat=3, graph_refresh_period=600.0, profile=True),
        dynamics=DynamicsConfig(
            events=(
                DynamicsEvent(action="fail_central", at_fraction=0.4, central_rank=1),
                DynamicsEvent(action="leave", at_fraction=0.6, node=2),
            )
        ),
        name="round-trip",
    )


class TestRoundTrip:
    def test_json_round_trip_is_identity_on_defaults(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_is_identity_on_full_spec(self):
        spec = _full_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_save_load_round_trip(self, tmp_path):
        spec = _full_spec()
        path = str(tmp_path / "scenario.json")
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_partial_record_fills_defaults(self):
        spec = ScenarioSpec.from_dict({"scheme": {"name": "nocache"}})
        assert spec.scheme.name == "nocache"
        assert spec.trace == TraceSpec()
        assert spec.run == RunSpec()
        assert not spec.dynamics

    def test_empty_dynamics_omitted_from_dict(self):
        record = ScenarioSpec().to_dict()
        assert "dynamics" not in record
        assert "name" not in record


class TestValidation:
    def test_rejects_invalid_json(self):
        with pytest.raises(ConfigurationError, match="invalid scenario JSON"):
            ScenarioSpec.from_json("{not json")

    def test_rejects_non_object_json(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            ScenarioSpec.from_json("[1, 2]")

    def test_rejects_nonpositive_trace_factors(self):
        with pytest.raises(ConfigurationError):
            TraceSpec(node_factor=0.0)

    def test_rejects_zero_ncls(self):
        with pytest.raises(ConfigurationError):
            SchemeSpec(num_ncls=0)

    def test_rejects_nonpositive_time_budget(self):
        with pytest.raises(ConfigurationError):
            SchemeSpec(ncl_time_budget=-1.0)

    def test_rejects_zero_repeat(self):
        with pytest.raises(ConfigurationError):
            RunSpec(repeat=0)


class TestRunSpec:
    def test_seeds_enumerate_repetitions(self):
        assert RunSpec(seed=5, repeat=3).seeds == [5, 6, 7]

    def test_single_repetition_single_seed(self):
        assert RunSpec(seed=9).seeds == [9]


class TestProvenance:
    def test_excludes_seed_and_repeat(self):
        config = _full_spec().provenance_config()
        run = config["scenario"]["run"]
        assert "seed" not in run
        assert "repeat" not in run
        # Run knobs that change the simulation itself stay in the hash.
        assert run["graph_refresh_period"] == 600.0

    def test_same_experiment_different_seed_hashes_identically(self):
        base = _full_spec()
        reseeded = ScenarioSpec.from_dict(
            {**base.to_dict(), "run": {**base.run.to_dict(), "seed": 99, "repeat": 7}}
        )
        assert base.provenance_config() == reseeded.provenance_config()

    def test_dynamics_schedule_is_part_of_the_identity(self):
        static = ScenarioSpec()
        churn = ScenarioSpec(
            dynamics=DynamicsConfig(
                events=(DynamicsEvent(action="leave", at_fraction=0.5, node=1),)
            )
        )
        assert static.provenance_config() != churn.provenance_config()
