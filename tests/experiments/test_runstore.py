"""Run directories: save/load round-trip and report rendering."""

import dataclasses

import pytest

from repro.caching.nocache import NoCache
from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiment
from repro.experiments.runstore import load_run, render_run_report, save_run
from repro.sim.simulator import SimulatorConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig


@pytest.fixture(scope="module")
def experiment():
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(
            name="runstore",
            num_nodes=10,
            duration=4 * DAY,
            total_contacts=1500,
            granularity=60.0,
            seed=2,
        )
    )
    workload = WorkloadConfig(mean_data_lifetime=8 * HOUR, mean_data_size=10 * MEGABIT)
    return run_experiment(
        trace,
        NoCache,
        workload,
        seeds=(1, 2),
        config=SimulatorConfig(profile=True, timeseries=True),
    )


class TestSaveLoad:
    def test_round_trip(self, experiment, tmp_path):
        run_dir = str(tmp_path / "run")
        save_run(experiment, run_dir)
        loaded = load_run(run_dir)
        assert loaded["manifest"] == experiment.manifest
        assert loaded["metrics"] == experiment.registry.snapshot()
        assert loaded["profile"].keys() == experiment.profile.keys()
        assert loaded["timeseries"] == experiment.timeseries
        assert loaded["result"]["aggregate"] == dataclasses.asdict(
            experiment.aggregate
        )
        assert loaded["trace_path"] is None  # tracing was off
        assert loaded["health_path"] is None  # serve-mode only

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_run(str(tmp_path / "absent"))

    def test_empty_directory_reports_gracefully(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert "(run directory is empty)" in render_run_report(str(empty))


class TestRenderReport:
    def test_sections_present(self, experiment, tmp_path):
        run_dir = str(tmp_path / "run")
        save_run(experiment, run_dir)
        report = render_run_report(run_dir)
        for heading in (
            "## Provenance",
            "## Metrics",
            "## Instrument registry",
            "## Profile",
            "## Time series",
        ):
            assert heading in report
        assert experiment.manifest["config_hash"] in report
        # mean ± 95% CI rendering of the aggregate
        assert "±" in report

    def test_health_log_renders_live_health_section(self, experiment, tmp_path):
        from pathlib import Path

        from repro.obs.health import HealthReport, HealthSnapshot
        from repro.obs.timeseries import write_jsonl

        run_dir = str(tmp_path / "run")
        save_run(experiment, run_dir)
        snapshot = HealthSnapshot(
            index=0, start=0.0, end=3600.0,
            queries_issued=10, queries_satisfied=4, duplicate_deliveries=0,
            late_deliveries=0, cache_lookups=10, cache_hits=4,
            data_generated=2, responses_delivered=4, backlog=6,
            backlog_delta=6, success_ratio=0.4, cache_hit_ratio=0.4,
            queries_per_sim_second=10 / 3600.0, delay_p50=30.0,
            delay_p95=120.0, delay_p99=200.0, ncl_load_cv=0.0,
            flash_crowd=False,
        )
        report = HealthReport(
            snapshots=(snapshot,), transitions=(), anomalies=(), flash_window=None
        )
        write_jsonl(report.to_records(), Path(run_dir) / "health.jsonl")
        rendered = render_run_report(run_dir)
        assert "## Live health" in rendered
        assert "1 windows" in rendered
        assert load_run(run_dir)["health_path"] is not None

    def test_profile_tree_is_checked_before_rendering(self, experiment, tmp_path):
        run_dir = str(tmp_path / "run")
        save_run(experiment, run_dir)
        import json
        import os

        profile_path = os.path.join(run_dir, "profile.json")
        bad = {
            "outer": {"calls": 1.0, "own": 0.0, "cum": 1.0},
            "outer/child": {"calls": 1.0, "own": 5.0, "cum": 5.0},
        }
        with open(profile_path, "w") as handle:
            json.dump(bad, handle)
        with pytest.raises(ValueError, match="inconsistent"):
            render_run_report(run_dir)
