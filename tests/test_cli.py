"""Unit tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import build_parser, main

FAST_TRACE = ["--node-factor", "0.3", "--time-factor", "0.08"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scheme == "intentional"
        assert args.trace == "mit_reality"


class TestCommands:
    def test_traces(self, capsys):
        assert main(["traces", *FAST_TRACE]) == 0
        out = capsys.readouterr().out
        assert "infocom05" in out and "devices" in out

    def test_ncl(self, capsys):
        assert main(["ncl", "--trace", "infocom05", *FAST_TRACE, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "#1:" in out and "#2:" in out

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--trace",
                    "infocom05",
                    *FAST_TRACE,
                    "--scheme",
                    "nocache",
                    "--lifetime-hours",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "nocache" in out and "ratio=" in out

    def test_fit(self, capsys):
        assert main(["fit", "--trace", "infocom05", *FAST_TRACE]) == 0
        out = capsys.readouterr().out
        assert "pairs_fitted" in out

    def test_figure_analytic(self, capsys):
        assert main(["figure", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "p_R" in out

    def test_figure_table(self, capsys):
        assert main(["figure", "table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "devices" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err


class TestTraceCommand:
    def test_simulate_records_and_trace_replays(self, capsys, tmp_path):
        """End-to-end: --trace-out writes a JSONL lifecycle trace and
        `repro trace` replays it into a per-query audit report whose
        derived ratio matches the simulate output."""
        path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--trace",
                    "infocom05",
                    *FAST_TRACE,
                    "--scheme",
                    "nocache",
                    "--lifetime-hours",
                    "4",
                    "--trace-out",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert path.exists()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "derived: ratio=" in out
        assert "query " in out

    def test_trace_limit_and_only(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        main(
            [
                "simulate",
                "--trace",
                "infocom05",
                *FAST_TRACE,
                "--lifetime-hours",
                "4",
                "--trace-out",
                str(path),
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(path), "--limit", "2", "--only", "expired"]) == 0
        out = capsys.readouterr().out
        assert "[satisfied]" not in out

    def test_trace_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestRunDirectoryAndReport:
    def _simulate(self, out_dir, extra=()):
        return main(
            [
                "simulate",
                "--trace",
                "infocom05",
                *FAST_TRACE,
                "--scheme",
                "nocache",
                "--lifetime-hours",
                "4",
                "--out",
                str(out_dir),
                *extra,
            ]
        )

    def test_out_writes_run_directory_and_report_renders(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert self._simulate(run_dir) == 0
        capsys.readouterr()
        for name in ("result.json", "manifest.json", "metrics.json",
                     "profile.json", "timeseries.jsonl", "timeseries.csv"):
            assert (run_dir / name).exists(), name
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "## Provenance" in out
        assert "## Metrics" in out
        assert "## Profile" in out
        assert "## Time series" in out
        assert "config hash" in out

    def test_config_hash_stable_across_identical_runs(self, capsys, tmp_path):
        import json

        assert self._simulate(tmp_path / "a") == 0
        assert self._simulate(tmp_path / "b") == 0
        capsys.readouterr()
        hashes = [
            json.load(open(tmp_path / name / "manifest.json"))["config_hash"]
            for name in ("a", "b")
        ]
        assert hashes[0] == hashes[1]

    def test_report_includes_trace_audit_when_trace_present(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert self._simulate(
            run_dir, extra=["--trace-out", str(run_dir / "trace.jsonl")]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "## Trace audit" in out
        assert "derived: ratio=" in out

    def test_report_on_missing_directory(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent")]) == 2
        assert "cannot render run" in capsys.readouterr().err

    def test_timeline_out_writes_csv(self, capsys, tmp_path):
        import csv

        path = tmp_path / "timeline.csv"
        assert (
            main(
                [
                    "simulate",
                    "--trace",
                    "infocom05",
                    *FAST_TRACE,
                    "--scheme",
                    "nocache",
                    "--lifetime-hours",
                    "4",
                    "--timeline-out",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows, "timeline CSV has no samples"
        assert "running_ratio" in rows[0]
        assert "mean_buffer_occupancy" in rows[0]

    def test_single_run_outputs_rejected_with_repeat(self, capsys, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--trace",
                    "infocom05",
                    *FAST_TRACE,
                    "--scheme",
                    "nocache",
                    "--repeat",
                    "2",
                    "--timeline-out",
                    str(tmp_path / "t.csv"),
                ]
            )
            == 2
        )
        assert "--repeat 1" in capsys.readouterr().err

    def test_serve_slo_out_prom_and_watch(self, capsys, tmp_path):
        """End-to-end: serve with an always-breaching SLO writes the
        health log + manifest + Prometheus exposition, and `repro
        watch` renders the run directory's table."""
        import json

        run_dir = tmp_path / "run"
        prom = tmp_path / "health.prom"
        assert (
            main(
                [
                    "serve",
                    "--trace",
                    "infocom05",
                    *FAST_TRACE,
                    "--scheme",
                    "nocache",
                    "--lifetime-hours",
                    "4",
                    "--batches",
                    "3",
                    "--slo",
                    "success_ratio>=2.0",
                    "--out",
                    str(run_dir),
                    "--prom-out",
                    str(prom),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "slo.violated rule=success_ratio>=2.0" in out
        assert "health log" in out
        assert (run_dir / "health.jsonl").exists()
        manifest = json.load(open(run_dir / "manifest.json"))
        assert manifest["slo_rules"][0]["field"] == "success_ratio"
        exposition = prom.read_text()
        assert "repro_health_windows_total 3" in exposition
        assert 'repro_slo_violated{rule="success_ratio>=2.0"} 1' in exposition
        assert main(["watch", str(run_dir)]) == 0
        table = capsys.readouterr().out
        assert "backlog" in table  # table header
        assert "!success_ratio>=2.0" in table  # violation edge flag
        assert "windows" in table  # summary footer

    def test_serve_bad_slo_spec_rejected(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--trace",
                    "infocom05",
                    *FAST_TRACE,
                    "--slo",
                    "not_a_rule",
                ]
            )
            == 2
        )
        assert "not_a_rule" in capsys.readouterr().err

    def test_watch_missing_log(self, capsys, tmp_path):
        assert main(["watch", str(tmp_path / "absent")]) == 2
        assert "no health log" in capsys.readouterr().err

    def test_repeat_merges_seeds_into_run_directory(self, capsys, tmp_path):
        import json

        run_dir = tmp_path / "run"
        assert self._simulate(run_dir, extra=["--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("ratio=") >= 2
        manifest = json.load(open(run_dir / "manifest.json"))
        assert len(manifest["seeds"]) == 2
        rows = [
            json.loads(line)
            for line in open(run_dir / "timeseries.jsonl").read().splitlines()
        ]
        assert {row["seed"] for row in rows} == set(manifest["seeds"])


class TestMemProfileCli:
    """``--mem-profile`` through the CLI: the memory telemetry a run
    writes must reach ``repro report``, ``repro watch`` and the
    Prometheus exposition."""

    MIT_SMALL = ["--trace", "mit_reality", "--node-factor", "0.3",
                 "--time-factor", "0.15"]

    def test_simulate_mem_profile_report_and_watch(self, capsys, tmp_path):
        run_dir = tmp_path / "mem"
        assert main(
            ["simulate", *self.MIT_SMALL, "--mem-profile", "--out", str(run_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        report = capsys.readouterr().out
        assert "## Time series" in report
        assert "## Memory" in report
        assert main(["watch", str(run_dir)]) == 0
        assert "rss_mb" in capsys.readouterr().out

    def test_serve_mem_profile_prom_and_watch(self, capsys, tmp_path):
        import re

        from repro.obs.memory import SUBSYSTEMS

        run_dir = tmp_path / "memserve"
        prom = tmp_path / "health.prom"
        assert main(
            [
                "serve", *self.MIT_SMALL, "-k", "5", "--arrival", "bursty",
                "--batches", "6", "--mem-profile", "--slo", "availability",
                "--out", str(run_dir), "--prom-out", str(prom),
            ]
        ) == 0
        capsys.readouterr()
        exposition = prom.read_text()
        assert re.search(r"^repro_health_rss_bytes \d+$", exposition, re.M)
        for name in SUBSYSTEMS:
            gauge = f'repro_memory_subsystem_bytes{{subsystem="{name}"}} '
            lines = [l for l in exposition.splitlines() if l.startswith(gauge)]
            assert len(lines) == 1, name
        assert main(["watch", str(run_dir)]) == 0
        assert "rss_mb" in capsys.readouterr().out


def _strict_records(path):
    """Every line of a JSONL file, parsed as strict JSON (a bare
    ``NaN``/``Infinity`` token raises)."""
    import json

    def refuse(constant):
        raise ValueError(f"{path.name}: bare {constant} is not JSON")

    return [json.loads(line, parse_constant=refuse) for line in open(path)]


class TestTelemetryFiles:
    """What ``serve --out`` and ``simulate --out`` write: strict JSON,
    one memory row per sample instant."""

    SERVE = ["serve", "--trace", "infocom05", *FAST_TRACE, "--scheme", "nocache",
             "--lifetime-hours", "4"]

    def test_health_and_timeseries_logs_parse_strictly(self, capsys, tmp_path):
        serve_dir, sim_dir = tmp_path / "serve", tmp_path / "sim"
        assert main([*self.SERVE, "--batches", "3", "--out", str(serve_dir)]) == 0
        assert main(
            ["simulate", "--trace", "infocom05", *FAST_TRACE, "--scheme",
             "nocache", "--lifetime-hours", "4", "--out", str(sim_dir)]
        ) == 0
        capsys.readouterr()
        health = _strict_records(serve_dir / "health.jsonl")
        rows = _strict_records(sim_dir / "timeseries.jsonl")
        assert len(health) > 1 and rows
        # unprofiled memory columns are null, not NaN
        assert all(r["rss_mb"] is None for r in health if r["kind"] == "health.snapshot")
        assert all(r["rss_mb"] is None for r in rows)

    def test_mem_profiled_serve_writes_one_memory_row_per_instant(
        self, capsys, tmp_path
    ):
        import json
        import math

        run_dir = tmp_path / "serve"
        batches = 4
        assert main(
            [*self.SERVE, "--batches", str(batches), "--mem-profile",
             "--out", str(run_dir)]
        ) == 0
        capsys.readouterr()
        instants = []
        for path in sorted(run_dir.glob("*.jsonl")):
            for line in open(path):
                record = json.loads(line)
                rss = record.get("rss_mb")
                if rss is not None and not math.isnan(rss):
                    instants.append(record.get("time", record.get("end")))
        assert len(instants) == batches
        assert all(a < b for a, b in zip(instants, instants[1:]))
