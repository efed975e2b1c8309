"""``repro diagnose``: orchestration, rendering, JSON, CLI exit codes.

The CLI contract: exit 0 on a healthy run, 1 under ``--strict`` when any
consistency or fidelity warning fired, 2 on unusable inputs (missing
files, unknown drill-down ids).  A heavy-tailed (Pareto inter-contact)
run must trip the strict gate at default thresholds; the default
synthetic run must not.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.caching import IntentionalCaching, IntentionalConfig
from repro.obs import MemoryRecorder, build_causality, run_diagnosis
from repro.obs.diagnose import diagnosis_to_dict, render_diagnosis
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.contact import Contact, ContactTrace
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig

FAST_TRACE = ["--node-factor", "0.3", "--time-factor", "0.08"]


@pytest.fixture(scope="module")
def synthetic_run():
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(
            name="diagnose-acceptance",
            num_nodes=12,
            duration=4 * DAY,
            total_contacts=2500,
            granularity=60.0,
            seed=6,
        )
    )
    workload = WorkloadConfig(
        mean_data_lifetime=12 * HOUR, mean_data_size=30 * MEGABIT
    )
    recorder = MemoryRecorder()
    Simulator(
        trace,
        IntentionalCaching(IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)),
        workload,
        SimulatorConfig(seed=3),
        recorder=recorder,
    ).run()
    return trace, recorder.events


def _pareto_trace(seed=42, num_nodes=8, contacts_per_pair=60, scale=600.0):
    rng = np.random.default_rng(seed)
    contacts = []
    for a in range(num_nodes):
        for b in range(a + 1, num_nodes):
            t = float(rng.uniform(0.0, scale))
            for _ in range(contacts_per_pair):
                t += scale * (rng.pareto(1.2) + 0.05)
                contacts.append(Contact(start=t, end=t + 30.0, node_a=a, node_b=b))
    return ContactTrace(contacts, num_nodes=num_nodes, name="pareto")


class TestRunDiagnosis:
    def test_healthy_run_has_no_warnings(self, synthetic_run):
        trace, events = synthetic_run
        diagnosis = run_diagnosis(build_causality(events), contact_trace=trace)
        assert diagnosis.consistency == []
        assert diagnosis.warnings == []
        assert diagnosis.num_events == len(events)
        assert diagnosis.summary["queries"] > 0

    def test_heavy_tailed_run_warns_at_default_thresholds(self):
        """Acceptance: a run over Pareto inter-contact gaps — decisively
        non-exponential mobility — trips the fidelity gate that the
        Poisson synthetic run clears, with identical thresholds."""
        trace = _pareto_trace()
        workload = WorkloadConfig(
            mean_data_lifetime=trace.duration * 0.2,
            mean_data_size=30 * MEGABIT,
        )
        recorder = MemoryRecorder()
        Simulator(
            trace,
            IntentionalCaching(
                IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)
            ),
            workload,
            SimulatorConfig(seed=3),
            recorder=recorder,
        ).run()
        diagnosis = run_diagnosis(
            build_causality(recorder.events), contact_trace=trace
        )
        assert diagnosis.consistency == []  # chains still reconcile
        assert any("inter-contact" in w for w in diagnosis.warnings)

    def test_render_covers_every_section(self, synthetic_run):
        trace, events = synthetic_run
        diagnosis = run_diagnosis(
            build_causality(events),
            contact_trace=trace,
            provenance={"config_hash": "cafe" * 8},
        )
        text = render_diagnosis(diagnosis)
        assert text.startswith("# Run diagnosis")
        assert "_config `cafecafecafe`_" in text
        assert "## Causal chains" in text
        assert "- OK: every query_satisfied event matches its first" in text
        assert "inter-contact:" in text
        assert "delivery calibration" in text
        assert "response calibration" in text
        assert "NCL load" in text
        assert "## Warnings" in text and "- none" in text
        embedded = render_diagnosis(diagnosis, level=2)
        assert embedded.startswith("## Run diagnosis")
        assert "### Warnings" in embedded

    def test_to_dict_round_trips_through_json(self, synthetic_run):
        trace, events = synthetic_run
        diagnosis = run_diagnosis(build_causality(events), contact_trace=trace)
        record = json.loads(json.dumps(diagnosis_to_dict(diagnosis)))
        assert record["consistency"]["ok"] is True
        assert record["num_events"] == len(events)
        assert record["fidelity"]["delivery"]["samples"] > 0
        assert record["fidelity"]["thresholds"]["max_median_ks"] == 0.25
        assert record["warnings"] == []


class TestDiagnoseCLI:
    def _simulate(self, out_dir):
        return main(
            [
                "simulate",
                "--trace",
                "infocom05",
                *FAST_TRACE,
                "--lifetime-hours",
                "4",
                "--out",
                str(out_dir),
            ]
        )

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("diagnose") / "run"
        assert self._simulate(path) == 0
        return path

    def test_diagnose_run_directory(self, capsys, run_dir):
        assert main(["diagnose", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Run diagnosis" in out
        assert "_config `" in out  # provenance stamp from the manifest
        assert "- OK: every query_satisfied event matches its first" in out
        # the manifest rebuilt the contact trace: mobility sections live
        assert "inter-contact:" in out and "pairs fitted" in out

    def test_diagnose_bare_trace_degrades(self, capsys, run_dir):
        assert main(["diagnose", str(run_dir / "trace.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "skipped (no contact trace available)" in out

    def test_strict_passes_on_healthy_run(self, capsys, run_dir):
        assert main(["diagnose", str(run_dir), "--strict"]) == 0

    def test_strict_fails_when_gates_bite(self, capsys, run_dir):
        code = main(
            [
                "diagnose",
                str(run_dir),
                "--strict",
                "--max-median-ks",
                "0.001",
                "--min-samples",
                "1",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "strict mode:" in captured.err
        assert "WARN:" in captured.out

    def test_json_output(self, capsys, run_dir, tmp_path):
        path = tmp_path / "diag.json"
        assert main(["diagnose", str(run_dir), "--json", str(path)]) == 0
        record = json.load(open(path))
        assert record["consistency"]["ok"] is True
        assert record["provenance"]["config_hash"]

    @staticmethod
    def _first_ids(run_dir):
        from repro.obs import read_events

        query_id = data_id = None
        for event in read_events(str(run_dir / "trace.jsonl")):
            if query_id is None and event.query_id is not None:
                query_id = event.query_id
            if data_id is None and event.data_id is not None:
                data_id = event.data_id
            if query_id is not None and data_id is not None:
                break
        assert query_id is not None and data_id is not None
        return query_id, data_id

    def test_query_drilldown(self, capsys, run_dir):
        query_id, _ = self._first_ids(run_dir)
        assert main(["diagnose", str(run_dir), "--query-id", str(query_id)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"query {query_id} ")

    def test_data_drilldown_via_trace_command(self, capsys, run_dir):
        """Satellite 1: `repro trace --data-id` shares the renderer."""
        query_id, data_id = self._first_ids(run_dir)
        trace_path = str(run_dir / "trace.jsonl")
        assert main(["trace", trace_path, "--data-id", str(data_id)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"data {data_id} ")
        assert main(["trace", trace_path, "--query-id", str(query_id)]) == 0
        assert capsys.readouterr().out.startswith(f"query {query_id} ")

    def test_unknown_drilldown_id_exits_2(self, capsys, run_dir):
        assert main(["diagnose", str(run_dir), "--query-id", "999999"]) == 2
        assert "not in trace" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys, tmp_path):
        assert main(["diagnose", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_directory_without_trace_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["diagnose", str(empty)]) == 2
        assert "no trace.jsonl" in capsys.readouterr().err

    def test_report_embeds_diagnosis(self, capsys, run_dir):
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "## Run diagnosis" in out
        assert "### Model fidelity" in out
