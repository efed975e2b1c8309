"""Smoke tests for the runnable example scripts.

Examples are user-facing documentation; these tests execute their
importable pieces (and the experiment runner's CLI path end-to-end at
smoke scale) so they cannot rot.
"""

import hashlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: ``sha256sum`` lines of every artifact ``run_paper_experiments.py
#: --scale smoke`` writes.  A change that moves an output regenerates it:
#: run the script with ``--outdir D``, then ``(cd D && sha256sum *)``.
SMOKE_DIGESTS = Path(__file__).with_name("smoke_results.sha256")


class TestRunPaperExperiments:
    def test_smoke_run_writes_outputs(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "run_paper_experiments.py"),
                "--scale",
                "smoke",
                "--outdir",
                str(tmp_path),
                "--only",
                "table1",
                "fig9b",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "fig9b.txt").exists()
        assert (tmp_path / "fig9b.csv").exists()
        csv_text = (tmp_path / "fig9b.csv").read_text()
        assert csv_text.startswith("x,")

    def test_smoke_artifacts_match_committed_digests(self, tmp_path):
        """The smoke-scale results are byte-identical to the committed
        digests.  The run gets a fresh process, as the digests did: in a
        shared one the weight cache's history can change which rows a
        run is served."""
        proc = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "run_paper_experiments.py"),
                "--scale",
                "smoke",
                "--outdir",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        }
        lines = SMOKE_DIGESTS.read_text().splitlines()
        committed = {name: digest for digest, name in map(str.split, lines)}
        assert written == committed

    def test_unknown_experiment_fails_cleanly(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "run_paper_experiments.py"),
                "--outdir",
                str(tmp_path),
                "--only",
                "fig99",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "fig99" in proc.stderr or "fig99" in proc.stdout


class TestExampleImports:
    """Each example's main() must at least be importable and callable in
    a trimmed form; quickstart is fast enough to execute outright."""

    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "smartphone_content_sharing.py",
            "vanet_traffic_info.py",
            "campus_mobility.py",
            "run_paper_experiments.py",
        } <= names

    def test_examples_compile(self):
        for script in EXAMPLES.glob("*.py"):
            source = script.read_text()
            compile(source, str(script), "exec")

    def test_examples_have_docstrings_and_mains(self):
        for script in EXAMPLES.glob("*.py"):
            source = script.read_text()
            assert source.lstrip().startswith(('"""', "#!")), script.name
            if script.name != "run_paper_experiments.py":
                assert "def main()" in source, script.name
            assert '__name__ == "__main__"' in source, script.name
