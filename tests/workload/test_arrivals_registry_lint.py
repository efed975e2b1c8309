"""The arrival-registry lint: every arrival process is determinism tested.

The arrival registry (:data:`repro.workload.arrivals.ARRIVALS`) decides
what a ``WorkloadConfig.arrival_process`` may say.  Heavy-traffic runs
lean on the paired-workload contract — same seed ⇒ same query stream —
so an arrival process nobody determinism-tests is an arrival process
nobody can trust in a paired comparison.  Two rules:

* **Determinism coverage** — every registered arrival-process name
  appears in the ``DETERMINISM_PROCESSES`` list of
  ``tests/workload/test_arrivals.py``, which parametrizes the
  same-seed ⇒ same-query-stream test, and every listed name is
  registered.
* **Smoke coverage** — every registered name appears (as a whole word)
  somewhere under ``tests/``, mirroring the scenario-registry lint.
"""

import ast
import re
from pathlib import Path

from repro.workload.arrivals import ARRIVALS

TESTS_ROOT = Path(__file__).resolve().parents[1]
ARRIVALS_TEST = TESTS_ROOT / "workload" / "test_arrivals.py"


def _determinism_tested_names():
    """The ``DETERMINISM_PROCESSES`` literal from the arrivals test.

    Parsed via AST rather than imported, so the lint cannot execute
    test code.
    """
    tree = ast.parse(ARRIVALS_TEST.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "DETERMINISM_PROCESSES" in targets:
                value = ast.literal_eval(node.value)
                if not isinstance(value, list) or not all(
                    isinstance(item, str) for item in value
                ):
                    raise TypeError("DETERMINISM_PROCESSES must be a list of names")
                return value
    raise LookupError(f"no DETERMINISM_PROCESSES list in {ARRIVALS_TEST}")


def _unmentioned_names(tests_root):
    """Registered names that no ``.py`` file under *tests_root* mentions
    as a whole word."""
    corpus = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(Path(tests_root).rglob("*.py"))
    )
    return [
        name
        for name in ARRIVALS.names()
        if not re.search(rf"\b{re.escape(name)}\b", corpus)
    ]


def test_every_arrival_process_is_determinism_tested():
    tested = set(_determinism_tested_names())
    untested = [name for name in ARRIVALS.names() if name not in tested]
    assert untested == [], "not in DETERMINISM_PROCESSES (test_arrivals.py)"


def test_every_arrival_process_is_smoke_tested():
    assert _unmentioned_names(TESTS_ROOT) == [], "no smoke test mentions these names"


def test_registry_is_nonempty():
    assert ARRIVALS.names(), "arrival registry is empty"


def test_missing_coverage_is_flagged(tmp_path):
    # An empty tests tree covers nothing: every name must be flagged as
    # missing its smoke mention.
    (tmp_path / "test_nothing.py").write_text("def test_nothing():\n    pass\n")
    assert _unmentioned_names(tmp_path) == list(ARRIVALS.names())


def test_parsed_list_matches_registry():
    # Also catches a listed name that is no longer registered.
    assert set(_determinism_tested_names()) == set(ARRIVALS.names())
