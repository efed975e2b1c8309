"""The registry lint: every registered name is smoke tested and serializable.

The scenario registries (:mod:`repro.scenario.registry`) are the single
source of truth for what a scenario file can say.  Two rules keep them
honest:

* **Smoke coverage** — every registered scheme, router, response
  strategy, and trace source name appears (as a whole word) in at least
  one test under ``tests/``.  A name nobody tests is a name nobody can
  trust from a scenario file.
* **JSON round-trip** — every scheme, trace-source, and
  response-strategy name survives
  ``ScenarioSpec.from_json(spec.to_json())`` unchanged, so any
  registered name is usable from ``--scenario`` files, not just from
  Python.

Each rule is a helper returning the offending names, so the tests below
can also feed it an empty tests tree and prove it fires.
"""

import re
from pathlib import Path

from repro.scenario import (
    RESPONSE_STRATEGIES,
    ROUTERS,
    SCHEMES,
    TRACE_SOURCES,
    ScenarioSpec,
    SchemeSpec,
    TraceSpec,
)

TESTS_ROOT = Path(__file__).resolve().parents[1]


def registered_names():
    """Every registry's names, keyed by the registry's kind."""
    return {
        registry.kind: registry.names()
        for registry in (SCHEMES, ROUTERS, RESPONSE_STRATEGIES, TRACE_SOURCES)
    }


def _uncovered_names(tests_root):
    """``(kind, name)`` of every registered name that no ``.py`` file
    under *tests_root* mentions as a whole word."""
    corpus = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(Path(tests_root).rglob("*.py"))
    )
    return [
        (kind, name)
        for kind, names in registered_names().items()
        for name in names
        if not re.search(rf"\b{re.escape(name)}\b", corpus)
    ]


def _round_trip_problems():
    """``(kind, name, problem)`` for every scenario-facing name whose
    spec does not survive the JSON round-trip."""
    cases = [
        ("scheme", SCHEMES.names(), lambda n: ScenarioSpec(scheme=SchemeSpec(name=n))),
        (
            "trace source",
            TRACE_SOURCES.names(),
            lambda n: ScenarioSpec(trace=TraceSpec(name=n)),
        ),
        (
            "response strategy",
            RESPONSE_STRATEGIES.names(),
            lambda n: ScenarioSpec(scheme=SchemeSpec(response_strategy=n)),
        ),
    ]
    problems = []
    for kind, names, make in cases:
        for name in names:
            spec = make(name)
            try:
                restored = ScenarioSpec.from_json(spec.to_json())
            except Exception as exc:  # pragma: no cover - diagnostic path
                problems.append((kind, name, f"round-trip raised: {exc!r}"))
                continue
            if restored != spec:
                problems.append((kind, name, "JSON round-trip is not identity"))
    return problems


def test_every_registered_name_is_covered_and_round_trips():
    assert _uncovered_names(TESTS_ROOT) == [], "no smoke test mentions these names"
    assert _round_trip_problems() == []


def test_registries_are_nonempty():
    names = registered_names()
    assert names["scheme"], "scheme registry is empty"
    assert names["router"], "router registry is empty"
    assert names["response strategy"], "response-strategy registry is empty"
    assert names["trace source"], "trace-source registry is empty"


def test_missing_smoke_test_is_flagged(tmp_path):
    # An empty tests tree covers nothing: every name must be flagged.
    (tmp_path / "test_nothing.py").write_text("def test_nothing():\n    pass\n")
    flagged = set(_uncovered_names(tmp_path))
    for kind, names in registered_names().items():
        for name in names:
            assert (kind, name) in flagged


def test_round_trips_are_clean():
    assert _round_trip_problems() == []
