"""The SLO rule lint: presets name real snapshot fields.

The SLO engine evaluates rules with ``getattr(snapshot, rule.field)``,
so a rule whose ``field`` does not name a :class:`HealthSnapshot`
attribute would raise at serve time, long after the config parsed
cleanly.  Every rule in ``SLO_PRESETS`` (the set users reach by name
via ``--slo availability``) must

* name an existing, *numeric* snapshot field (``bool`` flags and the
  window-identity fields ``index``/``start``/``end`` are not
  monitorable signals),
* use a registered comparison op with a finite target and a positive
  sustain count, under a preset key equal to its name, and
* round-trip through :func:`parse_slo_rule` via its ``spec`` string, so
  the CLI can always re-parse what the preset table prints.

Each rule is a helper returning ``(preset, problem)`` pairs, so the
tests below can also feed it broken tables and prove it fires.
"""

import dataclasses
import math
import types

import pytest

from repro.obs.health import HealthSnapshot
from repro.obs.slo import SLO_PRESETS, SLORule, parse_slo_rule

#: Snapshot fields a rule may legitimately target: numeric observations.
#: Window identity (index/start/end) and boolean flags are excluded —
#: comparing ``start >= 42`` is a config bug, not a health signal.
_IDENTITY_FIELDS = frozenset({"index", "start", "end"})

MONITORABLE_FIELDS = frozenset(
    field.name
    for field in dataclasses.fields(HealthSnapshot)
    if field.name not in _IDENTITY_FIELDS and field.type in ("int", "float", int, float)
)

VALID_OPS = frozenset({">=", "<="})


def _field_problems(presets):
    """Every preset targets a monitorable HealthSnapshot field."""
    return [
        (
            name,
            f"field {rule.field!r} is not a numeric HealthSnapshot field "
            f"(monitorable: {', '.join(sorted(MONITORABLE_FIELDS))})",
        )
        for name, rule in presets.items()
        if rule.field not in MONITORABLE_FIELDS
    ]


def _shape_problems(presets):
    """Ops, targets, sustain windows and preset keys are well-formed."""
    problems = []
    for name, rule in presets.items():
        if rule.op not in VALID_OPS:
            problems.append((name, f"op {rule.op!r} not in {sorted(VALID_OPS)}"))
        if not math.isfinite(rule.target):
            problems.append((name, f"target {rule.target!r} is not finite"))
        if rule.sustain < 1:
            problems.append((name, f"sustain {rule.sustain} must be >= 1"))
        if name != rule.name:
            problems.append((name, f"preset key differs from rule.name {rule.name!r}"))
    return problems


def _spec_problems(presets):
    """``rule.spec`` re-parses to an equivalent rule via parse_slo_rule."""
    problems = []
    for name, rule in presets.items():
        try:
            parsed = parse_slo_rule(rule.spec)
        except Exception as exc:
            problems.append((name, f"spec {rule.spec!r} failed to parse: {exc}"))
            continue
        got = (parsed.field, parsed.op, parsed.target, parsed.sustain)
        want = (rule.field, rule.op, rule.target, rule.sustain)
        if got != want:
            problems.append(
                (name, f"spec {rule.spec!r} round-tripped to {got}, not {want}")
            )
    return problems


def _unchecked(rule, **changes):
    """*rule* as a plain record with *changes* applied — values the
    :class:`SLORule` constructor would refuse included — so the lint can
    be shown to catch them."""
    record = dict(dataclasses.asdict(rule), spec=rule.spec)
    record.update(changes)
    return types.SimpleNamespace(**record)


def test_presets_are_clean():
    problems = (
        _field_problems(SLO_PRESETS)
        + _shape_problems(SLO_PRESETS)
        + _spec_problems(SLO_PRESETS)
    )
    assert problems == [], "\n".join(f"SLO rule {n!r}: {p}" for n, p in problems)


def test_monitorable_fields_track_the_snapshot():
    names = {field.name for field in dataclasses.fields(HealthSnapshot)}
    assert MONITORABLE_FIELDS <= names
    # Identity and flag fields stay excluded.
    assert not MONITORABLE_FIELDS & {"index", "start", "end", "flash_crowd"}
    # The signals the presets rely on are monitorable.
    assert {"success_ratio", "delay_p95", "backlog", "cache_hit_ratio"} <= (
        MONITORABLE_FIELDS
    )


def test_lint_catches_bogus_field():
    bogus = SLORule("bogus", "no_such_field", ">=", 1.0)
    problems = _field_problems({"bogus": bogus})
    assert problems and "no_such_field" in problems[0][1]


@pytest.mark.parametrize(
    "changes",
    [{"op": "=="}, {"target": math.inf}, {"sustain": 0}, {"name": "renamed"}],
    ids=["op", "target", "sustain", "name"],
)
def test_lint_catches_malformed_rule(changes):
    rule = _unchecked(SLO_PRESETS["availability"], **changes)
    assert len(_shape_problems({"availability": rule})) == 1


def test_lint_catches_spec_that_does_not_round_trip():
    # The sustain count dropped from the spec re-parses as sustain 1.
    rule = _unchecked(SLO_PRESETS["availability"], spec="success_ratio>=0.25")
    problems = _spec_problems({"availability": rule})
    assert problems and "round-tripped" in problems[0][1]


def test_every_preset_key_matches_rule_name():
    assert all(name == rule.name for name, rule in SLO_PRESETS.items())
