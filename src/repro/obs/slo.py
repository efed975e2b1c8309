"""Declarative service-level objectives over live health snapshots.

An :class:`SLORule` names one numeric field of a
:class:`repro.obs.health.HealthSnapshot`, a direction (``>=`` for
floors, ``<=`` for ceilings), a target, and a *sustain* count: the rule
is only **violated** after the target has been breached for that many
consecutive windows, so a single noisy window never pages.  The
:class:`SLOEngine` evaluates every registered rule against each
snapshot, tracks per-rule breach streaks, and reports edge-triggered
:class:`SLOTransition` records — ``slo.violated`` when a breach streak
reaches the sustain threshold, ``slo.recovered`` on the first healthy
window afterwards — which the health monitor also emits as trace
events through the run's recorder.

Evaluation is a pure function of the snapshot stream: no wall clock, no
RNG, so serve-mode SLO verdicts inherit the repo's serial == workers=N
bitwise reproducibility contract.

Rules parse from compact CLI specs::

    success_ratio>=0.25        # floor, violated after 1 breaching window
    delay_p95<=86400:3         # ceiling, sustained for 3 windows
    availability               # a named preset from SLO_PRESETS

``tests/obs/test_slo_rules_lint.py`` lints every registered preset
against the actual :class:`HealthSnapshot` fields, so a rule can never
silently reference a metric that does not exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import TraceEvent, TraceEventKind
from repro.obs.timeseries import float_from_json

__all__ = [
    "SLORule",
    "SLOTransition",
    "SLOEngine",
    "SLO_PRESETS",
    "parse_slo_rule",
    "rules_to_config",
    "rules_from_config",
]

#: comparison directions a rule may use (value OP target == healthy)
_OPS = (">=", "<=")


@dataclass(frozen=True)
class SLORule:
    """One objective: ``<field> <op> <target>`` sustained over windows."""

    name: str
    field: str
    op: str       # ">=" (floor) or "<=" (ceiling)
    target: float
    sustain: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("SLO rule needs a name")
        if not self.field:
            raise ConfigurationError(f"SLO rule {self.name!r} needs a field")
        if self.op not in _OPS:
            raise ConfigurationError(
                f"SLO rule {self.name!r}: op must be one of {_OPS}, got {self.op!r}"
            )
        if self.sustain < 1:
            raise ConfigurationError(
                f"SLO rule {self.name!r}: sustain must be >= 1"
            )
        if math.isnan(self.target):
            raise ConfigurationError(f"SLO rule {self.name!r}: target is NaN")

    def healthy(self, value: float) -> bool:
        """Whether *value* meets the objective."""
        return value >= self.target if self.op == ">=" else value <= self.target

    @property
    def spec(self) -> str:
        """The compact ``field>=target:sustain`` form (parse round-trips)."""
        text = f"{self.field}{self.op}{self.target!r}"
        return f"{text}:{self.sustain}" if self.sustain != 1 else text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "field": self.field,
            "op": self.op,
            "target": self.target,
            "sustain": self.sustain,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SLORule":
        return cls(
            name=str(record["name"]),
            field=str(record["field"]),
            op=str(record["op"]),
            target=float(record["target"]),
            sustain=int(record.get("sustain", 1)),
        )


#: Named starting-point objectives for ``repro serve --slo <name>``.
#: Targets assume the paper-scale workload (delays in seconds); tune per
#: deployment.  The lint in ``tests/obs/test_slo_rules_lint.py`` pins
#: every preset to a real HealthSnapshot field.
SLO_PRESETS: Dict[str, SLORule] = {
    "availability": SLORule(
        "availability", "success_ratio", ">=", 0.25, sustain=3
    ),
    "latency": SLORule("latency", "delay_p95", "<=", 24 * 3600.0, sustain=3),
    "backlog": SLORule("backlog", "backlog", "<=", 10_000.0, sustain=3),
    "hit_ratio": SLORule("hit_ratio", "cache_hit_ratio", ">=", 0.05, sustain=5),
    # Peak-RSS ceiling matching the documented sim_large end-to-end
    # budget; rss_mb is NaN on unprofiled runs, which carries no
    # evidence, so the rule only bites under --mem-profile.
    "memory": SLORule("memory", "rss_mb", "<=", 24_000.0, sustain=3),
}


def parse_slo_rule(text: str) -> SLORule:
    """Parse a CLI spec (``field>=target[:sustain]``) or a preset name."""
    text = text.strip()
    if text in SLO_PRESETS:
        return SLO_PRESETS[text]
    for op in _OPS:
        if op in text:
            field, _, rest = text.partition(op)
            target_text, _, sustain_text = rest.partition(":")
            try:
                target = float(target_text)
                sustain = int(sustain_text) if sustain_text else 1
            except ValueError:
                raise ConfigurationError(
                    f"cannot parse SLO spec {text!r}: expected "
                    "field>=NUMBER[:SUSTAIN] or field<=NUMBER[:SUSTAIN]"
                ) from None
            field = field.strip()
            return SLORule(
                name=field + op + target_text.strip(),
                field=field,
                op=op,
                target=target,
                sustain=sustain,
            )
    raise ConfigurationError(
        f"unknown SLO {text!r}: not a preset ({sorted(SLO_PRESETS)}) and "
        "not a field>=target / field<=target spec"
    )


def rules_to_config(rules: Sequence[SLORule]) -> List[Dict[str, Any]]:
    """JSON-ready rule list (stamped into provenance manifests)."""
    return [rule.to_dict() for rule in rules]


def rules_from_config(records: Sequence[Mapping[str, Any]]) -> Tuple[SLORule, ...]:
    """Inverse of :func:`rules_to_config`."""
    return tuple(SLORule.from_dict(record) for record in records)


@dataclass(frozen=True)
class SLOTransition:
    """One edge of a rule's state machine (violated ↔ recovered)."""

    time: float
    rule: str
    kind: str      # "slo.violated" / "slo.recovered"
    field: str
    value: float
    target: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "t": self.time,
            "rule": self.rule,
            "field": self.field,
            "value": self.value,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SLOTransition":
        return cls(
            time=float(record["t"]),
            rule=str(record["rule"]),
            kind=str(record["kind"]),
            field=str(record["field"]),
            value=float_from_json(record["value"]),
            target=float_from_json(record["target"]),
        )


class SLOEngine:
    """Evaluates a rule set against each health snapshot in order."""

    def __init__(self, rules: Sequence[SLORule] = ()):
        names = [rule.name for rule in rules]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ConfigurationError(f"duplicate SLO rule name(s): {duplicates}")
        self.rules: Tuple[SLORule, ...] = tuple(rules)
        self._streak: Dict[str, int] = {rule.name: 0 for rule in self.rules}
        self._violated: Dict[str, bool] = {rule.name: False for rule in self.rules}
        self._transitions: List[SLOTransition] = []

    @property
    def transitions(self) -> Tuple[SLOTransition, ...]:
        """Every edge observed so far, in evaluation order."""
        return tuple(self._transitions)

    def violated_rules(self) -> Tuple[str, ...]:
        """Names of the rules currently in the violated state."""
        return tuple(
            rule.name for rule in self.rules if self._violated[rule.name]
        )

    def evaluate(self, snapshot: Any, recorder: Any = None) -> List[SLOTransition]:
        """Feed one snapshot; returns the transitions it triggered.

        A NaN field value (e.g. a ratio over an idle window) carries no
        evidence either way: the rule's streak and state are left
        untouched.  When *recorder* is an enabled trace recorder, each
        transition is also emitted as an ``slo.violated`` /
        ``slo.recovered`` trace event at the snapshot's window end.
        """
        fired: List[SLOTransition] = []
        for rule in self.rules:
            value = float(getattr(snapshot, rule.field))
            if math.isnan(value):
                continue
            if rule.healthy(value):
                self._streak[rule.name] = 0
                if self._violated[rule.name]:
                    self._violated[rule.name] = False
                    fired.append(
                        self._transition(snapshot.end, rule, "slo.recovered", value)
                    )
            else:
                self._streak[rule.name] += 1
                if (
                    self._streak[rule.name] >= rule.sustain
                    and not self._violated[rule.name]
                ):
                    self._violated[rule.name] = True
                    fired.append(
                        self._transition(snapshot.end, rule, "slo.violated", value)
                    )
        self._transitions.extend(fired)
        if recorder is not None and recorder.enabled:
            for transition in fired:
                recorder.emit(
                    TraceEvent(
                        time=transition.time,
                        kind=TraceEventKind(transition.kind),
                        attrs={
                            "rule": transition.rule,
                            "field": transition.field,
                            "op": rule_by_name(self.rules, transition.rule).op,
                            "target": transition.target,
                            "value": transition.value,
                        },
                    )
                )
        return fired

    @staticmethod
    def _transition(
        time: float, rule: SLORule, kind: str, value: float
    ) -> SLOTransition:
        return SLOTransition(
            time=time,
            rule=rule.name,
            kind=kind,
            field=rule.field,
            value=value,
            target=rule.target,
        )


def rule_by_name(rules: Sequence[SLORule], name: str) -> SLORule:
    """The rule called *name* (rules are unique by construction)."""
    for rule in rules:
        if rule.name == name:
            return rule
    raise KeyError(name)
