"""``repro diagnose`` — causal-chain + model-fidelity diagnosis of a run.

Thin orchestration over :mod:`repro.obs.causality` and
:mod:`repro.obs.fidelity`: summarise the causal index, list the queries
whose ``query_satisfied`` event disagrees with their delivery chain,
assess model fidelity, and render the result as Markdown (for terminals
and ``repro report`` embedding) or a JSON document carrying the run's
provenance stamp.

Consistency mismatches and fidelity threshold violations both land in
:attr:`Diagnosis.warnings`; ``repro diagnose --strict`` turns a
non-empty warning list into a non-zero exit code, which is what CI
gates on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.causality import CausalityIndex, summarize_causality
from repro.obs.fidelity import (
    Calibration,
    FidelityReport,
    FidelityThresholds,
    assess_fidelity,
)
from repro.traces.contact import ContactTrace

__all__ = [
    "Diagnosis",
    "run_diagnosis",
    "render_diagnosis",
    "diagnosis_to_dict",
]


@dataclass
class Diagnosis:
    """Everything one diagnose pass established about a run."""

    causality: CausalityIndex
    summary: Dict[str, Any]
    consistency: List[str]
    fidelity: FidelityReport
    warnings: List[str] = field(default_factory=list)
    provenance: Optional[Dict[str, Any]] = None

    @property
    def num_events(self) -> int:
        return self.causality.num_events


def run_diagnosis(
    causality: CausalityIndex,
    contact_trace: Optional[ContactTrace] = None,
    thresholds: Optional[FidelityThresholds] = None,
    provenance: Optional[Dict[str, Any]] = None,
) -> Diagnosis:
    """Diagnose a trace's index: causal chains, consistency, model fidelity."""
    consistency = causality.mismatches()
    fidelity = assess_fidelity(
        causality, contact_trace=contact_trace, thresholds=thresholds
    )
    warnings = [f"consistency: {m}" for m in consistency] + list(fidelity.warnings)
    return Diagnosis(
        causality=causality,
        summary=summarize_causality(causality),
        consistency=consistency,
        fidelity=fidelity,
        warnings=warnings,
        provenance=provenance,
    )


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.4g}"
    return str(value)


def _calibration_lines(name: str, calibration: Optional[Calibration]) -> List[str]:
    if calibration is None:
        return [f"- {name}: no samples"]
    lines = [
        f"- {name}: {calibration.samples} samples, "
        f"Brier {_fmt(calibration.brier)}, max bin gap {_fmt(calibration.max_gap)}"
    ]
    for b in calibration.bins:
        lines.append(
            f"    [{b.lo:.1f}, {b.hi:.1f}): n={b.count} "
            f"predicted {_fmt(b.mean_predicted)} observed {_fmt(b.observed_rate)}"
        )
    return lines


def render_diagnosis(diagnosis: Diagnosis, level: int = 1) -> str:
    """The diagnosis as a Markdown document.

    *level* sets the top heading depth (2 when embedded as a section of
    ``repro report``).
    """
    h1, h2 = "#" * level, "#" * (level + 1)
    lines: List[str] = [f"{h1} Run diagnosis", ""]
    if diagnosis.provenance:
        config_hash = diagnosis.provenance.get("config_hash")
        git = diagnosis.provenance.get("git") or {}
        stamp = []
        if config_hash:
            stamp.append(f"config `{str(config_hash)[:12]}`")
        if git.get("revision"):
            dirty = "+dirty" if git.get("dirty") else ""
            stamp.append(f"git `{str(git['revision'])[:12]}{dirty}`")
        if stamp:
            lines += [f"_{', '.join(stamp)}_", ""]

    lines += [f"{h2} Causal chains", ""]
    for key, value in diagnosis.summary.items():
        lines.append(f"- {key.replace('_', ' ')}: {_fmt(value)}")
    lines.append("")

    lines += [f"{h2} Trace/chain consistency", ""]
    if diagnosis.consistency:
        lines += [f"- MISMATCH: {m}" for m in diagnosis.consistency]
    else:
        lines.append(
            f"- OK: every query_satisfied event matches its first "
            f"in-constraint delivery chain over {diagnosis.num_events} events"
        )
    lines.append("")

    fidelity = diagnosis.fidelity
    lines += [f"{h2} Model fidelity", ""]
    inter = fidelity.intercontact
    if inter is None:
        lines.append("- inter-contact: skipped (no contact trace available)")
    elif inter.pairs_fitted == 0:
        lines.append("- inter-contact: no pair had enough gaps to fit")
    else:
        lines.append(
            f"- inter-contact: {inter.pairs_fitted} pairs fitted "
            f"({inter.pairs_skipped} skipped), median KS "
            f"{_fmt(inter.median_ks)}, {inter.fraction_plausible:.0%} plausible"
        )
    if fidelity.delivery is None and inter is None:
        lines.append("- delivery calibration: skipped (no contact trace available)")
    else:
        lines += _calibration_lines("delivery calibration", fidelity.delivery)
    lines += _calibration_lines("response calibration", fidelity.response)
    lines += _calibration_lines("popularity calibration", fidelity.popularity)
    load = fidelity.load
    if load is None:
        lines.append("- NCL load: no completed push chains")
    else:
        shares = ", ".join(
            f"{central}: {count}" for central, count in sorted(load.counts.items())
        )
        lines.append(
            f"- NCL load: CV {_fmt(load.coefficient_of_variation)}, "
            f"max share {_fmt(load.max_share)} ({shares})"
        )
    lines.append("")

    lines += [f"{h2} Warnings", ""]
    if diagnosis.warnings:
        lines += [f"- WARN: {w}" for w in diagnosis.warnings]
    else:
        lines.append("- none")
    return "\n".join(lines) + "\n"


def diagnosis_to_dict(diagnosis: Diagnosis) -> Dict[str, Any]:
    """JSON-serialisable form of the diagnosis (for ``--json``)."""
    fidelity = diagnosis.fidelity
    return {
        "num_events": diagnosis.num_events,
        "summary": diagnosis.summary,
        "consistency": {
            "ok": not diagnosis.consistency,
            "mismatches": diagnosis.consistency,
        },
        "fidelity": {
            "intercontact": (
                fidelity.intercontact.as_row()
                if fidelity.intercontact is not None
                else None
            ),
            "delivery": (
                fidelity.delivery.as_dict() if fidelity.delivery else None
            ),
            "response": (
                fidelity.response.as_dict() if fidelity.response else None
            ),
            "popularity": (
                fidelity.popularity.as_dict() if fidelity.popularity else None
            ),
            "ncl_load": fidelity.load.as_dict() if fidelity.load else None,
            "thresholds": {
                "max_median_ks": fidelity.thresholds.max_median_ks,
                "max_delivery_brier": fidelity.thresholds.max_delivery_brier,
                "max_calibration_gap": fidelity.thresholds.max_calibration_gap,
                "max_load_cv": fidelity.thresholds.max_load_cv,
                "min_samples": fidelity.thresholds.min_samples,
            },
        },
        "warnings": diagnosis.warnings,
        "provenance": diagnosis.provenance,
    }
