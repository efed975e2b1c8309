"""Run directories: persist an experiment and render its report.

A *run directory* is the on-disk form of an
:class:`repro.experiments.runner.ExperimentResult`:

========================  ==================================================
``result.json``           aggregate + per-seed :class:`SimulationResult` rows
``manifest.json``         provenance (config hash, seeds, git, platform)
``metrics.json``          merged :class:`MetricsRegistry` snapshot
``profile.json``          merged profile (``{}`` when profiling was off)
``timeseries.jsonl``      seed-tagged telemetry rows (absent when sampling
                          was off); memory columns filled under
                          ``--mem-profile``
``timeseries.csv``        scalar columns of the same rows
``trace.jsonl``           lifecycle trace (only when tracing was on)
``health.jsonl``          serve-mode health log (only with ``--slo``/health);
                          each window carries its end row's memory columns
========================  ==================================================

``python -m repro report <run-dir>`` renders the whole directory as one
Markdown document via :func:`render_run_report`; every section degrades
gracefully when its file is absent, so result-only runs still report.
``python -m repro watch`` renders the run's sample log
(:func:`render_sample_log`): the health log when there is one, else the
time-series rows.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentResult
from repro.obs.causality import build_causality, render_audit_report
from repro.obs.diagnose import render_diagnosis, run_diagnosis
from repro.obs.health import HealthReport, render_health_table
from repro.obs.profile import check_profile_tree, render_profile_table
from repro.obs.provenance import write_manifest
from repro.obs.recorder import read_events
from repro.obs.timeseries import (
    MEMORY_TABLE,
    ROW_TABLE,
    read_jsonl,
    render_rows,
    summarize_timeseries,
    write_csv,
    write_jsonl,
)

__all__ = [
    "save_run",
    "load_run",
    "contact_trace_from_manifest",
    "render_run_report",
    "sample_log_path",
    "render_sample_log",
]

RESULT_FILE = "result.json"
MANIFEST_FILE = "manifest.json"
METRICS_FILE = "metrics.json"
PROFILE_FILE = "profile.json"
TIMESERIES_FILE = "timeseries.jsonl"
TIMESERIES_CSV_FILE = "timeseries.csv"
TRACE_FILE = "trace.jsonl"
HEALTH_FILE = "health.jsonl"


def _dump(value: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_run(result: ExperimentResult, run_dir: str) -> str:
    """Write *result* as a run directory (created if missing)."""
    os.makedirs(run_dir, exist_ok=True)
    _dump(
        {
            "aggregate": dataclasses.asdict(result.aggregate),
            "results": [dataclasses.asdict(r) for r in result.results],
        },
        os.path.join(run_dir, RESULT_FILE),
    )
    write_manifest(result.manifest, os.path.join(run_dir, MANIFEST_FILE))
    _dump(result.registry.snapshot(), os.path.join(run_dir, METRICS_FILE))
    _dump(result.profile, os.path.join(run_dir, PROFILE_FILE))
    if result.timeseries:
        write_jsonl(result.timeseries, os.path.join(run_dir, TIMESERIES_FILE))
        write_csv(result.timeseries, os.path.join(run_dir, TIMESERIES_CSV_FILE))
    return run_dir


def _load_json(run_dir: str, name: str) -> Optional[Any]:
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_jsonl(run_dir: str, name: str) -> Optional[List[Dict[str, Any]]]:
    path = os.path.join(run_dir, name)
    return read_jsonl(path) if os.path.exists(path) else None


def load_run(run_dir: str) -> Dict[str, Any]:
    """Read a run directory back as plain data (missing parts → None)."""
    if not os.path.isdir(run_dir):
        raise ConfigurationError(f"not a run directory: {run_dir!r}")
    return {
        "result": _load_json(run_dir, RESULT_FILE),
        "manifest": _load_json(run_dir, MANIFEST_FILE),
        "metrics": _load_json(run_dir, METRICS_FILE),
        "profile": _load_json(run_dir, PROFILE_FILE),
        "timeseries": _load_jsonl(run_dir, TIMESERIES_FILE),
        "trace_path": (
            os.path.join(run_dir, TRACE_FILE)
            if os.path.exists(os.path.join(run_dir, TRACE_FILE))
            else None
        ),
        "health_path": (
            os.path.join(run_dir, HEALTH_FILE)
            if os.path.exists(os.path.join(run_dir, HEALTH_FILE))
            else None
        ),
    }


def sample_log_path(run_dir: str) -> Optional[str]:
    """The run's sample log: ``health.jsonl`` if present, else
    ``timeseries.jsonl``, else None."""
    for name in (HEALTH_FILE, TIMESERIES_FILE):
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            return path
    return None


def render_sample_log(path: str, limit: Optional[int] = None) -> str:
    """The ``repro watch`` table of a health log or a time-series file."""
    records = read_jsonl(path)
    if records and records[0].get("kind") == "health.meta":
        return render_health_table(HealthReport.from_records(records), limit)
    columns = ROW_TABLE
    if any("seed" in record for record in records):
        columns = (("seed", "seed", 4, 0),) + columns
    if _memory_records(records):
        columns += MEMORY_TABLE
    lines = render_rows(records, columns, limit)
    lines.append(f"{len(records)} rows")
    return "\n".join(lines)


def contact_trace_from_manifest(manifest: Optional[Dict[str, Any]]):
    """Rebuild the run's :class:`ContactTrace` from its manifest.

    The manifest's hashed config embeds the full ``TraceSpec``
    (``config.scenario.trace``), and trace construction is deterministic
    from it, so the rebuilt trace is bit-identical to the one the run
    used.  Returns ``None`` when the manifest is absent, predates the
    scenario config layout, or the spec no longer builds — the fidelity
    sections that need mobility information then degrade gracefully.
    """
    if not manifest:
        return None
    scenario = (manifest.get("config") or {}).get("scenario") or {}
    record = scenario.get("trace")
    if not isinstance(record, dict):
        return None
    from repro.scenario import TraceSpec, build_trace

    try:
        return build_trace(TraceSpec.from_dict(record))
    except (ConfigurationError, KeyError, TypeError, ValueError, OSError):
        return None


# --- report rendering ------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.4g}"
    return str(value)


def _kv_table(pairs: List[tuple]) -> List[str]:
    lines = ["| metric | value |", "|---|---:|"]
    lines += [f"| {key} | {_fmt(value)} |" for key, value in pairs]
    return lines


def _aggregate_section(result: Dict[str, Any]) -> List[str]:
    aggregate = result["aggregate"]
    lines = ["## Metrics", ""]
    lines += _kv_table(
        [
            ("scheme", aggregate["name"]),
            ("runs", aggregate["runs"]),
            (
                "successful ratio",
                f"{aggregate['successful_ratio']:.4f} "
                f"± {aggregate['successful_ratio_ci']:.4f}",
            ),
            (
                "mean access delay (h)",
                _fmt(aggregate["mean_access_delay"] / 3600.0)
                + " ± "
                + _fmt(aggregate["mean_access_delay_ci"] / 3600.0),
            ),
            (
                "caching overhead",
                f"{aggregate['caching_overhead']:.4g} "
                f"± {aggregate['caching_overhead_ci']:.4g}",
            ),
            ("replacement overhead", aggregate["replacement_overhead"]),
            ("queries issued (mean)", aggregate["queries_issued"]),
        ]
    )
    rows = result.get("results") or []
    if rows:
        lines += ["", "Per-seed:", ""]
        lines += [
            "| seed | queries | satisfied | ratio | delay (h) |",
            "|---:|---:|---:|---:|---:|",
        ]
        for row in rows:
            delay = row["mean_access_delay"]
            delay_h = "n/a" if math.isnan(delay) else f"{delay / 3600.0:.2f}"
            lines.append(
                f"| {row['seed']} | {row['queries_issued']} "
                f"| {row['queries_satisfied']} "
                f"| {row['successful_ratio']:.4f} | {delay_h} |"
            )
    return lines


def _manifest_section(manifest: Dict[str, Any]) -> List[str]:
    lines = ["## Provenance", ""]
    git = manifest.get("git") or {}
    platform_info = manifest.get("platform") or {}
    packages = manifest.get("packages") or {}
    pairs = [
        ("config hash", manifest.get("config_hash", "n/a")),
        ("seeds", ", ".join(str(s) for s in manifest.get("seeds", []))),
        (
            "git",
            (git.get("revision", "")[:12] + (" (dirty)" if git.get("dirty") else ""))
            if git
            else "n/a",
        ),
        (
            "platform",
            f"{platform_info.get('implementation', '?')} "
            f"{platform_info.get('python', '?')} on "
            f"{platform_info.get('system', '?')}/{platform_info.get('machine', '?')}",
        ),
        ("packages", ", ".join(f"{k} {v}" for k, v in sorted(packages.items()))),
    ]
    lines += ["| field | value |", "|---|---|"]
    lines += [f"| {key} | {value} |" for key, value in pairs]
    return lines


def _metrics_registry_section(metrics: Dict[str, Any]) -> List[str]:
    lines = ["## Instrument registry", ""]
    lines += ["| instrument | value |", "|---|---|"]
    for name, value in sorted(metrics.items()):
        if isinstance(value, dict):
            rendered = ", ".join(f"{k}={_fmt(v)}" for k, v in value.items())
        else:
            rendered = _fmt(value)
        lines.append(f"| {name} | {rendered} |")
    return lines


def _event_counts_section(events: List[Any]) -> List[str]:
    """Trace events grouped by kind — churn/failure/re-election runs show
    their ``node.failed``/``ncl.reelected``/``cache.migrated`` activity
    here at a glance."""
    counts: Dict[str, int] = {}
    for event in events:
        kind = getattr(event.kind, "value", event.kind)
        counts[kind] = counts.get(kind, 0) + 1
    lines = ["## Trace events", "", "| kind | count |", "|---|---:|"]
    lines += [f"| {kind} | {count} |" for kind, count in sorted(counts.items())]
    return lines


def _timeseries_section(rows: List[Dict[str, Any]]) -> List[str]:
    summary = summarize_timeseries(rows)
    lines = ["## Time series", "", f"{len(rows)} samples.", ""]
    lines += ["| column | min | mean | max | last |", "|---|---:|---:|---:|---:|"]
    for name, stats in summary.items():
        lines.append(
            f"| {name} | {_fmt(stats['min'])} | {_fmt(stats['mean'])} "
            f"| {_fmt(stats['max'])} | {_fmt(stats['last'])} |"
        )
    return lines


def _memory_records(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The records that carry memory columns."""
    return [record for record in records if record.get("rss_mb") is not None]


def _memory_section(records: List[Dict[str, Any]], time_key: str, limit: int) -> str:
    sampled = _memory_records(records)
    lines = render_rows(sampled, (("time", time_key, 12, 1),) + MEMORY_TABLE, limit)
    lines.append(f"{len(sampled)} memory sample(s)")
    return "## Memory\n\n```\n" + "\n".join(lines) + "\n```"


def render_run_report(run_dir: str, audit_limit: int = 10) -> str:
    """One Markdown document for everything a run directory recorded."""
    data = load_run(run_dir)
    sections: List[str] = [f"# Run report: {os.path.basename(os.path.normpath(run_dir))}"]

    if data["manifest"]:
        sections.append("\n".join(_manifest_section(data["manifest"])))
    if data["result"]:
        sections.append("\n".join(_aggregate_section(data["result"])))
    if data["metrics"]:
        sections.append("\n".join(_metrics_registry_section(data["metrics"])))
    if data["profile"]:
        # The structural invariant (children ≤ parent cumulative time)
        # is enforced before rendering, so a report never shows an
        # inconsistent tree.
        check_profile_tree(data["profile"])
        sections.append("## Profile\n\n" + render_profile_table(data["profile"]))
    if data["timeseries"]:
        sections.append("\n".join(_timeseries_section(data["timeseries"])))
    if data["trace_path"]:
        events = list(read_events(data["trace_path"]))
        sections.append("\n".join(_event_counts_section(events)))
        causality = build_causality(events)
        audit = render_audit_report(causality, limit=audit_limit)
        sections.append("## Trace audit\n\n```\n" + audit + "\n```")
        diagnosis = run_diagnosis(
            causality,
            contact_trace=contact_trace_from_manifest(data["manifest"]),
            provenance=data["manifest"],
        )
        sections.append(render_diagnosis(diagnosis, level=2).rstrip())
    health_records = read_jsonl(data["health_path"]) if data["health_path"] else []
    if health_records:
        health = HealthReport.from_records(health_records)
        sections.append(
            "## Live health\n\n```\n"
            + render_health_table(health, limit=audit_limit)
            + "\n```"
        )
    # Memory columns live in the time-series rows (simulate) or in the
    # health windows (serve).
    if _memory_records(data["timeseries"] or []):
        sections.append(_memory_section(data["timeseries"], "time", audit_limit))
    elif _memory_records(health_records):
        sections.append(_memory_section(health_records, "end", audit_limit))

    if len(sections) == 1:
        sections.append("(run directory is empty)")
    return "\n\n".join(sections) + "\n"
