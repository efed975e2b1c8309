"""Observability: structured lifecycle tracing and its one replay.

Every data item and query in a simulation run has a lifecycle
(generated → pushed → cached@NCL → queried → responded → delivered /
expired).  This package records that lifecycle as span-like events and
persists them as JSONL.  :func:`~repro.obs.causality.build_causality`
is the only reader of that stream: it replays it once into a
:class:`~repro.obs.causality.CausalityIndex` of per-data push trees and
per-query response DAGs.  Everything else is a projection of that
index:

* the paper's evaluation metrics (successful ratio, access delay,
  caching overhead), read from the delivery chains by
  :meth:`~repro.obs.causality.CausalityIndex.metrics` and compared with
  the live counters of :class:`repro.metrics.collector.MetricsCollector`
  (see :func:`repro.sim.invariants.check_trace_consistency`);
* the per-query audit of ``repro trace``
  (:func:`~repro.obs.causality.render_audit_report`);
* :mod:`repro.obs.fidelity`, which measures how far the realized run
  drifted from the paper's analytical model (KS, calibration curves,
  Brier scores, NCL load balance), and :mod:`repro.obs.diagnose`, which
  bundles the chains and the fidelity sections into ``repro diagnose``.

Beside the lifecycle trace runs one sample stream: a
:class:`~repro.obs.timeseries.TelemetryRow` of cumulative counters,
gauges and memory columns per sample instant
(:mod:`repro.obs.timeseries`).  The time-series sampler keeps a row per
``SAMPLE_METRICS`` event, :mod:`repro.obs.health` derives each serve
health window as the difference of two rows, and :mod:`repro.obs.memory`
fills the memory columns.  Every JSONL file goes through one
writer/reader pair (:func:`~repro.obs.timeseries.write_jsonl` /
:func:`~repro.obs.timeseries.read_jsonl`), and one fixed-width renderer
(:func:`~repro.obs.timeseries.render_rows`) draws every row table.

Tracing is strictly opt-in: every hook guards on
``recorder.enabled``, and the default :data:`NULL_RECORDER` keeps the
guard a single attribute read, so tracing-off runs pay no measurable
overhead (enforced by the ``python -m repro bench`` guard).  The
sampler, the memory monitor and the profiler follow the same
``.enabled`` convention.
"""

from repro.obs.events import TraceEvent, TraceEventKind
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    TraceRecorder,
    read_events,
)
from repro.obs.primitives import Counter, Histogram, MetricsRegistry
from repro.obs.causality import (
    CausalityIndex,
    DerivedMetrics,
    PushChain,
    PushTree,
    QueryCausality,
    ResponseCopy,
    build_causality,
    classify_outcome,
    delivery_in_constraint,
    render_audit_report,
    render_push_timeline,
    render_query_timeline,
    summarize_causality,
)
from repro.obs.fidelity import (
    Calibration,
    FidelityReport,
    FidelityThresholds,
    assess_fidelity,
)
from repro.obs.diagnose import (
    Diagnosis,
    diagnosis_to_dict,
    render_diagnosis,
    run_diagnosis,
)
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    activated,
    active_profiler,
    check_profile_tree,
    merge_profiles,
    render_profile_table,
    set_active_profiler,
)
from repro.obs.timeseries import (
    NULL_SAMPLER,
    NullTimeSeriesSampler,
    TelemetryRow,
    TimeSeriesSampler,
    merge_timeseries,
    read_jsonl,
    render_rows,
    summarize_timeseries,
    write_jsonl,
)
from repro.obs.memory import (
    NULL_MEMORY_MONITOR,
    SUBSYSTEMS,
    MemoryMonitor,
    NullMemoryMonitor,
    check_memory_consistency,
    deep_sizeof,
    peak_rss_bytes,
    render_memory_breakdown,
)
from repro.obs.provenance import (
    build_manifest,
    config_hash,
    read_manifest,
    write_manifest,
)
from repro.obs.slo import (
    SLO_PRESETS,
    SLOEngine,
    SLORule,
    SLOTransition,
    parse_slo_rule,
)
from repro.obs.health import (
    ANOMALY_SIGNALS,
    CUSUMChangePoint,
    EWMADrift,
    HealthAnomaly,
    HealthMonitor,
    HealthReport,
    HealthSnapshot,
    check_health_consistency,
    render_health_table,
    render_prometheus,
)

__all__ = [
    "TraceEvent",
    "TraceEventKind",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MemoryRecorder",
    "JsonlRecorder",
    "read_events",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DerivedMetrics",
    "classify_outcome",
    "delivery_in_constraint",
    "render_audit_report",
    "CausalityIndex",
    "QueryCausality",
    "ResponseCopy",
    "PushChain",
    "PushTree",
    "build_causality",
    "summarize_causality",
    "render_query_timeline",
    "render_push_timeline",
    "Calibration",
    "FidelityReport",
    "FidelityThresholds",
    "assess_fidelity",
    "Diagnosis",
    "run_diagnosis",
    "render_diagnosis",
    "diagnosis_to_dict",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "active_profiler",
    "activated",
    "set_active_profiler",
    "merge_profiles",
    "render_profile_table",
    "check_profile_tree",
    "TelemetryRow",
    "TimeSeriesSampler",
    "NullTimeSeriesSampler",
    "NULL_SAMPLER",
    "merge_timeseries",
    "summarize_timeseries",
    "write_jsonl",
    "read_jsonl",
    "render_rows",
    "SUBSYSTEMS",
    "peak_rss_bytes",
    "deep_sizeof",
    "MemoryMonitor",
    "NullMemoryMonitor",
    "NULL_MEMORY_MONITOR",
    "check_memory_consistency",
    "render_memory_breakdown",
    "build_manifest",
    "config_hash",
    "read_manifest",
    "write_manifest",
    "SLORule",
    "SLOTransition",
    "SLOEngine",
    "SLO_PRESETS",
    "parse_slo_rule",
    "HealthSnapshot",
    "HealthAnomaly",
    "HealthReport",
    "HealthMonitor",
    "EWMADrift",
    "CUSUMChangePoint",
    "ANOMALY_SIGNALS",
    "check_health_consistency",
    "render_health_table",
    "render_prometheus",
]
