"""Live serve-mode health telemetry.

A :class:`HealthMonitor` rides along a serve session and freezes one
:class:`HealthSnapshot` per replayed batch/window.  Each snapshot pairs

* **windowed deltas** — the difference between two O(1)
  :class:`repro.metrics.collector.CollectorTotals` views, so the
  snapshots' deltas sum *bit-exactly* to the final collector totals
  (:func:`check_health_consistency` enforces it), and
* **instantaneous gauges** — open-query backlog, running P² delay
  percentiles, per-NCL load skew (coefficient of variation).

Every value is derived from simulated time and the collector's
counters — never the wall clock — so serve-mode health streams are
bitwise identical between a serial replay and ``workers=4``
(the repo's standing determinism contract).

On top of the snapshot stream sit two consumers:

* the declarative SLO engine (:mod:`repro.obs.slo`), emitting
  ``slo.violated`` / ``slo.recovered`` trace events, and
* rolling-window anomaly detectors — :class:`EWMADrift` (k-sigma
  deviation from an exponentially weighted mean) and
  :class:`CUSUMChangePoint` (two-sided standardized CUSUM) — over the
  hit-ratio, throughput, and backlog-growth signals, emitting
  ``health.anomaly`` events.

Exposition: :func:`write_health_log` / :func:`read_health_log` persist
the stream as JSONL in the run directory (floats round-trip exactly),
:func:`render_prometheus` emits the Prometheus text format for
``repro serve --prom-out``, and :func:`render_health_table` backs the
``repro watch`` CLI.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import TraceConsistencyError
from repro.metrics.collector import CollectorTotals
from repro.obs.events import TraceEvent, TraceEventKind
from repro.obs.memory import MemorySample, render_memory_gauges
from repro.obs.slo import SLOEngine, SLORule, SLOTransition

__all__ = [
    "HealthSnapshot",
    "HealthAnomaly",
    "HealthReport",
    "HealthMonitor",
    "EWMADrift",
    "CUSUMChangePoint",
    "ANOMALY_SIGNALS",
    "check_health_consistency",
    "write_health_log",
    "read_health_log",
    "render_health_table",
    "render_prometheus",
]

#: snapshot fields watched by the anomaly detectors
ANOMALY_SIGNALS: Tuple[str, ...] = (
    "cache_hit_ratio",
    "queries_per_sim_second",
    "backlog_delta",
)

#: the eight windowed-delta counters (must mirror CollectorTotals order)
_DELTA_FIELDS: Tuple[str, ...] = CollectorTotals._fields


@dataclass(frozen=True)
class HealthSnapshot:
    """One frozen health window ``[start, end)`` of a serve session.

    The eight counter fields are **per-window deltas** of the
    collector's cumulative totals; ratios and throughput derive from
    those deltas (NaN when the window carries no evidence, e.g. a
    hit ratio over zero lookups).  ``delay_p*`` are the collector's
    *running* P² estimates sampled at the window end — cheap O(1)
    views, explicitly cumulative rather than windowed.  ``backlog`` is
    the open-query set size at the window end and ``backlog_delta`` its
    change since the previous window.
    """

    index: int
    start: float
    end: float
    # windowed deltas (CollectorTotals field order)
    queries_issued: int
    queries_satisfied: int
    duplicate_deliveries: int
    late_deliveries: int
    cache_lookups: int
    cache_hits: int
    data_generated: int
    responses_delivered: int
    # instantaneous gauges
    backlog: int
    backlog_delta: int
    # derived rates (NaN when the window has no evidence)
    success_ratio: float
    cache_hit_ratio: float
    queries_per_sim_second: float
    # running sketch views at the window end
    delay_p50: float
    delay_p95: float
    delay_p99: float
    # per-NCL load skew (coefficient of variation; NaN without NCL load)
    ncl_load_cv: float
    # whether this window overlaps the flash-crowd surge (first cycle)
    flash_crowd: bool
    # memory telemetry sampled at the window end (NaN/empty unless the
    # run profiled memory; process counters, so deliberately outside the
    # delta-consistency contract above)
    rss_mb: float = float("nan")
    py_heap_mb: float = float("nan")
    mem_accounted_mb: float = float("nan")
    mem_top: str = ""

    def delta_totals(self) -> CollectorTotals:
        """This window's counter deltas as a :class:`CollectorTotals`."""
        return CollectorTotals(*(getattr(self, f) for f in _DELTA_FIELDS))

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "HealthSnapshot":
        # Default-aware: health logs written before the memory fields
        # existed load with those fields at their defaults.
        return cls(**{f: record[f] for f in cls.__dataclass_fields__ if f in record})


@dataclass(frozen=True)
class HealthAnomaly:
    """One anomaly-detector firing over a health signal."""

    time: float
    signal: str
    detector: str   # "ewma" / "cusum"
    value: float
    score: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "health.anomaly",
            "t": self.time,
            "signal": self.signal,
            "detector": self.detector,
            "value": self.value,
            "score": self.score,
        }


class HealthReport(NamedTuple):
    """Frozen, picklable product of one monitored serve session.

    Workers in a parallel serve sweep build their own monitor and ship
    this report back — plain tuples of frozen dataclasses, so it
    crosses process boundaries without dragging simulator state along.
    """

    snapshots: Tuple[HealthSnapshot, ...]
    transitions: Tuple[SLOTransition, ...]
    anomalies: Tuple[HealthAnomaly, ...]
    flash_window: Optional[Tuple[float, float]]


class EWMADrift:
    """k-sigma deviation from an exponentially weighted mean.

    Tracks an EW mean and EW variance of the signal; once warmed up,
    a sample deviating more than ``k`` EW standard deviations from the
    *prior* mean flags drift and returns its signed z-score.  NaN
    samples carry no evidence and are skipped.  Pure function of the
    sample stream — deterministic by construction.
    """

    def __init__(self, alpha: float = 0.25, k: float = 4.0, warmup: int = 8):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if k <= 0.0 or warmup < 1:
            raise ValueError("k must be > 0 and warmup >= 1")
        self._alpha = alpha
        self._k = k
        self._warmup = warmup
        self._mean = 0.0
        self._var = 0.0
        self._count = 0

    def update(self, value: float) -> Optional[float]:
        """Feed one sample; returns the z-score when drift fires."""
        if math.isnan(value):
            return None
        self._count += 1
        if self._count == 1:
            self._mean = value
            return None
        diff = value - self._mean
        sigma = math.sqrt(self._var)
        score: Optional[float] = None
        if self._count > self._warmup:
            if sigma > 0.0:
                if abs(diff) > self._k * sigma:
                    score = diff / sigma
            elif diff != 0.0:
                # Any deviation from a zero-variance baseline is
                # infinitely surprising; ±inf keeps the sign convention.
                score = math.inf if diff > 0.0 else -math.inf
        # Standard EW mean/variance recurrences (West 1979).
        incr = self._alpha * diff
        self._mean += incr
        self._var = (1.0 - self._alpha) * (self._var + diff * incr)
        return score


class CUSUMChangePoint:
    """Two-sided standardized CUSUM change-point detector.

    Samples are standardized against Welford running mean/variance,
    then accumulated into positive and negative CUSUM statistics with
    slack ``drift``; a side crossing ``threshold`` fires (returning the
    signed statistic) and resets both sides.  NaN samples are skipped.
    """

    def __init__(
        self, drift: float = 0.5, threshold: float = 8.0, warmup: int = 8
    ):
        if drift < 0.0 or threshold <= 0.0 or warmup < 2:
            raise ValueError("need drift >= 0, threshold > 0, warmup >= 2")
        self._drift = drift
        self._threshold = threshold
        self._warmup = warmup
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._pos = 0.0
        self._neg = 0.0

    def update(self, value: float) -> Optional[float]:
        """Feed one sample; returns the signed statistic on a change."""
        if math.isnan(value):
            return None
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if self._count <= self._warmup:
            return None
        sigma = math.sqrt(self._m2 / (self._count - 1))
        if sigma == 0.0:
            return None
        z = (value - self._mean) / sigma
        self._pos = max(0.0, self._pos + z - self._drift)
        self._neg = max(0.0, self._neg - z - self._drift)
        if self._pos > self._threshold:
            score = self._pos
            self._pos = self._neg = 0.0
            return score
        if self._neg > self._threshold:
            score = -self._neg
            self._pos = self._neg = 0.0
            return score
        return None


class HealthMonitor:
    """Snapshots serve-session health once per replayed window.

    Usage::

        monitor = HealthMonitor(rules=slo_rules)
        monitor.attach(simulator)          # after start_session()
        ...
        monitor.observe_window(i, start, end)   # after each batch
        report = monitor.report()

    The monitor never touches the event loop: it reads O(1) views of
    the collector and scheme state *between* windows, so its overhead
    is one totals tuple plus detector arithmetic per window (the bench
    guard caps monitored serve at 1.05x untraced).
    """

    def __init__(
        self,
        rules: Sequence[SLORule] = (),
        recorder: Any = None,
        *,
        ewma_alpha: float = 0.25,
        ewma_k: float = 4.0,
        cusum_drift: float = 0.5,
        cusum_threshold: float = 8.0,
        detector_warmup: int = 8,
    ):
        self.slo = SLOEngine(rules)
        self._recorder = recorder
        self._snapshots: List[HealthSnapshot] = []
        self._anomalies: List[HealthAnomaly] = []
        self._detectors: Dict[str, Dict[str, Any]] = {
            signal: {
                "ewma": EWMADrift(ewma_alpha, ewma_k, detector_warmup),
                "cusum": CUSUMChangePoint(
                    cusum_drift, cusum_threshold, max(2, detector_warmup)
                ),
            }
            for signal in ANOMALY_SIGNALS
        }
        self._simulator: Any = None
        self._baseline: Optional[CollectorTotals] = None
        self._last_totals: Optional[CollectorTotals] = None
        self._last_backlog = 0
        self._flash_window: Optional[Tuple[float, float]] = None

    # --- lifecycle -----------------------------------------------------

    def attach(self, simulator: Any) -> None:
        """Bind to a simulator with an active serve session.

        Captures the baseline totals (all zero right after
        ``start_session()`` — warm-up generates no workload) so window
        deltas start from the session's first batch.
        """
        self._simulator = simulator
        self._baseline = simulator.metrics.totals()
        self._last_totals = self._baseline
        self._last_backlog = simulator.metrics.open_queries
        arrivals = getattr(simulator.workload_process, "arrivals", None)
        flash = getattr(arrivals, "flash_window", None)
        self._flash_window = flash() if callable(flash) else None

    @property
    def baseline(self) -> Optional[CollectorTotals]:
        """Collector totals at attach time (delta-consistency anchor)."""
        return self._baseline

    @property
    def flash_window(self) -> Optional[Tuple[float, float]]:
        """The workload's flash-crowd surge window, when one exists."""
        return self._flash_window

    @property
    def snapshots(self) -> Tuple[HealthSnapshot, ...]:
        return tuple(self._snapshots)

    @property
    def last(self) -> Optional[HealthSnapshot]:
        """The most recent snapshot (None before the first window)."""
        return self._snapshots[-1] if self._snapshots else None

    # --- per-window observation ---------------------------------------

    def observe_window(self, index: int, start: float, end: float) -> HealthSnapshot:
        """Freeze the window ``[start, end)`` that just finished replaying.

        Must be called with the same ``end`` the session advanced to
        (the collector's ``pending_queries`` requires non-decreasing
        times).
        """
        if self._simulator is None or self._last_totals is None:
            raise RuntimeError("HealthMonitor.attach(simulator) must run first")
        metrics = self._simulator.metrics
        totals = metrics.totals()
        delta = totals.delta(self._last_totals)
        backlog = int(metrics.pending_queries(end))
        duration = end - start
        loads = self._simulator.ncl_load(end)
        rss_mb = py_heap_mb = mem_accounted_mb = float("nan")
        mem_top = ""
        memory = getattr(self._simulator, "memory", None)
        if memory is not None and memory.enabled:
            mem_sample = memory.sample(end)
            rss_mb = mem_sample.rss_mb
            py_heap_mb = mem_sample.py_heap_mb
            mem_accounted_mb = mem_sample.accounted_mb
            mem_top = mem_sample.top_subsystem
        snapshot = HealthSnapshot(
            index=index,
            start=start,
            end=end,
            queries_issued=delta.queries_issued,
            queries_satisfied=delta.queries_satisfied,
            duplicate_deliveries=delta.duplicate_deliveries,
            late_deliveries=delta.late_deliveries,
            cache_lookups=delta.cache_lookups,
            cache_hits=delta.cache_hits,
            data_generated=delta.data_generated,
            responses_delivered=delta.responses_delivered,
            backlog=backlog,
            backlog_delta=backlog - self._last_backlog,
            success_ratio=_ratio(delta.queries_satisfied, delta.queries_issued),
            cache_hit_ratio=_ratio(delta.cache_hits, delta.cache_lookups),
            queries_per_sim_second=_ratio(delta.queries_issued, duration),
            delay_p50=metrics.delay_p50,
            delay_p95=metrics.delay_p95,
            delay_p99=metrics.delay_p99,
            ncl_load_cv=_coefficient_of_variation(loads),
            flash_crowd=_overlaps(self._flash_window, start, end),
            rss_mb=rss_mb,
            py_heap_mb=py_heap_mb,
            mem_accounted_mb=mem_accounted_mb,
            mem_top=mem_top,
        )
        self._last_totals = totals
        self._last_backlog = backlog
        self._snapshots.append(snapshot)
        self.slo.evaluate(snapshot, self._recorder)
        self._detect(snapshot)
        return snapshot

    def _detect(self, snapshot: HealthSnapshot) -> None:
        for signal in ANOMALY_SIGNALS:
            value = float(getattr(snapshot, signal))
            for name, detector in self._detectors[signal].items():
                score = detector.update(value)
                if score is None:
                    continue
                anomaly = HealthAnomaly(
                    time=snapshot.end,
                    signal=signal,
                    detector=name,
                    value=value,
                    score=score,
                )
                self._anomalies.append(anomaly)
                if self._recorder is not None and self._recorder.enabled:
                    self._recorder.emit(
                        TraceEvent(
                            time=anomaly.time,
                            kind=TraceEventKind.HEALTH_ANOMALY,
                            attrs={
                                "signal": signal,
                                "detector": name,
                                "value": value,
                                "score": score,
                            },
                        )
                    )

    # --- products ------------------------------------------------------

    def report(self) -> HealthReport:
        """Freeze everything observed so far into a picklable report."""
        return HealthReport(
            snapshots=tuple(self._snapshots),
            transitions=self.slo.transitions,
            anomalies=tuple(self._anomalies),
            flash_window=self._flash_window,
        )

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the current health state."""
        return render_prometheus(self.report(), self.slo)


# --- derivations ------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    """numerator/denominator, NaN when the denominator is zero."""
    return numerator / denominator if denominator else float("nan")


def _coefficient_of_variation(loads: Mapping[int, int]) -> float:
    """Population CV (std/mean) of per-NCL cached-copy loads.

    Iterates NCL ids in sorted order so the float accumulation order —
    and thus the bitwise result — never depends on dict history.
    """
    values = [float(loads[k]) for k in sorted(loads)]
    n = len(values)
    if n == 0:
        return float("nan")
    mean = sum(values) / n
    if mean == 0.0:
        return float("nan")
    variance = sum((v - mean) ** 2 for v in values) / n
    return math.sqrt(variance) / mean


def _overlaps(
    window: Optional[Tuple[float, float]], start: float, end: float
) -> bool:
    if window is None:
        return False
    return start < window[1] and window[0] < end


def check_health_consistency(
    report: HealthReport,
    totals: CollectorTotals,
    baseline: Optional[CollectorTotals] = None,
) -> None:
    """Prove the snapshot stream is delta-consistent with the collector.

    * Windows must tile: indices consecutive from 0, each window
      starting where the previous ended.
    * Summing every snapshot's counter deltas must reproduce
      ``totals - baseline`` **bit-exactly** (integer counters, so there
      is no tolerance to hide behind).

    Raises :class:`~repro.errors.TraceConsistencyError` on any
    mismatch — the same contract violation class the trace-vs-counter
    audits use.
    """
    snapshots = report.snapshots
    for i, snap in enumerate(snapshots):
        if snap.index != i:
            raise TraceConsistencyError(
                f"health snapshots out of order: position {i} has index {snap.index}"
            )
        if i > 0 and snap.start != snapshots[i - 1].end:
            raise TraceConsistencyError(
                f"health window {i} starts at {snap.start} but window "
                f"{i - 1} ended at {snapshots[i - 1].end}"
            )
    expected = totals if baseline is None else totals.delta(baseline)
    summed = CollectorTotals(
        *(
            sum(getattr(s, field) for s in snapshots)
            for field in _DELTA_FIELDS
        )
    )
    mismatched = [
        f"{field}: snapshots sum to {got}, collector says {want}"
        for field, got, want in zip(_DELTA_FIELDS, summed, expected)
        if got != want
    ]
    if mismatched:
        raise TraceConsistencyError(
            "health snapshot deltas diverge from collector totals — "
            + "; ".join(mismatched)
        )


# --- exposition -------------------------------------------------------


def write_health_log(path: Path, report: HealthReport) -> None:
    """Persist a health report as JSONL (one record per line).

    Record kinds: one ``health.meta`` header, then ``health.snapshot``,
    ``slo.violated`` / ``slo.recovered`` and ``health.anomaly`` records
    interleaved in time order (stable within one timestamp:
    snapshot → SLO transitions → anomalies).  Floats round-trip exactly
    through ``json`` (repr-based), preserving the bitwise contract on
    disk.
    """
    import json

    records: List[Tuple[float, int, Dict[str, Any]]] = []
    for snap in report.snapshots:
        record = {"kind": "health.snapshot"}
        record.update(snap.to_dict())
        records.append((snap.end, 0, record))
    for transition in report.transitions:
        records.append((transition.time, 1, transition.to_dict()))
    for anomaly in report.anomalies:
        records.append((anomaly.time, 2, anomaly.to_dict()))
    records.sort(key=lambda item: (item[0], item[1]))
    meta: Dict[str, Any] = {
        "kind": "health.meta",
        "snapshots": len(report.snapshots),
        "flash_window": list(report.flash_window) if report.flash_window else None,
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, sort_keys=True) + "\n")
        for _, _, record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_health_log(path: Path) -> HealthReport:
    """Load a JSONL health log back into a :class:`HealthReport`."""
    import json

    snapshots: List[HealthSnapshot] = []
    transitions: List[SLOTransition] = []
    anomalies: List[HealthAnomaly] = []
    flash_window: Optional[Tuple[float, float]] = None
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "health.meta":
                raw = record.get("flash_window")
                flash_window = (raw[0], raw[1]) if raw else None
            elif kind == "health.snapshot":
                snapshots.append(HealthSnapshot.from_dict(record))
            elif kind in ("slo.violated", "slo.recovered"):
                transitions.append(
                    SLOTransition(
                        time=float(record["t"]),
                        rule=str(record["rule"]),
                        kind=kind,
                        field=str(record["field"]),
                        value=float(record["value"]),
                        target=float(record["target"]),
                    )
                )
            elif kind == "health.anomaly":
                anomalies.append(
                    HealthAnomaly(
                        time=float(record["t"]),
                        signal=str(record["signal"]),
                        detector=str(record["detector"]),
                        value=float(record["value"]),
                        score=float(record["score"]),
                    )
                )
    return HealthReport(
        snapshots=tuple(snapshots),
        transitions=tuple(transitions),
        anomalies=tuple(anomalies),
        flash_window=flash_window,
    )


def _fmt(value: float, digits: int = 3) -> str:
    if isinstance(value, bool):
        return "yes" if value else "-"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "-"
    return f"{value:.{digits}f}"


def render_health_table(report: HealthReport, limit: Optional[int] = None) -> str:
    """Human-readable health table (the ``repro watch`` view).

    One row per window plus a flags column: ``flash`` marks windows
    overlapping the flash-crowd surge, ``!rule`` / ``+rule`` mark SLO
    violation/recovery edges, ``~signal`` marks anomaly firings.

    An ``rss_mb`` column appears only when at least one snapshot
    carries memory telemetry, so unprofiled runs render the historical
    layout unchanged.
    """
    snapshots = report.snapshots
    if limit is not None and limit > 0:
        snapshots = snapshots[-limit:]
    has_memory = any(not math.isnan(s.rss_mb) for s in report.snapshots)
    flags: Dict[float, List[str]] = {}
    for transition in report.transitions:
        mark = "!" if transition.kind == "slo.violated" else "+"
        flags.setdefault(transition.time, []).append(mark + transition.rule)
    for anomaly in report.anomalies:
        flags.setdefault(anomaly.time, []).append(
            f"~{anomaly.signal}[{anomaly.detector}]"
        )
    mem_header = f" {'rss_mb':>9}" if has_memory else ""
    header = (
        f"{'win':>4} {'start':>10} {'end':>10} {'qps':>8} {'succ':>6} "
        f"{'hit':>6} {'backlog':>8} {'p95':>10} {'flash':>5}{mem_header}  flags"
    )
    lines = [header, "-" * len(header)]
    for snap in snapshots:
        marks = list(flags.get(snap.end, []))
        mem_cell = f" {_fmt(snap.rss_mb, 1):>9}" if has_memory else ""
        lines.append(
            f"{snap.index:>4} {snap.start:>10.0f} {snap.end:>10.0f} "
            f"{_fmt(snap.queries_per_sim_second, 4):>8} "
            f"{_fmt(snap.success_ratio):>6} "
            f"{_fmt(snap.cache_hit_ratio):>6} "
            f"{snap.backlog:>8} "
            f"{_fmt(snap.delay_p95, 1):>10} "
            f"{_fmt(snap.flash_crowd):>5}{mem_cell}  "
            f"{' '.join(marks)}".rstrip()
        )
    violated = sum(1 for t in report.transitions if t.kind == "slo.violated")
    summary = (
        f"{len(report.snapshots)} windows · {violated} SLO violation(s) · "
        f"{len(report.anomalies)} anomaly firing(s)"
    )
    if report.flash_window is not None:
        summary += (
            f" · flash crowd [{report.flash_window[0]:.0f}, "
            f"{report.flash_window[1]:.0f}) (first replay cycle only)"
        )
    lines.append(summary)
    return "\n".join(lines)


#: gauge fields exported to Prometheus, with help strings
_PROM_GAUGES: Tuple[Tuple[str, str], ...] = (
    ("queries_issued", "Queries issued in the last health window"),
    ("queries_satisfied", "Queries satisfied in the last health window"),
    ("cache_lookups", "Cache lookups in the last health window"),
    ("cache_hits", "Cache hits in the last health window"),
    ("backlog", "Open queries at the last window end"),
    ("backlog_delta", "Backlog change over the last window"),
    ("success_ratio", "Window success ratio (satisfied/issued)"),
    ("cache_hit_ratio", "Window cache hit ratio (hits/lookups)"),
    ("queries_per_sim_second", "Window query throughput per simulated second"),
    ("delay_p50", "Running P2 estimate of the median access delay"),
    ("delay_p95", "Running P2 estimate of the 95th-percentile delay"),
    ("delay_p99", "Running P2 estimate of the 99th-percentile delay"),
    ("ncl_load_cv", "Coefficient of variation of per-NCL cached load"),
)


def _prom_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    return repr(value)


def _prom_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_prometheus(
    report: HealthReport,
    slo: Optional[SLOEngine] = None,
    memory: Optional[MemorySample] = None,
) -> str:
    """Prometheus text exposition (one scrape) of the latest health state.

    Exports the last snapshot's gauges under ``repro_health_*``, the
    total window/anomaly counters, and — when an SLO engine is given —
    one ``repro_slo_violated{rule=...}`` gauge per rule (1 while the
    rule is in the violated state).  When a :class:`MemorySample` is
    given (memory-profiled serves), the ``repro_health_rss_bytes`` and
    per-subsystem memory gauges are appended.
    """
    lines: List[str] = []
    last = report.snapshots[-1] if report.snapshots else None
    if last is not None:
        for field, help_text in _PROM_GAUGES:
            name = f"repro_health_{field}"
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(getattr(last, field))}")
        lines.append("# HELP repro_health_window_end Simulated end time of the last window")
        lines.append("# TYPE repro_health_window_end gauge")
        lines.append(f"repro_health_window_end {_prom_value(last.end)}")
        lines.append("# HELP repro_health_flash_crowd Last window overlapped the flash-crowd surge")
        lines.append("# TYPE repro_health_flash_crowd gauge")
        lines.append(f"repro_health_flash_crowd {_prom_value(last.flash_crowd)}")
    lines.append("# HELP repro_health_windows_total Health windows observed")
    lines.append("# TYPE repro_health_windows_total counter")
    lines.append(f"repro_health_windows_total {len(report.snapshots)}")
    lines.append("# HELP repro_health_anomalies_total Anomaly detector firings")
    lines.append("# TYPE repro_health_anomalies_total counter")
    lines.append(f"repro_health_anomalies_total {len(report.anomalies)}")
    if slo is not None and slo.rules:
        violated = set(slo.violated_rules())
        lines.append("# HELP repro_slo_violated SLO rule currently in violated state")
        lines.append("# TYPE repro_slo_violated gauge")
        for rule in slo.rules:
            state = 1 if rule.name in violated else 0
            lines.append(
                f'repro_slo_violated{{rule="{_prom_label(rule.name)}"}} {state}'
            )
    text = "\n".join(lines) + "\n"
    if memory is not None:
        text += render_memory_gauges(memory)
    return text
