"""Live serve-mode health telemetry.

A :class:`HealthMonitor` rides along a serve session.  At attach time
and at every window end it builds one
:class:`~repro.obs.timeseries.TelemetryRow` (the simulator's cumulative
counters and gauges), and it freezes each window as the
:class:`HealthSnapshot` *between* two consecutive rows:

* **windowed deltas** — the difference of the two rows' eight
  :class:`repro.metrics.collector.CollectorTotals` counters, so the
  windows tile the session by construction and their deltas sum
  *bit-exactly* to the final collector totals
  (:func:`check_health_consistency` enforces it against the collector);
* **gauges at the window end** — open-query backlog, running P² delay
  percentiles, per-NCL load skew (coefficient of variation) and the
  memory columns of the end row.

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

Exposition: :meth:`HealthReport.to_records` / :meth:`HealthReport.
from_records` are the ``health.jsonl`` records, written and read by
:func:`repro.obs.timeseries.write_jsonl` / :func:`~repro.obs.timeseries.
read_jsonl` (strict JSON; floats round-trip exactly);
:func:`render_prometheus` emits the Prometheus text format for
``repro serve --prom-out``, and :func:`render_health_table` backs the
``repro watch`` CLI.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
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
from repro.obs.slo import SLOEngine, SLORule, SLOTransition
from repro.obs.timeseries import (
    Column,
    TelemetryRow,
    float_from_json,
    jsonable,
    render_rows,
)

__all__ = [
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

#: snapshot fields watched by the anomaly detectors
ANOMALY_SIGNALS: Tuple[str, ...] = (
    "cache_hit_ratio",
    "queries_per_sim_second",
    "backlog_delta",
)

#: the eight windowed-delta counters (must mirror CollectorTotals order)
_DELTA_FIELDS: Tuple[str, ...] = CollectorTotals._fields

_MB = float(2**20)


@dataclass(frozen=True)
class HealthSnapshot:
    """One frozen health window ``[start, end)`` of a serve session:
    the difference of the telemetry rows at ``start`` and ``end``
    (:meth:`between`).

    The eight counter fields are **per-window deltas** of the
    collector's cumulative totals; ratios and throughput derive from
    those deltas (NaN when the window carries no evidence, e.g. a
    hit ratio over zero lookups).  ``delay_p*`` are the collector's
    *running* P² estimates at the window end — explicitly cumulative
    rather than windowed.  ``backlog`` is the pending-query count at
    the window end and ``backlog_delta`` its change over the window.
    The memory fields are the end row's memory columns.
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
    # the end row's memory columns (NaN/empty unless the run profiled
    # memory; process counters, so deliberately outside the
    # delta-consistency contract above)
    rss_mb: float = float("nan")
    py_heap_mb: float = float("nan")
    mem_accounted_mb: float = float("nan")
    mem_top: str = ""
    mem_subsystems: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def between(
        cls,
        index: int,
        before: TelemetryRow,
        after: TelemetryRow,
        flash_window: Optional[Tuple[float, float]] = None,
    ) -> "HealthSnapshot":
        """Window *index*, from the row at its start to the row at its end."""
        delta = after.totals().delta(before.totals())
        start, end = before.time, after.time
        return cls(
            index,
            start,
            end,
            *delta,
            backlog=after.pending_queries,
            backlog_delta=after.pending_queries - before.pending_queries,
            success_ratio=_ratio(delta.queries_satisfied, delta.queries_issued),
            cache_hit_ratio=_ratio(delta.cache_hits, delta.cache_lookups),
            queries_per_sim_second=_ratio(delta.queries_issued, end - start),
            delay_p50=after.delay_p50,
            delay_p95=after.delay_p95,
            delay_p99=after.delay_p99,
            ncl_load_cv=_coefficient_of_variation(after.ncl_load),
            flash_crowd=_overlaps(flash_window, start, end),
            rss_mb=after.rss_mb,
            py_heap_mb=after.py_heap_mb,
            mem_accounted_mb=after.mem_accounted_mb,
            mem_top=after.mem_top,
            mem_subsystems=after.mem_subsystems,
        )

    def delta_totals(self) -> CollectorTotals:
        """This window's counter deltas as a :class:`CollectorTotals`."""
        return CollectorTotals(*(getattr(self, f) for f in _DELTA_FIELDS))

    def to_dict(self) -> Dict[str, Any]:
        return jsonable(asdict(self))

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "HealthSnapshot":
        values = {f.name: record[f.name] for f in fields(cls)}
        for name in _FLOAT_FIELDS:
            values[name] = float_from_json(values[name])
        return cls(**values)


#: the snapshot fields read back through :func:`float_from_json`
_FLOAT_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(HealthSnapshot) if f.type == "float"
)


@dataclass(frozen=True)
class HealthAnomaly:
    """One anomaly-detector firing over a health signal."""

    time: float
    signal: str
    detector: str   # "ewma" / "cusum"
    value: float
    score: float

    def to_dict(self) -> Dict[str, Any]:
        # An EWMA score is ±inf when the baseline has zero variance; the
        # log writes it as "Infinity" / "-Infinity" (jsonable).
        return {
            "kind": "health.anomaly",
            "t": self.time,
            "signal": self.signal,
            "detector": self.detector,
            "value": self.value,
            "score": self.score,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "HealthAnomaly":
        return cls(
            time=float(record["t"]),
            signal=str(record["signal"]),
            detector=str(record["detector"]),
            value=float_from_json(record["value"]),
            score=float_from_json(record["score"]),
        )


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

    def to_records(self) -> List[Dict[str, Any]]:
        """The ``health.jsonl`` records: one ``health.meta`` header, then
        ``health.snapshot``, ``slo.violated`` / ``slo.recovered`` and
        ``health.anomaly`` records interleaved in time order (stable
        within one timestamp: snapshot → SLO transitions → anomalies)."""
        records: List[Tuple[float, int, Dict[str, Any]]] = []
        for snap in self.snapshots:
            records.append((snap.end, 0, {"kind": "health.snapshot", **snap.to_dict()}))
        for transition in self.transitions:
            records.append((transition.time, 1, transition.to_dict()))
        for anomaly in self.anomalies:
            records.append((anomaly.time, 2, anomaly.to_dict()))
        records.sort(key=lambda item: (item[0], item[1]))
        meta = {
            "kind": "health.meta",
            "snapshots": len(self.snapshots),
            "flash_window": list(self.flash_window) if self.flash_window else None,
        }
        return [meta] + [record for _, _, record in records]

    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]]) -> "HealthReport":
        """Inverse of :meth:`to_records`."""
        snapshots: List[HealthSnapshot] = []
        transitions: List[SLOTransition] = []
        anomalies: List[HealthAnomaly] = []
        flash_window: Optional[Tuple[float, float]] = None
        for record in records:
            kind = record.get("kind")
            if kind == "health.meta":
                raw = record.get("flash_window")
                flash_window = (raw[0], raw[1]) if raw else None
            elif kind == "health.snapshot":
                snapshots.append(HealthSnapshot.from_dict(record))
            elif kind in ("slo.violated", "slo.recovered"):
                transitions.append(SLOTransition.from_dict(record))
            elif kind == "health.anomaly":
                anomalies.append(HealthAnomaly.from_dict(record))
        return cls(tuple(snapshots), tuple(transitions), tuple(anomalies), flash_window)


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
        monitor.observe_window(end)        # after each batch
        report = monitor.report()

    The monitor never touches the event loop: *between* windows it asks
    the simulator for one telemetry row, so its overhead is one row
    plus detector arithmetic per window (the bench guard caps monitored
    serve at 1.05x untraced).
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
        self._last_row: Optional[TelemetryRow] = None
        self._flash_window: Optional[Tuple[float, float]] = None

    # --- lifecycle -----------------------------------------------------

    def attach(self, simulator: Any) -> None:
        """Bind to a simulator with an active serve session.

        Builds the baseline row at the end of warm-up (its totals are
        all zero right after ``start_session()`` — warm-up generates no
        workload), so the first window starts where the session's first
        batch does.
        """
        self._simulator = simulator
        self._last_row = simulator.telemetry_row(simulator.warmup_end)
        self._baseline = self._last_row.totals()
        arrivals = getattr(simulator.workload_process, "arrivals", None)
        flash = getattr(arrivals, "flash_window", None)
        self._flash_window = flash() if callable(flash) else None

    @property
    def baseline(self) -> Optional[CollectorTotals]:
        """Collector totals at attach time (delta-consistency anchor)."""
        return self._baseline

    # --- per-window observation ---------------------------------------

    def observe_window(self, end: float) -> HealthSnapshot:
        """Freeze the window from the previous row to the row at *end*.

        Must be called with the time the session advanced to, never
        decreasing (the collector's ``pending_queries`` requires it).
        """
        if self._last_row is None:
            raise RuntimeError("HealthMonitor.attach(simulator) must run first")
        row = self._simulator.telemetry_row(end)
        snapshot = HealthSnapshot.between(
            len(self._snapshots), self._last_row, row, self._flash_window
        )
        self._last_row = row
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


#: the ``repro watch`` columns of a health window
_HEALTH_TABLE: Tuple[Column, ...] = (
    ("win", "index", 4, 0),
    ("start", "start", 10, 0),
    ("end", "end", 10, 0),
    ("qps", "queries_per_sim_second", 8, 4),
    ("succ", "success_ratio", 6, 3),
    ("hit", "cache_hit_ratio", 6, 3),
    ("backlog", "backlog", 8, 0),
    ("p95", "delay_p95", 10, 1),
    ("flash", "flash_crowd", 5, 0),
)


def render_health_table(report: HealthReport, limit: Optional[int] = None) -> str:
    """Human-readable health table (the ``repro watch`` view).

    One row per window plus a flags column: ``flash`` marks windows
    overlapping the flash-crowd surge, ``!rule`` / ``+rule`` mark SLO
    violation/recovery edges, ``~signal`` marks anomaly firings.

    An ``rss_mb`` column appears only when at least one snapshot
    carries memory telemetry.
    """
    flags: Dict[float, List[str]] = {}
    for transition in report.transitions:
        mark = "!" if transition.kind == "slo.violated" else "+"
        flags.setdefault(transition.time, []).append(mark + transition.rule)
    for anomaly in report.anomalies:
        flags.setdefault(anomaly.time, []).append(
            f"~{anomaly.signal}[{anomaly.detector}]"
        )
    columns = _HEALTH_TABLE
    if any(not math.isnan(s.rss_mb) for s in report.snapshots):
        columns += (("rss_mb", "rss_mb", 9, 1),)
    records = [
        {**snap.to_dict(), "flags": " ".join(flags.get(snap.end, ()))}
        for snap in report.snapshots
    ]
    lines = render_rows(records, columns + (("flags", "flags", 0, 0),), limit)
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


def render_prometheus(report: HealthReport, slo: Optional[SLOEngine] = None) -> str:
    """Prometheus text exposition (one scrape) of the latest health state.

    Exports the last snapshot's gauges under ``repro_health_*``, the
    total window/anomaly counters, and — when an SLO engine is given —
    one ``repro_slo_violated{rule=...}`` gauge per rule (1 while the
    rule is in the violated state).  When the last window's end row
    carries memory columns (memory-profiled serves), the
    ``repro_health_rss_bytes`` process gauge and the accounted and
    per-subsystem ``repro_memory_*`` gauges follow.
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
    if last is not None and not math.isnan(last.rss_mb):
        lines += [
            "# HELP repro_health_rss_bytes Process peak RSS (high-water mark).",
            "# TYPE repro_health_rss_bytes gauge",
            f"repro_health_rss_bytes {int(last.rss_mb * _MB)}",
            "# HELP repro_memory_accounted_bytes Sum of subsystem accountants.",
            "# TYPE repro_memory_accounted_bytes gauge",
            f"repro_memory_accounted_bytes {int(last.mem_accounted_mb * _MB)}",
            "# HELP repro_memory_subsystem_bytes Attributed bytes per subsystem.",
            "# TYPE repro_memory_subsystem_bytes gauge",
        ]
        lines += [
            f'repro_memory_subsystem_bytes{{subsystem="{name}"}} '
            f"{int(last.mem_subsystems[name])}"
            for name in sorted(last.mem_subsystems)
        ]
    return "\n".join(lines) + "\n"
