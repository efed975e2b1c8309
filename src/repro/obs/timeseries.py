"""One sample stream: a telemetry row per sample instant.

A :class:`TelemetryRow` is the state of a run at one simulated instant:
the collector's eight cumulative
:class:`~repro.metrics.collector.CollectorTotals` counters, the gauges
(live items, cached copies, pending queries, the running P² delay
quantiles, per-NCL load and per-node buffer occupancy) and the memory
columns (peak RSS, traced heap, accounted bytes, the top subsystem and
the per-subsystem bytes), which stay NaN/empty unless the run profiles
memory.  :meth:`repro.sim.simulator.Simulator.telemetry_row` is the one
builder.  Two consumers keep rows:

* the time-series sampler (:class:`TimeSeriesSampler`, switched on by
  ``SimulatorConfig(timeseries=True)``) keeps one per ``SAMPLE_METRICS``
  event; ``repro simulate --out`` writes them to ``timeseries.jsonl``
  and their scalar columns to ``timeseries.csv``;
* the serve-mode health monitor (:mod:`repro.obs.health`) builds one per
  window end, and each health window is the difference of two
  consecutive rows.

The sampler follows the zero-overhead convention of tracing and
profiling: the simulator builds a row only when ``sampler.enabled`` is
true, so unsampled runs pay one attribute read per ``SAMPLE_METRICS``
event, and the shared :data:`NULL_SAMPLER` refuses rows.

Every JSONL file of the package goes through one writer/reader pair
with one rule for non-finite floats: :func:`jsonable` writes NaN as
``null`` and ±inf as the strings ``"Infinity"`` / ``"-Infinity"``;
:func:`float_from_json` reads both back (``float("-Infinity")`` is
``-inf``).  :func:`write_jsonl` dumps with ``allow_nan=False``, so
every line is strict JSON, and finite floats round-trip bit for bit.
:func:`render_rows` is the one fixed-width table renderer (``repro
watch``, ``repro report``), and :func:`merge_timeseries` tags each
run's rows with its seed, so ``workers > 1`` loses nothing relative to
a serial sweep.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.metrics.collector import CollectorTotals

__all__ = [
    "TelemetryRow",
    "TimeSeriesSampler",
    "NullTimeSeriesSampler",
    "NULL_SAMPLER",
    "jsonable",
    "float_from_json",
    "write_jsonl",
    "read_jsonl",
    "write_csv",
    "merge_timeseries",
    "summarize_timeseries",
    "render_rows",
]

#: scalar columns, in export order (vectors travel only through JSONL)
SCALAR_COLUMNS: Tuple[str, ...] = (
    "time",
    "live_items",
    "cached_copies",
    "copies_per_item",
    "queries_issued",
    "queries_satisfied",
    "pending_queries",
    "running_ratio",
    "cache_lookups",
    "cache_hits",
    "cache_hit_ratio",
    "mean_buffer_occupancy",
    "max_buffer_occupancy",
    "delay_p50",
    "delay_p95",
    "rss_mb",
    "py_heap_mb",
    "duplicate_deliveries",
    "late_deliveries",
    "data_generated",
    "responses_delivered",
    "delay_p99",
    "mem_accounted_mb",
)

_NAN = float("nan")


@dataclass(frozen=True)
class TelemetryRow:
    """Cumulative counters and gauges of a run at simulated ``time``."""

    time: float
    # cumulative collector counters (CollectorTotals field order)
    queries_issued: int
    queries_satisfied: int
    duplicate_deliveries: int
    late_deliveries: int
    cache_lookups: int
    cache_hits: int
    data_generated: int
    responses_delivered: int
    # gauges
    live_items: int
    cached_copies: int
    #: issued, unsatisfied, unexpired queries at ``time``
    pending_queries: int
    #: running P² delay-quantile estimates (NaN until deliveries arrive)
    delay_p50: float = _NAN
    delay_p95: float = _NAN
    delay_p99: float = _NAN
    #: cached item count per NCL central node (empty for NCL-less schemes)
    ncl_load: Mapping[int, int] = field(default_factory=dict)
    #: buffer occupancy fraction per node, indexed by node id
    node_occupancy: Tuple[float, ...] = ()
    # memory columns (NaN/empty unless the run profiles memory; process
    # counters, so outside every frozen result): peak RSS, tracemalloc
    # heap (NaN unless tracing), accountant sum, largest holder, and the
    # per-subsystem bytes
    rss_mb: float = _NAN
    py_heap_mb: float = _NAN
    mem_accounted_mb: float = _NAN
    mem_top: str = ""
    mem_subsystems: Mapping[str, int] = field(default_factory=dict)

    def totals(self) -> CollectorTotals:
        """The row's cumulative counters as a :class:`CollectorTotals`."""
        return CollectorTotals(*(getattr(self, f) for f in CollectorTotals._fields))

    @property
    def copies_per_item(self) -> float:
        return self.cached_copies / self.live_items if self.live_items else 0.0

    @property
    def running_ratio(self) -> float:
        return (
            self.queries_satisfied / self.queries_issued if self.queries_issued else 0.0
        )

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    @property
    def mean_buffer_occupancy(self) -> float:
        occ = self.node_occupancy
        return sum(occ) / len(occ) if occ else 0.0

    @property
    def max_buffer_occupancy(self) -> float:
        return max(self.node_occupancy) if self.node_occupancy else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record: every scalar column plus the vectors."""
        record = {name: getattr(self, name) for name in SCALAR_COLUMNS}
        record["node_occupancy"] = self.node_occupancy
        record["ncl_load"] = self.ncl_load
        record["mem_top"] = self.mem_top
        record["mem_subsystems"] = self.mem_subsystems
        return jsonable(record)


class TimeSeriesSampler:
    """Keeps one :class:`TelemetryRow` per sample instant, in time order."""

    #: the simulator builds no row when this is False
    enabled: bool = True

    def __init__(self) -> None:
        self._rows: List[TelemetryRow] = []

    def record(self, row: TelemetryRow) -> None:
        if self._rows and row.time < self._rows[-1].time:
            raise ValueError("time-series rows must be time-ordered")
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Tuple[TelemetryRow, ...]:
        return tuple(self._rows)

    def records(self) -> List[Dict[str, Any]]:
        """All rows as JSON-ready records."""
        return [row.to_dict() for row in self._rows]


class NullTimeSeriesSampler(TimeSeriesSampler):
    """Sampling off: hook sites guard on ``enabled``, and a row that
    reaches :meth:`record` anyway raises instead of piling up in the
    shared instance."""

    enabled = False

    def record(self, row: TelemetryRow) -> None:
        raise ConfigurationError(
            "time-series sampling is off; guard the hook on sampler.enabled"
        )


#: Shared default: stateless (it refuses rows), so one instance serves
#: the process.
NULL_SAMPLER = NullTimeSeriesSampler()


# --- JSONL: one writer, one reader, one rule for non-finite floats ---------


def jsonable(value: Any) -> Any:
    """*value* with NaN as ``None`` and ±inf as ``"Infinity"`` /
    ``"-Infinity"``, through mappings (keys become strings) and
    sequences (which become lists)."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, Mapping):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value


def float_from_json(value: Any) -> float:
    """Inverse of :func:`jsonable` for one float field."""
    return _NAN if value is None else float(value)


def write_jsonl(records: Iterable[Mapping[str, Any]], path: Any) -> None:
    """One strict-JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(jsonable(record), sort_keys=True, allow_nan=False) + "\n"
            )


def read_jsonl(path: Any) -> List[Dict[str, Any]]:
    """Every non-blank line of a JSONL file, parsed."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def write_csv(rows: Iterable[Mapping[str, object]], path: str) -> None:
    """Scalar columns only (CSV cannot carry the per-node/per-NCL vectors).

    A ``seed`` column is included when present (merged multi-run rows).
    """
    rows = list(rows)
    columns: List[str] = list(SCALAR_COLUMNS)
    if any("seed" in row for row in rows):
        columns = ["seed"] + columns
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# --- merging and summary ---------------------------------------------------


def merge_timeseries(
    per_run: Iterable[Tuple[int, Iterable[Mapping[str, object]]]]
) -> List[Dict[str, object]]:
    """Combine rows from several runs, tagging each row with its seed.

    Rows keep their within-run time order; runs are ordered by seed so
    the merge is deterministic regardless of worker completion order.
    """
    merged: List[Dict[str, object]] = []
    for seed, rows in sorted(per_run, key=lambda item: item[0]):
        for row in rows:
            tagged = dict(row)
            tagged["seed"] = seed
            merged.append(tagged)
    return merged


def summarize_timeseries(
    rows: Iterable[Mapping[str, object]]
) -> Dict[str, Dict[str, float]]:
    """Per-column min/mean/max/last over all rows (for the run report)."""
    rows = list(rows)
    summary: Dict[str, Dict[str, float]] = {}
    for name in SCALAR_COLUMNS:
        values = [
            value
            for row in rows
            if row.get(name) is not None
            for value in (float(row[name]),)
            if not math.isnan(value)
        ]
        if not values:
            continue
        summary[name] = {
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
            "last": values[-1],
        }
    return summary


# --- the one table renderer -------------------------------------------------

#: One fixed-width table column: (header, record key, width, decimals).
#: Width 0 leaves the cell unpadded (a free-text last column).
Column = Tuple[str, str, int, int]

#: the ``repro watch`` columns of a time-series row
ROW_TABLE: Tuple[Column, ...] = (
    ("time", "time", 12, 1),
    ("live", "live_items", 6, 0),
    ("copies", "cached_copies", 7, 0),
    ("issued", "queries_issued", 7, 0),
    ("satisfied", "queries_satisfied", 9, 0),
    ("pending", "pending_queries", 8, 0),
    ("hit", "cache_hit_ratio", 6, 3),
    ("p95", "delay_p95", 10, 1),
)

#: the memory columns of a row (shown only when the run profiled memory)
MEMORY_TABLE: Tuple[Column, ...] = (
    ("rss_mb", "rss_mb", 9, 1),
    ("heap_mb", "py_heap_mb", 9, 1),
    ("acct_mb", "mem_accounted_mb", 9, 1),
    ("mem_top", "mem_top", 0, 0),
)


def _cell(value: Any, decimals: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "-"
    if isinstance(value, float):
        return "-" if math.isnan(value) else f"{value:.{decimals}f}"
    return str(value)


def render_rows(
    records: Sequence[Mapping[str, Any]],
    columns: Sequence[Column],
    limit: Optional[int] = None,
) -> List[str]:
    """Header, rule and one line per record (the last *limit* records
    when *limit* is positive); NaN and ``None`` cells read ``-``."""
    if limit is not None and limit > 0:
        records = records[-limit:]
    header = " ".join(f"{title:>{width}}" for title, _, width, _ in columns)
    lines = [header, "-" * len(header)]
    for record in records:
        cells = (
            f"{_cell(record.get(key), decimals):>{width}}"
            for _, key, width, decimals in columns
        )
        lines.append(" ".join(cells).rstrip())
    return lines
