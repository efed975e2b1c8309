"""Periodic time-series sampling of system state.

The one per-sample recorder: at every ``SAMPLE_METRICS`` event each
:class:`TimeSeriesSample` records the paper's headline counters (live
items, cached copies, queries issued and satisfied) together with
per-node buffer occupancy, per-NCL caching load, the cumulative
cache-hit ratio and the number of pending (issued, unsatisfied,
unexpired) queries.  ``repro simulate --timeline-out`` writes its CSV
projection (:func:`write_csv`).

The sampler follows the same zero-overhead convention as tracing and
profiling: the simulator only assembles a sample when
``sampler.enabled`` is true (:data:`NULL_SAMPLER` otherwise), so
unsampled runs pay one attribute read per ``SAMPLE_METRICS`` event.

Samples serialise to plain row dicts (:meth:`TimeSeriesSampler.rows`),
export as JSONL (full detail, including the per-node and per-NCL
vectors) or CSV (scalar columns only), and merge across the parallel
runner's workers by tagging each run's rows with its seed
(:func:`merge_timeseries`), so ``workers > 1`` loses nothing relative
to a serial sweep.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "TimeSeriesSample",
    "TimeSeriesSampler",
    "NullTimeSeriesSampler",
    "NULL_SAMPLER",
    "merge_timeseries",
    "summarize_timeseries",
    "write_jsonl",
    "write_csv",
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
)


@dataclass(frozen=True)
class TimeSeriesSample:
    """One periodic snapshot of the running system."""

    time: float
    live_items: int
    cached_copies: int
    queries_issued: int
    queries_satisfied: int
    pending_queries: int
    cache_lookups: int
    cache_hits: int
    #: buffer occupancy fraction per node, indexed by node id
    node_occupancy: Tuple[float, ...] = ()
    #: cached item count per NCL central node (empty for NCL-less schemes)
    ncl_load: Mapping[int, int] = field(default_factory=dict)
    #: running P² delay-quantile estimates (NaN until deliveries arrive)
    delay_p50: float = float("nan")
    delay_p95: float = float("nan")
    #: memory telemetry (NaN/empty unless the run sampled with
    #: ``mem_profile``; process counters, so outside any frozen result)
    rss_mb: float = float("nan")
    py_heap_mb: float = float("nan")
    mem_top: str = ""

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

    def as_row(self) -> Dict[str, object]:
        """Flat JSON-ready dict: scalar columns plus the two vectors.

        NaN-valued columns (quantiles before any delivery) export as
        ``None`` — JSON ``null`` round-trips, bare NaN does not.
        """
        row: Dict[str, object] = {}
        for name in SCALAR_COLUMNS:
            value = getattr(self, name)
            if isinstance(value, float) and math.isnan(value):
                value = None
            row[name] = value
        row["node_occupancy"] = list(self.node_occupancy)
        row["ncl_load"] = {str(k): v for k, v in sorted(self.ncl_load.items())}
        row["mem_top"] = self.mem_top
        return row


class TimeSeriesSampler:
    """Accumulates :class:`TimeSeriesSample`\\ s in time order."""

    #: the simulator skips sample assembly entirely when this is False
    enabled: bool = True

    def __init__(self) -> None:
        self._samples: List[TimeSeriesSample] = []

    def record(self, sample: TimeSeriesSample) -> None:
        if self._samples and sample.time < self._samples[-1].time:
            raise ValueError("time-series samples must be time-ordered")
        self._samples.append(sample)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence[TimeSeriesSample]:
        return tuple(self._samples)

    def rows(self) -> List[Dict[str, object]]:
        """All samples as JSON-ready row dicts."""
        return [sample.as_row() for sample in self._samples]


class NullTimeSeriesSampler(TimeSeriesSampler):
    """Sampling off: recording a sample is a bug (sites guard on ``enabled``)."""

    enabled = False


#: Shared default — stateless in practice, so one instance serves the process.
NULL_SAMPLER = NullTimeSeriesSampler()


# --- export ----------------------------------------------------------------


def write_jsonl(rows: Iterable[Mapping[str, object]], path: str) -> None:
    """One JSON object per line, full detail (vectors included)."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


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
