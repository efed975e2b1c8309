"""Per-run metric collection.

The paper's metrics (Sec. VI):

* **Successful ratio** — fraction of issued queries satisfied with the
  requested data before their time constraint expires.
* **Data access delay** — mean delay of *satisfied* queries (delay of a
  query is the time from issue to first data copy received).
* **Caching overhead** — "the average number of data copies being cached
  in the network": sampled periodically as cached copies per live data
  item and averaged over samples.
* **Replacement overhead** (Fig. 12c) — "the average number for data
  items to be replaced before expiration": items that changed holder
  during pairwise exchanges, normalised by data items generated.

All four are running sums, so the collector keeps no full query
records, only:

* the open queries (issued, unsatisfied) with an expiry min-heap;
  expired ones leave at the next ``pending_queries`` call (each
  time-series sample and serve batch makes one), so a call costs
  O(expired since the last one);
* the satisfied queries still inside their constraint (the duplicate
  check needs nothing older), which leave at the first delivery after
  they expire;
* the running delay sum, added in delivery order, and the caching-
  overhead sample sum and count;
* three P² sketches of the delay quantiles.

Delivery classification, in this order: ``late`` (``now >
expires_at``) → ``duplicate`` (query already satisfied) → ``first``.
A delivery at ``now == expires_at`` is still in-constraint, so
satisfied ids retire strictly after expiry.  A delivery for a query
that was never issued raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Tuple

from repro.core.data import DataItem, Query
from repro.errors import SimulationError
from repro.metrics.results import SimulationResult
from repro.metrics.streaming import P2Quantile

__all__ = ["CollectorTotals", "MetricsCollector"]


class CollectorTotals(NamedTuple):
    """Cheap immutable view of the collector's cumulative counters.

    Every field is a plain integer read, so capturing one view per
    health window costs a tuple allocation — the delta between two
    views is exactly the activity of the window between them (the
    foundation of :class:`repro.obs.health.HealthMonitor`'s
    snapshot-sum == collector-total contract).
    """

    queries_issued: int
    queries_satisfied: int
    duplicate_deliveries: int
    late_deliveries: int
    cache_lookups: int
    cache_hits: int
    data_generated: int
    responses_delivered: int

    def delta(self, earlier: "CollectorTotals") -> "CollectorTotals":
        """Field-wise difference ``self - earlier`` (window activity)."""
        return CollectorTotals(*(a - b for a, b in zip(self, earlier)))


class MetricsCollector:
    """Accumulates events during one simulation run."""

    def __init__(self) -> None:
        # qid → expires_at, each with an expiry min-heap for O(log n)
        # retirement.
        self._open: Dict[int, float] = {}
        self._open_heap: List[Tuple[float, int]] = []
        self._satisfied: Dict[int, float] = {}
        self._satisfied_heap: List[Tuple[float, int]] = []
        self._retire_floor = float("-inf")
        self._issued = 0
        self._satisfied_count = 0
        self._delay_sum = 0.0
        self._copy_sum = 0.0
        self._copy_count = 0
        self._delay_p50 = P2Quantile(0.5)
        self._delay_p95 = P2Quantile(0.95)
        self._delay_p99 = P2Quantile(0.99)
        self._data_generated = 0
        self._replaced_items = 0
        self._exchanges = 0
        self._responses_emitted = 0
        self._responses_delivered = 0
        self._duplicate_deliveries = 0
        self._late_deliveries = 0
        self._bits_transferred = 0
        self._cache_lookups = 0
        self._cache_hits = 0

    # --- queries --------------------------------------------------------

    def on_query_created(self, query: Query) -> None:
        qid = query.query_id
        if qid in self._open or qid in self._satisfied:
            return
        self._issued += 1
        self._open[qid] = query.expires_at
        heapq.heappush(self._open_heap, (query.expires_at, qid))

    def record_delivery(self, query: Query, now: float) -> str:
        """Classify and record one delivery event.

        Returns ``"first"`` / ``"duplicate"`` / ``"late"`` (see the
        module docstring for the precedence).  Only ``"first"`` affects
        the successful ratio; the others feed their dedicated counters
        so trace-derived accounting can audit redundant and late copies.
        """
        qid = query.query_id
        self._retire_satisfied(now)
        if now > query.expires_at:
            self._late_deliveries += 1
            return "late"
        if qid in self._satisfied:
            self._duplicate_deliveries += 1
            return "duplicate"
        if self._open.pop(qid, None) is None:
            raise SimulationError(f"delivery for query {qid}, which was never issued")
        self._satisfied[qid] = query.expires_at
        heapq.heappush(self._satisfied_heap, (query.expires_at, qid))
        delay = now - query.created_at
        self._satisfied_count += 1
        self._delay_sum += delay
        self._delay_p50.observe(delay)
        self._delay_p95.observe(delay)
        self._delay_p99.observe(delay)
        return "first"

    def on_query_satisfied(self, query: Query, now: float) -> bool:
        """Record a delivery; returns True iff this is the first (useful)
        copy and it arrived within the constraint.

        Satisfaction is keyed on **distinct query ids**, never on
        delivery events: when several NCLs respond and more than one copy
        reaches the requester (the paper's overhead scenario, Sec. V-C),
        the extra copies are tallied as :attr:`duplicate_deliveries` —
        and copies arriving past the constraint as
        :attr:`late_deliveries` — leaving the successful ratio untouched.
        """
        return self.record_delivery(query, now) == "first"

    def _retire_satisfied(self, now: float) -> None:
        """Forget satisfied ids whose query expired before *now*."""
        heap = self._satisfied_heap
        while heap and heap[0][0] < now:
            _, qid = heapq.heappop(heap)
            self._satisfied.pop(qid, None)

    def is_satisfied(self, query_id: int) -> bool:
        return query_id in self._satisfied

    def pending_queries(self, now: float) -> int:
        """Issued queries still unsatisfied and unexpired at *now*.

        Amortised O(retired this call): satisfied queries left the open
        set at delivery, and expired ones retire here through the expiry
        heap.  Calls must be monotone in *now* (the simulator samples in
        event order); a decreasing time raises :class:`ValueError`.
        """
        if now < self._retire_floor:
            raise ValueError("pending_queries requires non-decreasing times")
        self._retire_floor = now
        heap = self._open_heap
        while heap and heap[0][0] < now:
            _, qid = heapq.heappop(heap)
            expires_at = self._open.get(qid)
            if expires_at is not None and expires_at < now:
                del self._open[qid]
        return len(self._open)

    @property
    def open_queries(self) -> int:
        """Size of the compact open-query set (bounded-memory probe)."""
        return len(self._open)

    # --- data and caching ----------------------------------------------

    def on_data_generated(self, item: DataItem) -> None:
        self._data_generated += 1

    def sample_copies_per_item(self, cached_copies: int, live_items: int) -> None:
        """One caching-overhead sample: copies currently cached network-wide
        divided by currently live data items."""
        if live_items > 0:
            self._copy_sum += cached_copies / live_items
            self._copy_count += 1

    def on_exchange(self, moved_items: int, bits: int) -> None:
        self._exchanges += 1
        self._replaced_items += moved_items
        self._bits_transferred += bits

    def on_response_emitted(self) -> None:
        self._responses_emitted += 1

    def on_response_delivered(self) -> None:
        self._responses_delivered += 1

    def on_cache_lookup(self, hit: bool) -> None:
        """One attempt to serve a query locally; *hit* iff a cached
        (buffer) copy answered."""
        self._cache_lookups += 1
        if hit:
            self._cache_hits += 1

    # --- summary -----------------------------------------------------------

    @property
    def queries_issued(self) -> int:
        return self._issued

    @property
    def queries_satisfied(self) -> int:
        """Distinct queries satisfied in time (never delivery events)."""
        return self._satisfied_count

    @property
    def duplicate_deliveries(self) -> int:
        """Deliveries for already-satisfied queries (redundant copies)."""
        return self._duplicate_deliveries

    @property
    def late_deliveries(self) -> int:
        """Deliveries arriving after the query's time constraint."""
        return self._late_deliveries

    @property
    def responses_delivered(self) -> int:
        return self._responses_delivered

    @property
    def cache_lookups(self) -> int:
        return self._cache_lookups

    @property
    def cache_hits(self) -> int:
        return self._cache_hits

    @property
    def delay_p50(self) -> float:
        """Running P² estimate of the median access delay (NaN early)."""
        return self._delay_p50.value

    @property
    def delay_p95(self) -> float:
        """Running P² estimate of the 95th-percentile delay (NaN early)."""
        return self._delay_p95.value

    @property
    def delay_p99(self) -> float:
        """Running P² estimate of the 99th-percentile delay (NaN early)."""
        return self._delay_p99.value

    def totals(self) -> CollectorTotals:
        """Snapshot the cumulative counters as a :class:`CollectorTotals`.

        O(1) attribute reads — the per-window delta view used by the
        live health monitor.
        """
        return CollectorTotals(
            queries_issued=self._issued,
            queries_satisfied=self._satisfied_count,
            duplicate_deliveries=self._duplicate_deliveries,
            late_deliveries=self._late_deliveries,
            cache_lookups=self._cache_lookups,
            cache_hits=self._cache_hits,
            data_generated=self._data_generated,
            responses_delivered=self._responses_delivered,
        )

    def nbytes(self) -> int:
        """Deep heap footprint of the collector in bytes, dominated by
        the open/satisfied maps and their retirement heaps."""
        from repro.obs.memory import deep_sizeof

        return deep_sizeof(self)

    def finalize(self, name: str, seed: int) -> SimulationResult:
        """Freeze the run into a :class:`SimulationResult`."""
        issued = self._issued
        satisfied = self._satisfied_count
        return SimulationResult(
            name=name,
            seed=seed,
            queries_issued=issued,
            queries_satisfied=satisfied,
            successful_ratio=(satisfied / issued) if issued else 0.0,
            mean_access_delay=(
                self._delay_sum / satisfied if satisfied else float("nan")
            ),
            caching_overhead=(
                self._copy_sum / self._copy_count if self._copy_count else 0.0
            ),
            data_generated=self._data_generated,
            replaced_items=self._replaced_items,
            replacement_overhead=(
                self._replaced_items / self._data_generated
                if self._data_generated
                else 0.0
            ),
            exchanges=self._exchanges,
            responses_emitted=self._responses_emitted,
            responses_delivered=self._responses_delivered,
            bits_transferred=self._bits_transferred,
            duplicate_deliveries=self._duplicate_deliveries,
            late_deliveries=self._late_deliveries,
        )
