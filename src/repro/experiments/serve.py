"""Long-lived batch replay — the ``repro serve`` heavy-traffic runner.

A :class:`ServeSession` fits the network **once** (warm-up, NCL
selection, buffer assignment) and then replays query batches against
the fitted state without any per-batch setup: each
:meth:`ServeSession.run_batch` advances the simulation by a whole
number of query rounds, cycling the trace's evaluation contacts (window
*c* replays contact *i* at its original time shifted by
``c · eval_duration``) while the periodic data/query/sample rounds
continue on their drift-free ``warmup_end + k·period`` grid.

Throughput is measured per batch as wall-clock queries/second and
travels in :class:`BatchResult` — never inside the frozen
:class:`~repro.metrics.results.SimulationResult`, which stays a pure
function of (trace, scheme, workload, seed) so the bitwise
parallel==serial contract is untouched.

Arrival-process caveats: the evaluation window announced to the arrival
process is the trace's own second half, so a ``flash_crowd`` fires in
the first replay cycle only, while ``diurnal``/``bursty`` modulation
continues across every cycle.

Live health: pass ``slo_rules``/``monitor_health`` to
:func:`serve_repeated` (or a :class:`~repro.obs.health.HealthMonitor`
to :class:`ServeSession`) and every batch also freezes a
:class:`~repro.obs.health.HealthSnapshot` whose windowed deltas sum
bit-exactly to the final collector totals — asserted per session via
:func:`~repro.obs.health.check_health_consistency`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.caching.base import CachingScheme
from repro.errors import ConfigurationError
from repro.experiments.runner import _execute_all
from repro.metrics.results import SimulationResult
from repro.obs.health import HealthMonitor, HealthReport, check_health_consistency
from repro.obs.memory import MemorySample
from repro.obs.recorder import TraceRecorder
from repro.obs.slo import SLORule
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.contact import ContactTrace
from repro.workload.config import WorkloadConfig

__all__ = [
    "BatchResult",
    "ServeOutcome",
    "ServeSession",
    "serve_repeated",
    "summarize_throughput",
]


@dataclass(frozen=True)
class BatchResult:
    """Metric deltas and wall-clock throughput of one replayed batch."""

    index: int
    start: float              # window start (simulated seconds)
    end: float                # window end (simulated seconds)
    queries_issued: int       # delta over this batch
    queries_satisfied: int    # delta over this batch
    duplicate_deliveries: int
    late_deliveries: int
    pending_queries: int      # open queries at the window end
    wall_seconds: float

    @property
    def queries_per_second(self) -> float:
        """Wall-clock throughput (0 when the batch issued nothing)."""
        if self.wall_seconds <= 0.0 or self.queries_issued == 0:
            return 0.0
        return self.queries_issued / self.wall_seconds

    @property
    def deterministic_fields(self) -> Tuple[float, ...]:
        """Everything except wall-clock — the parallel==serial payload."""
        return (
            self.index,
            self.start,
            self.end,
            self.queries_issued,
            self.queries_satisfied,
            self.duplicate_deliveries,
            self.late_deliveries,
            self.pending_queries,
        )


class ServeSession:
    """One fitted network serving query batches until finalized."""

    def __init__(
        self,
        trace: ContactTrace,
        scheme: CachingScheme,
        workload: WorkloadConfig,
        config: Optional[SimulatorConfig] = None,
        recorder: Optional[TraceRecorder] = None,
        health: Optional[HealthMonitor] = None,
    ):
        self.simulator = Simulator(trace, scheme, workload, config, recorder)
        self.simulator.start_session()
        self.health = health
        if health is not None:
            health.attach(self.simulator)
        self._rounds_advanced = 0
        self._batch_index = 0
        self._finalized = False

    @property
    def query_period(self) -> float:
        return self.simulator.workload.query_generation_period

    @property
    def batches_run(self) -> int:
        return self._batch_index

    def run_batch(self, rounds: int = 1) -> BatchResult:
        """Advance the session by *rounds* query rounds and time it."""
        if self._finalized:
            raise ConfigurationError("session already finalized")
        if rounds < 1:
            raise ConfigurationError("a batch must cover at least one round")
        period = self.query_period
        warmup_end = self.simulator.warmup_end
        # Window edges by index multiplication (same anti-drift rule as
        # the round schedule), so batch boundaries and round times agree
        # for arbitrarily long sessions.
        start = warmup_end + self._rounds_advanced * period
        self._rounds_advanced += rounds
        until = warmup_end + self._rounds_advanced * period
        metrics = self.simulator.metrics
        before = (
            metrics.queries_issued,
            metrics.queries_satisfied,
            metrics.duplicate_deliveries,
            metrics.late_deliveries,
        )
        began = time.perf_counter()
        self.simulator.advance_session(until)
        wall = time.perf_counter() - began
        batch = BatchResult(
            index=self._batch_index,
            start=start,
            end=until,
            queries_issued=metrics.queries_issued - before[0],
            queries_satisfied=metrics.queries_satisfied - before[1],
            duplicate_deliveries=metrics.duplicate_deliveries - before[2],
            late_deliveries=metrics.late_deliveries - before[3],
            pending_queries=metrics.pending_queries(until),
            wall_seconds=wall,
        )
        if self.health is not None:
            # Health windows share the batch's simulated-time edges, so
            # their deltas tile the session exactly (delta-consistency
            # is asserted against the collector at finalize time).
            self.health.observe_window(self._batch_index, start, until)
        self._batch_index += 1
        return batch

    def finalize(self) -> SimulationResult:
        """Freeze the session's cumulative metrics."""
        self._finalized = True
        return self.simulator.finalize_session()


class ServeOutcome(NamedTuple):
    """Product of one serve session: frozen result, per-batch deltas,
    and — when health monitoring was requested — the health report.

    ``health`` is None on unmonitored sessions; ``memory`` is empty
    unless the session's config enabled ``mem_profile`` (RSS/heap are
    process counters, so they stay outside the deterministic payload).
    Every field is picklable, so outcomes cross the worker-pool
    boundary unchanged.
    """

    result: SimulationResult
    batches: List[BatchResult]
    health: Optional[HealthReport]
    memory: Tuple[MemorySample, ...] = ()


#: One picklable serve task:
#: (trace, factory, workload, config, batches, rounds, slo_rules, monitor)
_ServeTask = Tuple[
    ContactTrace,
    Callable[[], CachingScheme],
    WorkloadConfig,
    SimulatorConfig,
    int,
    int,
    Tuple[SLORule, ...],
    bool,
]


def _serve_task(task: _ServeTask) -> ServeOutcome:
    """Worker entry point; module-level so it pickles under any start method.

    The worker builds its own :class:`HealthMonitor` (monitors hold a
    simulator reference and are not picklable; frozen SLO rules are) and
    ships back only the frozen :class:`HealthReport`.  Monitored
    sessions additionally prove the snapshot stream delta-consistent
    with the final collector totals before returning.
    """
    trace, scheme_factory, workload, config, batches, rounds, rules, monitor = task
    health = HealthMonitor(rules) if (monitor or rules) else None
    session = ServeSession(trace, scheme_factory(), workload, config, health=health)
    batch_results = [session.run_batch(rounds) for _ in range(batches)]
    totals = session.simulator.metrics.totals()
    memory = tuple(session.simulator.memory.samples)
    result = session.finalize()
    report: Optional[HealthReport] = None
    if health is not None:
        report = health.report()
        check_health_consistency(report, totals, baseline=health.baseline)
    return ServeOutcome(result, batch_results, report, memory)


def serve_repeated(
    trace: ContactTrace,
    scheme_factory: Callable[[], CachingScheme],
    workload: WorkloadConfig,
    seeds: Sequence[int],
    batches: int,
    rounds_per_batch: int = 1,
    config: Optional[SimulatorConfig] = None,
    workers: Optional[int] = None,
    slo_rules: Sequence[SLORule] = (),
    monitor_health: bool = False,
) -> List[ServeOutcome]:
    """Run one serve session per seed, optionally on a process pool.

    Outcomes are returned in seed order; each task carries its pinned
    seed, so ``workers > 1`` reproduces the serial results bit for bit
    on every deterministic field (wall-clock times naturally differ).
    Health snapshots and SLO verdicts derive only from simulated time
    and collector counters, so they are part of that bitwise payload.
    The pool is the experiment runner's: a worker crash retries the
    unfinished sessions on a fresh pool, and a session's own exception
    propagates.
    """
    base = config or SimulatorConfig()
    rules = tuple(slo_rules)
    tasks: List[_ServeTask] = [
        (
            trace,
            scheme_factory,
            workload,
            dataclasses.replace(base, seed=seed),
            batches,
            rounds_per_batch,
            rules,
            monitor_health,
        )
        for seed in seeds
    ]
    return _execute_all(_serve_task, tasks, workers)


def summarize_throughput(batches: Sequence[BatchResult]) -> dict:
    """Whole-session throughput rollup for reports and the CLI.

    Total-safe on degenerate input: an empty batch list, zero-duration
    batches, and batches that issued nothing all roll up without
    division errors (rates report 0.0 when the denominator is empty).
    """
    queries = sum(b.queries_issued for b in batches)
    satisfied = sum(b.queries_satisfied for b in batches)
    wall = sum(b.wall_seconds for b in batches)
    sim_seconds = sum(b.end - b.start for b in batches)
    return {
        "batches": len(batches),
        "queries_issued": queries,
        "queries_satisfied": satisfied,
        "success_ratio": (satisfied / queries) if queries > 0 else 0.0,
        "wall_seconds": wall,
        "sim_seconds": sim_seconds,
        "queries_per_second": (queries / wall) if wall > 0 and queries else 0.0,
        "queries_per_sim_second": (
            (queries / sim_seconds) if sim_seconds > 0 and queries else 0.0
        ),
    }
