"""Memory-footprint observability: byte attribution + process telemetry.

The 10⁵-node runs are footprint-bound, not time-bound, and ``ru_maxrss``
alone cannot say *which* subsystem holds the bytes.  This module closes
that gap with two complementary instruments:

* **Subsystem accountants** — every major state holder (contact graph,
  per-node buffers, metrics collector, workload catalogue, event queue,
  path-weight cache, scheme state, observability buffers) registers a
  deterministic ``nbytes()`` callable under a name from
  :data:`SUBSYSTEMS`.  :meth:`Simulator.memory_breakdown` sums them at
  any instant — no sampling, no process counters, reproducible.
* **Memory columns** — under ``mem_profile`` a :class:`MemoryMonitor`
  fills the memory columns of each
  :class:`~repro.obs.timeseries.TelemetryRow` the simulator builds:
  peak RSS (:func:`peak_rss_bytes`), the tracemalloc Python heap (when
  tracing) and the duty-cycled accountant breakdown.  The rows persist
  in ``timeseries.jsonl`` (simulate) and ``health.jsonl`` (serve).

Both live **outside** the frozen :class:`~repro.metrics.results.
SimulationResult`: process counters differ between workers, so they
travel next to the results like wall-clock throughput does, and the
bitwise serial==workers contract never sees them.  Filling follows the
``.enabled`` zero-overhead convention — the shared
:data:`NULL_MEMORY_MONITOR` makes a profiling-off run pay one attribute
read per row, and refuses work that reaches it unguarded.

:func:`check_memory_consistency` is the honesty invariant: the
accountant sum must reconcile against the tracemalloc-reported heap
within a documented tolerance, so the attribution cannot silently rot
into fiction as subsystems grow new containers.
"""

from __future__ import annotations

import math
import resource
import sys
import time
import tracemalloc
from types import ModuleType
from typing import Any, Callable, Dict, Mapping, Optional, Set

import numpy as np

from repro.errors import ConfigurationError, TraceConsistencyError

__all__ = [
    "SUBSYSTEMS",
    "peak_rss_bytes",
    "deep_sizeof",
    "MemoryMonitor",
    "NullMemoryMonitor",
    "NULL_MEMORY_MONITOR",
    "check_memory_consistency",
    "render_memory_breakdown",
]

#: The attribution universe.  Accountants register under exactly these
#: names; ``tests/obs/test_memory_lint.py`` AST-reads this literal
#: and demands (a) the simulator registers every name and (b) the test
#: corpus cross-checks each against an ``oracle_nbytes_<name>`` oracle.
SUBSYSTEMS = {
    "contact_graph": "contact-graph CSR arrays and derived views, and the online rate-estimator state",
    "nodes": "per-node state: cache buffers, own data, popularity tables, bundle routing state",
    "scheme": "caching-scheme state: NCL selection, routers, response strategy",
    "weight_cache": "shared PathWeightCache array payloads (path-weight memo)",
    "metrics": "MetricsCollector open/satisfied query maps, running sums and delay sketches",
    "workload": "workload catalogue: retained data items and popularity indices",
    "events": "event-engine queue of scheduled simulation events",
    "observability": "trace recorder, registry instruments and time-series rows",
}

_MB = float(2**20)


def peak_rss_bytes() -> int:
    """Process peak RSS (high-water mark) in bytes.

    ``resource.getrusage`` reports ``ru_maxrss`` in KiB on Linux but in
    bytes on macOS; this is the one place that unit quirk lives (the
    large-scale benches and the monitor both call through here).
    """
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        return peak
    return peak * 1024


#: containers the deep walk descends into element by element
_CONTAINERS = (list, tuple, set, frozenset)


def deep_sizeof(obj: Any, seen: Optional[Set[int]] = None) -> int:
    """Recursive ``sys.getsizeof`` over an object graph.

    Walks dicts, sequences, sets, numpy arrays and plain objects
    (``__dict__`` / ``__slots__``), counting every reachable object
    once per call (``seen`` dedups shared references).  Callables,
    modules and classes are fenced off — they are code, not state, and
    walking them would drag in the whole interpreter.  Pre-seeding
    ``seen`` with object ids is how one subsystem's accountant excludes
    state owned (and counted) by another.
    """
    if seen is None:
        seen = set()
    total = 0
    stack = [obj]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        ident = id(current)
        if ident in seen:
            continue
        seen.add(ident)
        if isinstance(current, (type, ModuleType, type(peak_rss_bytes))) or callable(
            current
        ):
            continue
        if isinstance(current, np.ndarray):
            # getsizeof covers header + data for owning arrays but only
            # the header for views; nbytes of the base is counted when
            # (if) the walk reaches the base itself.
            total += int(current.__sizeof__())
            continue
        try:
            total += sys.getsizeof(current)
        except TypeError:  # pragma: no cover - exotic extension types
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, _CONTAINERS):
            stack.extend(current)
        elif isinstance(current, (str, bytes, bytearray, int, float, complex, bool)):
            continue
        else:
            attrs = getattr(current, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            slots = getattr(type(current), "__slots__", ())
            for name in slots if isinstance(slots, (list, tuple)) else (slots,):
                if isinstance(name, str) and hasattr(current, name):
                    stack.append(getattr(current, name))
    return total


class MemoryMonitor:
    """Accountant registry + memory-column filler behind one ``enabled`` flag.

    Construction is cheap (the accountants are zero-argument closures);
    the cost lives entirely in :meth:`columns`, which hook sites only
    reach through an ``enabled`` guard.

    The attribution walk is the expensive part of a fill (a deep sizeof
    over every subsystem), so :meth:`columns` **duty-cycles** it: after
    each full breakdown the next one is scheduled no sooner than
    ``cost / breakdown_budget`` wall-seconds later, and rows in between
    carry the latest attribution forward.  That bounds enabled-mode
    overhead near ``breakdown_budget`` (a fraction of wall time) at any
    scale — the bench guard's ``_memory`` twin holds the total under 5%.
    The cheap columns (peak RSS, tracemalloc heap) are read on every
    fill regardless.
    """

    #: hook sites fill no memory columns when this is False
    enabled: bool = True

    def __init__(
        self,
        accountants: Optional[Mapping[str, Callable[[], int]]] = None,
        breakdown_budget: float = 0.02,
    ) -> None:
        if not (0.0 < breakdown_budget <= 1.0):
            raise ConfigurationError("breakdown_budget must be in (0, 1]")
        self._accountants: Dict[str, Callable[[], int]] = {}
        self.breakdown_budget = breakdown_budget
        self._last_breakdown: Optional[Dict[str, int]] = None
        self._next_breakdown_wall = 0.0
        for name, accountant in (accountants or {}).items():
            self.register(name, accountant)

    def register(self, name: str, accountant: Callable[[], int]) -> None:
        """Register subsystem *name*'s deterministic byte accountant."""
        if name not in SUBSYSTEMS:
            raise ConfigurationError(
                f"unknown memory subsystem {name!r}; add it to "
                f"repro.obs.memory.SUBSYSTEMS first"
            )
        if name in self._accountants:
            raise ConfigurationError(f"memory subsystem {name!r} already registered")
        self._accountants[name] = accountant

    @property
    def subsystems(self) -> "tuple[str, ...]":
        return tuple(sorted(self._accountants))

    def breakdown(self) -> Dict[str, int]:
        """Per-subsystem bytes right now (accountants, no sampling)."""
        return {name: int(fn()) for name, fn in sorted(self._accountants.items())}

    def columns(self) -> Dict[str, Any]:
        """The memory columns of a :class:`~repro.obs.timeseries.
        TelemetryRow`, by field name.

        The breakdown refreshes on the duty cycle described in the
        class docstring; ``rss_mb`` / ``py_heap_mb`` are always live.
        """
        wall = time.perf_counter()
        if self._last_breakdown is None or wall >= self._next_breakdown_wall:
            breakdown = self.breakdown()
            cost = time.perf_counter() - wall
            self._next_breakdown_wall = (
                time.perf_counter() + cost / self.breakdown_budget
            )
            self._last_breakdown = breakdown
        else:
            breakdown = self._last_breakdown
        heap = (
            tracemalloc.get_traced_memory()[0] / _MB
            if tracemalloc.is_tracing()
            else float("nan")
        )
        return {
            "rss_mb": peak_rss_bytes() / _MB,
            "py_heap_mb": heap,
            "mem_accounted_mb": sum(breakdown.values()) / _MB,
            "mem_top": max(breakdown, key=breakdown.__getitem__) if breakdown else "",
            "mem_subsystems": breakdown,
        }


class NullMemoryMonitor(MemoryMonitor):
    """Profiling off: hook sites guard on ``enabled``, and work that
    reaches the shared instance anyway raises."""

    enabled = False

    def register(self, name: str, accountant: Callable[[], int]) -> None:
        raise ConfigurationError(
            "memory profiling is off; the null monitor takes no accountants"
        )

    def columns(self) -> Dict[str, Any]:
        raise ConfigurationError(
            "memory profiling is off; guard the hook on memory.enabled"
        )


#: Shared default monitor: stateless (it refuses work), so one instance
#: serves the process.
NULL_MEMORY_MONITOR = NullMemoryMonitor()


def check_memory_consistency(
    breakdown: Mapping[str, int],
    py_heap_bytes: float,
    min_coverage: float = 0.9,
    max_overcount: float = 1.5,
) -> None:
    """Prove the accountant sum reconciles against the traced heap.

    ``py_heap_bytes`` is ``tracemalloc.get_traced_memory()[0]`` with
    tracing started *before* the attributed state was built.  The
    accountants must attribute at least ``min_coverage`` of that heap to
    named subsystems (default 90% — the scale-out acceptance floor) and
    at most ``max_overcount`` × it.  The upper tolerance is deliberate:
    shared :class:`~repro.core.data.DataItem` references are attributed
    to *every* holder (a buffer copy and the catalogue both count the
    item), and ``sys.getsizeof`` headers differ slightly from the
    allocator's view — both effects are bounded well inside 1.5×.

    Raises :class:`~repro.errors.TraceConsistencyError` on violation.
    """
    if not (0.0 < min_coverage <= 1.0):
        raise ConfigurationError("min_coverage must be in (0, 1]")
    if max_overcount < 1.0:
        raise ConfigurationError("max_overcount must be >= 1")
    if not math.isfinite(py_heap_bytes) or py_heap_bytes <= 0:
        raise TraceConsistencyError(
            "memory consistency needs a positive traced heap; start "
            "tracemalloc before building the simulator"
        )
    accounted = float(sum(breakdown.values()))
    if accounted < min_coverage * py_heap_bytes:
        raise TraceConsistencyError(
            f"memory accountants cover only {accounted / py_heap_bytes:.1%} of "
            f"the traced Python heap ({accounted / _MB:.1f} of "
            f"{py_heap_bytes / _MB:.1f} MB; floor {min_coverage:.0%})"
        )
    if accounted > max_overcount * py_heap_bytes:
        raise TraceConsistencyError(
            f"memory accountants claim {accounted / py_heap_bytes:.2f}x the "
            f"traced Python heap ({accounted / _MB:.1f} vs "
            f"{py_heap_bytes / _MB:.1f} MB; ceiling {max_overcount:.2f}x)"
        )


# --- rendering --------------------------------------------------------------


def render_memory_breakdown(breakdown: Mapping[str, int]) -> str:
    """Per-subsystem bytes, largest first, with share-of-total."""
    total = sum(breakdown.values())
    lines = []
    for name in sorted(breakdown, key=breakdown.__getitem__, reverse=True):
        nbytes = breakdown[name]
        share = (nbytes / total) if total else 0.0
        lines.append(f"{name:>14s} {nbytes / _MB:10.1f} MB  {share:6.1%}")
    lines.append(f"{'total':>14s} {total / _MB:10.1f} MB")
    return "\n".join(lines)
