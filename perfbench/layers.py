"""Outside-in layer tracer for the benchmark's ``--trace 1`` runs.

The tracer wraps the public entry points of each pipeline layer from
outside the program (class attributes and module functions are
replaced for the duration of a :meth:`LayerTracer.installed` block), so
the per-layer numbers need no hook inside ``repro``.  Every wrapped
call is a span: the tracer keeps the open-span stack, attributes each
span's elapsed wall time to its layer, and subtracts the time covered
by nested spans, so a layer's *self* time excludes the layers it calls
(NCL selection's path-weight kernels count under ``path_weights``, not
``ncl``).

Spans are aggregated in memory by path (``op/sim/scheme/routing``) and
written out once, at the end of the run.  The untraced ``--trace 0``
run never installs a wrapper, so end-to-end metrics carry no tracing
cost.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layers in pipeline order, each with the entry points that open a
#: span for it: ``(module, class name or None, attribute)``.  A class
#: target also covers every subclass that overrides the attribute, so
#: all five schemes, both routers and every replacement policy are seen.
LAYERS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    # trace ingest into the online rate estimator (Eq. 5)
    "ingest": [("repro.graph.estimator", "OnlineContactGraphEstimator", "record_contact")],
    # contact-graph snapshot and its publication to the scheme
    "graph": [
        ("repro.graph.estimator", "OnlineContactGraphEstimator", "snapshot"),
        ("repro.caching.base", "CachingScheme", "on_graph_updated"),
    ],
    # NCL selection: the Eq. 3 metric and the adaptive T calibration
    "ncl": [
        ("repro.core.ncl", None, "select_ncls_by"),
        ("repro.core.ncl", None, "calibrate_time_budget"),
    ],
    # Eq. 2 path weights behind the shared weight cache
    "path_weights": [
        ("repro.graph.weight_cache", "PathWeightCache", "weights"),
        ("repro.graph.weight_cache", "PathWeightCache", "weight_matrix"),
        ("repro.graph.weight_cache", "PathWeightCache", "knn_rows"),
        ("repro.graph.weight_cache", "PathWeightCache", "rate_tuples"),
    ],
    # scheme callbacks: push/pull bundle handling and housekeeping
    "scheme": [
        ("repro.caching.base", "CachingScheme", "on_contact"),
        ("repro.caching.base", "CachingScheme", "on_data_generated"),
        ("repro.caching.base", "CachingScheme", "on_query_generated"),
    ],
    # forwarding decisions of the push, query and response routers
    "routing": [
        ("repro.routing.gradient", "GradientRouter", "decide"),
        ("repro.routing.rate_gradient", "RateGradientRouter", "decide"),
    ],
    # Sec. V-C response decision and response delivery/forwarding
    "response": [
        ("repro.caching.base", "CachingScheme", "try_respond"),
        ("repro.caching.base", "CachingScheme", "process_responses"),
    ],
    # Sec. V-D pairwise exchange (Eq. 7 knapsack for the paper's scheme)
    "replacement": [("repro.core.replacement", "ReplacementPolicy", "exchange")],
    # data and query generation rounds
    "workload": [
        ("repro.workload.generator", "WorkloadProcess", "data_round"),
        ("repro.workload.generator", "WorkloadProcess", "query_round"),
    ],
    # metric collection and the per-sample timeline
    "metrics": [
        ("repro.metrics.collector", "MetricsCollector", "on_query_created"),
        ("repro.metrics.collector", "MetricsCollector", "on_cache_lookup"),
        ("repro.metrics.collector", "MetricsCollector", "record_delivery"),
        ("repro.metrics.collector", "MetricsCollector", "finalize"),
        ("repro.metrics.timeline", "TimelineRecorder", "record"),
    ],
    # the event loop; its self time is the simulator core (dispatch,
    # node state, contact handling) outside every layer above
    "sim": [("repro.sim.engine", "EventEngine", "run")],
}

#: Useful-outcome counters read from a wrapped call's return value,
#: keyed by entry point: attribute → (counter name, value of one call).
OUTCOMES: Dict[str, Tuple[str, Callable[[object], float]]] = {
    "decide": ("forwarded", lambda decision: float(decision.transfers)),
    "try_respond": ("responded", lambda responded: float(responded is True)),
    "exchange": ("moved", lambda result: float(result.moved > 0)),
    "run": ("events", lambda processed: float(processed)),
}


class Stats:
    """Aggregate of the spans of one layer or one span path."""

    __slots__ = ("calls", "self_s", "cum_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.cum_s = 0.0


class LayerTracer:
    """Span stack plus per-layer and per-path aggregates (one per run)."""

    def __init__(self) -> None:
        # Open frames: [name, start, time covered by child spans].
        self._stack: List[List[object]] = []
        self.layers: Dict[str, Stats] = {name: Stats() for name in LAYERS}
        self.paths: Dict[Tuple[str, ...], Stats] = {}
        #: (counter name) → [attempts, useful outcomes]
        self.outcomes: Dict[str, List[float]] = {
            name: [0.0, 0.0] for name, _ in OUTCOMES.values()
        }
        self.missing: List[str] = []

    # --- spans ---------------------------------------------------------

    def _close(self, name: str, started: float, child: float) -> None:
        elapsed = perf_counter() - started
        path = tuple(frame[0] for frame in self._stack) + (name,)  # type: ignore[misc]
        own = max(elapsed - child, 0.0)
        node = self.paths.setdefault(path, Stats())
        node.calls += 1
        node.self_s += own
        node.cum_s += elapsed
        layer = self.layers.get(name)
        if layer is not None:
            layer.self_s += own
            # A layer re-entered from inside itself (a scheme hook calling
            # its base class) is one call: calls and cumulative time count
            # the outermost span only.
            if name not in path[:-1]:
                layer.calls += 1
                layer.cum_s += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed  # type: ignore[operator]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (``setup``, ``op``)."""
        started = perf_counter()
        self._stack.append([name, started, 0.0])
        try:
            yield
        finally:
            frame = self._stack.pop()
            self._close(name, started, frame[2])  # type: ignore[arg-type]

    def _wrap(self, layer: str, attr: str, original: Callable) -> Callable:
        stack = self._stack
        close = self._close
        counter, outcome = OUTCOMES.get(attr, (None, None))
        tally = self.outcomes.get(counter) if counter else None

        def traced(*args, **kwargs):
            started = perf_counter()
            stack.append([layer, started, 0.0])
            try:
                result = original(*args, **kwargs)
            finally:
                frame = stack.pop()
                close(layer, started, frame[2])
            if tally is not None:
                tally[0] += 1
                tally[1] += outcome(result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        traced.__name__ = getattr(original, "__name__", attr)
        return traced

    # --- installation --------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every layer entry point; restore the originals on exit."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for layer, targets in LAYERS.items():
                for module_name, class_name, attr in targets:
                    self._install(layer, module_name, class_name, attr, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(
        self,
        layer: str,
        module_name: str,
        class_name: Optional[str],
        attr: str,
        undo: List[Tuple[object, str, object]],
    ) -> None:
        label = ".".join(p for p in (module_name, class_name, attr) if p)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(label)
            return
        if class_name is None:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(label)
                return
            wrapper = self._wrap(layer, attr, original)
            # Callers that imported the function by name hold their own
            # reference: replace it in every loaded package module.
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(loaded, attr, None) is original:
                    undo.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)
            return
        base = getattr(module, class_name, None)
        if base is None or not hasattr(base, attr):
            self.missing.append(label)
            return
        for cls in _with_subclasses(base):
            if attr in cls.__dict__:
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(layer, attr, original))

    # --- reporting -----------------------------------------------------

    def render(self, cycles: int) -> str:
        """The span tree aggregated by path, per traced cycle, as text."""
        children: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
        for path in self.paths:
            children.setdefault(path[:-1], []).append(path)
        lines = [f"{'span':<44} {'calls':>10} {'self ms':>10} {'cum ms':>10}"]

        def emit(path: Tuple[str, ...]) -> None:
            stats = self.paths[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(
                f"{label:<44} {stats.calls / cycles:>10.1f} "
                f"{1e3 * stats.self_s / cycles:>10.3f} "
                f"{1e3 * stats.cum_s / cycles:>10.3f}"
            )
            for child in sorted(children.get(path, []), key=lambda p: -self.paths[p].cum_s):
                emit(child)

        for root in sorted(children.get((), []), key=lambda p: -self.paths[p].cum_s):
            emit(root)
        return "\n".join(lines)


def _with_subclasses(cls: type) -> List[type]:
    """*cls* and every currently defined subclass."""
    found: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found
