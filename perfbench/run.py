"""Repository benchmark: end-to-end and per-layer metrics of ``repro``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig10_point --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations, and ``metrics``.  Everything
else (progress, the span tree) goes to standard error.

Each run is one process, so nothing — the RSS high-water mark, the
shared path-weight cache, lazy imports — leaks between workloads.  A run

1. builds the workload from ``--seed`` and runs one untimed set-up +
   operation: lazy imports and first-call set-up finish here, and its
   output is the reference every timed operation must reproduce;
2. repeats set-up + operation for ``--seconds``, each cycle from a
   collected heap and an empty path-weight cache (as in a fresh
   process).  ``--trace 0`` times them with the :class:`SliceClock`
   only and reports the end-to-end metrics; ``--trace 1`` installs the
   outside-in layer tracer of :mod:`layers` and reports per-layer
   metrics per cycle;
3. verifies the reference against an independent accounting path (each
   workload's ``verify``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

#: a run times at least this many operations, however long they take
MIN_OPS = 5

#: simulator events per slice of the slice clock
SLICE_EVENTS = 20

Metrics = Dict[str, Tuple[float, str]]


class SliceClock:
    """Cuts every operation into the same short slices and times them.

    Operations repeat identical work, so a slice's spread across them is
    the machine's noise — other tenants, frequency changes — which only
    ever adds time and comes and goes within seconds.  A whole
    operation averages the slow moments in; a slice of a few
    milliseconds often runs in a quiet one.  So the operation's latency
    is rebuilt as the sum over slices of each slice's fastest time
    (:meth:`latency`), which estimates the program's own cost and stays
    steady from run to run where the median operation time does not.

    Slices are cut at every :data:`SLICE_EVENTS`-th simulator event and
    at every step boundary the workload reports (one finished
    simulation or served session): the clock wraps the handlers the
    event engine registers, adding one counter decrement per event.
    """

    def __init__(self) -> None:
        self.marks: List[float] = []
        self._left = SLICE_EVENTS

    def start(self) -> None:
        self._left = SLICE_EVENTS
        self.marks = [perf_counter()]

    def boundary(self, _simulator=None) -> None:
        self.marks.append(perf_counter())

    def slices(self) -> List[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    @staticmethod
    def latency(runs: List[List[float]]) -> float:
        """Sum over slices of the fastest time of each slice."""
        return sum(min(times) for times in zip(*runs))

    @contextmanager
    def installed(self) -> Iterator["SliceClock"]:
        from repro.sim.engine import EventEngine

        original = EventEngine.register
        clock = self

        def register(engine, kind, handler):
            def counted(event):
                clock._left -= 1
                if not clock._left:
                    clock._left = SLICE_EVENTS
                    clock.marks.append(perf_counter())
                return handler(event)

            return original(engine, kind, counted)

        EventEngine.register = register
        try:
            yield self
        finally:
            EventEngine.register = original


def _fresh() -> None:
    from repro.graph.weight_cache import shared_weight_cache

    gc.collect()
    shared_weight_cache().clear()


def _cycle(workload, clock: SliceClock) -> Tuple[float, List[float], object]:
    """One set-up + operation from a fresh state: (set-up s, op slices, outcome)."""
    _fresh()
    started = perf_counter()
    state = workload.setup()
    setup_s = perf_counter() - started
    clock.start()
    outcome = workload.op(state, clock.boundary)
    clock.boundary()
    return setup_s, clock.slices(), outcome


def _measure(seconds: float, reference, cycle: Callable[[], Tuple]) -> Dict:
    """Repeat *cycle* for *seconds*; keep the times of correct cycles."""
    setups: List[float] = []
    slices: List[List[float]] = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or attempted < MIN_OPS:
        attempted += 1
        try:
            setup_s, op_slices, outcome = cycle()
        except Exception:  # the benchmark must report, not crash
            traceback.print_exc()
            failed += 1
            continue
        if outcome.summary != reference.summary or (
            slices and len(op_slices) != len(slices[0])
        ):
            print(f"operation {attempted} diverged from the reference", file=sys.stderr)
            failed += 1
            continue
        setups.append(setup_s)
        slices.append(op_slices)
    return {"attempted": attempted, "failed": failed, "setups": setups, "slices": slices}


def _end_to_end(workload, reference, seconds: float) -> Tuple[Dict, Metrics]:
    from repro.obs.memory import peak_rss_bytes

    clock = SliceClock()
    with clock.installed():
        run = _measure(seconds, reference, lambda: _cycle(workload, clock))
    slices, setups = run["slices"], run["setups"]
    if not slices:
        return run, {}
    latency = SliceClock.latency(slices)
    ops = [sum(op) for op in slices]
    print(
        f"{len(ops)} ops of {len(slices[0])} slices: latency {1e3 * latency:.1f} ms; "
        f"op median {1e3 * statistics.median(ops):.1f} ms, min {1e3 * min(ops):.1f} ms; "
        f"set-up median {1e3 * statistics.median(setups):.1f} ms",
        file=sys.stderr,
    )
    return run, {
        "latency_ms": (1e3 * latency, "ms"),
        "peak_rss_mb": (peak_rss_bytes() / 2**20, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _per_layer(workload, reference, seconds: float) -> Tuple[Dict, Metrics]:
    from layers import LAYERS, LayerTracer
    from repro.graph.weight_cache import shared_weight_cache
    from repro.obs.memory import SUBSYSTEMS

    tracer = LayerTracer()
    totals: Dict[str, float] = {"hits": 0, "lookups": 0, "wc_hits": 0, "wc_misses": 0}
    resident: Dict[str, float] = {name: 0.0 for name in SUBSYSTEMS}
    finished: List = []

    def traced_cycle():
        _fresh()
        started = perf_counter()
        with tracer.span("setup"):
            state = workload.setup()
        ready = perf_counter()
        with tracer.span("op"):
            outcome = workload.op(state, finished.append)
        op_s = perf_counter() - ready
        # Counters and byte accountants are read outside every span.
        cache = shared_weight_cache()
        totals["wc_hits"] += cache.hits
        totals["wc_misses"] += cache.misses
        for sim in finished:
            totals["hits"] += sim.metrics.cache_hits
            totals["lookups"] += sim.metrics.cache_lookups
            for name, nbytes in sim.memory_breakdown().items():
                resident[name] += nbytes / len(finished)
        finished.clear()
        return ready - started, [op_s], outcome

    with tracer.installed():
        for label in tracer.missing:
            print(f"layer entry point not found: {label}", file=sys.stderr)
        run = _measure(seconds, reference, traced_cycle)
    cycles = max(run["attempted"] - run["failed"], 1)
    print(tracer.render(cycles), file=sys.stderr)

    def ratio(useful: float, attempts: float) -> float:
        return useful / attempts if attempts else 0.0

    metrics: Metrics = {}
    for name in LAYERS:
        stats = tracer.layers[name]
        metrics[f"{name}.calls"] = (stats.calls / cycles, "count")
        metrics[f"{name}.self_ms"] = (1e3 * stats.self_s / cycles, "ms")
    for span in ("setup", "op"):
        stats = tracer.paths.get((span,))
        metrics[f"{span}.self_ms"] = (1e3 * stats.self_s / cycles if stats else 0.0, "ms")
    for counter, name in (
        ("forwarded", "routing.forward_ratio"),
        ("responded", "response.respond_ratio"),
        ("moved", "replacement.move_ratio"),
    ):
        attempts, useful = tracer.outcomes[counter]
        metrics[name] = (ratio(useful, attempts), "ratio")
    metrics["sim.events"] = (tracer.outcomes["events"][1] / cycles, "count")
    lookups = totals["wc_hits"] + totals["wc_misses"]
    metrics["path_weights.hit_ratio"] = (ratio(totals["wc_hits"], lookups), "ratio")
    metrics["path_weights.misses"] = (totals["wc_misses"] / cycles, "count")
    metrics["cache_hits"] = (totals["hits"] / cycles, "count")
    metrics["cache_hit_ratio"] = (ratio(totals["hits"], totals["lookups"]), "ratio")
    for name, nbytes in resident.items():
        metrics[f"mem.{name}"] = (nbytes / cycles / 2**20, "MB")
    if run["slices"]:
        cycle_s = statistics.median(s + o for s, (o,) in zip(run["setups"], run["slices"]))
        metrics["traced.cycle_ms"] = (1e3 * cycle_s, "ms")
    return run, metrics


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    _, _, reference = _cycle(workload, SliceClock())
    problems = workload.check(reference)
    measure = _per_layer if args.trace else _end_to_end
    run, metrics = measure(workload, reference, args.seconds)
    try:
        problems += workload.verify(reference)
    except Exception as exc:  # a failed cross-check raises; report it
        traceback.print_exc()
        problems.append(f"verification raised {exc!r}")
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    result = {
        "correct": not problems and run["failed"] == 0 and bool(metrics),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
