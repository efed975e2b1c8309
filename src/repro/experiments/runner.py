"""Seeded execution helpers for the experiment harness.

Repetition over seeds — and the cross-scheme comparisons built on it —
is embarrassingly parallel: each task is a pure function of
``(trace, scheme_factory, workload, seed)``.  ``run_repeated`` and
``run_comparison`` accept a ``workers=`` argument that fans the tasks out
over a :class:`~concurrent.futures.ProcessPoolExecutor`; the default
stays strictly serial so determinism-sensitive tests and tiny sweeps pay
no pool overhead.

Parallel execution is bit-identical to serial execution: every run draws
only from seed-derived streams, results are collected in seed order, and
aggregation is order-stable.  The only requirement is picklability —
pass a module-level class or :func:`functools.partial` as the factory,
not a lambda or closure.

Fault tolerance: a crashed worker (OOM-killed child, segfaulting native
extension) breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`.
The seed→run mapping is **pinned at task construction** — each task tuple
carries its own seed — so retrying the unfinished tasks on a fresh pool
(in whatever worker order) reproduces exactly the results the original
pool would have produced.  Deterministic task exceptions are *not*
retried; they propagate immediately.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.caching.base import CachingScheme
from repro.errors import SimulationError
from repro.metrics.results import AggregateResult, SimulationResult, aggregate_results
from repro.obs.primitives import MetricsRegistry
from repro.obs.profile import merge_profiles
from repro.obs.provenance import build_manifest
from repro.obs.timeseries import merge_timeseries
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.contact import ContactTrace
from repro.workload.config import WorkloadConfig

__all__ = [
    "RunTelemetry",
    "ExperimentResult",
    "experiment_config",
    "run_single",
    "run_repeated",
    "run_comparison",
    "run_experiment",
]

#: One picklable unit of work for the process pool.  The trailing
#: SimulatorConfig is ``None`` for plain result-only runs; when present,
#: the worker also ships its telemetry back (see :class:`RunTelemetry`).
_Task = Tuple[
    ContactTrace,
    Callable[[], CachingScheme],
    WorkloadConfig,
    int,
    Optional[SimulatorConfig],
]

#: Fresh-pool attempts after worker crashes before giving up.
_MAX_POOL_RETRIES = 2

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass
class RunTelemetry:
    """Per-run telemetry shipped back from a worker process.

    Everything here is picklable and travels *next to* the frozen
    :class:`SimulationResult` (never inside it), so the bitwise
    parallel==serial contract on results is untouched.
    """

    seed: int
    registry: MetricsRegistry
    profile: Dict[str, Dict[str, float]]
    timeseries: List[Dict[str, object]] = field(default_factory=list)


#: What one task evaluates to: the result, plus telemetry when requested.
_Outcome = Tuple[SimulationResult, Optional[RunTelemetry]]


def run_single(
    trace: ContactTrace,
    scheme: CachingScheme,
    workload: WorkloadConfig,
    seed: int = 0,
) -> SimulationResult:
    """One seeded simulation run."""
    return Simulator(trace, scheme, workload, SimulatorConfig(seed=seed)).run()


def _execute_task(task: _Task) -> _Outcome:
    """Worker entry point; module-level so it pickles under any start method."""
    trace, scheme_factory, workload, seed, config = task
    if config is None:
        return run_single(trace, scheme_factory(), workload, seed=seed), None
    simulator = Simulator(
        trace,
        scheme_factory(),
        workload,
        dataclasses.replace(config, seed=seed),
    )
    result = simulator.run()
    telemetry = RunTelemetry(
        seed=seed,
        registry=simulator.registry,
        profile=simulator.profiler.as_dict(),
        timeseries=simulator.timeseries.records(),
    )
    return result, telemetry


def _execute_all(
    run: Callable[[_T], _R],
    tasks: Sequence[_T],
    workers: Optional[int],
    max_retries: int = _MAX_POOL_RETRIES,
) -> List[_R]:
    """Apply *run* to every task, serially or on a process pool,
    preserving input order.

    ``workers`` of ``None``/``0``/``1`` means serial — the default, so
    the pool (and its pickling constraints) is strictly opt-in.  *run*
    must be a module-level function so it pickles under any start
    method; every parallel runner of the package (the seeded runs here
    and :func:`repro.experiments.serve.serve_repeated`) goes through
    this one pool.

    The parallel path is fault-tolerant: results are slotted by *task
    index*, and when a worker crash breaks the pool the still-unfinished
    indices are resubmitted to a fresh pool.  Because every task tuple
    already carries its own seed, the retried runs are bit-identical to
    what the crashed pool would have produced — the seed→run mapping is
    never re-derived from completion or worker order.  Exceptions
    *raised by a task* (as opposed to a dying worker process) are
    deterministic and propagate immediately instead of being retried.
    """
    if not workers or workers <= 1 or len(tasks) <= 1:
        return [run(task) for task in tasks]
    results: Dict[int, _R] = {}
    pending = list(range(len(tasks)))
    for attempt in range(max_retries + 1):
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            futures = {index: pool.submit(run, tasks[index]) for index in pending}
            broken = False
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    # A worker died (crash/OOM/os._exit); every future
                    # still in flight on this pool fails the same way.
                    # Leave those slots empty and retry them on a fresh
                    # pool below.
                    broken = True
        pending = [index for index in pending if index not in results]
        if not broken or not pending:
            break
    if pending:
        raise SimulationError(
            f"parallel runner gave up on {len(pending)} task(s) after "
            f"{max_retries + 1} pool attempts (repeated worker crashes)"
        )
    # Slots are read back in task-index order, which is seed order; the
    # aggregate is therefore bitwise-identical to the serial path.
    return [results[index] for index in range(len(tasks))]


def run_repeated(
    trace: ContactTrace,
    scheme_factory: Callable[[], CachingScheme],
    workload: WorkloadConfig,
    seeds: Sequence[int],
    workers: Optional[int] = None,
    max_retries: int = _MAX_POOL_RETRIES,
) -> AggregateResult:
    """The paper's repetition protocol: same trace and scheme, several
    seeds for data/query randomness, aggregated with CIs.

    With ``workers > 1`` the seeds run on a process pool; results are
    aggregated in seed order either way, so the aggregate is identical —
    including across worker-crash retries, because each task carries its
    pinned seed (see :func:`_execute_all`).
    """
    tasks: List[_Task] = [
        (trace, scheme_factory, workload, seed, None) for seed in seeds
    ]
    outcomes = _execute_all(_execute_task, tasks, workers, max_retries)
    return aggregate_results([result for result, _ in outcomes])


def run_comparison(
    trace: ContactTrace,
    factories: Dict[str, Callable[[], CachingScheme]],
    workload: WorkloadConfig,
    seeds: Sequence[int],
    workers: Optional[int] = None,
    max_retries: int = _MAX_POOL_RETRIES,
) -> Dict[str, AggregateResult]:
    """All schemes on an identical trace + workload (paired comparison).

    With ``workers > 1`` the full (scheme × seed) grid is flattened into
    one task list so the pool stays busy across scheme boundaries.
    """
    names = list(factories)
    tasks: List[_Task] = [
        (trace, factories[name], workload, seed, None)
        for name in names
        for seed in seeds
    ]
    outcomes = _execute_all(_execute_task, tasks, workers, max_retries)
    per_scheme: Dict[str, List[SimulationResult]] = {name: [] for name in names}
    for (name, _seed), (result, _telemetry) in zip(
        ((name, seed) for name in names for seed in seeds), outcomes
    ):
        per_scheme[name].append(result)
    return {name: aggregate_results(per_scheme[name]) for name in names}


# --- full experiments with telemetry and provenance ------------------------


@dataclass
class ExperimentResult:
    """A repeated experiment plus its merged telemetry and provenance.

    The paper-facing numbers live in ``aggregate`` (mean ± 95% CI over
    the repetitions) and ``results`` (per-seed); the observability
    artefacts — merged metrics registry, merged profile, seed-tagged
    time-series rows — and the provenance ``manifest`` ride alongside.
    """

    aggregate: AggregateResult
    results: List[SimulationResult]
    registry: MetricsRegistry
    profile: Dict[str, Dict[str, float]]
    timeseries: List[Dict[str, object]]
    manifest: Dict[str, Any]


def experiment_config(
    trace: ContactTrace,
    scheme: Any,
    workload: WorkloadConfig,
    config: SimulatorConfig,
) -> Dict[str, Any]:
    """The deterministic inputs of an experiment, as a manifest config.

    *scheme* is any JSON-serialisable description — the scheme name, or
    a dict carrying its parameters too.  Output paths (``trace_path``)
    and the per-repetition ``seed`` are excluded: they vary between
    invocations of the *same* experiment, and the provenance hash must
    identify the experiment, not the invocation (seeds are recorded
    separately in the manifest).
    """
    sim_config = dataclasses.asdict(config)
    sim_config.pop("seed")
    sim_config.pop("trace_path")
    return {
        "trace": {
            "name": trace.name,
            "num_nodes": trace.num_nodes,
            "num_contacts": trace.num_contacts,
            "start_time": trace.start_time,
            "end_time": trace.end_time,
            "granularity": trace.granularity,
        },
        "scheme": scheme,
        "workload": dataclasses.asdict(workload),
        "simulator": sim_config,
    }


def _merge_telemetry(
    telemetries: Sequence[RunTelemetry],
) -> Tuple[MetricsRegistry, Dict[str, Dict[str, float]], List[Dict[str, object]]]:
    """Combine per-worker telemetry deterministically (seed order)."""
    ordered = sorted(telemetries, key=lambda t: t.seed)
    registry = MetricsRegistry()
    for telemetry in ordered:
        registry.merge(telemetry.registry)
    profile = merge_profiles(t.profile for t in ordered)
    timeseries = merge_timeseries((t.seed, t.timeseries) for t in ordered)
    return registry, profile, timeseries


def run_experiment(
    trace: ContactTrace,
    scheme_factory: Callable[[], CachingScheme],
    workload: WorkloadConfig,
    seeds: Sequence[int],
    config: Optional[SimulatorConfig] = None,
    workers: Optional[int] = None,
    max_retries: int = _MAX_POOL_RETRIES,
    scheme_info: Any = None,
    manifest_config: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Repeated runs with full telemetry and a provenance manifest.

    Like :func:`run_repeated`, but each worker additionally ships back
    its :class:`RunTelemetry` (metrics registry, profile, time-series),
    which is merged in seed order — ``workers > 1`` reports carry exactly
    the telemetry a serial sweep would (deterministic parts bit-equal;
    wall-clock span *times* naturally differ between machines).

    *scheme_info* overrides the scheme description recorded in the
    manifest (defaults to the scheme's name); pass a dict to capture the
    scheme's parameters in the config hash too.  *manifest_config*
    replaces the derived :func:`experiment_config` wholesale — the
    scenario layer passes its spec's provenance config here, so runs
    launched from the same scenario file hash identically.
    """
    base = config or SimulatorConfig()
    tasks: List[_Task] = [
        (trace, scheme_factory, workload, seed, base) for seed in seeds
    ]
    outcomes = _execute_all(_execute_task, tasks, workers, max_retries)
    results = [result for result, _ in outcomes]
    telemetries = [t for _, t in outcomes if t is not None]
    registry, profile, timeseries = _merge_telemetry(telemetries)
    if manifest_config is None:
        if scheme_info is None:
            scheme_info = scheme_factory().name
        manifest_config = experiment_config(trace, scheme_info, workload, base)
    manifest = build_manifest(manifest_config, list(seeds))
    return ExperimentResult(
        aggregate=aggregate_results(results),
        results=results,
        registry=registry,
        profile=profile,
        timeseries=timeseries,
        manifest=manifest,
    )
