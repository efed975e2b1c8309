"""Turn a :class:`~repro.scenario.spec.ScenarioSpec` into a running
experiment.

Every builder here is a module-level function, so the scheme factories
handed to the parallel runner are picklable
(:func:`functools.partial` over frozen specs) — a scenario runs
bit-identically serial or fanned out over a process pool.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Optional

from repro.caching import (
    BundleCache,
    CacheData,
    CachingScheme,
    IntentionalCaching,
    IntentionalConfig,
    NoCache,
    RandomCache,
)
from repro.core.replacement import ReplacementPolicy
from repro.scenario.registry import SCHEMES, TRACE_SOURCES
from repro.scenario.spec import ScenarioSpec, SchemeSpec, TraceSpec
from repro.sim.simulator import SimulatorConfig
from repro.traces.catalog import STREAM_PRESETS, TRACE_PRESETS
from repro.traces.contact import ContactTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentResult

__all__ = [
    "build_trace",
    "build_scheme",
    "scheme_factory",
    "resolve_ncl_time_budget",
    "simulator_config",
    "run_scenario",
]

#: optional factory producing a replacement policy per run (Fig. 12 sweeps)
ReplacementFactory = Callable[[], ReplacementPolicy]


# --- scheme builders (registered under their scenario names) ---------------


@SCHEMES.register("intentional")
def _build_intentional(
    spec: SchemeSpec,
    ncl_time_budget: Optional[float],
    replacement: Optional[ReplacementPolicy],
) -> CachingScheme:
    return IntentionalCaching(
        IntentionalConfig(
            num_ncls=spec.num_ncls,
            ncl_time_budget=ncl_time_budget,
            response_strategy=spec.response_strategy,
            selection_strategy=spec.selection_strategy,
            reelect=spec.reelect,
            knn_k=spec.knn_k,
        ),
        replacement=replacement,
    )


def _register_baseline(name: str, cls) -> None:
    # The baselines take no parameters; they ignore the NCL knobs.
    SCHEMES.register(name, lambda spec, ncl_time_budget, replacement: cls())


_register_baseline("nocache", NoCache)
_register_baseline("randomcache", RandomCache)
_register_baseline("cachedata", CacheData)
_register_baseline("bundlecache", BundleCache)


# --- builders ---------------------------------------------------------------


def build_trace(spec: TraceSpec) -> ContactTrace:
    """Load the contact trace a spec names, via ``TRACE_SOURCES``.

    Streaming sources (``STREAM_PRESETS``) return a lazy
    :class:`~repro.traces.stream.StreamingTrace` rather than a
    materialised :class:`ContactTrace`; the simulator accepts either.
    """
    return TRACE_SOURCES.get(spec.name)(spec)


def resolve_ncl_time_budget(spec: ScenarioSpec) -> Optional[float]:
    """The NCL time budget T this scenario runs with.

    An explicit value wins; otherwise a preset trace (Table I or a
    streaming preset) supplies its published per-trace T (Sec. IV-B),
    and a non-preset trace leaves it ``None`` so the scheme's adaptive
    calibration runs at warm-up.  Streaming presets always carry an
    explicit T: the adaptive calibration samples all-pairs delays,
    which is exactly the O(N²) work the sparse path exists to avoid.
    """
    if spec.scheme.ncl_time_budget is not None:
        return spec.scheme.ncl_time_budget
    preset = TRACE_PRESETS.get(spec.trace.name)
    if preset is not None:
        return preset.ncl_time_budget
    stream_preset = STREAM_PRESETS.get(spec.trace.name)
    return stream_preset.ncl_time_budget if stream_preset is not None else None


def build_scheme(
    spec: SchemeSpec,
    ncl_time_budget: Optional[float] = None,
    replacement: Optional[ReplacementFactory] = None,
) -> CachingScheme:
    """Instantiate the scheme a spec names (one fresh scheme per run)."""
    builder = SCHEMES.get(spec.name)
    return builder(spec, ncl_time_budget, replacement() if replacement else None)


def scheme_factory(
    spec: ScenarioSpec,
    replacement: Optional[ReplacementFactory] = None,
) -> Callable[[], CachingScheme]:
    """A picklable zero-argument scheme factory for the runner."""
    return functools.partial(
        build_scheme, spec.scheme, resolve_ncl_time_budget(spec), replacement
    )


def simulator_config(
    spec: ScenarioSpec, trace_path: Optional[str] = None
) -> SimulatorConfig:
    """The :class:`SimulatorConfig` a scenario's run knobs describe."""
    run = spec.run
    return SimulatorConfig(
        seed=run.seed,
        graph_refresh_period=run.graph_refresh_period,
        sample_period=run.sample_period,
        validate_invariants=run.validate_invariants,
        trace_path=trace_path,
        profile=run.profile,
        timeseries=run.timeseries,
        sparse_graph=run.sparse_graph,
        mem_profile=run.mem_profile,
        dynamics=spec.dynamics if spec.dynamics else None,
    )


def run_scenario(
    spec: ScenarioSpec,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
    replacement: Optional[ReplacementFactory] = None,
) -> ExperimentResult:
    """Execute a scenario end-to-end: repetitions, telemetry, manifest.

    The manifest's hashed config is the scenario's
    :meth:`~repro.scenario.spec.ScenarioSpec.provenance_config` — runs
    launched from the same scenario file hash identically regardless of
    seed or worker count.
    """
    # Imported here, not at module top: repro.experiments imports this
    # package for its scheme-factory shim, so a top-level import would
    # make ``import repro.scenario`` order-dependent.
    from repro.experiments.runner import run_experiment

    return run_experiment(
        build_trace(spec.trace),
        scheme_factory(spec, replacement),
        spec.workload,
        spec.run.seeds,
        config=simulator_config(spec, trace_path=trace_path),
        workers=workers,
        scheme_info=spec.scheme.to_dict(),
        manifest_config=spec.provenance_config(),
    )
