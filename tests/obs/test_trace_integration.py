"""End-to-end acceptance tests for the observability layer.

The contract under test: on a seeded ``run_comparison``-style scenario
(every scheme × every seed on one trace), the successful ratio, access
delay, and caching overhead that ``build_causality(events).metrics()``
reads from the lifecycle trace's delivery chains match the live counter
metrics **exactly** — bit for bit, not approximately — and recording
the trace does not perturb the run.
"""

import dataclasses
import math

import pytest

from repro.caching import (
    BundleCache,
    CacheData,
    IntentionalCaching,
    IntentionalConfig,
    NoCache,
    RandomCache,
)
from repro.experiments.runner import run_comparison
from repro.metrics.results import aggregate_results
from repro.obs import MemoryRecorder, build_causality, read_events
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig

SEEDS = (3, 4)


def _factories():
    return {
        "intentional": lambda: IntentionalCaching(
            IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)
        ),
        "nocache": NoCache,
        "randomcache": RandomCache,
        "cachedata": CacheData,
        "bundlecache": BundleCache,
    }


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticTraceConfig(
            name="obs-acceptance",
            num_nodes=12,
            duration=4 * DAY,
            total_contacts=2500,
            granularity=60.0,
            seed=6,
        )
    )


@pytest.fixture(scope="module")
def workload():
    return WorkloadConfig(mean_data_lifetime=12 * HOUR, mean_data_size=30 * MEGABIT)


def _assert_results_identical(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), field.name
        else:
            assert x == y, field.name


def _float_eq(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


class TestTraceCounterConsistency:
    def test_derived_metrics_match_counters_exactly_across_comparison(
        self, trace, workload
    ):
        """The acceptance criterion: run the full scheme × seed grid with
        tracing on; the trace-derived ratio/delay/overhead must equal the
        counter metrics exactly, per run, and the traced runs must
        aggregate to exactly what the untraced ``run_comparison`` gives
        (tracing is observation, not perturbation)."""
        factories = _factories()
        untraced = run_comparison(trace, factories, workload, seeds=SEEDS)
        for name, factory in factories.items():
            per_seed = []
            for seed in SEEDS:
                recorder = MemoryRecorder()
                result = Simulator(
                    trace, factory(), workload, SimulatorConfig(seed=seed),
                    recorder=recorder,
                ).run()  # run() itself cross-checks via check_trace_consistency
                per_seed.append(result)
                derived = build_causality(recorder.events).metrics()
                assert derived.queries_issued == result.queries_issued, name
                assert derived.queries_satisfied == result.queries_satisfied, name
                assert derived.successful_ratio == result.successful_ratio, name
                assert _float_eq(derived.mean_access_delay, result.mean_access_delay), name
                assert derived.caching_overhead == result.caching_overhead, name
                assert derived.data_generated == result.data_generated, name
                assert derived.delivery_events == result.responses_delivered, name
            _assert_results_identical(aggregate_results(per_seed), untraced[name])

    def test_jsonl_round_trip_preserves_derivation(self, trace, workload, tmp_path):
        """Writing the trace to disk and reading it back must not change
        the derived metrics — JSON round-trips every float exactly."""
        path = tmp_path / "run.jsonl"
        recorder = MemoryRecorder()
        result = Simulator(
            trace,
            IntentionalCaching(IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)),
            workload,
            SimulatorConfig(seed=5, trace_path=str(path)),
        ).run()
        # trace_path and an explicit recorder are mutually exclusive paths;
        # run again in memory on the same seed for the reference stream.
        Simulator(
            trace,
            IntentionalCaching(IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)),
            workload,
            SimulatorConfig(seed=5),
            recorder=recorder,
        ).run()
        from_disk = build_causality(read_events(path)).metrics()
        from_memory = build_causality(recorder.events).metrics()
        assert from_disk == from_memory
        assert from_disk.successful_ratio == result.successful_ratio
        assert _float_eq(from_disk.mean_access_delay, result.mean_access_delay)
        assert from_disk.caching_overhead == result.caching_overhead

    def test_tracing_does_not_perturb_the_run(self, trace, workload):
        baseline = Simulator(
            trace, NoCache(), workload, SimulatorConfig(seed=9)
        ).run()
        traced = Simulator(
            trace, NoCache(), workload, SimulatorConfig(seed=9),
            recorder=MemoryRecorder(),
        ).run()
        _assert_results_identical(baseline, traced)

    def test_trace_hooks_compose_with_invariant_validation(self, trace, workload):
        """Satellite 5: the occupancy invariant and the trace hooks run
        together on a full simulation without tripping."""
        recorder = MemoryRecorder()
        result = Simulator(
            trace,
            IntentionalCaching(IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)),
            workload,
            SimulatorConfig(seed=7, validate_invariants=True),
            recorder=recorder,
        ).run()
        assert 0.0 <= result.successful_ratio <= 1.0
        kinds = {event.kind for event in recorder.events}
        from repro.obs import TraceEventKind

        assert TraceEventKind.DATA_GENERATED in kinds
        assert TraceEventKind.QUERY_CREATED in kinds
        assert TraceEventKind.SAMPLE in kinds
