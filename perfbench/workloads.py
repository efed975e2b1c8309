"""The benchmark's workloads.

Each workload has a *set-up* (what a user pays before the work: build
the contact traces, fit the serving networks) and an *operation* (the
work the end-to-end metrics time).  An operation covers several
*instances* — independent networks, each a fresh realization of the
workload's synthetic contact trace — so one run's figure averages over
networks instead of hanging on one draw of hub structure.  ``--seed``
picks the networks (and, for ``sparse_churn``, which nodes churn);
instance *i* always uses simulation seed ``7 + i`` (7 is the CLI's
default seed), so every run serves the same workload mix — the same
query volume and arrival bursts — on different networks.

Every operation of a run repeats the same work from a fresh set-up, so
operations are directly comparable: their outputs must match the first
one bit for bit, and ``run.SliceClock`` can filter the machine's noise
out of their times.  Operations call ``observe(simulator)`` after each
simulation or served session; the benchmark marks slice boundaries and
reads counters through it.

Why these three (each stresses a different part of the pipeline):

* ``fig10_point`` — the paper's comparison: five schemes per network,
  each a full warm-up + NCL selection + evaluation.  Dense graphs and
  the exact Eq. 3 metric; time goes to contact processing, routing and
  the Eq. 7 exchange.
* ``serve_bursty`` — ``repro serve --arrival bursty``: networks fitted
  in the set-up, then query batches under Markov-modulated bursts with
  the streaming collector.  No NCL selection in the timed work, so it
  isolates the per-contact and per-query path from the set-up path.
* ``sparse_churn`` — the scale-out path: streamed sparse-topology
  traces on adjacency-list storage, the k-NN truncated NCL metric, and
  node churn with central failures that force re-election.  Time goes
  to the sparse path-weight kernels, which the other two never run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, List, Tuple

import numpy as np

from repro.experiments.configs import scheme_factories
from repro.experiments.serve import ServeSession
from repro.graph.weight_cache import shared_weight_cache
from repro.obs.health import HealthMonitor, check_health_consistency
from repro.obs.recorder import MemoryRecorder
from repro.scenario import SchemeSpec, TraceSpec, build_scheme, build_trace
from repro.sim.dynamics import DynamicsConfig, DynamicsEvent
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.catalog import STREAM_PRESETS, TRACE_PRESETS
from repro.units import HOUR, MEGABIT
from repro.workload.config import WorkloadConfig

#: simulation seed of instance 0 (the CLI default); instance i uses +i
SIM_SEED = 7


@dataclass
class Outcome:
    """What one operation produced.

    ``summary`` holds every deterministic output, one entry per
    instance (``repr`` keeps floats exact and NaN comparable).
    """

    summary: Tuple[str, ...]
    detail: List[Any] = field(default_factory=list)


def _instance_traces(spec: TraceSpec, seed: int, count: int) -> List[TraceSpec]:
    """The trace specs of a run's instances: disjoint across seeds."""
    return [dataclasses.replace(spec, seed=count * seed + i) for i in range(count)]


def _result_problems(result) -> List[str]:
    """Invariants every simulation result satisfies by construction."""
    problems = []
    if result.queries_issued <= 0:
        problems.append(f"{result.name}: issued no queries")
    if not 0 <= result.queries_satisfied <= result.queries_issued:
        problems.append(f"{result.name}: satisfied count out of range")
    if result.queries_issued and result.successful_ratio != (
        result.queries_satisfied / result.queries_issued
    ):
        problems.append(f"{result.name}: ratio != satisfied/issued")
    if result.caching_overhead < 0:
        problems.append(f"{result.name}: negative caching overhead")
    return problems


class Fig10Point:
    """A Fig. 10 point: the five schemes of Sec. VI on six MIT Reality
    stand-ins (30% of the devices, a 1.5% time slice), K = 8,
    s_avg = 100 Mb and T_L = 0.2 x the evaluation window."""

    name = "fig10_point"
    TRACE = TraceSpec(name="mit_reality", node_factor=0.3, time_factor=0.015)
    INSTANCES = 6
    LIFETIME_FRACTION = 0.2

    def __init__(self, seed: int):
        self.traces = _instance_traces(self.TRACE, seed, self.INSTANCES)

    def setup(self):
        preset = TRACE_PRESETS[self.TRACE.name]
        factories = scheme_factories(
            num_ncls=preset.default_num_ncls, ncl_time_budget=preset.ncl_time_budget
        )
        instances = []
        for i, spec in enumerate(self.traces):
            trace = build_trace(spec)
            workload = WorkloadConfig(
                mean_data_lifetime=self.LIFETIME_FRACTION * trace.duration / 2.0,
                mean_data_size=100 * MEGABIT,
            )
            instances.append((trace, workload, SimulatorConfig(seed=SIM_SEED + i)))
        return factories, instances

    def op(self, state, observe: Callable[[Simulator], None]) -> Outcome:
        factories, instances = state
        summary, results = [], []
        for trace, workload, config in instances:
            point = []
            for factory in factories.values():
                sim = Simulator(trace, factory(), workload, config)
                point.append(sim.run())
                observe(sim)
            summary.append(repr(point))
            results.append(point)
        return Outcome(tuple(summary), results)

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        for point in outcome.detail:
            problems += [p for r in point for p in _result_problems(r)]
            by_name = {r.name: r for r in point}
            if len(by_name) != 5:
                problems.append("a point does not cover the five schemes")
            if by_name.get("nocache") and by_name["nocache"].caching_overhead != 0.0:
                problems.append("nocache cached data")
        return problems

    def verify(self, outcome: Outcome) -> List[str]:
        """Replay the paper's scheme on the first network with a
        lifecycle trace: the run cross-checks its counters against the
        trace-derived metrics (raising on any divergence), and tracing
        must not change the result."""
        factories, instances = self.setup()
        trace, workload, config = instances[0]
        shared_weight_cache().clear()
        recorded = Simulator(
            trace, factories["intentional"](), workload, config, MemoryRecorder()
        ).run()
        untraced = {r.name: r for r in outcome.detail[0]}["intentional"]
        return [] if repr(recorded) == repr(untraced) else ["traced run diverged"]


class ServeBursty:
    """``repro serve --arrival bursty``: six MIT Reality stand-ins (30%
    of the devices, a 15% time slice) fitted with K = 5, then 8 batches
    of one query round each per network, T_L = 72 h, streaming
    collector."""

    name = "serve_bursty"
    TRACE = TraceSpec(name="mit_reality", node_factor=0.3, time_factor=0.15)
    SCHEME = SchemeSpec(name="intentional", num_ncls=5)
    INSTANCES = 6
    BATCHES = 8

    def __init__(self, seed: int):
        self.traces = _instance_traces(self.TRACE, seed, self.INSTANCES)
        self.workload = WorkloadConfig(
            mean_data_lifetime=72 * HOUR,
            mean_data_size=100 * MEGABIT,
            arrival_process="bursty",
        )

    def _session(self, index: int, health: HealthMonitor = None) -> ServeSession:
        trace = build_trace(self.traces[index])
        scheme = build_scheme(self.SCHEME, TRACE_PRESETS[self.TRACE.name].ncl_time_budget)
        config = SimulatorConfig(seed=SIM_SEED + index, streaming_metrics=True)
        return ServeSession(trace, scheme, self.workload, config, health=health)

    def setup(self) -> List[ServeSession]:
        return [self._session(i) for i in range(self.INSTANCES)]

    def _serve(self, session: ServeSession):
        batches = [session.run_batch() for _ in range(self.BATCHES)]
        totals = session.simulator.metrics.totals()
        result = session.finalize()
        summary = repr((tuple(b.deterministic_fields for b in batches), result))
        return summary, (batches, result, totals)

    def op(self, sessions: List[ServeSession], observe: Callable[[Simulator], None]) -> Outcome:
        summary, detail = [], []
        for session in sessions:
            served, outputs = self._serve(session)
            summary.append(served)
            detail.append(outputs)
            observe(session.simulator)
        return Outcome(tuple(summary), detail)

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        for batches, result, _ in outcome.detail:
            problems += _result_problems(result)
            if sum(b.queries_issued for b in batches) != result.queries_issued:
                problems.append("batch deltas do not sum to the session total")
        return problems

    def verify(self, outcome: Outcome) -> List[str]:
        """Serve the first network again under a health monitor: its
        windowed deltas must tile the collector totals exactly (raising
        on any mismatch), and monitoring must not change a batch."""
        health = HealthMonitor()
        shared_weight_cache().clear()
        served, (_, _, totals) = self._serve(self._session(0, health))
        check_health_consistency(health.report(), totals, baseline=health.baseline)
        return [] if served == outcome.summary[0] else ["monitored serve diverged"]


class SparseChurn:
    """The sparse scale-out path under churn: two streamed ``sparse1e5``
    slices (100 nodes, 30% of the week) forced onto adjacency storage,
    K = 8 with re-election, and five dynamics events per network — two
    central failures, a node failure, a leave and a re-join."""

    name = "sparse_churn"
    TRACE = TraceSpec(name="sparse1e5", node_factor=0.001, time_factor=0.3)
    SCHEME = SchemeSpec(name="intentional", num_ncls=8, reelect=True)
    INSTANCES = 2
    LIFETIME_FRACTION = 0.3
    REFRESHES = 5

    def __init__(self, seed: int):
        self.traces = _instance_traces(self.TRACE, seed, self.INSTANCES)
        num_nodes = STREAM_PRESETS[self.TRACE.name].stream_config(
            node_factor=self.TRACE.node_factor
        ).num_nodes
        self.dynamics = []
        for spec in self.traces:
            churned, failed = np.random.default_rng(spec.seed).choice(
                num_nodes, 2, replace=False
            )
            self.dynamics.append(
                DynamicsConfig(
                    events=(
                        DynamicsEvent("fail_central", 0.2, central_rank=0),
                        DynamicsEvent("leave", 0.35, node=int(churned)),
                        DynamicsEvent("fail", 0.5, node=int(failed)),
                        DynamicsEvent("fail_central", 0.6, central_rank=1),
                        DynamicsEvent("join", 0.75, node=int(churned)),
                    )
                )
            )

    def setup(self):
        instances = []
        for i, (spec, dynamics) in enumerate(zip(self.traces, self.dynamics)):
            trace = build_trace(spec)
            workload = WorkloadConfig(
                mean_data_lifetime=self.LIFETIME_FRACTION * trace.duration,
                mean_data_size=100 * MEGABIT,
            )
            config = SimulatorConfig(
                seed=SIM_SEED + i,
                sparse_graph=True,
                dynamics=dynamics,
                graph_refresh_period=trace.duration / (2 * self.REFRESHES),
            )
            instances.append((trace, workload, config))
        return instances

    def _simulator(self, instance, recorder=None) -> Simulator:
        trace, workload, config = instance
        budget = STREAM_PRESETS[self.TRACE.name].ncl_time_budget
        return Simulator(trace, build_scheme(self.SCHEME, budget), workload, config, recorder)

    def op(self, instances, observe: Callable[[Simulator], None]) -> Outcome:
        summary, detail = [], []
        for instance in instances:
            sim = self._simulator(instance)
            result = sim.run()
            counters = sim.registry.snapshot()
            summary.append(repr((result, counters)))
            detail.append((result, counters, sim.scheme.graph.is_sparse))
            observe(sim)
        return Outcome(tuple(summary), detail)

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        for result, counters, sparse in outcome.detail:
            problems += _result_problems(result)
            if not sparse:
                problems.append("the run did not use sparse graph storage")
            if counters.get("sim.node_failures", 0) < 1 or counters.get("sim.node_joins", 0) < 1:
                problems.append("churn events did not fire")
            if counters.get("scheme.reelection_rounds", 0) < 1:
                problems.append("churn triggered no NCL re-election")
        return problems

    def verify(self, outcome: Outcome) -> List[str]:
        """Replay the first network with a lifecycle trace (the
        counter/trace cross-check runs on finalize); tracing must not
        change the result."""
        shared_weight_cache().clear()
        recorded = self._simulator(self.setup()[0], MemoryRecorder()).run()
        untraced = outcome.detail[0][0]
        return [] if repr(recorded) == repr(untraced) else ["traced run diverged"]


WORKLOADS = {cls.name: cls for cls in (Fig10Point, ServeBursty, SparseChurn)}
