"""Simulation orchestrator (paper Sec. VI-A experiment setup).

One :class:`Simulator` run executes the paper's protocol:

1. **Warm-up** — the first half of the trace only feeds the online
   contact-rate estimator ("the first half of the trace is used as the
   warm-up period for the accumulation of network information and
   subsequent NCL selection").
2. **Setup** — at the midpoint the scheme receives the graph snapshot and
   its :meth:`on_warmup_complete` hook runs (NCL selection for the
   intentional scheme).  Node buffers are drawn uniform in
   [buffer_min, buffer_max].
3. **Evaluation** — the second half replays contacts as discrete events
   interleaved with periodic data rounds (every T_L), query rounds
   (every T_L/2), caching-overhead samples, and contact-graph refreshes.

The run is a pure function of (trace, scheme, workload config, seed):
every random decision draws from a named child stream of the root seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Set, Union

from repro.caching.base import CachingScheme, SchemeServices
from repro.core.data import DataItem, Query
from repro.errors import ConfigurationError
from repro.graph.estimator import OnlineContactGraphEstimator
from repro.metrics.collector import MetricsCollector
from repro.metrics.results import SimulationResult
from repro.obs.causality import build_causality
from repro.obs.events import TraceEvent, TraceEventKind
from repro.obs.memory import NULL_MEMORY_MONITOR, MemoryMonitor, MemorySample, deep_sizeof
from repro.obs.primitives import MetricsRegistry
from repro.obs.profile import NULL_PROFILER, Profiler, maybe_span, set_active_profiler
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    MemoryRecorder,
    TraceRecorder,
)
from repro.obs.timeseries import NULL_SAMPLER, TimeSeriesSample, TimeSeriesSampler
from repro.rng import SeedSequenceFactory
from repro.sim.dynamics import DynamicsConfig, DynamicsEvent, NetworkDynamics
from repro.sim.engine import EventEngine
from repro.sim.events import Event, EventKind
from repro.sim.invariants import check_nodes, check_trace_consistency
from repro.sim.network import TransferBudget
from repro.sim.node import Node
from repro.traces.contact import Contact, ContactTrace
from repro.traces.stream import ContactStream
from repro.units import BLUETOOTH_EDR_BITS_PER_SECOND
from repro.workload.config import WorkloadConfig
from repro.workload.generator import WorkloadProcess

__all__ = ["SimulatorConfig", "Simulator"]


@dataclass(frozen=True)
class SimulatorConfig:
    """Run-level knobs independent of workload and scheme.

    Attributes
    ----------
    seed:
        Root seed; derives independent streams for buffers, workload, and
        scheme decisions.
    link_capacity:
        Contact link capacity in bits/second (2.1 Mb/s Bluetooth EDR).
    graph_refresh_period:
        Spacing of fresh contact-graph snapshots pushed to the scheme
        during evaluation; ``None`` picks 1/20 of the evaluation window.
        Each refresh builds a fresh snapshot.
    sample_period:
        Spacing of caching-overhead samples; ``None`` picks the workload's
        query period.
    dynamics:
        Optional :class:`repro.sim.dynamics.DynamicsConfig` schedule of
        churn and failure events applied during evaluation.  ``None``
        (default) keeps the network static — the paper's setup.
    validate_invariants:
        Audit node state after every contact (sanitizer mode; see
        :mod:`repro.sim.invariants`).  Off by default.
    trace_path:
        When set, the run writes its full lifecycle trace as JSONL to
        this path (consumed by ``python -m repro trace``).  A plain
        string, so configs stay picklable for the parallel runner.
    profile:
        Collect nestable wall-clock spans (:class:`repro.obs.profile.
        Profiler`) across the simulator, the scheme and the path-weight
        kernels.  Off by default; every span site guards on
        ``profiler.enabled``, so disabled runs pay one attribute read.
    timeseries:
        Record the extended per-sample telemetry
        (:class:`repro.obs.timeseries.TimeSeriesSampler`: per-node
        occupancy, per-NCL load, cache-hit ratio, pending queries) at
        every ``SAMPLE_METRICS`` event.  Off by default.
    streaming_metrics:
        Nothing reads it: every run takes the one bounded
        :class:`repro.metrics.collector.MetricsCollector` path.  Kept
        only so callers that still pass it keep working.
    mem_profile:
        Sample memory telemetry (peak RSS, tracemalloc heap when
        tracing, per-subsystem accountant breakdown) at every
        ``SAMPLE_METRICS`` event via :class:`repro.obs.memory.
        MemoryMonitor`.  Off by default; the hook guards on
        ``memory.enabled`` and the samples travel outside the frozen
        result, so enabling it cannot change any simulation outcome.
    sparse_graph:
        Storage mode of the estimator's contact-graph snapshots:
        ``True``/``False`` force adjacency-list/dense storage, ``None``
        (default) auto-selects by node count.  Sparse snapshots route
        NCL selection through the k-NN truncated metric and keep memory
        O(edges) — the 10⁵-node path.
    """

    seed: int = 0
    link_capacity: float = BLUETOOTH_EDR_BITS_PER_SECOND
    graph_refresh_period: Optional[float] = None
    sample_period: Optional[float] = None
    validate_invariants: bool = False
    trace_path: Optional[str] = None
    profile: bool = False
    timeseries: bool = False
    dynamics: Optional[DynamicsConfig] = None
    streaming_metrics: bool = False
    mem_profile: bool = False
    sparse_graph: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.link_capacity <= 0:
            raise ConfigurationError("link capacity must be positive")
        if self.graph_refresh_period is not None and self.graph_refresh_period <= 0:
            raise ConfigurationError("graph_refresh_period must be positive")
        if self.sample_period is not None and self.sample_period <= 0:
            raise ConfigurationError("sample_period must be positive")


class Simulator:
    """One trace-driven run of a caching scheme under a workload."""

    def __init__(
        self,
        trace: Union[ContactTrace, ContactStream],
        scheme: CachingScheme,
        workload: WorkloadConfig,
        config: Optional[SimulatorConfig] = None,
        recorder: Optional[TraceRecorder] = None,
    ):
        # A materialised trace knows it is empty up front; a lazy stream
        # (repro.traces.stream) is only discovered empty during warm-up.
        if isinstance(trace, ContactTrace) and trace.num_contacts == 0:
            raise ConfigurationError("cannot simulate an empty trace")
        self.trace = trace
        self.scheme = scheme
        self.workload = workload
        self.config = config or SimulatorConfig()

        # An explicit recorder wins; otherwise config.trace_path opens a
        # JSONL sink owned (and closed) by this run; otherwise tracing is
        # off and every hook reduces to one ``enabled`` check.
        self._owns_recorder = recorder is None and self.config.trace_path is not None
        if recorder is not None:
            self.recorder = recorder
        elif self.config.trace_path is not None:
            self.recorder = JsonlRecorder(self.config.trace_path)
        else:
            self.recorder = NULL_RECORDER

        self._factory = SeedSequenceFactory(self.config.seed)
        self.metrics = MetricsCollector()
        # Aggregate instruments are always on (an inc is one integer add);
        # spans and extended sampling are opt-in behind enabled guards.
        self.registry = MetricsRegistry()
        self.profiler: Profiler = Profiler() if self.config.profile else NULL_PROFILER
        self.timeseries: TimeSeriesSampler = (
            TimeSeriesSampler() if self.config.timeseries else NULL_SAMPLER
        )
        self.engine = EventEngine()
        self.estimator = OnlineContactGraphEstimator(
            num_nodes=trace.num_nodes,
            origin=trace.start_time,
            sparse=self.config.sparse_graph,
        )
        # Validates event node ids against the network size up front.
        self._dynamics: Optional[NetworkDynamics] = (
            NetworkDynamics(self.config.dynamics, trace.num_nodes)
            if self.config.dynamics
            else None
        )

        buffer_rng = self._factory.generator("buffers")
        self.nodes: List[Node] = [
            Node(
                node_id=i,
                buffer_capacity=int(
                    buffer_rng.uniform(workload.buffer_min, workload.buffer_max)
                ),
            )
            for i in range(trace.num_nodes)
        ]
        if self.recorder.enabled:
            for node in self.nodes:
                node.trace = self.recorder
        # The arrival process gets its own named stream: the default
        # periodic process never touches it, and stochastic processes
        # draw from it without perturbing the workload stream — same
        # seed, different arrival process, identical data catalogue.
        self.workload_process = WorkloadProcess(
            workload,
            trace.num_nodes,
            self._factory.generator("workload"),
            arrival_rng=self._factory.generator("workload.arrivals"),
        )
        # Accountants are always built (cheap closures over existing
        # attributes) so memory_breakdown() answers at any time; the
        # *sampling* monitor is opt-in behind the .enabled guard, same
        # zero-overhead convention as the profiler and sampler above.
        self._memory_accountants = self._build_memory_accountants()
        self.memory: MemoryMonitor = (
            MemoryMonitor(self._memory_accountants)
            if self.config.mem_profile
            else NULL_MEMORY_MONITOR
        )
        self._ran = False
        # Serve-mode (long-lived session) state; see start_session().
        self._session_active = False
        self._eval_contacts: List[Contact] = []
        self._serve_cycle = 0
        self._serve_index = 0
        self._round_cursor: Dict[EventKind, int] = {}
        # One-ahead contact feed: the live evaluation-contact iterator
        # and the next contact to schedule.
        self._contact_feed: Optional[Iterator[Contact]] = None
        self._next_contact: Optional[Contact] = None

    # --- derived times ---------------------------------------------------

    @property
    def warmup_end(self) -> float:
        return self.trace.start_time + self.trace.duration / 2.0

    @property
    def eval_duration(self) -> float:
        return self.trace.end_time - self.warmup_end

    # --- event handlers ----------------------------------------------------

    def _handle_contact(self, event: Event) -> None:
        contact: Contact = event.payload
        if self._contact_feed is not None:
            # One-ahead feed: pull the trace's next contact while this
            # one is handled.  Contacts enter the queue in trace (time)
            # order, one at a time, and the engine orders events by
            # time, kind priority and then sequence, so the event order
            # is the one scheduling every contact up front would give.
            upcoming = next(self._contact_feed, None)
            if upcoming is None:
                self._contact_feed = None
            else:
                self.engine.schedule(upcoming.start, EventKind.CONTACT, upcoming)
        node_a = self.nodes[contact.node_a]
        node_b = self.nodes[contact.node_b]
        if not (node_a.active and node_b.active):
            # A departed/failed party: the contact never happens — it is
            # neither counted nor fed to the rate estimator.
            self.registry.counter("sim.contacts_skipped").inc()
            return
        self.registry.counter("sim.contacts").inc()
        self.estimator.record_contact(contact.node_a, contact.node_b, contact.start)
        budget = TransferBudget.for_contact(contact.duration, self.config.link_capacity)
        with maybe_span(self.profiler, "sim.contact"):
            self.scheme.on_contact(node_a, node_b, contact.start, budget)
        if self.config.validate_invariants:
            check_nodes((node_a, node_b), contact.start)

    def _handle_data_round(self, event: Event) -> None:
        with maybe_span(self.profiler, "sim.data_round"):
            self._data_round(event)

    def _data_round(self, event: Event) -> None:
        now = event.time
        has_live = [node.has_live_own_data(now) for node in self.nodes]
        for item in self.workload_process.data_round(now, has_live):
            node = self.nodes[item.source]
            if not node.active:
                # The workload's random draws are consumed either way (so
                # churn never perturbs other nodes' streams), but an
                # absent node generates nothing.
                continue
            node.generate_data(item)
            self.metrics.on_data_generated(item)
            self.registry.counter("sim.data_generated").inc()
            if self.recorder.enabled:
                self.recorder.emit(
                    TraceEvent(
                        time=now,
                        kind=TraceEventKind.DATA_GENERATED,
                        node=item.source,
                        data_id=item.data_id,
                        attrs={"size": item.size, "expires_at": item.expires_at},
                    )
                )
            self.scheme.on_data_generated(node, item, now)

    def _handle_query_round(self, event: Event) -> None:
        with maybe_span(self.profiler, "sim.query_round"):
            self._query_round(event)

    def _query_round(self, event: Event) -> None:
        now = event.time
        # Node.holdings() is version-cached: only nodes whose origin or
        # buffer changed since the last round rebuild their id set.
        holdings: Dict[int, Set[int]] = {
            node.node_id: node.holdings() for node in self.nodes
        }
        for query in self.workload_process.query_round(now, holdings):
            if not self.nodes[query.requester].active:
                continue
            self.metrics.on_query_created(query)
            self.registry.counter("sim.queries_issued").inc()
            if self.recorder.enabled:
                self.recorder.emit(
                    TraceEvent(
                        time=now,
                        kind=TraceEventKind.QUERY_CREATED,
                        node=query.requester,
                        data_id=query.data_id,
                        query_id=query.query_id,
                        attrs={"time_constraint": query.time_constraint},
                    )
                )
            self.scheme.on_query_generated(self.nodes[query.requester], query, now)

    def _handle_graph_refresh(self, event: Event) -> None:
        self.registry.counter("sim.graph_refreshes").inc()
        with maybe_span(self.profiler, "sim.graph_refresh"):
            graph = self.estimator.snapshot(event.time)
            self.scheme.on_graph_updated(graph, event.time)

    # --- network dynamics (churn / failure) -------------------------------

    def _handle_dynamics(self, event: Event) -> None:
        spec: DynamicsEvent = event.payload
        with maybe_span(self.profiler, "sim.dynamics"):
            self._apply_dynamics(spec, event.time)

    def _apply_dynamics(self, spec: DynamicsEvent, now: float) -> None:
        if spec.action == "join":
            assert spec.node is not None
            self._activate_node(spec.node, now)
        elif spec.action == "fail_central":
            node_id = self._resolve_central(spec.central_rank)
            if node_id is None:
                self.registry.counter("sim.dynamics_unresolved").inc()
                return
            self._deactivate_node(
                node_id, now, failed=True, central_rank=spec.central_rank
            )
        else:  # "leave" / "fail"
            assert spec.node is not None
            self._deactivate_node(spec.node, now, failed=spec.action == "fail")

    def _resolve_central(self, rank: int) -> Optional[int]:
        """The node currently holding central rank *rank*, if any.

        Resolved at event time against the scheme's live selection, so
        ``fail_central`` stays meaningful across re-elections; schemes
        without NCLs (the baselines) simply absorb the event.
        """
        selection = getattr(self.scheme, "selection", None)
        if selection is None:
            return None
        centrals = selection.central_nodes
        if rank >= len(centrals):
            return None
        return int(centrals[rank])

    def _deactivate_node(
        self,
        node_id: int,
        now: float,
        failed: bool,
        central_rank: Optional[int] = None,
    ) -> None:
        node = self.nodes[node_id]
        if not node.active:
            return
        node.active = False
        dropped = node.purge()
        self.estimator.set_node_active(node_id, False)
        self.registry.counter(
            "sim.node_failures" if failed else "sim.node_departures"
        ).inc()
        if self.recorder.enabled:
            attrs: Dict[str, object] = dict(dropped)
            if central_rank is not None:
                attrs["central_rank"] = central_rank
            self.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=(
                        TraceEventKind.NODE_FAILED
                        if failed
                        else TraceEventKind.NODE_LEFT
                    ),
                    node=node_id,
                    attrs=attrs,
                )
            )
        # Publish the changed topology in the same instant (GRAPH_REFRESH
        # has a later same-time priority), so e.g. a central-node failure
        # triggers re-election now rather than a refresh period later.
        self.scheme.on_topology_changed(now)
        self.engine.schedule(now, EventKind.GRAPH_REFRESH)

    def _activate_node(self, node_id: int, now: float) -> None:
        node = self.nodes[node_id]
        if node.active:
            return
        node.active = True
        self.estimator.set_node_active(node_id, True)
        self.registry.counter("sim.node_joins").inc()
        if self.recorder.enabled:
            self.recorder.emit(
                TraceEvent(time=now, kind=TraceEventKind.NODE_JOINED, node=node_id)
            )
        self.scheme.on_topology_changed(now)
        self.engine.schedule(now, EventKind.GRAPH_REFRESH)

    def _handle_sample(self, event: Event) -> None:
        now = event.time
        live = self.workload_process.live_items(now)
        cached = 0
        occupancy = 0.0
        for node in self.nodes:
            cached += node.buffer.live_count(now)
            occupancy += node.buffer.used / node.buffer.capacity
        self.metrics.sample_copies_per_item(cached, len(live))
        if self.recorder.enabled:
            self.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.SAMPLE,
                    attrs={
                        "cached_copies": cached,
                        "live_items": len(live),
                        "mean_occupancy": occupancy / len(self.nodes),
                    },
                )
            )
        mem_sample: Optional[MemorySample] = None
        if self.memory.enabled:
            mem_sample = self.memory.sample(now)
            if self.recorder.enabled:
                self.recorder.emit(
                    TraceEvent(
                        time=now,
                        kind=TraceEventKind.MEMORY_SAMPLED,
                        attrs={
                            "rss_mb": mem_sample.rss_mb,
                            "accounted_mb": mem_sample.accounted_mb,
                            "top_subsystem": mem_sample.top_subsystem,
                        },
                    )
                )
        if self.timeseries.enabled:
            self.timeseries.record(
                self._build_sample(now, len(live), cached, mem_sample)
            )

    # --- memory attribution ------------------------------------------------

    def _build_memory_accountants(self) -> Dict[str, Callable[[], int]]:
        """Zero-argument byte accountants, one per memory subsystem.

        The literal keys below are the contract that
        ``tests/obs/test_memory_lint.py`` cross-checks against
        :data:`repro.obs.memory.SUBSYSTEMS`: a new state holder must be
        added in both places (plus an oracle test) or the lint fails.
        """
        from repro.graph.weight_cache import shared_weight_cache

        return {
            "contact_graph": self._contact_graph_nbytes,
            "nodes": lambda: sum(node.nbytes() for node in self.nodes),
            "scheme": self._scheme_nbytes,
            "weight_cache": lambda: int(shared_weight_cache().nbytes),
            "metrics": self.metrics.nbytes,
            "workload": self.workload_process.nbytes,
            "events": self.engine.nbytes,
            "observability": self._obs_nbytes,
        }

    def _contact_graph_nbytes(self) -> int:
        """Bytes of the rate estimator plus the contact-graph snapshot the
        scheme holds (one walk, so state they share counts once)."""
        seen: Set[int] = set()
        return deep_sizeof(self.estimator, seen) + deep_sizeof(self.scheme.graph, seen)

    def _scheme_nbytes(self) -> int:
        """Bytes of scheme-owned state (NCL selection, routers, response
        strategy, replacement pools).

        The scheme's attached services reference simulator-owned state
        (node list, metrics, estimator, …), and its graph snapshot is
        counted under ``contact_graph``; pre-seeding the deep walk with
        their ids leaves exactly the containers the scheme itself
        allocated — no double attribution against the other accountants.
        """
        seen = {
            id(self),
            id(self.scheme.graph),
            id(self.nodes),
            id(self.metrics),
            id(self.estimator),
            id(self.workload_process),
            id(self.engine),
            id(self.recorder),
            id(self.registry),
            id(self.timeseries),
            id(self.profiler),
            id(self.workload),
            id(self.trace),
        }
        seen.update(id(node) for node in self.nodes)
        return deep_sizeof(self.scheme, seen)

    def _obs_nbytes(self) -> int:
        """Bytes of observability state: recorder buffers, registry
        instruments, extended time-series rows, and the memory samples
        themselves."""
        seen: Set[int] = set()
        total = deep_sizeof(self.recorder, seen)
        total += deep_sizeof(self.registry, seen)
        total += deep_sizeof(self.timeseries, seen)
        total += deep_sizeof(self.memory.samples, seen)
        return total

    def memory_breakdown(self) -> Dict[str, int]:
        """Current per-subsystem byte attribution (accountants only).

        Available whether or not ``mem_profile`` is on — the accountants
        are plain closures — so tests and ad-hoc debugging can ask
        "where are the bytes?" without rerunning with sampling enabled.
        """
        return {
            name: int(fn()) for name, fn in sorted(self._memory_accountants.items())
        }

    def ncl_load(self, now: float) -> Dict[int, int]:
        """Live cached copies per NCL basin: central node id → copies
        held by the nodes whose nearest central node it is.

        Empty for schemes without NCL selection — consumers (telemetry
        sampler, health monitor) treat that as "no skew signal".
        """
        ncl_load: Dict[int, int] = {}
        selection = getattr(self.scheme, "selection", None)
        if selection is not None:
            nearest = selection.nearest_central
            for node in self.nodes:
                central = int(nearest[node.node_id])
                held = node.buffer.live_count(now)
                ncl_load[central] = ncl_load.get(central, 0) + held
        return ncl_load

    def _build_sample(
        self,
        now: float,
        live_items: int,
        cached_copies: int,
        mem_sample: Optional[MemorySample] = None,
    ) -> TimeSeriesSample:
        """Assemble one extended telemetry sample (sampler enabled only).

        Memory fields stay at their NaN/empty defaults unless this
        sample coincided with an enabled memory monitor — the sampler's
        schema is identical either way, only the values fill in.
        """
        node_occupancy = tuple(
            node.buffer.used / node.buffer.capacity for node in self.nodes
        )
        ncl_load = self.ncl_load(now)
        memory_fields: Dict[str, object] = {}
        if mem_sample is not None:
            memory_fields = {
                "rss_mb": mem_sample.rss_mb,
                "py_heap_mb": mem_sample.py_heap_mb,
                "mem_top": mem_sample.top_subsystem,
            }
        return TimeSeriesSample(
            time=now,
            live_items=live_items,
            cached_copies=cached_copies,
            queries_issued=self.metrics.queries_issued,
            queries_satisfied=self.metrics.queries_satisfied,
            pending_queries=self.metrics.pending_queries(now),
            cache_lookups=self.metrics.cache_lookups,
            cache_hits=self.metrics.cache_hits,
            node_occupancy=node_occupancy,
            ncl_load=ncl_load,
            delay_p50=self.metrics.delay_p50,
            delay_p95=self.metrics.delay_p95,
            **memory_fields,
        )

    # --- run ------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the full protocol and return the run's metrics."""
        if self._ran:
            raise ConfigurationError("a Simulator instance runs exactly once")
        self._ran = True
        # Module-level kernels (graph.paths, graph.weight_cache) report to
        # the process's active profiler; install this run's for the
        # duration and restore the previous one afterwards so nothing
        # leaks across runs.
        previous = set_active_profiler(self.profiler)
        try:
            return self._run()
        finally:
            set_active_profiler(previous)

    def _run(self) -> SimulationResult:
        warmup_end = self.warmup_end
        self._warmup()
        self._announce_flash_window(warmup_end)
        self._prepare(warmup_end)
        if self._next_contact is not None:
            # Seed the one-ahead feed with the first evaluation contact;
            # _handle_contact pulls the rest.
            self.engine.schedule(
                self._next_contact.start, EventKind.CONTACT, self._next_contact
            )
            self._next_contact = None
        end = self.trace.end_time
        self._schedule_rounds(end)
        if self._dynamics is not None:
            # Dynamics land inside the evaluation window; same-instant
            # ordering (NETWORK_DYNAMICS < GRAPH_REFRESH) applies churn
            # before any coinciding refresh reads the topology.
            self._dynamics.schedule(self.engine, warmup_end, end)

        self.engine.run()
        return self._finalize()

    # --- run phases (shared with serve mode) ------------------------------

    def _warmup(self) -> None:
        """Phase 1: feed the estimator, then park the evaluation feed.

        Warm-up consumes the trace up to the midpoint, then parks the
        live iterator and its first evaluation contact for the one-ahead
        feed.  The evaluation half is never collected, so on a lazy
        :class:`~repro.traces.stream.ContactStream` peak memory is one
        contact, not half the trace.
        """
        warmup_end = self.warmup_end
        feed = iter(self.trace)
        for contact in feed:
            if contact.start < warmup_end:
                self.estimator.record_contact(
                    contact.node_a, contact.node_b, contact.start
                )
            else:
                self._contact_feed = feed
                self._next_contact = contact
                break
        self.workload_process.set_window(warmup_end, self.trace.end_time)

    def _announce_flash_window(self, warmup_end: float) -> None:
        """One-time trace announcement of the workload's surge window.

        Emitted at the evaluation-window start so live consumers
        (``repro watch``) can annotate upcoming flash-crowd windows; in
        serve mode the surge only exists in the first replay cycle
        (later cycles keep the baseline rounds), which the event states
        explicitly.
        """
        if not self.recorder.enabled:
            return
        window = self.workload_process.arrivals.flash_window()
        if window is None:
            return
        self.recorder.emit(
            TraceEvent(
                time=warmup_end,
                kind=TraceEventKind.WORKLOAD_FLASH_CROWD_WINDOW,
                attrs={
                    "start": window[0],
                    "end": window[1],
                    "first_cycle_only": True,
                },
            )
        )

    def _prepare(self, warmup_end: float) -> None:
        """Phase 2 + handler registration: scheme setup at the midpoint."""
        services = SchemeServices(
            nodes=self.nodes,
            rng=self._factory.generator("scheme"),
            metrics=self.metrics,
            deliver=self._deliver,
            lookup_data=self._lookup_data,
            response_horizon=self.workload.query_time_constraint,
            recorder=self.recorder,
            clock=lambda: self.engine.now,
            profiler=self.profiler,
            registry=self.registry,
        )
        with maybe_span(self.profiler, "sim.setup"):
            self._setup(services, warmup_end)

        engine = self.engine
        engine.register(EventKind.CONTACT, self._handle_contact)
        engine.register(EventKind.DATA_GENERATION, self._handle_data_round)
        engine.register(EventKind.QUERY_GENERATION, self._handle_query_round)
        engine.register(EventKind.GRAPH_REFRESH, self._handle_graph_refresh)
        engine.register(EventKind.SAMPLE_METRICS, self._handle_sample)
        if self._dynamics is not None:
            engine.register(EventKind.NETWORK_DYNAMICS, self._handle_dynamics)

    def _round_specs(self) -> "List[tuple]":
        """(kind, period, first-index) of every periodic round family.

        Queries start one period after the first data round so the first
        pushes have had a chance to leave the sources (Sec. VI-A issues
        data and queries throughout the second half; the offset choice
        is documented in DESIGN.md).
        """
        query_period = self.workload.query_generation_period
        refresh_period = self.config.graph_refresh_period or max(
            self.eval_duration / 20.0, 1.0
        )
        return [
            (EventKind.DATA_GENERATION, self.workload.data_generation_period, 0),
            (EventKind.QUERY_GENERATION, query_period, 1),
            (EventKind.GRAPH_REFRESH, refresh_period, 1),
            (EventKind.SAMPLE_METRICS, self.config.sample_period or query_period, 1),
        ]

    def _schedule_rounds(self, until: float) -> None:
        """Schedule every periodic round with time < *until*.

        Round k fires at warmup_end + k·period by index multiplication
        (not t += period accumulation), so long horizons cannot drift
        the round times through float rounding.  Per-kind cursors let
        serve mode extend the schedule window-by-window without ever
        re-issuing or skipping a round.
        """
        warmup_end = self.warmup_end
        for kind, period, first in self._round_specs():
            k = self._round_cursor.get(kind, first)
            while True:
                t = warmup_end + k * period
                if t >= until:
                    break
                self.engine.schedule(t, kind)
                k += 1
            self._round_cursor[kind] = k

    def _finalize(self) -> SimulationResult:
        result = self.metrics.finalize(name=self.scheme.name, seed=self.config.seed)
        if isinstance(self.recorder, MemoryRecorder):
            # In-memory traces are cheap to replay, so every traced run
            # checks its counters against its own delivery chains.
            check_trace_consistency(result, build_causality(self.recorder.events))
        if self._owns_recorder:
            self.recorder.close()
        return result

    # --- serve mode (long-lived session) ----------------------------------

    def start_session(self) -> None:
        """Fit the network once for batch replay (``repro serve``).

        Runs the warm-up and scheme setup exactly as :meth:`run` would,
        but schedules nothing: :meth:`advance_session` then replays the
        evaluation contacts cycle after cycle, window by window, and
        :meth:`finalize_session` freezes the metrics.  A session and a
        plain run are mutually exclusive on one instance.
        """
        if self._ran:
            raise ConfigurationError("a Simulator instance runs exactly once")
        if not isinstance(self.trace, ContactTrace):
            raise ConfigurationError(
                "serve sessions replay the evaluation window repeatedly and "
                "need a materialised ContactTrace; call stream.materialize()"
            )
        if self._dynamics is not None:
            raise ConfigurationError(
                "serve sessions keep the network static (no dynamics schedule)"
            )
        self._ran = True
        self._session_active = True
        self._warmup()
        if self._next_contact is not None:
            assert self._contact_feed is not None
            self._eval_contacts = [self._next_contact, *self._contact_feed]
        self._contact_feed = self._next_contact = None
        self._announce_flash_window(self.warmup_end)
        self._prepare(self.warmup_end)

    def advance_session(self, until: float) -> None:
        """Replay contacts and rounds with time < *until*, then drain.

        Contacts cycle: evaluation-window contact *i* of cycle *c*
        replays at its original time shifted by ``c · eval_duration``,
        so every window sees the trace's own contact structure while the
        periodic rounds keep their drift-free ``warmup_end + k·period``
        grid across windows.
        """
        if not self._session_active:
            raise ConfigurationError("start_session() must run first")
        duration = self.eval_duration
        contacts = self._eval_contacts
        while contacts:
            if self._serve_index >= len(contacts):
                self._serve_index = 0
                self._serve_cycle += 1
            base = contacts[self._serve_index]
            shift = self._serve_cycle * duration
            start = base.start + shift
            if start >= until:
                break
            self.engine.schedule(
                start,
                EventKind.CONTACT,
                replace(base, start=start, end=base.end + shift),
            )
            self._serve_index += 1
        self._schedule_rounds(until)
        self.engine.run()

    def finalize_session(self) -> SimulationResult:
        """Close a serve session and freeze its metrics."""
        if not self._session_active:
            raise ConfigurationError("start_session() must run first")
        self._session_active = False
        return self._finalize()

    def _setup(self, services: SchemeServices, warmup_end: float) -> None:
        """Midpoint setup: attach the scheme and run NCL selection."""
        self.scheme.attach(services)
        snapshot = self.estimator.snapshot(warmup_end)
        self.scheme.on_graph_updated(snapshot, warmup_end)
        self.scheme.on_warmup_complete(warmup_end)

    # --- scheme callbacks -------------------------------------------------

    def _lookup_data(self, data_id: int) -> Optional[DataItem]:
        """Global data catalogue (source addressing for the baselines)."""
        return self.workload_process.item_by_id(data_id)

    def _deliver(self, query: Query, data: DataItem, now: float) -> None:
        outcome = self.metrics.record_delivery(query, now)
        if outcome == "first":
            self.registry.counter("sim.queries_satisfied").inc()
            self.registry.histogram("sim.delivery_delay").observe(
                now - query.created_at
            )
            if self.recorder.enabled:
                self.recorder.emit(
                    TraceEvent(
                        time=now,
                        kind=TraceEventKind.QUERY_SATISFIED,
                        node=query.requester,
                        data_id=data.data_id,
                        query_id=query.query_id,
                        attrs={"created_at": query.created_at},
                    )
                )
            requester = self.nodes[query.requester]
            self.scheme.on_data_delivered(requester, data, query, now)
        elif self.recorder.enabled and outcome == "duplicate":
            self.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.DELIVERY_DUPLICATE,
                    node=query.requester,
                    data_id=data.data_id,
                    query_id=query.query_id,
                )
            )
        elif self.recorder.enabled and outcome == "late":
            self.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.DELIVERY_LATE,
                    node=query.requester,
                    data_id=data.data_id,
                    query_id=query.query_id,
                    attrs={"expires_at": query.expires_at},
                )
            )
