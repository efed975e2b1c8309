"""The paper's intentional NCL caching scheme (Sec. V).

Lifecycle:

* **Warm-up end** — the "network administrator" selects the top-K NCL
  central nodes from the accumulated contact rates (Sec. IV-A).
* **Push** (Sec. V-A) — a data source sends one copy toward each central
  node along the path-weight gradient; the copy is cached at every relay
  it traverses (relays are temporal caching locations) and sticks
  permanently at the first relay whose successor cannot fit it.
* **Pull** (Sec. V-B) — a requester multicasts its query as one gradient
  copy per central node; a copy reaching its central node switches to
  broadcast mode and floods the NCL's member nodes until the query
  expires.  Every node observing the query records it in its query
  history (popularity table) and, if it holds the data, runs the
  probabilistic response decision (Sec. V-C).
* **Replacement** (Sec. V-D) — whenever two nodes that both hold cached
  data meet, the utility-knapsack exchange (Eq. 7 + Algorithm 1) runs,
  with the higher-central-weight node selecting first and per-node
  utilities uᵢ = popularity × path weight to the node's central node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.data import DataItem, Query
from repro.core.ncl import (
    SELECTION_STRATEGIES,
    NCLSelection,
    calibrate_time_budget,
    select_ncls_by,
)
from repro.core.replacement import (
    ExchangeContext,
    ReplacementPolicy,
    UtilityKnapsackPolicy,
)
from repro.core.response import (
    AlwaysRespond,
    PathAwareResponse,
    SigmoidResponse,
)
from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import PathMode
from repro.obs.events import TraceEvent, TraceEventKind
from repro.obs.profile import maybe_span
from repro.routing.base import ForwardAction
from repro.routing.gradient import GradientRouter
from repro.sim.bundles import PushBundle, QueryBundle
from repro.sim.invariants import check_buffer_occupancy
from repro.sim.network import TransferBudget
from repro.sim.node import Node
from repro.caching.base import CachingScheme

__all__ = ["IntentionalConfig", "IntentionalCaching"]


@dataclass(frozen=True)
class IntentionalConfig:
    """Parameters of the intentional caching scheme.

    Attributes
    ----------
    num_ncls:
        K, the number of NCLs (Sec. VI-D studies its impact).
    ncl_time_budget:
        T of the NCL selection metric (per-trace, Sec. IV-B).  ``None``
        applies the paper's adaptive rule at warm-up: the administrator
        calibrates T so the metric distribution is well differentiated
        (:func:`repro.core.ncl.calibrate_time_budget`).
    response_strategy:
        ``"sigmoid"`` (Eq. 4, default), ``"path_aware"`` (p_CR of the
        remaining time) or ``"always"`` (ablation: every holder replies).
    p_min / p_max:
        Sigmoid response parameters (Sec. V-C).
    probabilistic_selection:
        Algorithm 1 on (True, default) or plain knapsack (ablation).
    path_mode:
        Shortest-opportunistic-path objective.
    fresh_exemption_fraction:
        Footnote 4 of the paper: newly generated, never-requested data is
        not subject to cache replacement.  A cached item is "fresh" while
        it has seen no request at its holder and less than this fraction
        of its lifetime has elapsed; fresh items sit out exchanges.
    reelect:
        Re-run NCL selection on every contact-graph refresh after warm-up
        (dynamic networks: churn / central-node failure).  When the top-K
        central set changes, demoted centrals hand their cached copies
        off toward the new centrals through the ordinary push gradient.
        Off by default — the paper's administrator elects NCLs once.
    """

    num_ncls: int = 8
    ncl_time_budget: Optional[float] = None
    #: k of the k-NN truncated NCL metric (sparse scale-out path).
    #: ``None`` keeps the exact dense metric on dense graphs and the
    #: default truncation (:data:`repro.core.ncl.DEFAULT_KNN_K`) on
    #: sparse ones; setting it forces truncation everywhere.
    knn_k: Optional[int] = None
    response_strategy: str = "sigmoid"
    p_min: float = 0.45
    p_max: float = 0.8
    probabilistic_selection: bool = True
    path_mode: PathMode = PathMode.EXPECTED_DELAY
    fresh_exemption_fraction: float = 0.25
    #: how central nodes are picked: "metric" (Eq. 3, the paper) or one of
    #: the ablation strategies of :data:`repro.core.ncl.SELECTION_STRATEGIES`
    selection_strategy: str = "metric"
    reelect: bool = False

    def __post_init__(self) -> None:
        if self.num_ncls < 1:
            raise ConfigurationError("num_ncls must be >= 1")
        if self.ncl_time_budget is not None and self.ncl_time_budget <= 0:
            raise ConfigurationError("ncl_time_budget must be positive")
        if self.knn_k is not None and self.knn_k < 1:
            raise ConfigurationError("knn_k must be >= 1")
        if self.response_strategy not in ("sigmoid", "path_aware", "always"):
            raise ConfigurationError(
                f"unknown response strategy {self.response_strategy!r}"
            )
        if not 0.0 <= self.fresh_exemption_fraction <= 1.0:
            raise ConfigurationError("fresh_exemption_fraction must be in [0, 1]")
        if self.selection_strategy not in SELECTION_STRATEGIES:
            raise ConfigurationError(
                f"unknown selection strategy {self.selection_strategy!r}"
            )


class IntentionalCaching(CachingScheme):
    """NCL-based cooperative caching — the paper's proposed scheme."""

    name = "intentional"

    def __init__(
        self,
        config: Optional[IntentionalConfig] = None,
        replacement: Optional[ReplacementPolicy] = None,
    ):
        super().__init__()
        self.config = config or IntentionalConfig()
        self.replacement = replacement or UtilityKnapsackPolicy(
            probabilistic=self.config.probabilistic_selection
        )
        self.selection: Optional[NCLSelection] = None
        #: the T actually used (set at warm-up; equals the config value
        #: unless the adaptive rule ran)
        self.ncl_time_budget: Optional[float] = self.config.ncl_time_budget
        self._push_router: Optional[GradientRouter] = None
        self._query_router: Optional[GradientRouter] = None
        #: set by :meth:`on_topology_changed`; re-election only runs on
        #: the refresh that follows an actual join/leave/failure, so
        #: static stretches of a run never pay the selection pass.
        self._topology_dirty = False

    # --- lifecycle ---------------------------------------------------------

    def on_warmup_complete(self, now: float) -> None:
        """Administrator step: select NCLs from the warmed-up graph."""
        if self.graph is None:
            raise RuntimeError("warm-up ended without a contact-graph snapshot")
        horizon = self.config.ncl_time_budget
        if horizon is None:
            # Sec. IV-B: T is chosen adaptively so that metric values are
            # well differentiated.
            horizon = calibrate_time_budget(
                self.graph,
                mode=self.config.path_mode,
                sample_sources=min(40, self.graph.num_nodes),
            )
        self.ncl_time_budget = horizon
        self.selection = select_ncls_by(
            self.graph,
            self.config.num_ncls,
            horizon,
            strategy=self.config.selection_strategy,
            mode=self.config.path_mode,
            knn_k=self.config.knn_k,
        )
        # Pushes and query multicast copies are single-copy gradient
        # handovers (Sec. V-A: the relay "deletes its own data copy
        # afterwards"); central nodes are hubs, so single copies reach
        # them reliably.
        self._push_router = GradientRouter(horizon=horizon, mode=self.config.path_mode)
        self._query_router = GradientRouter(
            horizon=horizon, mode=self.config.path_mode, replicate=False
        )
        self._push_router.update_graph(self.graph)
        self._query_router.update_graph(self.graph)
        observer = self.route_observer()
        self._push_router.set_observer(observer)
        self._query_router.set_observer(observer)
        if self.config.response_strategy == "sigmoid":
            self.set_response_strategy(
                SigmoidResponse(self.config.p_min, self.config.p_max)
            )
        elif self.config.response_strategy == "path_aware":
            strategy = PathAwareResponse(self.graph, mode=self.config.path_mode)
            self.set_response_strategy(strategy)
        else:
            self.set_response_strategy(AlwaysRespond())

    def on_graph_updated(self, graph: ContactGraph, now: float) -> None:
        super().on_graph_updated(graph, now)
        if self._push_router is not None:
            self._push_router.update_graph(graph)
        if self._query_router is not None:
            self._query_router.update_graph(graph)
        if isinstance(self._response_strategy, PathAwareResponse):
            self._response_strategy.update_graph(graph)
        if self.config.reelect and self._topology_dirty and self.selection is not None:
            self._topology_dirty = False
            with maybe_span(self._require_services().profiler, "scheme.reelection"):
                self._reelect(graph, now)

    def on_topology_changed(self, now: float) -> None:
        self._topology_dirty = True

    def _reelect(self, graph: ContactGraph, now: float) -> None:
        """Re-run NCL selection against the refreshed graph (Sec. IV's
        administrator step, repeated for dynamic networks).

        Only runs on the refresh following a topology change (see
        ``on_topology_changed``), and a stable top-K set keeps the
        established selection wholesale — a dynamics event that does not
        move the committee costs one selection pass and no state churn.
        When the committee changes, each demoted central hands
        its cached copies off as ordinary push bundles toward the new
        central nearest to it — migration rides the existing gradient
        rather than teleporting data.
        """
        services = self._require_services()
        old = self._require_selection()
        horizon = self.ncl_time_budget
        assert horizon is not None  # set at warm-up before reelection can run
        new = select_ncls_by(
            graph,
            self.config.num_ncls,
            horizon,
            strategy=self.config.selection_strategy,
            mode=self.config.path_mode,
            knn_k=self.config.knn_k,
        )
        services.count("scheme.reelection_rounds")
        old_set = {int(c) for c in old.central_nodes}
        new_set = {int(c) for c in new.central_nodes}
        if new_set == old_set:
            return
        self.selection = new
        demoted = sorted(old_set - new_set)
        promoted = sorted(new_set - old_set)
        services.count("scheme.reelections")
        if services.recorder.enabled:
            services.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.NCL_REELECTED,
                    attrs={
                        "old": [int(c) for c in old.central_nodes],
                        "new": [int(c) for c in new.central_nodes],
                        "demoted": demoted,
                        "promoted": promoted,
                    },
                )
            )
        migrated = 0
        for central in demoted:
            holder = services.nodes[central]
            target = int(new.nearest_central[central])
            for item in holder.buffer.items():
                if item.is_expired(now):
                    continue
                # owns_copy: the demoted central's copy belongs to this
                # migration — the first handover takes it along instead of
                # duplicating it, so the copy *moves* toward the new NCL.
                bundle = PushBundle(
                    created_at=now,
                    expires_at=item.expires_at,
                    data=item,
                    target_central=target,
                    owns_copy=True,
                )
                if not holder.store_bundle(bundle):
                    continue
                migrated += 1
                if services.recorder.enabled:
                    services.recorder.emit(
                        TraceEvent(
                            time=now,
                            kind=TraceEventKind.CACHE_MIGRATED,
                            node=central,
                            data_id=item.data_id,
                            attrs={"from_central": central, "to_central": target},
                        )
                    )
        if migrated:
            services.count("scheme.cache_migrations", migrated)

    def on_cache_hit(self, node: Node, data: DataItem, now: float) -> None:
        """Feed accesses to recency/aging replacement policies (LRU, GDS)
        so the Fig. 12 comparison exercises their actual behaviour."""
        record_access = getattr(self.replacement, "record_access", None)
        if record_access is not None:
            record_access(data.data_id, now)
        refresh = getattr(self.replacement, "refresh", None)
        if refresh is not None:
            refresh(data)

    def _require_selection(self) -> NCLSelection:
        if self.selection is None:
            raise RuntimeError("NCL selection has not run (warm-up not complete)")
        return self.selection

    # --- push (Sec. V-A) ---------------------------------------------------

    def on_data_generated(self, node: Node, data: DataItem, now: float) -> None:
        """Emit one push bundle per NCL; the source keeps its origin copy."""
        selection = self._require_selection()
        for central in selection.central_nodes:
            bundle = PushBundle(
                created_at=now,
                expires_at=data.expires_at,
                data=data,
                target_central=central,
            )
            node.store_bundle(bundle)
        # Data the source just created may already answer queries it saw.
        self.answer_pending_queries(node, data.data_id, now)

    def _process_pushes(
        self, x: Node, y: Node, now: float, budget: TransferBudget
    ) -> None:
        """Advance x's push bundles through y along the central gradient."""
        self._require_services()
        if self.graph is None or self._push_router is None:
            return
        for bundle in x.bundles:
            if not isinstance(bundle, PushBundle):
                continue
            if bundle.is_expired(now):
                x.drop_bundle(bundle.key)
                continue
            # A push is only alive while its carrier still holds the data
            # (source origin copy or cached copy); replacement may have
            # migrated the data away, orphaning the bundle.
            if x.find_data(bundle.data.data_id, now) is None:
                x.drop_bundle(bundle.key)
                continue
            if bundle.spilling:
                self._spill_push(x, y, bundle, now, budget)
                continue
            if y.has_seen(bundle.key):
                continue
            decision = self._push_router.decide(
                x.node_id,
                y.node_id,
                bundle.target_central,
                self.graph,
                bundle.data.remaining_lifetime(now),
            )
            if not decision.transfers:
                continue
            already_cached = y.find_data(bundle.data.data_id, now) is not None
            cost = 0 if already_cached else bundle.size_bits
            if not budget.can_afford(cost):
                continue
            if not already_cached and not y.buffer.fits(bundle.data):
                if y.node_id == bundle.target_central:
                    # "If the buffer of a central node is full, data is
                    # cached at another node near the central node": keep
                    # the bundle and spill into the NCL's member nodes.
                    bundle.spilling = True
                elif bundle.owns_copy:
                    # Sec. V-A: the next relay's buffer is full -> the
                    # data stays cached at the current relay for good,
                    # becoming a resident copy no other push may remove.
                    x.drop_bundle(bundle.key)
                    self._release_ownership(x, bundle.data.data_id)
                # A carrier whose copy is shared (source origin, or a
                # relay another push already supplied) has not placed this
                # push's own copy yet; it keeps waiting for a relay with
                # room instead of dying.
                continue
            budget.try_consume(cost)
            if not already_cached:
                y.buffer.put(bundle.data)
                # The previous relay was only a temporal caching location
                # for this push; an independently held copy (origin data,
                # another NCL's completed push, replacement placement)
                # stays put.
                if bundle.owns_copy:
                    x.buffer.remove(bundle.data.data_id)
            x.drop_bundle(bundle.key)
            bundle.owns_copy = not already_cached
            self._emit_push_forwarded(x, y, bundle, now)
            if y.node_id == bundle.target_central:
                self._emit_push_completed(y, bundle, now, spilled=False)
                # The copy at the central is now resident: other pushes
                # relaying the same data through this node must not take
                # it with them.
                self._release_ownership(y, bundle.data.data_id)
            else:
                y.store_bundle(bundle)
            # New caching location may answer queries it already observed.
            self.answer_pending_queries(y, bundle.data.data_id, now)

    def _emit_push_forwarded(
        self, x: Node, y: Node, bundle: PushBundle, now: float
    ) -> None:
        """Trace hook: custody of a push copy moved from *x* to *y*."""
        services = self._require_services()
        if services.recorder.enabled:
            services.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.PUSH_FORWARDED,
                    node=y.node_id,
                    data_id=bundle.data.data_id,
                    attrs={
                        "carrier": x.node_id,
                        "target_central": bundle.target_central,
                    },
                )
            )

    def _emit_push_completed(
        self, node: Node, bundle: PushBundle, now: float, spilled: bool
    ) -> None:
        """Trace hook: a push copy settled inside its target NCL."""
        services = self._require_services()
        if services.recorder.enabled:
            services.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.PUSH_COMPLETED,
                    node=node.node_id,
                    data_id=bundle.data.data_id,
                    attrs={"target_central": bundle.target_central, "spilled": spilled},
                )
            )

    @staticmethod
    def _release_ownership(node: Node, data_id: int) -> None:
        """Mark the copy of *data_id* at *node* resident: any in-flight
        push bundle at this node carrying the same data loses its claim
        and will not remove the copy when it moves on."""
        for bundle in node.bundles:
            if isinstance(bundle, PushBundle) and bundle.data.data_id == data_id:
                bundle.owns_copy = False

    def _spill_push(
        self,
        x: Node,
        y: Node,
        bundle: PushBundle,
        now: float,
        budget: TransferBudget,
    ) -> None:
        """Place a spilling push's copy at a member of the target NCL.

        The central node could not cache the data; the first encountered
        member of its NCL with room becomes the caching location
        (Sec. V: "data is cached at another node A near C1").
        """
        if self._ncl_of(y.node_id) != bundle.target_central:
            return
        if y.find_data(bundle.data.data_id, now) is not None:
            # The NCL already holds a copy elsewhere; this push is done.
            x.drop_bundle(bundle.key)
            self._emit_push_completed(y, bundle, now, spilled=True)
            return
        if not y.buffer.fits(bundle.data):
            return
        if not budget.try_consume(bundle.data.size):
            return
        y.buffer.put(bundle.data)
        if bundle.owns_copy:
            x.buffer.remove(bundle.data.data_id)
        x.drop_bundle(bundle.key)
        self._emit_push_forwarded(x, y, bundle, now)
        self._emit_push_completed(y, bundle, now, spilled=True)
        self._release_ownership(y, bundle.data.data_id)
        self.answer_pending_queries(y, bundle.data.data_id, now)

    # --- pull (Sec. V-B) ---------------------------------------------------

    def on_query_generated(self, node: Node, query: Query, now: float) -> None:
        """Multicast the query: one gradient copy per central node."""
        with maybe_span(self._require_services().profiler, "scheme.query_multicast"):
            self._multicast_query(node, query, now)

    def _multicast_query(self, node: Node, query: Query, now: float) -> None:
        selection = self._require_selection()
        node.observe_query(query, now)
        for central in selection.central_nodes:
            bundle = QueryBundle(
                created_at=now,
                expires_at=query.expires_at,
                query=query,
                target_central=central,
            )
            if central == node.node_id:
                bundle.broadcasting = True
            node.store_bundle(bundle)
        # The requester might itself serve the data (e.g. freshly cached);
        # the workload avoids this, but the scheme stays correct if not.
        self.try_respond(node, query, now)

    def _ncl_of(self, node_id: int) -> int:
        return int(self._require_selection().nearest_central[node_id])

    def _process_queries(
        self, x: Node, y: Node, now: float, budget: TransferBudget
    ) -> None:
        """Advance x's query bundles: gradient toward the central node,
        then NCL-wide broadcast after arrival (Sec. V-B)."""
        if self.graph is None or self._query_router is None:
            return
        for bundle in x.bundles:
            if not isinstance(bundle, QueryBundle):
                continue
            if bundle.is_expired(now):
                x.drop_bundle(bundle.key)
                continue
            target = bundle.target_central
            assert target is not None  # intentional scheme always sets it
            if bundle.broadcasting:
                # Replicate among the target NCL's member nodes.
                if self._ncl_of(y.node_id) != target or y.has_seen(bundle.key):
                    continue
                if not budget.try_consume(bundle.size_bits):
                    continue
                replica = QueryBundle(
                    created_at=bundle.created_at,
                    expires_at=bundle.expires_at,
                    query=bundle.query,
                    target_central=target,
                    broadcasting=True,
                )
                y.store_bundle(replica)
                self._receive_query(y, bundle.query, now)
            else:
                if y.has_seen(bundle.key):
                    continue
                decision = self._query_router.decide(
                    x.node_id, y.node_id, target, self.graph, bundle.query.remaining(now)
                )
                if not decision.transfers:
                    continue
                if not budget.try_consume(bundle.size_bits):
                    continue
                replica = QueryBundle(
                    created_at=bundle.created_at,
                    expires_at=bundle.expires_at,
                    query=bundle.query,
                    target_central=target,
                    broadcasting=(y.node_id == target),
                )
                if decision.action is ForwardAction.HANDOVER:
                    x.drop_bundle(bundle.key)
                y.store_bundle(replica)
                self._receive_query(y, bundle.query, now)

    def _receive_query(self, node: Node, query: Query, now: float) -> None:
        """A node received a query copy: record history, try to serve it."""
        node.observe_query(query, now)
        self.try_respond(node, query, now)

    # --- replacement (Sec. V-D) --------------------------------------------

    def _utility_fn(self, node: Node, now: float) -> Callable[[DataItem], float]:
        """uᵢ at *node*: popularity (Eq. 6) × path weight to its NCL."""
        selection = self._require_selection()
        weight = selection.best_weight(node.node_id)

        def utility(item: DataItem) -> float:
            return node.popularity.popularity(item.data_id, item.expires_at) * weight

        return utility

    def _fresh_fn(self, node: Node, now: float) -> Callable[[DataItem], bool]:
        """Footnote 4 predicate: never-requested data early in its life."""
        fraction = self.config.fresh_exemption_fraction

        def fresh(item: DataItem) -> bool:
            return (
                node.popularity.request_count(item.data_id) == 0
                and now - item.created_at < fraction * item.lifetime
            )

        return fresh

    def _process_replacement(
        self, x: Node, y: Node, now: float, budget: TransferBudget
    ) -> None:
        """Run the pairwise exchange when both nodes hold cached data."""
        services = self._require_services()
        if len(x.buffer) == 0 or len(y.buffer) == 0:
            return
        selection = self._require_selection()
        # Node A (selects first) is the one closer to its central node.
        if selection.best_weight(x.node_id) >= selection.best_weight(y.node_id):
            node_a, node_b = x, y
        else:
            node_a, node_b = y, x
        before_a = node_a.buffer.items()
        before_b = node_b.buffer.items()
        context = ExchangeContext(
            now=now,
            utility_a=self._utility_fn(node_a, now),
            utility_b=self._utility_fn(node_b, now),
            rng=services.rng,
            exempt_a=self._fresh_fn(node_a, now),
            exempt_b=self._fresh_fn(node_b, now),
            # Coordination (duplicate merging) applies within one NCL;
            # nodes of different NCLs each keep their NCL's own copy.
            dedup=self._ncl_of(node_a.node_id) == self._ncl_of(node_b.node_id),
        )
        result = self.replacement.exchange(node_a.buffer, node_b.buffer, context)
        if result.bits_transferred > budget.remaining:
            # The contact is too short to move that much data: roll back.
            node_a.buffer.clear()
            node_b.buffer.clear()
            for item in before_a:
                node_a.buffer.put(item)
            for item in before_b:
                node_b.buffer.put(item)
            return
        budget.try_consume(result.bits_transferred)
        services.metrics.on_exchange(result.moved, result.bits_transferred)
        # Sec. V-D invariant: a refill can never overfill either buffer.
        check_buffer_occupancy((node_a, node_b))
        if services.recorder.enabled:
            services.recorder.emit(
                TraceEvent(
                    time=now,
                    kind=TraceEventKind.EXCHANGE,
                    node=node_a.node_id,
                    attrs={
                        "peer": node_b.node_id,
                        "moved": result.moved,
                        "dropped": [d.data_id for d in result.dropped],
                        "bits": result.bits_transferred,
                    },
                )
            )
        # Replacement now owns the placement of everything it touched:
        # in-flight pushes must not remove these copies, and data that
        # migrated may answer queries its new holder observed.
        for item in result.kept_a:
            self._release_ownership(node_a, item.data_id)
            self.answer_pending_queries(node_a, item.data_id, now)
        for item in result.kept_b:
            self._release_ownership(node_b, item.data_id)
            self.answer_pending_queries(node_b, item.data_id, now)

    # --- contact dispatch ----------------------------------------------

    def on_contact(self, a: Node, b: Node, now: float, budget: TransferBudget) -> None:
        self.housekeeping(a, now)
        self.housekeeping(b, now)
        # Deliveries first (most valuable per bit), then control traffic,
        # then bulk movement.  ``maybe_span`` degrades to a shared no-op
        # context when profiling is off, so one sequence serves both modes.
        prof = self._require_services().profiler
        with maybe_span(prof, "scheme.responses"):
            self.process_responses(a, b, now, budget)
            self.process_responses(b, a, now, budget)
        with maybe_span(prof, "scheme.queries"):
            self._process_queries(a, b, now, budget)
            self._process_queries(b, a, now, budget)
        with maybe_span(prof, "scheme.pushes"):
            self._process_pushes(a, b, now, budget)
            self._process_pushes(b, a, now, budget)
        with maybe_span(prof, "scheme.replacement"):
            self._process_replacement(a, b, now, budget)
