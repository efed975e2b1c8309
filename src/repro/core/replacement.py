"""Cache-replacement policies (paper Sec. V-D, evaluated in Fig. 12).

Two operations make up a policy:

* **admit** — a single node receives a new item and must decide what, if
  anything, to evict.  This is the classic cache-replacement setting and
  is all that FIFO, LRU, and Greedy-Dual-Size define.
* **exchange** — the paper's pairwise operation: when two *caching nodes*
  meet, their cached items are pooled and re-partitioned so the more
  central node keeps the most useful data (Eq. 7 knapsack with
  Algorithm 1's probabilistic selection).  For the traditional policies
  the exchange degenerates to each policy's own priority order, which is
  exactly the comparison Fig. 12 runs.

The paper's utility of item *i* at node *n* is the product of the item's
popularity wᵢ (Eq. 6) and the node's path weight to its nearest central
node, which "places popular data nearer to the central nodes" — the node
with the higher weight (p_A > p_B in Fig. 8) selects first.  Utilities
are supplied by the caller through :class:`ExchangeContext` so the policy
layer stays independent of the caching scheme.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.buffer import CacheBuffer
from repro.core.data import DataItem
from repro.core.knapsack import KnapsackItem, solve_knapsack


def _memo_utility(
    utility: Callable[[DataItem], float],
) -> Callable[[DataItem], float]:
    """Memoise a utility function by data id for the span of one exchange.

    Scheme utilities (popularity × NCL path weight) only change when
    queries are observed, never from buffer puts inside an exchange, so
    caching the first call per item is bitwise-invisible while removing
    the per-round recomputation from Algorithm 1's loop.
    """
    cache: Dict[str, float] = {}

    def wrapped(item: DataItem) -> float:
        value = cache.get(item.data_id)
        if value is None:
            value = utility(item)
            cache[item.data_id] = value
        return value

    return wrapped

__all__ = [
    "ExchangeContext",
    "ExchangeResult",
    "ReplacementPolicy",
    "FIFOPolicy",
    "LRUPolicy",
    "GreedyDualSizePolicy",
    "UtilityKnapsackPolicy",
]


@dataclass
class ExchangeContext:
    """Everything a policy may need to score items during an exchange.

    Attributes
    ----------
    now:
        Current simulation time (drives expiry and popularity horizons).
    utility_a / utility_b:
        Utility of a data item *as seen by* node A / node B.  For the
        paper's policy this is popularity × path-weight-to-central; the
        traditional policies ignore it.
    rng:
        Random stream for Algorithm 1's Bernoulli draws.
    exempt_a / exempt_b:
        Optional predicates marking items in A's / B's buffer that are
        excluded from the exchange and stay where they are (the paper's
        footnote 4: newly generated, never-requested data undergoes no
        replacement at its relay).
    dedup:
        When True (default), an item cached at both nodes collapses to
        one copy — Eq. (7)'s constraint xᵢ + yᵢ ≤ 1, the paper's
        coordination of cached data *within* an NCL.  Caching nodes of
        two different NCLs each hold their own NCL's copy ("one copy of
        data is cached at each NCL"), so their exchanges run with
        ``dedup=False``: common items sit out the exchange on both
        sides.
    observer:
        Optional observability hook called with the
        :class:`ExchangeResult` before the exchange returns (the tracing
        layer emits an EXCHANGE event from it).
    """

    now: float
    utility_a: Callable[[DataItem], float]
    utility_b: Callable[[DataItem], float]
    rng: np.random.Generator
    exempt_a: Optional[Callable[[DataItem], bool]] = None
    exempt_b: Optional[Callable[[DataItem], bool]] = None
    dedup: bool = True
    observer: Optional[Callable[["ExchangeResult"], None]] = None

    def notify(self, result: "ExchangeResult") -> "ExchangeResult":
        """Run the observer hook (if any) and pass the result through."""
        if self.observer is not None:
            self.observer(result)
        return result


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of a pairwise exchange, for the Fig. 12(c) overhead metric.

    ``moved`` counts items that changed holder; ``dropped`` are items that
    fit in neither buffer and left the cache entirely.
    """

    kept_a: Tuple[DataItem, ...]
    kept_b: Tuple[DataItem, ...]
    dropped: Tuple[DataItem, ...]
    moved: int
    bits_transferred: int


class ReplacementPolicy(abc.ABC):
    """Interface shared by all replacement policies."""

    #: short name used in reports and experiment configs
    name: str = "abstract"

    @abc.abstractmethod
    def admit(
        self,
        buffer: CacheBuffer,
        item: DataItem,
        now: float,
        utility: Optional[Callable[[DataItem], float]] = None,
    ) -> bool:
        """Make room for *item* (evicting per policy) and insert it.

        Returns ``True`` iff the item ended up cached.  Expired items are
        always evicted first, whatever the policy.
        """

    @abc.abstractmethod
    def exchange(
        self,
        buffer_a: CacheBuffer,
        buffer_b: CacheBuffer,
        context: ExchangeContext,
    ) -> ExchangeResult:
        """Re-partition the two buffers' contents on contact."""

    # --- shared helpers -------------------------------------------------

    @staticmethod
    def _drop_expired(buffer: CacheBuffer, now: float) -> None:
        buffer.evict_expired(now)

    @staticmethod
    def _withdraw_pool(
        buffer_a: CacheBuffer,
        buffer_b: CacheBuffer,
        context: ExchangeContext,
    ) -> List[DataItem]:
        """Remove every non-exempt item from both buffers and return the
        deduplicated selection pool.  Exempt items stay in place and keep
        occupying their buffer's capacity."""
        exempt_a = context.exempt_a or (lambda item: False)
        exempt_b = context.exempt_b or (lambda item: False)
        shared: set = set()
        if not context.dedup:
            # Items cached on both sides are distinct NCLs' copies: both
            # stay in place (see ExchangeContext.dedup).
            ids_a = {d.data_id for d in buffer_a.items()}
            shared = {d.data_id for d in buffer_b.items() if d.data_id in ids_a}
        pool: List[DataItem] = []
        seen: set = set()
        for item in buffer_a.items():
            if exempt_a(item) or item.data_id in shared:
                continue
            buffer_a.remove(item.data_id)
            pool.append(item)
            seen.add(item.data_id)
        for item in buffer_b.items():
            if exempt_b(item) or item.data_id in shared:
                continue
            buffer_b.remove(item.data_id)
            if item.data_id not in seen:
                pool.append(item)
        return pool

    @staticmethod
    def _result(
        before_a: Dict[int, DataItem],
        before_b: Dict[int, DataItem],
        kept_a: Sequence[DataItem],
        kept_b: Sequence[DataItem],
        dropped: Sequence[DataItem],
    ) -> ExchangeResult:
        moved = 0
        bits = 0
        for item in kept_a:
            if item.data_id not in before_a:
                moved += 1
                bits += item.size
        for item in kept_b:
            if item.data_id not in before_b:
                moved += 1
                bits += item.size
        return ExchangeResult(
            kept_a=tuple(kept_a),
            kept_b=tuple(kept_b),
            dropped=tuple(dropped),
            moved=moved,
            bits_transferred=bits,
        )


class _OrderedPolicy(ReplacementPolicy):
    """Base for policies defined by a linear keep-priority order."""

    def _eviction_order(self, buffer: CacheBuffer) -> List[DataItem]:
        """Items in eviction order: first element is evicted first."""
        raise NotImplementedError

    def _keep_priority(
        self, item: DataItem, context: ExchangeContext
    ) -> float:
        """Score used to rank pooled items during exchange (higher kept)."""
        raise NotImplementedError

    def admit(
        self,
        buffer: CacheBuffer,
        item: DataItem,
        now: float,
        utility: Optional[Callable[[DataItem], float]] = None,
    ) -> bool:
        self._drop_expired(buffer, now)
        if item.size > buffer.capacity:
            return False
        if buffer.put(item):
            return True
        for victim in self._eviction_order(buffer):
            buffer.remove(victim.data_id)
            if buffer.put(item):
                return True
        return buffer.put(item)

    def exchange(
        self,
        buffer_a: CacheBuffer,
        buffer_b: CacheBuffer,
        context: ExchangeContext,
    ) -> ExchangeResult:
        """Pool both caches; refill A then B in keep-priority order."""
        self._drop_expired(buffer_a, context.now)
        self._drop_expired(buffer_b, context.now)
        before_a = {d.data_id: d for d in buffer_a.items()}
        before_b = {d.data_id: d for d in buffer_b.items()}
        pool = self._withdraw_pool(buffer_a, buffer_b, context)
        pool.sort(key=lambda d: (-self._keep_priority(d, context), d.data_id))
        kept_a: List[DataItem] = []
        kept_b: List[DataItem] = []
        dropped: List[DataItem] = []
        for item in pool:
            if buffer_a.put(item):
                kept_a.append(item)
            elif buffer_b.put(item):
                kept_b.append(item)
            else:
                dropped.append(item)
        return context.notify(
            self._result(before_a, before_b, kept_a, kept_b, dropped)
        )


class FIFOPolicy(_OrderedPolicy):
    """Evict the oldest-inserted item first; keep the newest on exchange."""

    name = "fifo"

    def _eviction_order(self, buffer: CacheBuffer) -> List[DataItem]:
        return buffer.insertion_order()

    def _keep_priority(self, item: DataItem, context: ExchangeContext) -> float:
        # Newest data (latest creation) is kept preferentially — the
        # closest pooled analogue of FIFO's insertion recency.
        return item.created_at


class LRUPolicy(_OrderedPolicy):
    """Evict the least-recently-used item first."""

    name = "lru"

    def __init__(self) -> None:
        # Pairwise exchange pools items from two buffers whose access
        # counters are incomparable; we track global access recency here.
        self._last_access: Dict[int, float] = {}

    def record_access(self, data_id: int, now: float) -> None:
        """Note a cache hit (the scheme calls this when serving queries)."""
        self._last_access[data_id] = now

    def _eviction_order(self, buffer: CacheBuffer) -> List[DataItem]:
        return buffer.access_order()

    def _keep_priority(self, item: DataItem, context: ExchangeContext) -> float:
        return self._last_access.get(item.data_id, item.created_at)


class GreedyDualSizePolicy(ReplacementPolicy):
    """Greedy-Dual-Size [Cao & Irani]: H(i) = L + value(i) / size(i).

    The inflation term L rises to the H of each evicted item, aging
    resident entries.  The value function defaults to 1 (GDS(1), the
    classic web variant); the caching scheme plugs in data popularity so
    Fig. 12 compares GDS on the same signal as the paper's policy.
    """

    name = "gds"

    def __init__(self, value_fn: Optional[Callable[[DataItem], float]] = None):
        self._value_fn = value_fn or (lambda item: 1.0)
        self._inflation = 0.0
        self._h: Dict[int, float] = {}

    @property
    def inflation(self) -> float:
        return self._inflation

    def _h_value(self, item: DataItem) -> float:
        h = self._h.get(item.data_id)
        if h is None:
            h = self._inflation + self._value_fn(item) / item.size
            self._h[item.data_id] = h
        return h

    def refresh(self, item: DataItem) -> None:
        """On a cache hit, restore H to the current-inflation value."""
        self._h[item.data_id] = self._inflation + self._value_fn(item) / item.size

    def admit(
        self,
        buffer: CacheBuffer,
        item: DataItem,
        now: float,
        utility: Optional[Callable[[DataItem], float]] = None,
    ) -> bool:
        self._drop_expired(buffer, now)
        if item.size > buffer.capacity:
            return False
        if buffer.put(item):
            self._h_value(item)
            return True
        # Evict minimum-H items until the new item fits.
        while not buffer.fits(item) and len(buffer):
            victim = min(buffer.items(), key=lambda d: (self._h_value(d), d.data_id))
            self._inflation = max(self._inflation, self._h_value(victim))
            buffer.remove(victim.data_id)
            self._h.pop(victim.data_id, None)
        if buffer.put(item):
            self._h.pop(item.data_id, None)
            self._h_value(item)
            return True
        return False

    def exchange(
        self,
        buffer_a: CacheBuffer,
        buffer_b: CacheBuffer,
        context: ExchangeContext,
    ) -> ExchangeResult:
        self._drop_expired(buffer_a, context.now)
        self._drop_expired(buffer_b, context.now)
        before_a = {d.data_id: d for d in buffer_a.items()}
        before_b = {d.data_id: d for d in buffer_b.items()}
        pool = self._withdraw_pool(buffer_a, buffer_b, context)
        pool.sort(key=lambda d: (-self._h_value(d), d.data_id))
        kept_a: List[DataItem] = []
        kept_b: List[DataItem] = []
        dropped: List[DataItem] = []
        for item in pool:
            if buffer_a.put(item):
                kept_a.append(item)
            elif buffer_b.put(item):
                kept_b.append(item)
            else:
                self._inflation = max(self._inflation, self._h_value(item))
                self._h.pop(item.data_id, None)
                dropped.append(item)
        return context.notify(
            self._result(before_a, before_b, kept_a, kept_b, dropped)
        )


class UtilityKnapsackPolicy(ReplacementPolicy):
    """The paper's replacement policy: Eq. (7) + Algorithm 1.

    On contact, the two caches form a selection pool.  Node A — by
    convention the node whose utilities are given by
    ``context.utility_a``, which the caching scheme arranges to be the
    node with the higher path weight to its central node — selects items
    with the knapsack DP, accepting each DP-selected item with
    probability equal to its (clamped) utility; the selection loop
    repeats so the buffer fills up (Algorithm 1).  Node B then runs the
    same procedure on the remainder.  Items fitting in neither buffer are
    dropped.

    ``probabilistic=False`` disables Algorithm 1 and keeps the pure DP
    selection — the "basic strategy" of Sec. V-D2, exposed for the
    ablation benchmark.
    """

    name = "utility_knapsack"

    def __init__(self, probabilistic: bool = True, max_rounds: int = 8):
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.probabilistic = probabilistic
        self.max_rounds = max_rounds

    # --- admit: utility-ordered eviction ------------------------------

    def admit(
        self,
        buffer: CacheBuffer,
        item: DataItem,
        now: float,
        utility: Optional[Callable[[DataItem], float]] = None,
    ) -> bool:
        """Single-node admission: keep the utility-maximising subset of
        {cached items} ∪ {new item} via the same knapsack."""
        self._drop_expired(buffer, now)
        if item.size > buffer.capacity:
            return False
        if buffer.put(item):
            return True
        utility = utility or (lambda d: 0.0)
        pool = buffer.items() + [item]
        solution = solve_knapsack(
            [
                KnapsackItem(key=d.data_id, value=self._admit_value(d, item, utility), size=d.size)
                for d in pool
            ],
            buffer.capacity,
        )
        keep = set(solution.keys)
        for cached in buffer.items():
            if cached.data_id not in keep:
                buffer.remove(cached.data_id)
        if item.data_id in keep:
            return buffer.put(item)
        return False

    @staticmethod
    def _admit_value(
        candidate: DataItem, incoming: DataItem, utility: Callable[[DataItem], float]
    ) -> float:
        # Epsilon nudge so a zero-utility incoming item still displaces
        # nothing but can occupy genuinely free space deterministically.
        base = max(0.0, utility(candidate))
        return base + (1e-12 if candidate.data_id == incoming.data_id else 0.0)

    # --- exchange: Eq. (7) + Algorithm 1 ----------------------------------

    def exchange(
        self,
        buffer_a: CacheBuffer,
        buffer_b: CacheBuffer,
        context: ExchangeContext,
    ) -> ExchangeResult:
        self._drop_expired(buffer_a, context.now)
        self._drop_expired(buffer_b, context.now)
        before_a = {d.data_id: d for d in buffer_a.items()}
        before_b = {d.data_id: d for d in buffer_b.items()}
        pool = self._withdraw_pool(buffer_a, buffer_b, context)

        # One utility evaluation per (side, item) per exchange; see
        # _memo_utility for why this is bitwise-invisible.
        utility_a = _memo_utility(context.utility_a)
        utility_b = _memo_utility(context.utility_b)
        kept_a = self._select_for(buffer_a, pool, utility_a, context)
        kept_a_ids = {x.data_id for x in kept_a}
        remainder = [d for d in pool if d.data_id not in kept_a_ids]
        kept_b = self._select_for(buffer_b, remainder, utility_b, context)
        kept_b_ids = {x.data_id for x in kept_b}
        leftover = [d for d in remainder if d.data_id not in kept_b_ids]

        # Probabilistic selection decides *placement*; data leaves the
        # cache only under space pressure (Fig. 8b removes d6 because
        # neither node can hold it).  Stuff unselected items into whatever
        # space remains, best utility first, before declaring them dropped.
        leftover.sort(
            key=lambda d: (
                -max(utility_a(d), utility_b(d)),
                d.data_id,
            )
        )
        dropped: List[DataItem] = []
        for item in leftover:
            if item.is_expired(context.now):
                dropped.append(item)
            elif buffer_b.put(item):
                kept_b.append(item)
            elif buffer_a.put(item):
                kept_a.append(item)
            else:
                dropped.append(item)
        return context.notify(
            self._result(before_a, before_b, kept_a, kept_b, dropped)
        )

    def _select_for(
        self,
        buffer: CacheBuffer,
        pool: Sequence[DataItem],
        utility: Callable[[DataItem], float],
        context: ExchangeContext,
    ) -> List[DataItem]:
        """Algorithm 1 at one node: repeated DP + Bernoulli acceptance."""
        remaining = [d for d in pool if not d.is_expired(context.now)]
        selected: List[DataItem] = []
        for _ in range(self.max_rounds):
            remaining = [d for d in remaining if d.size <= buffer.free]
            if not remaining:
                break
            solution = solve_knapsack(
                [
                    KnapsackItem(
                        key=d.data_id,
                        value=min(1.0, max(0.0, utility(d))),
                        size=d.size,
                    )
                    for d in remaining
                ],
                buffer.free,
            )
            if not solution.selected:
                break
            by_id = {d.data_id: d for d in remaining}
            # Walk DP-selected items in descending utility (Algorithm 1's
            # inner loop) and Bernoulli-accept each with its utility.
            ordered = sorted(
                solution.selected, key=lambda k: (-k.value, k.key)
            )
            accepted_this_round = 0
            for kitem in ordered:
                item = by_id[kitem.key]
                if item.size > buffer.free:
                    continue
                accept_probability = kitem.value if self.probabilistic else 1.0
                if not self.probabilistic or context.rng.random() < accept_probability:
                    if buffer.put(item):
                        selected.append(item)
                        remaining.remove(item)
                        accepted_this_round += 1
            if not self.probabilistic:
                break
            if accepted_this_round == 0:
                # Every Bernoulli failed (e.g. all utilities ~0); a further
                # round would loop on the same pool. Guarantee progress by
                # deterministically keeping the top-utility DP pick, which
                # preserves Algorithm 1's "buffer fully utilized" goal.
                top = by_id[ordered[0].key]
                if top.size <= buffer.free and buffer.put(top):
                    selected.append(top)
                    remaining.remove(top)
                else:
                    break
        return selected
