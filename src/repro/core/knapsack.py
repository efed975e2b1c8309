"""0/1 knapsack solver for cache replacement (paper Eq. 7).

When two caching nodes meet, the higher-priority node selects which items
from the joint selection pool to keep, maximising total utility under its
buffer capacity — a 0/1 knapsack solved "in pseudo-polynomial time
O(n · S_A) by dynamic programming" (Sec. V-D2).

Buffer capacities in this library are in **bits** (hundreds of megabits),
so a literal O(n · S_A) table is infeasible; the solver first quantises
sizes to a resolution chosen so the capacity axis has at most
``max_capacity_units`` cells.  Item sizes are rounded **up** and the
capacity **down**, so a quantised solution never overfills the real
buffer.

Quantisation bound.  Rounding can only *exclude* value, never overfill:
the solution is optimal for the quantised instance, and the true optimum
exceeds it by at most the value displaced when each selected item grows
by under one resolution unit (≤ n·resolution bits of phantom occupancy).
One failure mode of naive rounding is repaired explicitly: an item whose
rounded-up size exceeds the rounded-down capacity may still *truly* fit
(its real size lies in ``(cap_units·resolution, capacity]``, a window
narrower than one resolution unit).  At most one such item fits at a
time — any two of them sum past the capacity — so after the DP the best
truly-fitting oversize item replaces the DP selection when its value
strictly beats the DP total (ties prefer the DP solution, and among
oversize items the earliest highest-value one wins, preserving the
solver's determinism contract).  What remains unrepaired is bounded:
combining one oversize item with sub-resolution leftovers can be missed,
costing at most the value packable into one resolution unit.

Most pools need no table.  When the feasible items' quantised sizes sum
to at most the quantised capacity, every DP cell at or past a prefix's
total size holds that prefix's running sum, and the traceback from full
capacity reads only such cells: the DP keeps exactly the items, in input
order, whose value strictly raises the running sum.  The solver takes
that shortcut; otherwise it fills the keep table with numpy, one row per
item, making the same float additions and strict ``>`` comparisons as
the pure-Python recurrence :func:`_reference_knapsack_dp`, the oracle
the property tests pin both paths to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import KnapsackError

__all__ = ["KnapsackItem", "KnapsackSolution", "solve_knapsack"]


@dataclass(frozen=True)
class KnapsackItem:
    """One candidate item: an opaque key, a non-negative value (utility),
    and a positive integral size (bits)."""

    key: Hashable
    value: float
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise KnapsackError(f"item {self.key!r} has non-positive size {self.size}")
        if not math.isfinite(self.value) or self.value < 0:
            raise KnapsackError(f"item {self.key!r} has invalid value {self.value}")


@dataclass(frozen=True)
class KnapsackSolution:
    """Selected items plus totals; `selected` preserves input order."""

    selected: Tuple[KnapsackItem, ...]
    total_value: float
    total_size: int

    @property
    def keys(self) -> Tuple[Hashable, ...]:
        return tuple(item.key for item in self.selected)


_EMPTY_SOLUTION = KnapsackSolution(selected=(), total_value=0.0, total_size=0)


def _resolution_for(capacity: int, max_capacity_units: int) -> int:
    if capacity <= max_capacity_units:
        return 1
    return math.ceil(capacity / max_capacity_units)


def _reference_knapsack_dp(
    values: Sequence[float], sizes: Sequence[int], cap_units: int
) -> List[List[bool]]:
    """Pure-Python 1-D 0/1 knapsack fill — the ``knapsack_dp`` oracle.

    Returns the keep table (``keep[i][w]`` = item *i* taken at capacity
    *w*); ties resolve toward earlier items via the strict ``>``.
    """
    width = cap_units + 1
    best = [0.0] * width
    keep: List[List[bool]] = []
    for value, size in zip(values, sizes):
        keep_row = [False] * width
        # Iterate capacity descending: classic 1-D 0/1 knapsack update.
        for w in range(cap_units, size - 1, -1):
            candidate = best[w - size] + value
            if candidate > best[w]:
                best[w] = candidate
                keep_row[w] = True
        keep.append(keep_row)
    return keep


def _keep_table(
    values: Sequence[float], sizes: Sequence[int], cap_units: int
) -> np.ndarray:
    """:func:`_reference_knapsack_dp`'s keep table, one numpy row per item.

    Each row of the descending 1-D recurrence reads only the previous
    row's ``best``, so the vector update makes the same float additions
    and strict ``>`` comparisons, cell for cell.
    """
    width = cap_units + 1
    best = np.zeros(width)
    keep = np.zeros((len(values), width), dtype=bool)
    for i, (value, size) in enumerate(zip(values, sizes)):
        candidate = best[: width - size] + value
        take = candidate > best[size:]
        keep[i, size:] = take
        best[size:] = np.where(take, candidate, best[size:])
    return keep


def solve_knapsack(
    items: Sequence[KnapsackItem],
    capacity: int,
    max_capacity_units: int = 4096,
) -> KnapsackSolution:
    """Solve the 0/1 knapsack over *items* with buffer *capacity* (bits).

    Returns the utility-maximising subset under quantisation (see module
    docstring).  Deterministic: ties are resolved by preferring items
    earlier in the input sequence.
    """
    if capacity < 0:
        raise KnapsackError(f"capacity must be non-negative, got {capacity}")
    if max_capacity_units < 1:
        raise KnapsackError("max_capacity_units must be >= 1")
    items = list(items)
    if not items or capacity == 0:
        return _EMPTY_SOLUTION

    resolution = _resolution_for(capacity, max_capacity_units)
    cap_units = capacity // resolution
    sizes = [math.ceil(item.size / resolution) for item in items]

    feasible = [
        (item, size) for item, size in zip(items, sizes) if size <= cap_units
    ]
    # Singleton repair (see module docstring): the best item whose
    # rounded-up size overflows the quantised capacity but whose true
    # size fits.  Strict > keeps earlier items on value ties.
    best_single: Optional[KnapsackItem] = None
    for item, size in zip(items, sizes):
        if size > cap_units and item.size <= capacity:
            if best_single is None or item.value > best_single.value:
                best_single = item

    if not feasible:
        if best_single is not None and best_single.value > 0.0:
            return KnapsackSolution(
                selected=(best_single,),
                total_value=best_single.value,
                total_size=best_single.size,
            )
        return _EMPTY_SOLUTION

    if sum(size for _, size in feasible) <= cap_units:
        # The pool fits: the DP would keep exactly the items that
        # strictly raise the running sum (module docstring).
        kept: List[KnapsackItem] = []
        running = 0.0
        for item, _ in feasible:
            if running + item.value > running:
                running += item.value
                kept.append(item)
        selected = tuple(kept)
    else:
        keep = _keep_table(
            [item.value for item, _ in feasible],
            [size for _, size in feasible],
            cap_units,
        )
        # Traceback from full capacity.
        selected_indices: List[int] = []
        w = cap_units
        for i in range(len(feasible) - 1, -1, -1):
            if keep[i, w]:
                selected_indices.append(i)
                w -= feasible[i][1]
        selected_indices.reverse()
        selected = tuple(feasible[i][0] for i in selected_indices)

    total_value = sum(item.value for item in selected)
    if best_single is not None and best_single.value > total_value:
        return KnapsackSolution(
            selected=(best_single,),
            total_value=best_single.value,
            total_size=best_single.size,
        )
    return KnapsackSolution(
        selected=selected,
        total_value=total_value,
        total_size=sum(item.size for item in selected),
    )
