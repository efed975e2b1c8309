"""Property-based tests for the knapsack solver (Eq. 7)."""

import itertools
import math

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core.knapsack import (
    KnapsackItem,
    _keep_table,
    _reference_knapsack_dp,
    solve_knapsack,
)

small_items = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=1, max_value=30),
    ),
    min_size=0,
    max_size=8,
)


def brute_force_value(items, capacity):
    best = 0.0
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            if sum(i.size for i in combo) <= capacity:
                best = max(best, sum(i.value for i in combo))
    return best


@settings(max_examples=150)
@given(raw=small_items, capacity=st.integers(min_value=0, max_value=100))
def test_exact_on_unquantised_instances(raw, capacity):
    items = [KnapsackItem(i, v, s) for i, (v, s) in enumerate(raw)]
    solution = solve_knapsack(items, capacity)
    assert solution.total_size <= capacity
    assert solution.total_value == sum(i.value for i in solution.selected)
    assert abs(solution.total_value - brute_force_value(items, capacity)) < 1e-9


@settings(max_examples=100)
@given(raw=small_items, capacity=st.integers(min_value=0, max_value=100))
def test_reference_dp_keep_table_is_optimal(raw, capacity):
    """The Eq. 7 DP oracle on its own, without the solver's quantisation
    and singleton repair: its keep table, traced back from full
    capacity, reaches the brute-force optimum without overfilling."""
    values = [v for v, _ in raw]
    sizes = [s for _, s in raw]
    keep = _reference_knapsack_dp(values, sizes, capacity)
    w, total = capacity, 0.0
    for i in range(len(raw) - 1, -1, -1):
        if keep[i][w]:
            total += values[i]
            w -= sizes[i]
    assert w >= 0
    items = [KnapsackItem(i, v, s) for i, (v, s) in enumerate(raw)]
    assert abs(total - brute_force_value(items, capacity)) < 1e-9


@settings(max_examples=60)
@given(
    raw=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.integers(min_value=1_000_000, max_value=300_000_000),
        ),
        min_size=0,
        max_size=10,
    ),
    capacity=st.integers(min_value=0, max_value=600_000_000),
)
def test_quantised_never_overfills(raw, capacity):
    items = [KnapsackItem(i, v, s) for i, (v, s) in enumerate(raw)]
    solution = solve_knapsack(items, capacity)
    assert solution.total_size <= capacity
    selected_keys = set(solution.keys)
    assert len(selected_keys) == len(solution.selected)  # no duplicates


@settings(max_examples=60)
@given(raw=small_items, capacity=st.integers(min_value=0, max_value=100))
def test_deterministic(raw, capacity):
    items = [KnapsackItem(i, v, s) for i, (v, s) in enumerate(raw)]
    a = solve_knapsack(items, capacity)
    b = solve_knapsack(items, capacity)
    assert a.keys == b.keys


# Values the strict ``>`` must get right: exact ties, zero, the smallest
# subnormal, and 1e-17, which is below one ulp of a running sum of 1.0.
corner_values = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-17, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


@settings(max_examples=200)
@given(
    raw=st.lists(st.tuples(corner_values, st.integers(1, 64)), max_size=8),
    cap_units=st.integers(min_value=1, max_value=64),
)
@example(raw=[(1.0, 1), (1e-17, 1)], cap_units=2)
@example(raw=[(0.5, 2), (0.5, 2), (0.0, 1), (5e-324, 1), (0.5, 4)], cap_units=4)
def test_numpy_keep_table_matches_reference(raw, cap_units):
    values = [v for v, _ in raw]
    sizes = [min(s, cap_units) for _, s in raw]
    keep = _keep_table(values, sizes, cap_units)
    assert keep.tolist() == _reference_knapsack_dp(values, sizes, cap_units)


def _reference_solution(items, capacity, max_units):
    """What the solver must return: the oracle table's traceback over
    the quantised instance, then the oversize-singleton repair."""
    resolution = 1 if capacity <= max_units else math.ceil(capacity / max_units)
    cap_units = capacity // resolution
    sizes = [math.ceil(item.size / resolution) for item in items]
    feasible = [i for i, size in enumerate(sizes) if size <= cap_units]
    keep = _reference_knapsack_dp(
        [items[i].value for i in feasible], [sizes[i] for i in feasible], cap_units
    )
    chosen, w = [], cap_units
    for row in range(len(feasible) - 1, -1, -1):
        if keep[row][w]:
            chosen.insert(0, items[feasible[row]])
            w -= sizes[feasible[row]]
    total = sum(item.value for item in chosen)
    oversize = [
        item
        for item, size in zip(items, sizes)
        if size > cap_units and item.size <= capacity
    ]
    if oversize:
        single = max(oversize, key=lambda item: item.value)  # earliest on ties
        if single.value > total:
            return (single.key,), single.value, single.size
    return tuple(item.key for item in chosen), total, sum(i.size for i in chosen)


@settings(max_examples=300)
@given(
    raw=st.lists(st.tuples(corner_values, st.integers(1, 300)), max_size=10),
    capacity=st.integers(min_value=1, max_value=300),
    max_units=st.integers(min_value=1, max_value=64),
)
# Resolution 3: quantised sizes 1, 2, 2 overflow 3 units, so a table is filled.
@example(raw=[(0.5, 3), (0.5, 4), (1.0, 5)], capacity=10, max_units=4)
# Quantised sizes 1 + 2 + 1 fill the 4 units exactly: no table.
@example(raw=[(1.0, 3), (0.0, 6), (1e-17, 3)], capacity=12, max_units=4)
# Raw sizes sum to the capacity, quantised sizes 2 + 2 + 2 overflow 4 units.
@example(raw=[(0.3, 4), (0.3, 4), (0.3, 4)], capacity=12, max_units=4)
# 4097 bits rounds up to 2049 of 2048 units but truly fits.
@example(raw=[(0.4, 10), (0.9, 4097)], capacity=4097, max_units=4096)
def test_solver_matches_reference_traceback(raw, capacity, max_units):
    items = [KnapsackItem(i, v, s) for i, (v, s) in enumerate(raw)]
    solution = solve_knapsack(items, capacity, max_units)
    keys, total_value, total_size = _reference_solution(items, capacity, max_units)
    assert solution.keys == keys
    assert solution.total_value == total_value
    assert solution.total_size == total_size
