"""Property-based tests for the knapsack solver (Eq. 7)."""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.knapsack import KnapsackItem, _reference_knapsack_dp, solve_knapsack

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
