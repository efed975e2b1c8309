"""Property-based tests for the hypoexponential kernel (Eq. 1-2)."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings
from scipy.linalg import expm

from repro.mathutils import hypoexponential
from repro.mathutils.hypoexponential import (
    _cluster_rates,
    _generator_matrix,
    _matrix_cdf_batch,
    hypoexponential_cdf,
    hypoexponential_cdf_batch,
    pad_rate_rows,
)

rates_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)
time_strategy = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)


@given(rates=rates_strategy, t=time_strategy)
def test_cdf_is_a_probability(rates, t):
    value = hypoexponential_cdf(rates, t)
    assert 0.0 <= value <= 1.0


@given(rates=rates_strategy, t1=time_strategy, t2=time_strategy)
def test_cdf_monotone_in_time(rates, t1, t2):
    lo, hi = sorted((t1, t2))
    assert hypoexponential_cdf(rates, lo) <= hypoexponential_cdf(rates, hi) + 1e-12


@given(
    rates=rates_strategy,
    extra=st.floats(min_value=1e-6, max_value=10.0),
    t=st.floats(min_value=1e-3, max_value=1e5),
)
def test_extra_hop_never_increases_probability(rates, extra, t):
    assert hypoexponential_cdf(rates + [extra], t) <= hypoexponential_cdf(rates, t) + 1e-9


@st.composite
def rows_with_near_duplicates(draw, min_size=1):
    """1–8 rates; some are copies of an earlier rate of the row, exact
    or off by a relative jitter of up to 1e-4."""
    rates = draw(
        st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=min_size, max_size=8)
    )
    for i in range(1, len(rates)):
        if draw(st.booleans()):
            j = draw(st.integers(min_value=0, max_value=i - 1))
            jitter = draw(st.just(0.0) | st.floats(min_value=-1e-4, max_value=1e-4))
            rates[i] = rates[j] * (1.0 + jitter)
    return rates


def _expm_cdf(rates, t):
    """The CDF through one matrix exponential of the clustered generator."""
    survival = expm(_generator_matrix(_cluster_rates(rates)) * t).sum(axis=1)[0]
    return min(1.0, max(0.0, float(1.0 - survival)))


@settings(max_examples=200, deadline=None)
@given(
    batch=st.lists(rows_with_near_duplicates(), min_size=1, max_size=6),
    t=st.floats(min_value=1e-2, max_value=1e3),
)
# Smallest relative gap 2.4e-6, Σ|C_k| = 3.5e10: a 1e-6 rate-separation
# test took the closed form here, and it read 0.4908485 for 0.4908509.
@example(batch=[[4.0, 5.0, 4.75, 4.73828125, 4.738269757074276]], t=1.0)
def test_closed_form_agrees_with_matrix_exponential(batch, t):
    """The gate sends a row to the closed form only where its rounding
    bound is within 1e-10, so every row, scalar or in a padded batch,
    agrees with the matrix exponential to 1e-10."""
    values = hypoexponential_cdf_batch(pad_rate_rows(batch), t)
    for rates, value in zip(batch, values):
        truth = _expm_cdf(rates, t)
        assert abs(hypoexponential_cdf(rates, t) - truth) <= 1e-10
        assert abs(value - truth) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(
    batch=st.lists(rows_with_near_duplicates(min_size=2), min_size=1, max_size=6),
    t=st.floats(min_value=1e-2, max_value=1e3),
)
def test_stacked_expm_matches_a_lone_expm_bit_for_bit(batch, t):
    """The scalar's fallback is the memoised, stacked route: each row,
    cold or memoised, has the bits of one expm of its own generator."""
    hypoexponential._MATRIX_CDF_CACHE.clear()
    cold = _matrix_cdf_batch(batch, [t] * len(batch))
    warm = _matrix_cdf_batch(batch, [t] * len(batch))
    lone = np.array([_expm_cdf(rates, t) for rates in batch])
    assert cold.tobytes() == lone.tobytes() == warm.tobytes()


@given(
    rate=st.floats(min_value=1e-4, max_value=10.0),
    count=st.integers(min_value=1, max_value=5),
    t=st.floats(min_value=0.0, max_value=100.0),
)
def test_identical_rates_match_erlang(rate, count, t):
    """Repeated rates must reduce to the Erlang CDF."""
    import math

    value = hypoexponential_cdf([rate] * count, t)
    if t <= 0:
        assert value == 0.0
        return
    erlang = 1.0 - sum(
        math.exp(-rate * t) * (rate * t) ** k / math.factorial(k) for k in range(count)
    )
    assert abs(value - min(1.0, max(0.0, erlang))) < 1e-7
