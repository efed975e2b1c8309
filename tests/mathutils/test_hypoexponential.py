"""Unit tests for the hypoexponential distribution (paper Eq. 1-2)."""

import math

import numpy as np
import pytest

from repro.mathutils.hypoexponential import (
    _closed_form_cdf,
    _matrix_cdf_batch,
    hypoexponential_cdf,
    path_delivery_probability,
)


class TestSingleHop:
    def test_matches_exponential_cdf(self):
        lam = 1.0 / 3600.0
        for t in (0.0, 100.0, 3600.0, 86400.0):
            expected = 1.0 - math.exp(-lam * t) if t > 0 else 0.0
            assert hypoexponential_cdf([lam], t) == pytest.approx(expected)

    def test_zero_time_is_zero(self):
        assert hypoexponential_cdf([0.5], 0.0) == 0.0

    def test_negative_time_is_zero(self):
        assert hypoexponential_cdf([0.5], -10.0) == 0.0


class TestClosedFormVsMatrix:
    def test_distinct_rates_agree(self):
        rates = [1.0, 0.5, 0.25]
        for t in (0.1, 1.0, 5.0, 20.0):
            assert _closed_form_cdf(rates, t)[0] == pytest.approx(
                _matrix_cdf_batch([rates], [t])[0], abs=1e-9
            )

    def test_repeated_rates_use_matrix_path(self):
        # Erlang(3, 1): CDF(t) = 1 - e^-t (1 + t + t^2/2)
        rates = [1.0, 1.0, 1.0]
        t = 2.0
        erlang = 1.0 - math.exp(-t) * (1 + t + t * t / 2)
        assert hypoexponential_cdf(rates, t) == pytest.approx(erlang, abs=1e-9)

    def test_nearly_equal_rates_stay_in_unit_interval(self):
        rates = [1.0, 1.0 + 1e-9, 1.0 + 2e-9]
        value = hypoexponential_cdf(rates, 3.0)
        assert 0.0 <= value <= 1.0


class TestValidation:
    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0], [float("nan")], [float("inf")]])
    def test_invalid_rates_rejected(self, bad):
        with pytest.raises(ValueError):
            hypoexponential_cdf(bad, 1.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            path_delivery_probability([1.0], -1.0)


class TestPathDeliveryProbability:
    def test_empty_path_is_certain(self):
        assert path_delivery_probability([], 0.0) == 1.0
        assert path_delivery_probability([], 100.0) == 1.0

    def test_extra_hop_decreases_probability(self):
        base = [1.0 / 3600, 1.0 / 7200]
        extended = base + [1.0 / 3600]
        t = 4 * 3600.0
        assert path_delivery_probability(extended, t) < path_delivery_probability(
            base, t
        )

    def test_monotone_in_time(self):
        rates = [0.001, 0.002, 0.0005]
        values = [path_delivery_probability(rates, t) for t in (10, 100, 1000, 10000)]
        assert values == sorted(values)


class TestDistributionObject:
    """Moments and Monte Carlo draws of the hypoexponential distribution,
    read through its CDF."""

    @staticmethod
    def _moments(rates):
        """E[Y] = ∫ (1 − F) dt and E[Y²] = ∫ 2t (1 − F) dt on a fine grid."""
        grid = np.linspace(0.0, 200.0, 20001)
        survival = np.array([1.0 - hypoexponential_cdf(rates, t) for t in grid])
        return np.trapezoid(survival, grid), np.trapezoid(2.0 * grid * survival, grid)

    @staticmethod
    def _sample(rng, rates, size):
        """Sums of independent per-hop exponential draws."""
        return sum(rng.exponential(1.0 / lam, size=size) for lam in rates)

    def test_mean_and_variance(self):
        mean, second = self._moments([0.5, 0.25])
        assert mean == pytest.approx(2.0 + 4.0, rel=1e-4)
        assert second - mean**2 == pytest.approx(4.0 + 16.0, rel=1e-3)

    def test_sampling_mean_close_to_analytic(self, rng):
        samples = self._sample(rng, [1.0, 0.5], 20000)
        assert samples.mean() == pytest.approx(self._moments([1.0, 0.5])[0], rel=0.05)

    def test_sampling_cdf_close_to_analytic(self, rng):
        samples = self._sample(rng, [1.0, 0.5], 20000)
        t = 3.0
        assert (samples <= t).mean() == pytest.approx(
            hypoexponential_cdf([1.0, 0.5], t), abs=0.02
        )
