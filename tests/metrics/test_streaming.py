"""Unit tests for the P² delay-quantile sketch."""

import math

import numpy as np
import pytest

from repro.metrics.streaming import P2Quantile


class TestP2Quantile:
    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    def test_small_sample_exact(self):
        sketch = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            sketch.observe(value)
        assert sketch.value == 3.0  # exact small-sample median

    @pytest.mark.parametrize("q", [0.5, 0.95])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tracks_numpy_percentile(self, q, seed):
        rng = np.random.default_rng(seed)
        values = rng.exponential(scale=100.0, size=5000)
        sketch = P2Quantile(q)
        for value in values:
            sketch.observe(float(value))
        exact = float(np.percentile(values, q * 100.0))
        # P² is an estimate; 10% relative tolerance on a smooth heavy-ish
        # tailed distribution is the documented accuracy envelope.
        assert sketch.value == pytest.approx(exact, rel=0.10)

    def test_monotone_input(self):
        sketch = P2Quantile(0.5)
        for value in range(1, 1001):
            sketch.observe(float(value))
        assert sketch.value == pytest.approx(500.0, rel=0.05)

    def test_state_is_constant_size(self):
        sketch = P2Quantile(0.95)
        for value in range(10_000):
            sketch.observe(float(value))
        assert len(sketch._heights) == 5
        assert len(sketch._positions) == 5
        assert sketch.count == 10_000

    def test_invalid_q_rejected(self):
        for q in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                P2Quantile(q)

    def test_deterministic(self):
        values = list(np.random.default_rng(7).normal(size=2000))
        results = []
        for _ in range(2):
            sketch = P2Quantile(0.5)
            for value in values:
                sketch.observe(float(value))
            results.append(sketch.value)
        assert results[0] == results[1]
