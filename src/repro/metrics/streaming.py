"""Bounded-memory delay quantiles.

:class:`P2Quantile` is the P² algorithm (Jain & Chlamtac, 1985): an
online quantile estimate from five markers, O(1) state and O(1) per
observation.  The metrics collector keeps three of them for the running
delay percentiles exported to the time-series telemetry and the health
monitor.  The estimate is a deterministic function of the input stream,
so it preserves the repo's bitwise reproducibility contracts.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

__all__ = ["P2Quantile"]


class P2Quantile:
    """Online quantile estimation with the P² algorithm (O(1) state).

    Five markers track (min, q/2, q, (1+q)/2, max); marker heights are
    adjusted per observation with a piecewise-parabolic fit.  Until five
    observations arrive the estimate falls back to the exact small-sample
    quantile.
    """

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self._q = q
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: Tuple[float, ...] = (
            0.0,
            q / 2.0,
            q,
            (1.0 + q) / 2.0,
            1.0,
        )
        self._count = 0

    @property
    def q(self) -> float:
        return self._q

    @property
    def count(self) -> int:
        return self._count

    def observe(self, value: float) -> None:
        self._count += 1
        if self._count <= 5:
            bisect.insort(self._initial, value)
            if self._count == 5:
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0 + 2.0 * (self._count - 1) * inc for inc in self._increments
                ]
            return

        heights = self._heights
        positions = self._positions
        # Locate the cell and clamp the extremes.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i, inc in enumerate(self._increments):
            self._desired[i] += inc

        # Adjust the three interior markers toward their desired spots.
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + step / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + step) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - step) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (p[j] - p[i])

    @property
    def value(self) -> float:
        """The current quantile estimate (NaN before any observation)."""
        if self._count == 0:
            return float("nan")
        if self._count <= 5:
            index = min(len(self._initial) - 1, int(self._q * len(self._initial)))
            return self._initial[index]
        return self._heights[2]
