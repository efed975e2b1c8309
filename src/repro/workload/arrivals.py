"""Registry-selectable query arrival processes (heavy-traffic engine).

The paper issues queries at a constant rate: one query round every
T_L/2, each node requesting Zipf rank *j* with probability P_j (Eq. 8).
That is the :class:`PeriodicArrivals` process — the default, and
bitwise identical to the pre-arrival-process engine (it draws nothing
from the arrival RNG stream and reports intensity exactly ``1.0``, so
the query round takes the legacy fast path).

The other processes modulate the *per-round request intensity*: the
query round multiplies the Zipf pmf by ``round_intensity(now)`` (a
Poisson thinning of the per-rank Bernoulli draws — scaling the success
probability of each draw is equivalent to thinning a modulated arrival
stream rank by rank), clipping to [0, 1].  A flash crowd additionally
directs a surge of extra queries at the single most popular live item
through :meth:`ArrivalProcess.flash_fraction`.

Every process draws only from its **own** RNG stream (bound by the
workload process), so switching arrival processes never perturbs the
data-generation or query-placement draws: two runs with the same seed
and different arrival processes still generate the identical data
catalogue.

New processes register with::

    from repro.workload.arrivals import ARRIVALS

    @ARRIVALS.register("myprocess")
    class MyArrivals(ArrivalProcess):
        PARAMS = {"knob": 1.0}

``tests/workload/test_arrivals_registry_lint.py`` enforces that every
registered name has a paired-determinism test.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple, Type

import numpy as np

from repro.errors import ConfigurationError
from repro.registry import Registry

__all__ = [
    "ARRIVALS",
    "ArrivalProcess",
    "PeriodicArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "build_arrivals",
]


class ArrivalProcess:
    """Base class: constant intensity 1.0, no flash surges, no RNG use.

    Lifecycle: the owning :class:`~repro.workload.generator.
    WorkloadProcess` constructs the process from ``WorkloadConfig.
    arrival_params``, calls :meth:`bind` once with the dedicated arrival
    RNG stream, and :meth:`set_window` when the evaluation window is
    known.  ``round_intensity`` is then called exactly once per query
    round, in round order — stochastic processes consume a fixed number
    of draws per call so the stream stays reproducible.
    """

    #: declared knobs with defaults; unknown keys are rejected up front
    PARAMS: Mapping[str, float] = {}
    #: whether the process ever draws from the arrival RNG stream
    uses_rng: bool = False

    def __init__(self, params: Optional[Mapping[str, float]] = None):
        supplied = dict(params or {})
        unknown = sorted(set(supplied) - set(self.PARAMS))
        if unknown:
            raise ConfigurationError(
                f"unknown arrival parameter(s) {unknown} for "
                f"{type(self).__name__}; known: {sorted(self.PARAMS)}"
            )
        self.params: Dict[str, float] = {**self.PARAMS, **supplied}
        self.rng: Optional[np.random.Generator] = None
        self._window: Optional[Tuple[float, float]] = None

    def bind(self, rng: np.random.Generator) -> None:
        """Attach the dedicated arrival RNG stream (once, before use)."""
        self.rng = rng

    def set_window(self, start: float, end: float) -> None:
        """Announce the evaluation window [start, end) the rounds span."""
        if end <= start:
            raise ConfigurationError("arrival window must have positive length")
        self._window = (float(start), float(end))

    # --- per-round hooks -------------------------------------------------

    def round_intensity(self, now: float) -> float:
        """Multiplier on the Zipf request probabilities this round."""
        return 1.0

    def flash_fraction(self, now: float) -> float:
        """Per-node probability of one extra query for the flash target."""
        return 0.0

    def flash_window(self) -> Optional[Tuple[float, float]]:
        """The absolute [start, end) surge window, for processes that
        have one (None otherwise, and before :meth:`set_window`)."""
        return None

    @property
    def flash_rank(self) -> int:
        """1-based popularity rank of the flash-crowd target item."""
        return int(self.params.get("rank", 1))


#: arrival-process name → :class:`ArrivalProcess` subclass
ARRIVALS: Registry = Registry("arrival process")


@ARRIVALS.register("periodic")
class PeriodicArrivals(ArrivalProcess):
    """The paper's constant-rate rounds (Sec. VI-A2) — the default.

    Intensity is the exact float ``1.0`` every round, which the query
    round recognises as "multiply by nothing": the pmf array is used
    untouched and the produced query stream is bitwise identical to the
    engine before arrival processes existed.
    """


@ARRIVALS.register("bursty")
class BurstyArrivals(ArrivalProcess):
    """Markov-modulated bursts (a two-state MMPP thinned per rank).

    Each round the process draws **one** uniform to step a two-state
    (calm/burst) Markov chain: calm enters a burst with probability
    ``p_enter``; a burst ends with probability ``p_exit``.  The round's
    intensity is ``burst`` inside a burst and ``base`` outside, so the
    long-run stream alternates quiet stretches with arrival storms —
    the regime where bounded-memory metrics earn their keep.
    """

    PARAMS = {"base": 0.3, "burst": 3.0, "p_enter": 0.2, "p_exit": 0.5}
    uses_rng = True

    def __init__(self, params: Optional[Mapping[str, float]] = None):
        super().__init__(params)
        if self.params["base"] < 0 or self.params["burst"] < 0:
            raise ConfigurationError("bursty intensities must be non-negative")
        for key in ("p_enter", "p_exit"):
            if not 0.0 <= self.params[key] <= 1.0:
                raise ConfigurationError(f"bursty {key} must be in [0, 1]")
        self._bursting = False

    def round_intensity(self, now: float) -> float:
        assert self.rng is not None, "bind() must run before rounds"
        u = float(self.rng.random())
        if self._bursting:
            self._bursting = u >= self.params["p_exit"]
        else:
            self._bursting = u < self.params["p_enter"]
        return self.params["burst"] if self._bursting else self.params["base"]


@ARRIVALS.register("diurnal")
class DiurnalArrivals(ArrivalProcess):
    """Deterministic day/night cycle: ``1 + amplitude·sin(2πt/period)``.

    ``t`` is measured from the evaluation-window start (so the cycle
    phase is trace-independent), with an optional ``phase`` offset in
    radians.  The intensity is floored at 0 — an amplitude above 1
    silences the night-side rounds entirely.
    """

    PARAMS = {"amplitude": 0.5, "period": 86400.0, "phase": 0.0}

    def __init__(self, params: Optional[Mapping[str, float]] = None):
        super().__init__(params)
        if self.params["amplitude"] < 0:
            raise ConfigurationError("diurnal amplitude must be non-negative")
        if self.params["period"] <= 0:
            raise ConfigurationError("diurnal period must be positive")

    def round_intensity(self, now: float) -> float:
        origin = self._window[0] if self._window is not None else 0.0
        angle = (
            2.0 * math.pi * (now - origin) / self.params["period"]
            + self.params["phase"]
        )
        return max(0.0, 1.0 + self.params["amplitude"] * math.sin(angle))


@ARRIVALS.register("flash_crowd")
class FlashCrowdArrivals(ArrivalProcess):
    """Baseline rounds plus a surge targeting one popular item.

    During the flash window — starting at fraction ``at`` of the
    evaluation window and lasting fraction ``duration`` of it — every
    node additionally requests the live item of popularity rank
    ``rank`` with probability ``probability`` per round (drawn from the
    arrival stream, one uniform per node).  Outside the window the
    process is exactly the periodic baseline.
    """

    PARAMS = {"at": 0.5, "duration": 0.1, "probability": 0.5, "rank": 1}
    uses_rng = True

    def __init__(self, params: Optional[Mapping[str, float]] = None):
        super().__init__(params)
        if not 0.0 <= self.params["at"] <= 1.0:
            raise ConfigurationError("flash_crowd at must be in [0, 1]")
        if self.params["duration"] <= 0:
            raise ConfigurationError("flash_crowd duration must be positive")
        if not 0.0 <= self.params["probability"] <= 1.0:
            raise ConfigurationError("flash_crowd probability must be in [0, 1]")
        if self.params["rank"] < 1:
            raise ConfigurationError("flash_crowd rank must be >= 1")

    def flash_window(self) -> Optional[Tuple[float, float]]:
        if self._window is None:
            return None
        start, end = self._window
        span = end - start
        flash_start = start + self.params["at"] * span
        return (flash_start, flash_start + self.params["duration"] * span)

    def flash_fraction(self, now: float) -> float:
        window = self.flash_window()
        if window is not None and window[0] <= now < window[1]:
            return self.params["probability"]
        return 0.0


def build_arrivals(name: str, params: Optional[Mapping[str, float]]) -> ArrivalProcess:
    """Resolve *name* through :data:`ARRIVALS` and construct the process."""
    cls: Type[ArrivalProcess] = ARRIVALS.get(name)
    return cls(params)
