"""Hypoexponential distribution of multi-hop opportunistic delays.

Paper context (Sec. IV-A).  The inter-contact time of each hop *k* on an
opportunistic path is exponential with rate λₖ, so the end-to-end delay
``Y = X₁ + … + X_r`` follows a *hypoexponential* distribution.  Eq. (1)
of the paper gives its density as a signed mixture of the per-hop
exponentials,

    p_Y(x) = Σₖ C_k^{(r)} λₖ e^{-λₖ x},
    C_k^{(r)} = Π_{s≠k} λ_s / (λ_s − λₖ),

and Eq. (2) integrates it into the **path weight** — the probability the
data traverses the path within time T:

    p(T) = Σₖ C_k^{(r)} (1 − e^{-λₖ T}).

The closed form requires pairwise-distinct rates and is numerically
catastrophic when rates nearly coincide (the coefficients blow up with
alternating signs).  Real contact traces produce many near-equal rates, so
this module provides a robust evaluation strategy:

* distinct, well-separated rates → the closed form (fast path);
* repeated or clustered rates → the matrix-exponential formulation.  A
  hypoexponential is a phase-type distribution whose generator is the
  bidiagonal matrix with −λₖ on the diagonal and λₖ on the superdiagonal;
  ``CDF(t) = 1 − [exp(Q t) · 1]₀`` evaluated with :func:`scipy.linalg.expm`.

Both agree to ~1e-10 on well-separated inputs (covered by property tests).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Union

import numpy as np
from scipy.linalg import expm

__all__ = [
    "Hypoexponential",
    "hypoexponential_cdf",
    "hypoexponential_cdf_batch",
    "pad_rate_rows",
    "path_delivery_probability",
]

#: Minimum relative gap between two rates for the closed form to be trusted.
_DISTINCT_RTOL = 1e-6

#: Batch size from which duplicate (row, t) pairs are collapsed: one
#: lexsort of the batch plus an adjacent-row compare.  On the benchmark
#: workloads' batches of 64 rows and more this costs less than it saves,
#: with the expm memo cold or warm.
_DEDUP_MIN_ROWS = 64


def _validate_rates(rates: Sequence[float]) -> List[float]:
    rates = [float(r) for r in rates]
    if not rates:
        raise ValueError("at least one rate is required")
    for rate in rates:
        if not math.isfinite(rate) or rate <= 0.0:
            raise ValueError(f"rates must be positive and finite, got {rate}")
    return rates


def _rates_well_separated(rates: Sequence[float]) -> bool:
    ordered = sorted(rates)
    for a, b in zip(ordered, ordered[1:]):
        if b - a <= _DISTINCT_RTOL * b:
            return False
    return True


def _closed_form_cdf(rates: Sequence[float], t: float) -> float:
    """Eq. (2) of the paper, valid for pairwise-distinct rates."""
    total = 0.0
    for k, lam_k in enumerate(rates):
        coeff = 1.0
        for s, lam_s in enumerate(rates):
            if s == k:
                continue
            coeff *= lam_s / (lam_s - lam_k)
        total += coeff * (1.0 - math.exp(-lam_k * t))
    return total


def _cluster_rates(rates: Sequence[float], rtol: float = 1e-9) -> List[float]:
    """Snap rates that agree to within *rtol* onto their cluster mean.

    A pair of rates differing by less than float precision makes every
    evaluation method ill-conditioned (the analytic term is a difference
    quotient whose numerator underflows), while *exactly* repeated rates
    are numerically benign.  Replacing near-duplicates by their mean
    changes the distribution by O(rtol) and restores stability.
    """
    ordered = sorted(range(len(rates)), key=lambda i: rates[i])
    clustered = list(rates)
    cluster = [ordered[0]]
    for index in ordered[1:]:
        if rates[index] - rates[cluster[-1]] <= rtol * rates[index]:
            cluster.append(index)
        else:
            if len(cluster) > 1:
                mean = sum(rates[i] for i in cluster) / len(cluster)
                for i in cluster:
                    clustered[i] = mean
            cluster = [index]
    if len(cluster) > 1:
        mean = sum(rates[i] for i in cluster) / len(cluster)
        for i in cluster:
            clustered[i] = mean
    return clustered


def _generator_matrix(rates: Sequence[float]) -> np.ndarray:
    """Sub-generator of the phase-type representation (absorbing chain)."""
    r = len(rates)
    q = np.zeros((r, r))
    for k, lam in enumerate(rates):
        q[k, k] = -lam
        if k + 1 < r:
            q[k, k + 1] = lam
    return q


def _matrix_cdf(rates: Sequence[float], t: float) -> float:
    q = _generator_matrix(rates)
    survival = expm(q * t).sum(axis=1)[0]
    return float(1.0 - survival)


#: Cross-batch memo for the expm fallback.  Trace-quantised rates repeat
#: the same hop tuples across every per-source sweep of a run, and expm
#: costs ~200µs per matrix even stacked (scipy iterates per matrix), so
#: remembering (tuple, t) → CDF turns the steady state into dict hits.
#: Bounded by wholesale reset — the workload is a small recurring
#: vocabulary, so an LRU's bookkeeping would cost more than it saves.
_MATRIX_CDF_CACHE: dict = {}
_MATRIX_CDF_CACHE_MAX = 1 << 18


def _matrix_cdf_batch(rate_lists: Sequence[List[float]], times: np.ndarray) -> np.ndarray:
    """Matrix-exponential CDF for many rate tuples at once.

    Rows are grouped by hop count and each group goes through one stacked
    :func:`scipy.linalg.expm` call (scipy applies the same scaling-and-
    squaring per matrix, so values are identical to the scalar path).
    Rates are pre-clustered exactly like :func:`hypoexponential_cdf`.
    Results are memoised per (rate tuple, t) across calls.
    """
    out = np.zeros(len(rate_lists))
    by_length: dict = {}
    for index, rates in enumerate(rate_lists):
        key = (tuple(rates), float(times[index]))
        cached = _MATRIX_CDF_CACHE.get(key)
        if cached is not None:
            out[index] = cached
        else:
            by_length.setdefault(len(rates), []).append(index)
    if len(_MATRIX_CDF_CACHE) > _MATRIX_CDF_CACHE_MAX:
        _MATRIX_CDF_CACHE.clear()
    for length, indices in by_length.items():
        if length == 1:
            for i in indices:
                out[i] = 1.0 - math.exp(-rate_lists[i][0] * times[i])
                _MATRIX_CDF_CACHE[(tuple(rate_lists[i]), float(times[i]))] = out[i]
            continue
        stacked = np.zeros((len(indices), length, length))
        for row, i in enumerate(indices):
            clustered = _cluster_rates(rate_lists[i])
            stacked[row] = _generator_matrix(clustered) * times[i]
        survival = expm(stacked)[:, 0, :].sum(axis=1)
        out[indices] = np.clip(1.0 - survival, 0.0, 1.0)
        for i in indices:
            _MATRIX_CDF_CACHE[(tuple(rate_lists[i]), float(times[i]))] = out[i]
    return out


def hypoexponential_cdf(rates: Sequence[float], t: float) -> float:
    """P(X₁ + … + X_r ≤ t) for independent exponentials with given rates.

    Automatically selects the closed form (Eq. 2) or the
    matrix-exponential evaluation depending on rate separation, and clamps
    the result into [0, 1] to absorb floating-point round-off.
    """
    rates = _validate_rates(rates)
    if t <= 0.0:
        return 0.0
    if len(rates) == 1:
        return 1.0 - math.exp(-rates[0] * t)
    if _rates_well_separated(rates):
        value = _closed_form_cdf(rates, t)
        # The alternating-sign sum can still lose precision for long paths;
        # fall back whenever the result strays outside the unit interval.
        if -1e-9 <= value <= 1.0 + 1e-9:
            return min(1.0, max(0.0, value))
    return min(1.0, max(0.0, _matrix_cdf(_cluster_rates(rates), t)))


def pad_rate_rows(rate_rows: Sequence[Sequence[float]]) -> np.ndarray:
    """Pack ragged rate tuples into a zero-padded 2D rate matrix.

    Valid rates are strictly positive, so zero is an unambiguous padding
    value; the result is the matrix form accepted by
    :func:`hypoexponential_cdf_batch`.  An all-zero row denotes the
    trivial zero-hop path.
    """
    if isinstance(rate_rows, np.ndarray) and rate_rows.ndim == 2:
        return np.asarray(rate_rows, dtype=float)
    width = max((len(row) for row in rate_rows), default=0)
    padded = np.zeros((len(rate_rows), max(width, 1)))
    for i, row in enumerate(rate_rows):
        if len(row):
            padded[i, : len(row)] = row
    return padded


def _batch_rows_well_separated(rates: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Row-wise version of :func:`_rates_well_separated` on a padded matrix."""
    # Padding (zeros) sorts to +inf so it never participates in a gap check.
    sortable = np.where(valid, rates, np.inf)
    ordered = np.sort(sortable, axis=1)
    lo, hi = ordered[:, :-1], ordered[:, 1:]
    pair_valid = np.isfinite(hi)
    with np.errstate(invalid="ignore"):
        gap_ok = (hi - lo) > _DISTINCT_RTOL * hi
    return np.where(pair_valid, gap_ok, True).all(axis=1)


def _closed_form_coeff_batch(rates: np.ndarray, mask: np.ndarray):
    """Eq. (2) coefficients C[i, k] = Π_{s≠k} λ_s / (λ_s − λ_k), plus the
    per-row well-separated flag."""
    diff = rates[:, None, :] - rates[:, :, None]  # diff[i, k, s] = λ_s − λ_k
    numer = np.broadcast_to(rates[:, None, :], diff.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numer / diff
    # Pairs that must not contribute to the product: s == k, padded s, or
    # (for padded k) any s at all — their factor is the identity.
    contributes = mask[:, None, :] & mask[:, :, None]
    eye = np.eye(rates.shape[1], dtype=bool)
    np.copyto(ratio, 1.0, where=~contributes | eye)
    # Rows with exactly-duplicated rates produce inf/nan coefficients
    # here; they are routed to the matrix-exponential fallback by the
    # caller, so the overflow noise is expected and silenced.
    with np.errstate(invalid="ignore", over="ignore"):
        coeff = ratio.prod(axis=2)
    return coeff, _batch_rows_well_separated(rates, mask)


def hypoexponential_cdf_batch(
    rate_rows: Union[np.ndarray, Sequence[Sequence[float]]],
    t: Union[float, np.ndarray],
) -> np.ndarray:
    """Vectorized :func:`hypoexponential_cdf` over a batch of rate tuples.

    Parameters
    ----------
    rate_rows:
        Either a ragged sequence of per-path rate tuples or a 2D
        zero-padded rate matrix (``padded[i, :len(rates_i)] = rates_i``;
        see :func:`pad_rate_rows`).  Entries must be positive and finite;
        zeros mark padding.  An empty row is the trivial zero-hop path
        (probability 1), mirroring :func:`path_delivery_probability`.
    t:
        Scalar time, or an array broadcastable to one value per row.

    Returns
    -------
    np.ndarray
        ``out[i] = hypoexponential_cdf(rate_rows[i], t_i)`` to within
        1e-10 (property-tested).  The closed form (Eq. 2) is evaluated in
        one vectorized sweep; rows with clustered rates — or whose
        alternating-sign sum strays outside the unit interval — fall back
        to the scalar matrix-exponential path row by row.
    """
    padded = pad_rate_rows(rate_rows)
    if padded.ndim != 2:
        raise ValueError("rate_rows must be a sequence of rate tuples or 2D matrix")
    n_rows, width = padded.shape
    if n_rows == 0:
        return np.zeros(0)
    times = np.broadcast_to(np.asarray(t, dtype=float), (n_rows,))
    if n_rows >= _DEDUP_MIN_ROWS:
        # Trace estimation quantises rates to count/elapsed, so large
        # batches (one row per destination of a 10⁵-node sweep) repeat
        # the same hop tuples thousands of times.  Every stage of
        # :func:`_cdf_rows` is row-independent — the closed-form
        # coefficients, the gap check, and scipy's per-matrix expm — so
        # collapsing duplicate (row, t) pairs returns bitwise the same
        # values at a fraction of the expm cost.  A lexsort brings equal
        # rows together and an adjacent-row compare marks each group's
        # first; the unique rows come out in lexsort order.
        keyed = np.column_stack([padded, times])
        order = np.lexsort(keyed.T)
        ranked = keyed[order]
        first = np.empty(n_rows, dtype=bool)
        first[0] = True
        np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
        if not first.all():
            unique = ranked[first]
            inverse = np.empty(n_rows, dtype=np.intp)
            inverse[order] = np.cumsum(first) - 1
            rates = np.ascontiguousarray(unique[:, :width])
            return _cdf_rows(rates, unique[:, width])[inverse]
    return _cdf_rows(padded, times)


def _cdf_rows(padded: np.ndarray, times: np.ndarray) -> np.ndarray:
    """:func:`hypoexponential_cdf_batch` on a padded matrix with one
    time per row, without the duplicate-row collapse."""
    n_rows = len(padded)
    valid = padded > 0.0
    if not np.isfinite(padded).all() or (padded < 0.0).any():
        raise ValueError("rates must be positive and finite (zero = padding)")
    lengths = valid.sum(axis=1)

    out = np.zeros(n_rows)
    # Trivial zero-hop rows have probability 1 for any non-negative budget.
    out[lengths == 0] = 1.0
    live = (lengths > 0) & (times > 0.0)
    if not live.any():
        return out

    rates = padded[live]
    mask = valid[live]
    tt = times[live][:, None]

    # Eq. (2) closed form, batched.
    coeff, separated = _closed_form_coeff_batch(rates, mask)
    with np.errstate(invalid="ignore", over="ignore"):
        terms = coeff * -np.expm1(-rates * tt)
        closed = np.where(mask, terms, 0.0).sum(axis=1)
        # Single-rate rows: the closed form degenerates to exactly 1 − e^{-λt}.
        in_unit = (closed >= -1e-9) & (closed <= 1.0 + 1e-9)
    ok = separated & in_unit
    values = np.clip(closed, 0.0, 1.0)
    if not ok.all():
        # Fallback rows take the same route as the scalar
        # hypoexponential_cdf (rate clustering + matrix exponential),
        # batched through one stacked expm per hop count.
        bad = np.nonzero(~ok)[0]
        rate_lists = [rates[i][mask[i]].tolist() for i in bad]
        values[bad] = _matrix_cdf_batch(rate_lists, tt[bad, 0])
    out[live] = values
    return out


def _reference_cdf_batch(
    rate_rows: Union[np.ndarray, Sequence[Sequence[float]]],
    t: Union[float, np.ndarray],
) -> np.ndarray:
    """Scalar-loop oracle for :func:`hypoexponential_cdf_batch`.

    One :func:`hypoexponential_cdf` call per row (zero-hop rows are 1,
    non-positive times are 0).  :func:`hypoexponential_cdf_batch` is
    pinned to this to 1e-10 by property tests.
    """
    padded = pad_rate_rows(rate_rows)
    times = np.broadcast_to(np.asarray(t, dtype=float), (len(padded),))
    out = np.zeros(len(padded))
    for i, row in enumerate(padded):
        rates = [float(r) for r in row if r > 0.0]
        if not rates:
            out[i] = 1.0
        elif times[i] > 0.0:
            out[i] = hypoexponential_cdf(rates, float(times[i]))
    return out


def path_delivery_probability(rates: Iterable[float], time_budget: float) -> float:
    """Paper Eq. (2): the weight of an opportunistic path.

    The probability that a data item is opportunistically relayed across
    all hops (with contact rates *rates*) within *time_budget* seconds.
    An empty rate list denotes the trivial zero-hop path (source is the
    destination) and has probability 1 for any non-negative budget.
    """
    rates = list(rates)
    if time_budget < 0:
        raise ValueError("time budget must be non-negative")
    if not rates:
        return 1.0
    return hypoexponential_cdf(rates, time_budget)


class Hypoexponential:
    """Distribution object for a fixed sequence of hop rates.

    Provides cdf/pdf/mean/variance and sampling; used by the path-weight
    computation, by tests, and by the analytical sanity checks in the
    benchmark harness.
    """

    def __init__(self, rates: Sequence[float]):
        self._rates = _validate_rates(rates)

    @property
    def rates(self) -> List[float]:
        return list(self._rates)

    @property
    def mean(self) -> float:
        """E[Y] = Σ 1/λₖ."""
        return sum(1.0 / lam for lam in self._rates)

    @property
    def variance(self) -> float:
        """Var[Y] = Σ 1/λₖ² (independent exponentials)."""
        return sum(1.0 / lam**2 for lam in self._rates)

    def cdf(self, t: float) -> float:
        return hypoexponential_cdf(self._rates, t)

    def sf(self, t: float) -> float:
        """Survival function P(Y > t)."""
        return 1.0 - self.cdf(t)

    def pdf(self, t: float, eps: float = 1e-6) -> float:
        """Density via a central difference of the robust CDF.

        The closed-form density (Eq. 1) suffers the same degeneracy as the
        CDF; a derivative of the robust CDF is accurate enough for every
        use in this library (plots and tests).
        """
        if t <= 0.0:
            return 0.0
        h = max(eps, eps * t)
        lo = max(0.0, t - h)
        return (self.cdf(t + h) - self.cdf(lo)) / (t + h - lo)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw *size* end-to-end delays by summing per-hop exponentials."""
        draws = np.zeros(size)
        for lam in self._rates:
            draws = draws + rng.exponential(1.0 / lam, size=size)
        return draws

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Hypoexponential(rates={self._rates!r})"
