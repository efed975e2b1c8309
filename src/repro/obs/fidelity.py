"""Model-fidelity diagnostics: empirical behaviour vs analytical model.

The caching scheme's decisions all flow from the analytical model of
Sec. III–V: exponential inter-contact times, hypoexponential path
delivery probabilities (Eq. 1–2), the probabilistic-response sigmoid
(Eq. 4), and Poisson request-rate popularity estimates (Eq. 5–6).  This
module measures how far a *realized* run drifted from each assumption:

* **inter-contact exponentiality** — per-pair KS distance against the
  fitted λᵢⱼ (delegates to :mod:`repro.traces.analysis`);
* **delivery calibration** — for every emitted response copy, the
  hypoexponential path weight from responder to requester over the
  remaining time constraint is a *predicted* delivery probability; the
  realized in-constraint delivery is the outcome.  Binning predictions
  and comparing observed frequencies yields a reliability (calibration)
  curve plus a Brier score;
* **response calibration** — Eq. 4's sigmoid probability vs the realized
  respond/decline decision it parameterised;
* **popularity calibration** — the Eq. 5–6 estimate ŵᵢ (replayed from
  the query stream with the scheme's own estimator) vs whether another
  request actually arrived before the data expired;
* **NCL cache-load balance** — completed push chains per central node;
  a high coefficient of variation means the NCL selection metric is
  concentrating load.

Every section degrades gracefully: sections whose inputs are missing
(no contact trace for a bare ``trace.jsonl``, too few samples) are
skipped rather than guessed at, and warnings only fire above a minimum
sample size.  Thresholds are loose *plausibility* gates (DESIGN.md §7),
not hypothesis tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mathutils.poisson import RateEstimator, poisson_probability_at_least_one
from repro.obs.causality import CausalityIndex, delivery_in_constraint

if TYPE_CHECKING:  # the graph/traces layers import repro.obs.profile at
    # init time, so importing them here at module scope would be circular
    from repro.traces.analysis import FitReport
    from repro.traces.contact import ContactTrace

__all__ = [
    "CalibrationBin",
    "Calibration",
    "calibrate",
    "delivery_calibration",
    "response_calibration",
    "popularity_calibration",
    "NCLLoadBalance",
    "ncl_load_balance",
    "FidelityThresholds",
    "FidelityReport",
    "assess_fidelity",
    "override_thresholds",
]


@dataclass(frozen=True)
class CalibrationBin:
    """One predicted-probability bin of a reliability curve."""

    lo: float
    hi: float
    count: int
    mean_predicted: float
    observed_rate: float

    @property
    def gap(self) -> float:
        return abs(self.observed_rate - self.mean_predicted)


@dataclass(frozen=True)
class Calibration:
    """Reliability curve + Brier score of (predicted, realized) pairs."""

    samples: int
    brier: float
    bins: Tuple[CalibrationBin, ...]
    #: largest |observed − predicted| over bins with enough samples
    max_gap: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "samples": self.samples,
            "brier": self.brier,
            "max_gap": self.max_gap,
            "bins": [
                {
                    "range": [b.lo, b.hi],
                    "count": b.count,
                    "mean_predicted": b.mean_predicted,
                    "observed_rate": b.observed_rate,
                }
                for b in self.bins
            ],
        }


def calibrate(
    pairs: Sequence[Tuple[float, bool]],
    num_bins: int = 10,
    min_bin_count: int = 5,
) -> Optional[Calibration]:
    """Bin (predicted probability, realized outcome) pairs.

    Equal-width bins on [0, 1]; ``max_gap`` ignores bins with fewer than
    *min_bin_count* samples (their observed rates are noise).  ``None``
    for an empty sample.
    """
    if not pairs:
        return None
    predicted = np.asarray([p for p, _ in pairs], dtype=float)
    realized = np.asarray([1.0 if o else 0.0 for _, o in pairs])
    brier = float(np.mean((predicted - realized) ** 2))
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    indices = np.clip(np.digitize(predicted, edges[1:-1]), 0, num_bins - 1)
    bins: List[CalibrationBin] = []
    gaps: List[float] = []
    for b in range(num_bins):
        mask = indices == b
        count = int(mask.sum())
        if count == 0:
            continue
        bin_ = CalibrationBin(
            lo=float(edges[b]),
            hi=float(edges[b + 1]),
            count=count,
            mean_predicted=float(predicted[mask].mean()),
            observed_rate=float(realized[mask].mean()),
        )
        bins.append(bin_)
        if count >= min_bin_count:
            gaps.append(bin_.gap)
    return Calibration(
        samples=len(pairs),
        brier=brier,
        bins=tuple(bins),
        max_gap=max(gaps) if gaps else 0.0,
    )


def delivery_calibration(
    causality: CausalityIndex,
    contact_trace: "ContactTrace",
    num_bins: int = 10,
) -> Optional[Calibration]:
    """Hypoexponential path weight (Eq. 2) vs realized delivery.

    For every emitted response copy: the predicted probability that a
    copy travelling the expected-delay shortest path from responder to
    requester arrives within the query's remaining time constraint,
    against whether it actually did.  Rates come from the whole trace
    (time-averaged λᵢⱼ, Sec. III-B) — the same model the router's weight
    cache serves, via the same cache.  Censored copies (constraint still
    open at trace end) and zero-hop self-service copies are skipped.
    """
    from repro.graph.contact_graph import ContactGraph
    from repro.graph.weight_cache import shared_weight_cache
    from repro.mathutils.hypoexponential import path_delivery_probability

    graph = ContactGraph.from_trace(contact_trace)
    cache = shared_weight_cache()
    pairs: List[Tuple[float, bool]] = []
    for query in causality.queries.values():
        if query.expires_at is None or query.requester is None:
            continue
        if query.expires_at > causality.trace_end:
            continue  # outcome censored by trace truncation
        for copy in query.copies:
            if copy.self_service or copy.emitted_at is None:
                continue
            remaining = query.expires_at - copy.emitted_at
            if remaining <= 0:
                continue
            if not (0 <= copy.responder < graph.num_nodes):
                continue
            if not (0 <= query.requester < graph.num_nodes):
                continue
            if copy.responder == query.requester:
                predicted = 1.0
            else:
                rates = cache.rate_tuples(graph, copy.responder, remaining).path_rates(
                    query.requester
                )
                predicted = (
                    path_delivery_probability(rates, remaining)
                    if rates is not None
                    else 0.0
                )
            realized = copy.delivered_at is not None and delivery_in_constraint(
                copy.delivered_at, query.expires_at
            )
            pairs.append((predicted, realized))
    return calibrate(pairs, num_bins=num_bins)


def response_calibration(
    causality: CausalityIndex, num_bins: int = 10
) -> Optional[Calibration]:
    """Eq. 4 sigmoid probability vs the realized respond/decline draw.

    Well-calibrated by construction when decisions are Bernoulli draws
    from the recorded probability — a drift here means the decision path
    stopped honouring its own sigmoid (or a seeding/replay bug).
    """
    pairs = [
        (probability, respond)
        for query in causality.queries.values()
        for _, _, respond, probability in query.decisions
        if not math.isnan(probability)
    ]
    return calibrate(pairs, num_bins=num_bins)


def popularity_calibration(
    causality: CausalityIndex, num_bins: int = 10
) -> Optional[Calibration]:
    """Eq. 5–6 popularity estimate vs realized future demand.

    Replays each data item's query stream through the scheme's own
    :class:`RateEstimator` (``first_event`` anchor, exactly the
    estimator :mod:`repro.core.popularity` wraps): after the k-th
    request at t_k the model predicts
    ``P[at least one more request before expiry] = 1 − e^{−λ̂·(t_e − t_k)}``,
    which is scored against whether a later request actually arrived in
    time.  Items whose lifetime outruns the trace are censored and
    skipped.
    """
    requests: Dict[int, List[float]] = {}
    for query in causality.queries.values():
        if query.created_seen and query.data_id is not None:
            requests.setdefault(query.data_id, []).append(query.created_at)
    pairs: List[Tuple[float, bool]] = []
    for data_id, times in requests.items():
        tree = causality.pushes.get(data_id)
        expires_at = tree.expires_at if tree is not None else None
        if expires_at is None or expires_at > causality.trace_end:
            continue  # lifetime unknown or censored
        times = sorted(times)
        estimator = RateEstimator(anchor="first_event")
        for k, t_k in enumerate(times):
            estimator.record(t_k)
            horizon = expires_at - t_k
            if horizon <= 0:
                continue
            rate = estimator.rate(t_k)
            if rate <= 0:
                continue  # fewer than two distinct request times so far
            predicted = poisson_probability_at_least_one(rate, horizon)
            # "later" is stream order, not strict timestamp order: the
            # workload issues query batches at identical epochs, and a
            # co-batch request is still a subsequent arrival.
            realized = any(t <= expires_at for t in times[k + 1 :])
            pairs.append((predicted, realized))
    return calibrate(pairs, num_bins=num_bins)


@dataclass(frozen=True)
class NCLLoadBalance:
    """Completed push chains per central node."""

    counts: Dict[int, int]
    coefficient_of_variation: float
    max_share: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "per_central": {str(k): v for k, v in sorted(self.counts.items())},
            "cv": self.coefficient_of_variation,
            "max_share": self.max_share,
        }


def ncl_load_balance(causality: CausalityIndex) -> Optional[NCLLoadBalance]:
    """How evenly the push traffic spread over the NCLs."""
    counts: Dict[int, int] = {}
    for tree in causality.pushes.values():
        for chain in tree.chains:
            if chain.completed_at is not None:
                counts[chain.target_central] = counts.get(chain.target_central, 0) + 1
    if not counts:
        return None
    values = np.asarray(list(counts.values()), dtype=float)
    mean = float(values.mean())
    cv = float(values.std() / mean) if mean > 0 else 0.0
    return NCLLoadBalance(
        counts=counts,
        coefficient_of_variation=cv,
        max_share=float(values.max() / values.sum()),
    )


@dataclass(frozen=True)
class FidelityThresholds:
    """Warn gates for :func:`assess_fidelity` (all overridable from CLI).

    Defaults were pinned against the default synthetic scenario (whose
    pair processes are exact homogeneous Poisson, so every section sits
    comfortably inside them) and chosen loose enough that model-faithful
    runs never warn.  Measured there across seeds: median KS 0.12,
    delivery Brier 0.29–0.35 (Eq. 2 is an idealized upper bound, see
    :func:`delivery_calibration`), response gap ≤ 0.16, popularity gap
    ≤ 0.16 at ≥ 30 samples, load CV ≤ 0.43 — see DESIGN.md §7.
    """

    #: inter-contact gaps: median per-pair KS distance vs fitted Exp(λᵢⱼ).
    #: Fitted-parameter KS on pairs with only a handful of gaps biases
    #: high (scaled-down presets measure ~0.22 on near-exponential
    #: pairs), so the gate sits above that but well under the ~0.33 a
    #: genuinely heavy-tailed (Pareto) gap process produces.
    max_median_ks: float = 0.25
    #: delivery calibration Brier score (0 = perfect, 0.25 = coin toss)
    max_delivery_brier: float = 0.45
    #: reliability-curve gap |observed − predicted| for any calibration
    max_calibration_gap: float = 0.25
    #: NCL load coefficient of variation
    max_load_cv: float = 1.5
    #: sections with fewer samples than this never warn
    min_samples: int = 30


@dataclass
class FidelityReport:
    """All fidelity sections of one run, plus the warnings they tripped."""

    intercontact: Optional[FitReport] = None
    delivery: Optional[Calibration] = None
    response: Optional[Calibration] = None
    popularity: Optional[Calibration] = None
    load: Optional[NCLLoadBalance] = None
    thresholds: FidelityThresholds = field(default_factory=FidelityThresholds)
    warnings: List[str] = field(default_factory=list)


def assess_fidelity(
    causality: CausalityIndex,
    contact_trace: Optional[ContactTrace] = None,
    thresholds: Optional[FidelityThresholds] = None,
) -> FidelityReport:
    """Run every fidelity section the inputs allow and collect warnings.

    *contact_trace* unlocks the inter-contact and delivery-calibration
    sections (a bare ``trace.jsonl`` has no mobility information); the
    other sections need only the causality index.
    """
    gates = thresholds if thresholds is not None else FidelityThresholds()
    report = FidelityReport(thresholds=gates)

    if contact_trace is not None:
        from repro.traces.analysis import exponential_fit_report

        report.intercontact = exponential_fit_report(contact_trace)
        report.delivery = delivery_calibration(causality, contact_trace)
    report.response = response_calibration(causality)
    report.popularity = popularity_calibration(causality)
    report.load = ncl_load_balance(causality)

    inter = report.intercontact
    if (
        inter is not None
        and inter.pairs_fitted >= 3
        and not math.isnan(inter.median_ks)
        and inter.median_ks > gates.max_median_ks
    ):
        report.warnings.append(
            f"inter-contact times deviate from the exponential model: "
            f"median KS {inter.median_ks:.3f} > {gates.max_median_ks:.3f} "
            f"over {inter.pairs_fitted} pairs"
        )
    delivery = report.delivery
    if (
        delivery is not None
        and delivery.samples >= gates.min_samples
        and delivery.brier > gates.max_delivery_brier
    ):
        # Gated on Brier alone: Eq. 2 is an idealized upper bound (it
        # assumes every contact along the path is usable), so the curve
        # sits above the realized frequencies by construction and a bin
        # gap would flag healthy runs.
        report.warnings.append(
            f"delivery predictions uninformative: Brier "
            f"{delivery.brier:.3f} > {gates.max_delivery_brier:.3f}"
        )
    for name, calibration in (
        ("response", report.response),
        ("popularity", report.popularity),
    ):
        if calibration is None or calibration.samples < gates.min_samples:
            continue
        if calibration.max_gap > gates.max_calibration_gap:
            report.warnings.append(
                f"{name} calibration drifts from the model: max bin gap "
                f"{calibration.max_gap:.3f} > {gates.max_calibration_gap:.3f}"
            )
    load = report.load
    if (
        load is not None
        and sum(load.counts.values()) >= gates.min_samples
        and load.coefficient_of_variation > gates.max_load_cv
    ):
        report.warnings.append(
            f"NCL cache load imbalanced: CV "
            f"{load.coefficient_of_variation:.3f} > {gates.max_load_cv:.3f}"
        )
    return report


def override_thresholds(
    base: FidelityThresholds, **overrides: float
) -> FidelityThresholds:
    """A copy of *base* with the non-``None`` keyword overrides applied."""
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    return replace(base, **cleaned) if cleaned else base
