"""Model-fidelity diagnostics: calibration machinery and warning gates.

The discrimination contract: a run on the default synthetic scenario
(whose pair processes are exact homogeneous Poisson) stays inside every
default threshold, while a genuinely heavy-tailed (Pareto) inter-contact
process trips the exponentiality gate — same gates, opposite verdicts.
"""

import math

import numpy as np
import pytest

from repro.caching import IntentionalCaching, IntentionalConfig
from repro.obs import MemoryRecorder, build_causality
from repro.obs.events import TraceEvent, TraceEventKind
from repro.obs.fidelity import (
    FidelityThresholds,
    assess_fidelity,
    calibrate,
    ncl_load_balance,
    override_thresholds,
    popularity_calibration,
    response_calibration,
)
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.traces.analysis import exponential_fit_report
from repro.traces.contact import Contact, ContactTrace
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT
from repro.workload.config import WorkloadConfig


def _ev(time, kind, node=None, data_id=None, query_id=None, **attrs):
    return TraceEvent(
        time=time, kind=kind, node=node, data_id=data_id, query_id=query_id,
        attrs=attrs,
    )


class TestCalibrate:
    def test_empty_sample_is_none(self):
        assert calibrate([]) is None

    def test_perfect_predictions_score_zero(self):
        pairs = [(1.0, True)] * 10 + [(0.0, False)] * 10
        calibration = calibrate(pairs)
        assert calibration.samples == 20
        assert calibration.brier == 0.0
        assert calibration.max_gap == 0.0

    def test_brier_matches_definition(self):
        pairs = [(0.8, True), (0.8, False), (0.3, False), (0.3, True)]
        calibration = calibrate(pairs)
        expected = np.mean(
            [(0.8 - 1) ** 2, (0.8 - 0) ** 2, (0.3 - 0) ** 2, (0.3 - 1) ** 2]
        )
        assert calibration.brier == pytest.approx(expected)

    def test_bins_partition_predictions(self):
        pairs = [(0.05, False)] * 6 + [(0.95, True)] * 6
        calibration = calibrate(pairs)
        assert len(calibration.bins) == 2
        low, high = calibration.bins
        assert (low.lo, low.hi) == (0.0, 0.1) and low.count == 6
        assert low.observed_rate == 0.0
        assert (high.lo, high.hi) == (0.9, 1.0) and high.count == 6
        assert high.observed_rate == 1.0

    def test_max_gap_ignores_underfilled_bins(self):
        # 2 wildly miscalibrated samples in one bin, below min_bin_count
        pairs = [(0.95, False)] * 2 + [(0.05, False)] * 10
        calibration = calibrate(pairs, min_bin_count=5)
        assert calibration.max_gap == pytest.approx(0.05)
        # ... but counted once the bin has enough mass
        calibration = calibrate(pairs, min_bin_count=2)
        assert calibration.max_gap == pytest.approx(0.95)

    def test_boundary_prediction_lands_in_last_bin(self):
        calibration = calibrate([(1.0, True)] * 5)
        assert len(calibration.bins) == 1
        assert calibration.bins[0].hi == 1.0


class TestSectionBuilders:
    def test_response_calibration_reads_decisions(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.QUERY_CREATED, node=0, data_id=1, query_id=1,
                time_constraint=100.0),
            _ev(1.0, K.RESPONSE_DECIDED, node=2, query_id=1, respond=True,
                probability=0.9),
            _ev(2.0, K.RESPONSE_DECIDED, node=3, query_id=1, respond=False,
                probability=0.1),
            # NaN probability rows (legacy traces) are skipped, not scored
            _ev(3.0, K.RESPONSE_DECIDED, node=4, query_id=1, respond=False,
                probability=float("nan")),
        ]
        calibration = response_calibration(build_causality(events))
        assert calibration.samples == 2

    def test_popularity_counts_co_batch_arrivals_as_later_demand(self):
        """Two requests at the same epoch: after the first, the model
        must see the second as realized future demand (stream order)."""
        K = TraceEventKind
        events = [
            _ev(0.0, K.DATA_GENERATED, node=1, data_id=4, expires_at=100.0),
            _ev(10.0, K.QUERY_CREATED, node=0, data_id=4, query_id=1,
                time_constraint=10.0),
            _ev(20.0, K.QUERY_CREATED, node=2, data_id=4, query_id=2,
                time_constraint=10.0),
            _ev(20.0, K.QUERY_CREATED, node=3, data_id=4, query_id=3,
                time_constraint=10.0),
            # push the trace end past the item's expiry (not censored)
            _ev(150.0, K.SAMPLE, node=0),
        ]
        calibration = popularity_calibration(build_causality(events))
        # rate needs >= 2 distinct times: scored after the 2nd and 3rd
        # requests; the co-batch request at t=20 realizes the 2nd's
        # prediction, nothing follows the 3rd
        assert calibration.samples == 2
        realized_total = sum(
            bin_.count * bin_.observed_rate for bin_ in calibration.bins
        )
        assert realized_total == pytest.approx(1.0)

    def test_popularity_skips_censored_items(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.DATA_GENERATED, node=1, data_id=4, expires_at=1000.0),
            _ev(10.0, K.QUERY_CREATED, node=0, data_id=4, query_id=1,
                time_constraint=10.0),
            _ev(20.0, K.QUERY_CREATED, node=2, data_id=4, query_id=2,
                time_constraint=10.0),
        ]
        # trace ends at t=20 < expires_at=1000: outcome unknowable
        assert popularity_calibration(build_causality(events)) is None

    def test_ncl_load_balance_counts_completed_chains(self):
        K = TraceEventKind
        events = [
            _ev(0.0, K.DATA_GENERATED, node=1, data_id=1, expires_at=500.0),
            _ev(1.0, K.PUSH_COMPLETED, node=8, data_id=1, target_central=8),
            _ev(0.0, K.DATA_GENERATED, node=1, data_id=2, expires_at=500.0),
            _ev(2.0, K.PUSH_COMPLETED, node=8, data_id=2, target_central=8),
            _ev(0.0, K.DATA_GENERATED, node=1, data_id=3, expires_at=500.0),
            _ev(3.0, K.PUSH_COMPLETED, node=9, data_id=3, target_central=9),
        ]
        load = ncl_load_balance(build_causality(events))
        assert load.counts == {8: 2, 9: 1}
        assert load.max_share == pytest.approx(2 / 3)
        values = np.array([2.0, 1.0])
        assert load.coefficient_of_variation == pytest.approx(
            values.std() / values.mean()
        )

    def test_load_balance_none_without_completions(self):
        assert ncl_load_balance(build_causality([])) is None


class TestThresholds:
    def test_override_replaces_only_given_gates(self):
        base = FidelityThresholds()
        overridden = override_thresholds(base, max_median_ks=0.1, min_samples=None)
        assert overridden.max_median_ks == 0.1
        assert overridden.min_samples == base.min_samples
        assert override_thresholds(base) is base


def _pareto_trace(seed=42, num_nodes=6, contacts_per_pair=60, scale=600.0):
    """Inter-contact gaps drawn Pareto(α=1.2) — heavy-tailed, decisively
    non-exponential, yet with finite per-pair samples a KS fit still
    converges (median KS ≈ 0.33 vs ≈ 0.10 for the matched exponential)."""
    rng = np.random.default_rng(seed)
    contacts = []
    for a in range(num_nodes):
        for b in range(a + 1, num_nodes):
            t = float(rng.uniform(0.0, scale))
            for _ in range(contacts_per_pair):
                gap = scale * (rng.pareto(1.2) + 0.05)
                t += gap
                contacts.append(Contact(start=t, end=t + 30.0, node_a=a, node_b=b))
    return ContactTrace(contacts, num_nodes=num_nodes, name="pareto")


def _exponential_trace(seed=42, num_nodes=6, contacts_per_pair=60, scale=600.0):
    rng = np.random.default_rng(seed)
    contacts = []
    for a in range(num_nodes):
        for b in range(a + 1, num_nodes):
            t = float(rng.uniform(0.0, scale))
            for _ in range(contacts_per_pair):
                t += float(rng.exponential(scale))
                contacts.append(Contact(start=t, end=t + 30.0, node_a=a, node_b=b))
    return ContactTrace(contacts, num_nodes=num_nodes, name="exponential")


class TestExponentialityGate:
    def test_heavy_tailed_trace_trips_the_gate(self):
        report = exponential_fit_report(_pareto_trace())
        assert report.pairs_fitted >= 3
        assert report.median_ks > FidelityThresholds().max_median_ks

    def test_matched_exponential_trace_passes(self):
        report = exponential_fit_report(_exponential_trace())
        assert report.pairs_fitted >= 3
        assert report.median_ks < FidelityThresholds().max_median_ks


@pytest.fixture(scope="module")
def synthetic_run():
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(
            name="fidelity-acceptance",
            num_nodes=12,
            duration=4 * DAY,
            total_contacts=2500,
            granularity=60.0,
            seed=6,
        )
    )
    workload = WorkloadConfig(
        mean_data_lifetime=12 * HOUR, mean_data_size=30 * MEGABIT
    )
    recorder = MemoryRecorder()
    Simulator(
        trace,
        IntentionalCaching(IntentionalConfig(num_ncls=2, ncl_time_budget=2 * HOUR)),
        workload,
        SimulatorConfig(seed=3),
        recorder=recorder,
    ).run()
    return trace, recorder.events


class TestAcceptance:
    def test_poisson_synthetic_run_within_default_tolerances(self, synthetic_run):
        """The acceptance criterion: a model-faithful run (homogeneous
        Poisson contacts, Bernoulli response draws) produces no fidelity
        warnings at the documented default thresholds."""
        trace, events = synthetic_run
        causality = build_causality(events)
        report = assess_fidelity(causality, contact_trace=trace)
        assert report.warnings == []
        assert report.intercontact is not None
        assert report.intercontact.median_ks < 0.25
        assert report.delivery is not None and report.delivery.samples > 0
        assert report.response is not None and report.response.samples > 0
        assert report.load is not None

    def test_tight_thresholds_flag_the_same_run(self, synthetic_run):
        """--strict-style overrides must bite: impossible gates turn the
        healthy run into warnings (the gates are live, not decorative)."""
        trace, events = synthetic_run
        causality = build_causality(events)
        tight = override_thresholds(
            FidelityThresholds(),
            max_median_ks=0.001,
            max_delivery_brier=0.001,
            max_calibration_gap=0.0,
            min_samples=1,
        )
        report = assess_fidelity(causality, contact_trace=trace, thresholds=tight)
        assert any("inter-contact" in w for w in report.warnings)
        assert any("delivery" in w for w in report.warnings)

    def test_sections_degrade_without_contact_trace(self, synthetic_run):
        _, events = synthetic_run
        causality = build_causality(events)
        report = assess_fidelity(causality, contact_trace=None)
        assert report.intercontact is None
        assert report.delivery is None
        assert report.response is not None
