"""Unit and paired-determinism tests for the arrival processes.

``DETERMINISM_PROCESSES`` is the contract enforced by
``test_arrivals_registry_lint.py``: every name registered in
:data:`repro.workload.arrivals.ARRIVALS` must appear in this list, and
this module runs the same-seed ⇒ same-query-stream test for each entry.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.rng import SeedSequenceFactory
from repro.workload.arrivals import (
    ARRIVALS,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PeriodicArrivals,
    build_arrivals,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import WorkloadProcess

#: every registered arrival process MUST be listed here (registry lint).
DETERMINISM_PROCESSES = ["periodic", "bursty", "diurnal", "flash_crowd"]


def make_process(arrival, seed=11, num_nodes=80, params=None):
    config = WorkloadConfig(
        mean_data_lifetime=1000.0,
        mean_data_size=100,
        arrival_process=arrival,
        arrival_params=params,
    )
    factory = SeedSequenceFactory(seed)
    proc = WorkloadProcess(
        config,
        num_nodes,
        factory.generator("workload"),
        arrival_rng=factory.generator("workload.arrivals"),
    )
    proc.set_window(0.0, 4000.0)
    return proc


def query_stream(proc, rounds=6):
    """Data round then several query rounds; the comparable query tuple
    stream (ids come from a global counter, so they are excluded)."""
    proc.data_round(0.0, [False] * proc.num_nodes)
    stream = []
    for index in range(rounds):
        now = 10.0 + index * 500.0
        stream.append(
            [(q.requester, q.data_id, q.created_at) for q in proc.query_round(now, {})]
        )
    return stream


class TestRegistry:
    def test_all_processes_registered(self):
        assert set(DETERMINISM_PROCESSES) == set(ARRIVALS.names())

    def test_unknown_process_rejected(self):
        with pytest.raises(ConfigurationError):
            build_arrivals("avalanche", None)

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError):
            build_arrivals("bursty", {"bogus": 1.0})

    def test_periodic_takes_no_params(self):
        with pytest.raises(ConfigurationError):
            build_arrivals("periodic", {"rate": 2.0})

    def test_config_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(arrival_process="")

    def test_config_rejects_non_numeric_params(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(arrival_params={"at": "noon"})


class TestDeterminism:
    @pytest.mark.parametrize("name", DETERMINISM_PROCESSES)
    def test_same_seed_same_query_stream(self, name):
        a = make_process(name, seed=21)
        b = make_process(name, seed=21)
        assert query_stream(a) == query_stream(b)

    @pytest.mark.parametrize("name", ["bursty", "diurnal", "flash_crowd"])
    def test_arrival_stream_never_perturbs_catalogue(self, name):
        """Switching arrival processes must leave the data catalogue —
        drawn from the independent ``workload`` stream — untouched."""
        base = make_process("periodic", seed=33)
        other = make_process(name, seed=33)
        items_a = base.data_round(0.0, [False] * base.num_nodes)
        items_b = other.data_round(0.0, [False] * other.num_nodes)
        assert [(d.source, d.size, d.expires_at) for d in items_a] == [
            (d.source, d.size, d.expires_at) for d in items_b
        ]


class TestPeriodic:
    def test_is_pure_baseline(self):
        proc = PeriodicArrivals()
        assert not proc.uses_rng
        assert proc.round_intensity(123.0) == 1.0
        assert proc.flash_fraction(123.0) == 0.0

    def test_matches_pre_arrival_engine_bitwise(self):
        """A periodic process given an arrival stream must issue the
        same queries as one that never received a stream at all."""
        config = WorkloadConfig(mean_data_lifetime=1000.0, mean_data_size=100)
        legacy = WorkloadProcess(
            config, 80, SeedSequenceFactory(11).generator("workload")
        )
        modern = make_process("periodic", seed=11)
        legacy.data_round(0.0, [False] * 80)
        modern_stream = []
        modern.data_round(0.0, [False] * 80)
        for now in (10.0, 510.0, 1010.0):
            expected = [(q.requester, q.data_id) for q in legacy.query_round(now, {})]
            got = [(q.requester, q.data_id) for q in modern.query_round(now, {})]
            modern_stream.append((expected, got))
        for expected, got in modern_stream:
            assert expected == got


class TestBursty:
    def test_intensities_are_two_state(self):
        import numpy as np

        proc = BurstyArrivals({"base": 0.25, "burst": 4.0})
        proc.bind(np.random.default_rng(3))
        seen = {proc.round_intensity(float(t)) for t in range(200)}
        assert seen == {0.25, 4.0}

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            BurstyArrivals({"p_enter": 1.5})
        with pytest.raises(ConfigurationError):
            BurstyArrivals({"base": -0.1})


class TestDiurnal:
    def test_sinusoid_from_window_start(self):
        proc = DiurnalArrivals({"amplitude": 0.5, "period": 100.0})
        proc.set_window(1000.0, 2000.0)
        assert proc.round_intensity(1000.0) == pytest.approx(1.0)
        assert proc.round_intensity(1025.0) == pytest.approx(1.5)
        assert proc.round_intensity(1075.0) == pytest.approx(0.5)

    def test_floored_at_zero(self):
        proc = DiurnalArrivals({"amplitude": 2.0, "period": 100.0})
        proc.set_window(0.0, 200.0)
        assert proc.round_intensity(75.0) == 0.0

    def test_phase_offset(self):
        proc = DiurnalArrivals({"amplitude": 1.0, "period": 100.0, "phase": math.pi / 2})
        proc.set_window(0.0, 200.0)
        assert proc.round_intensity(0.0) == pytest.approx(2.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals({"period": 0.0})
        with pytest.raises(ConfigurationError):
            DiurnalArrivals({"amplitude": -1.0})


class TestFlashCrowd:
    def test_window_boundaries(self):
        proc = FlashCrowdArrivals({"at": 0.5, "duration": 0.1, "probability": 0.8})
        proc.set_window(0.0, 1000.0)
        assert proc.flash_fraction(499.0) == 0.0
        assert proc.flash_fraction(500.0) == 0.8
        assert proc.flash_fraction(599.0) == 0.8
        assert proc.flash_fraction(600.0) == 0.0

    def test_no_surge_before_window_announced(self):
        proc = FlashCrowdArrivals()
        assert proc.flash_fraction(500.0) == 0.0

    def test_surge_targets_top_ranked_item(self):
        proc = make_process(
            "flash_crowd",
            seed=5,
            params={"at": 0.0, "duration": 1.0, "probability": 1.0, "rank": 1},
        )
        proc.data_round(0.0, [False] * proc.num_nodes)
        top = proc.live_items(10.0)[0]
        queries = proc.query_round(10.0, {})
        surge = [q for q in queries if q.data_id == top.data_id]
        # probability=1.0: every node except the source queries the target.
        assert len(surge) >= proc.num_nodes - 1
        assert all(q.requester != top.source for q in surge)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            FlashCrowdArrivals({"at": 1.5})
        with pytest.raises(ConfigurationError):
            FlashCrowdArrivals({"rank": 0})
        with pytest.raises(ConfigurationError):
            FlashCrowdArrivals({"probability": 2.0})


class TestBaseClass:
    def test_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ArrivalProcess().set_window(10.0, 10.0)
