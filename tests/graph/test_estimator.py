"""Unit tests for online contact-rate estimation."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.estimator import OnlineContactGraphEstimator


class TestRecording:
    def test_rate_is_time_average(self):
        est = OnlineContactGraphEstimator(num_nodes=3, origin=0.0)
        est.record_contact(0, 1, 10.0)
        est.record_contact(1, 0, 30.0)  # order-insensitive pair
        assert est.rate(0, 1, now=100.0) == pytest.approx(2 / 100.0)
        assert est.contact_count(0, 1) == 2

    def test_unobserved_pair_has_zero_rate(self):
        est = OnlineContactGraphEstimator(num_nodes=3)
        assert est.rate(0, 2, now=50.0) == 0.0

    def test_rejects_bad_node_ids(self):
        est = OnlineContactGraphEstimator(num_nodes=2)
        with pytest.raises(ConfigurationError):
            est.record_contact(0, 5, 1.0)
        with pytest.raises(ConfigurationError):
            est.record_contact(1, 1, 1.0)

    def test_total_contacts(self):
        est = OnlineContactGraphEstimator(num_nodes=4)
        est.record_contact(0, 1, 1.0)
        est.record_contact(2, 3, 2.0)
        assert est.total_contacts() == 2


class TestSnapshots:
    def test_snapshot_reflects_rates(self):
        est = OnlineContactGraphEstimator(num_nodes=3, origin=0.0)
        est.record_contact(0, 1, 10.0)
        graph = est.snapshot(now=50.0)
        assert graph.rate(0, 1) == pytest.approx(1 / 50.0)
        assert graph.num_nodes == 3

    def test_each_snapshot_is_built_fresh(self):
        est = OnlineContactGraphEstimator(num_nodes=3)
        est.record_contact(0, 1, 5.0)
        first = est.snapshot(now=20.0)
        est.record_contact(0, 1, 25.0)
        second = est.snapshot(now=40.0)
        assert second is not first
        assert second.rate(0, 1) == pytest.approx(2 / 40.0)
        assert first.rate(0, 1) == pytest.approx(1 / 20.0)  # left as built

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OnlineContactGraphEstimator(num_nodes=0)
