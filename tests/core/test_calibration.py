"""Unit tests for adaptive metric time-budget calibration (Sec. IV-B)."""

import numpy as np
import pytest

from repro.core.ncl import calibrate_time_budget, ncl_metrics
from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.traces.catalog import load_preset_trace
from repro.units import HOUR


class TestCalibration:
    def test_hits_the_target_median(self, line_graph):
        budget = calibrate_time_budget(line_graph, target_median=0.5)
        median = float(np.median(ncl_metrics(line_graph, budget)))
        assert median == pytest.approx(0.5, abs=0.08)

    def test_higher_target_needs_larger_budget(self, line_graph):
        low = calibrate_time_budget(line_graph, target_median=0.3)
        high = calibrate_time_budget(line_graph, target_median=0.7)
        assert high > low

    def test_differentiates_saturated_trace(self):
        """On a dense synthetic trace the published T saturates the metric;
        the calibrated T restores the Fig. 4 skew."""
        trace = load_preset_trace("infocom06", seed=1, node_factor=0.5, time_factor=0.3)
        graph = ContactGraph.from_trace(trace)
        budget = calibrate_time_budget(graph, sample_sources=20)
        metrics = ncl_metrics(graph, budget)
        assert 0.2 < float(np.median(metrics)) < 0.8

    def test_sampling_approximates_full_calibration(self):
        trace = load_preset_trace("infocom05", seed=1, node_factor=0.6, time_factor=0.4)
        graph = ContactGraph.from_trace(trace)
        full = calibrate_time_budget(graph)
        sampled = calibrate_time_budget(graph, sample_sources=10, seed=3)
        assert sampled == pytest.approx(full, rel=1.0)  # same order of magnitude

    def test_disconnected_graph_returns_finite_budget(self):
        graph = ContactGraph(4, [(0, 1, 1.0 / HOUR)])
        # nodes 2, 3 unreachable: median metric can never reach 0.5
        budget = calibrate_time_budget(graph, target_median=0.9)
        assert np.isfinite(budget) and budget > 0

    def test_validation(self, line_graph):
        with pytest.raises(ConfigurationError):
            calibrate_time_budget(line_graph, target_median=0.0)
        with pytest.raises(ConfigurationError):
            calibrate_time_budget(ContactGraph(1))
