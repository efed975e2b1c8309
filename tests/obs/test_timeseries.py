"""Time-series sampler: recording, export, merge, summary."""

import csv
import json

import pytest

from repro.obs.timeseries import (
    NULL_SAMPLER,
    SCALAR_COLUMNS,
    TimeSeriesSample,
    TimeSeriesSampler,
    merge_timeseries,
    summarize_timeseries,
    write_csv,
    write_jsonl,
)


def _sample(time, lookups=10, hits=4):
    return TimeSeriesSample(
        time=time,
        live_items=5,
        cached_copies=8,
        queries_issued=20,
        queries_satisfied=6,
        pending_queries=3,
        cache_lookups=lookups,
        cache_hits=hits,
        node_occupancy=(0.2, 0.8),
        ncl_load={3: 4, 1: 2},
    )


class TestSample:
    def test_derived_properties(self):
        sample = _sample(10.0)
        assert sample.copies_per_item == pytest.approx(1.6)
        assert sample.running_ratio == pytest.approx(0.3)
        assert sample.cache_hit_ratio == pytest.approx(0.4)
        assert sample.mean_buffer_occupancy == pytest.approx(0.5)
        assert sample.max_buffer_occupancy == pytest.approx(0.8)

    def test_zero_denominators(self):
        empty = TimeSeriesSample(
            time=0.0,
            live_items=0,
            cached_copies=0,
            queries_issued=0,
            queries_satisfied=0,
            pending_queries=0,
            cache_lookups=0,
            cache_hits=0,
        )
        assert empty.copies_per_item == 0.0
        assert empty.running_ratio == 0.0
        assert empty.cache_hit_ratio == 0.0
        assert empty.mean_buffer_occupancy == 0.0
        assert empty.max_buffer_occupancy == 0.0

    def test_as_row_has_every_scalar_column_plus_vectors(self):
        row = _sample(10.0).as_row()
        assert set(SCALAR_COLUMNS) <= set(row)
        assert row["node_occupancy"] == [0.2, 0.8]
        assert row["ncl_load"] == {"1": 2, "3": 4}


class TestSampler:
    def test_records_in_time_order(self):
        sampler = TimeSeriesSampler()
        sampler.record(_sample(1.0))
        sampler.record(_sample(2.0))
        assert len(sampler) == 2
        with pytest.raises(ValueError):
            sampler.record(_sample(0.5))

    def test_null_sampler_is_disabled(self):
        assert NULL_SAMPLER.enabled is False
        assert TimeSeriesSampler.enabled is True


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        rows = TimeSeriesSampler()
        rows.record(_sample(1.0))
        rows.record(_sample(2.0))
        path = tmp_path / "ts.jsonl"
        write_jsonl(rows.rows(), str(path))
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert loaded == rows.rows()

    def test_csv_has_scalar_columns_only(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_csv([_sample(1.0).as_row()], str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == list(SCALAR_COLUMNS)
        assert "node_occupancy" not in rows[0]

    def test_csv_gains_seed_column_for_merged_rows(self, tmp_path):
        merged = merge_timeseries([(7, [_sample(1.0).as_row()])])
        path = tmp_path / "ts.csv"
        write_csv(merged, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0])[0] == "seed"
        assert rows[0]["seed"] == "7"


class TestMergeAndSummary:
    def test_merge_orders_by_seed_and_tags_rows(self):
        run_a = [_sample(1.0).as_row(), _sample(2.0).as_row()]
        run_b = [_sample(1.0).as_row()]
        merged = merge_timeseries([(9, run_b), (2, run_a)])
        assert [row["seed"] for row in merged] == [2, 2, 9]
        assert [row["time"] for row in merged] == [1.0, 2.0, 1.0]

    def test_summary_min_mean_max_last(self):
        rows = [_sample(t, lookups=10, hits=h).as_row() for t, h in ((1.0, 2), (2.0, 6))]
        summary = summarize_timeseries(rows)
        assert summary["time"] == {"min": 1.0, "mean": 1.5, "max": 2.0, "last": 2.0}
        assert summary["cache_hit_ratio"]["last"] == pytest.approx(0.6)

    def test_summary_of_empty(self):
        assert summarize_timeseries([]) == {}


class TestSimulatorIntegration:
    def test_simulator_populates_timeseries(self):
        from repro.caching.nocache import NoCache
        from repro.sim.simulator import Simulator, SimulatorConfig
        from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
        from repro.units import DAY, HOUR, MEGABIT
        from repro.workload.config import WorkloadConfig

        trace = generate_synthetic_trace(
            SyntheticTraceConfig(
                name="tl", num_nodes=8, duration=3 * DAY,
                total_contacts=800, granularity=60.0, seed=1,
            )
        )
        workload = WorkloadConfig(mean_data_lifetime=8 * HOUR, mean_data_size=10 * MEGABIT)
        sim = Simulator(
            trace, NoCache(), workload, SimulatorConfig(seed=2, timeseries=True)
        )
        sim.run()
        samples = sim.timeseries.samples
        assert len(samples) > 0
        times = [sample.time for sample in samples]
        assert times == sorted(times)
        assert all(0.0 <= s.mean_buffer_occupancy <= 1.0 for s in samples)
