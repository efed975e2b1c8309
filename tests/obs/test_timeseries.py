"""Telemetry rows and their sampler: recording, JSONL/CSV export, merge,
summary, and the one table renderer."""

import csv
import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.metrics.collector import CollectorTotals
from repro.obs.timeseries import (
    NULL_SAMPLER,
    SCALAR_COLUMNS,
    TelemetryRow,
    TimeSeriesSampler,
    float_from_json,
    jsonable,
    merge_timeseries,
    read_jsonl,
    render_rows,
    summarize_timeseries,
    write_csv,
    write_jsonl,
)


def _row(time, lookups=10, hits=4):
    return TelemetryRow(
        time,
        *CollectorTotals(20, 6, 1, 0, lookups, hits, 7, 5),
        live_items=5,
        cached_copies=8,
        pending_queries=3,
        node_occupancy=(0.2, 0.8),
        ncl_load={3: 4, 1: 2},
    )


class TestSample:
    """One telemetry row (the sample of one instant)."""

    def test_derived_properties(self):
        row = _row(10.0)
        assert row.copies_per_item == pytest.approx(1.6)
        assert row.running_ratio == pytest.approx(0.3)
        assert row.cache_hit_ratio == pytest.approx(0.4)
        assert row.mean_buffer_occupancy == pytest.approx(0.5)
        assert row.max_buffer_occupancy == pytest.approx(0.8)

    def test_zero_denominators(self):
        empty = TelemetryRow(
            0.0, *CollectorTotals(0, 0, 0, 0, 0, 0, 0, 0),
            live_items=0, cached_copies=0, pending_queries=0,
        )
        assert empty.copies_per_item == 0.0
        assert empty.running_ratio == 0.0
        assert empty.cache_hit_ratio == 0.0
        assert empty.mean_buffer_occupancy == 0.0
        assert empty.max_buffer_occupancy == 0.0

    def test_totals_are_the_collector_counters(self):
        row = _row(1.0)
        assert row.totals() == CollectorTotals(20, 6, 1, 0, 10, 4, 7, 5)

    def test_to_dict_has_every_scalar_column_plus_vectors(self):
        record = _row(10.0).to_dict()
        assert set(SCALAR_COLUMNS) <= set(record)
        assert record["node_occupancy"] == [0.2, 0.8]
        assert record["ncl_load"] == {"1": 2, "3": 4}
        # unprofiled: memory columns are null/empty, not absent
        assert record["rss_mb"] is None and record["mem_accounted_mb"] is None
        assert record["mem_top"] == "" and record["mem_subsystems"] == {}


class TestSampler:
    def test_records_in_time_order(self):
        sampler = TimeSeriesSampler()
        sampler.record(_row(1.0))
        sampler.record(_row(2.0))
        assert len(sampler) == 2
        with pytest.raises(ValueError):
            sampler.record(_row(0.5))

    def test_null_sampler_is_disabled(self):
        assert NULL_SAMPLER.enabled is False
        assert TimeSeriesSampler.enabled is True

    def test_null_sampler_refuses_rows(self):
        """A row that reaches the shared disabled sampler is a missing
        guard: it raises, and the singleton stays empty."""
        with pytest.raises(ConfigurationError, match="enabled"):
            NULL_SAMPLER.record(_row(1.0))
        assert len(NULL_SAMPLER) == 0


class TestJsonRule:
    def test_nan_and_inf_encoding(self):
        record = jsonable(
            {"a": math.nan, "b": math.inf, "c": -math.inf, "d": [1.5, math.nan]}
        )
        assert record == {"a": None, "b": "Infinity", "c": "-Infinity", "d": [1.5, None]}
        assert math.isnan(float_from_json(record["a"]))
        assert float_from_json(record["b"]) == math.inf
        assert float_from_json(record["c"]) == -math.inf
        assert float_from_json(1.5) == 1.5

    def test_writer_emits_strict_json(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl([{"x": math.nan, "y": -math.inf, "z": 0.1 + 0.2}], path)

        def refuse(constant):
            raise ValueError(constant)

        line = path.read_text().splitlines()[0]
        assert json.loads(line, parse_constant=refuse) == {
            "x": None, "y": "-Infinity", "z": 0.1 + 0.2,
        }


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        rows = TimeSeriesSampler()
        rows.record(_row(1.0))
        rows.record(_row(2.0))
        path = tmp_path / "ts.jsonl"
        write_jsonl(rows.records(), str(path))
        assert read_jsonl(path) == rows.records()

    def test_csv_has_scalar_columns_only(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_csv([_row(1.0).to_dict()], str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == list(SCALAR_COLUMNS)
        assert "node_occupancy" not in rows[0]

    def test_csv_gains_seed_column_for_merged_rows(self, tmp_path):
        merged = merge_timeseries([(7, [_row(1.0).to_dict()])])
        path = tmp_path / "ts.csv"
        write_csv(merged, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0])[0] == "seed"
        assert rows[0]["seed"] == "7"


class TestMergeAndSummary:
    def test_merge_orders_by_seed_and_tags_rows(self):
        run_a = [_row(1.0).to_dict(), _row(2.0).to_dict()]
        run_b = [_row(1.0).to_dict()]
        merged = merge_timeseries([(9, run_b), (2, run_a)])
        assert [row["seed"] for row in merged] == [2, 2, 9]
        assert [row["time"] for row in merged] == [1.0, 2.0, 1.0]

    def test_summary_min_mean_max_last(self):
        rows = [
            _row(t, lookups=10, hits=h).to_dict() for t, h in ((1.0, 2), (2.0, 6))
        ]
        summary = summarize_timeseries(rows)
        assert summary["time"] == {"min": 1.0, "mean": 1.5, "max": 2.0, "last": 2.0}
        assert summary["cache_hit_ratio"]["last"] == pytest.approx(0.6)
        assert "rss_mb" not in summary  # null in every row

    def test_summary_of_empty(self):
        assert summarize_timeseries([]) == {}


class TestRenderRows:
    COLUMNS = (("time", "time", 8, 1), ("ratio", "r", 6, 3), ("note", "n", 0, 0))

    def test_fixed_width_cells_and_missing_values(self):
        lines = render_rows(
            [{"time": 1.0, "r": None, "n": "x"}, {"time": 2.5, "r": 0.25, "n": ""}],
            self.COLUMNS,
        )
        assert lines[0] == "    time  ratio note"
        assert set(lines[1]) == {"-"} and len(lines[1]) == len(lines[0])
        assert lines[2] == "     1.0      - x"
        assert lines[3] == "     2.5  0.250"

    def test_limit_keeps_the_last_records(self):
        records = [{"time": float(t), "r": 0.0, "n": ""} for t in range(5)]
        lines = render_rows(records, self.COLUMNS, limit=2)
        assert len(lines) == 4 and lines[2].strip().startswith("3.0")


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
        result = sim.run()
        rows = sim.timeseries.rows
        assert len(rows) > 0
        times = [row.time for row in rows]
        assert times == sorted(times)
        assert all(0.0 <= r.mean_buffer_occupancy <= 1.0 for r in rows)
        # counters are cumulative: never decreasing, ending at the run's totals
        for earlier, later in zip(rows, rows[1:]):
            assert all(a <= b for a, b in zip(earlier.totals(), later.totals()))
        assert rows[-1].queries_issued <= result.queries_issued
