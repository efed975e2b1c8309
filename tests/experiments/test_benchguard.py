"""Unit tests for the benchmark regression guard's comparison logic."""

import json

import pytest

from repro.experiments.benchguard import (
    MEMORY_FOOTPRINT_THRESHOLD,
    TWIN_OVERHEAD_CAPS,
    check_memory_footprint,
    check_throughput,
    check_twin_overhead,
    compare_against_baseline,
    load_benchmark_means,
    load_benchmark_memory,
    load_benchmark_queries,
)


class TestCompare:
    def test_within_threshold_passes(self):
        rows = compare_against_baseline({"k": 1.2}, {"k": 1.0}, threshold=1.5)
        assert rows == [("k", 1.2, 1.0, False)]

    def test_regression_beyond_threshold_fails(self):
        rows = compare_against_baseline({"k": 1.6}, {"k": 1.0}, threshold=1.5)
        assert rows[0][3] is True

    def test_new_benchmark_without_baseline_never_fails(self):
        rows = compare_against_baseline({"new": 99.0}, {}, threshold=1.5)
        assert rows == [("new", 99.0, None, False)]

    def test_rows_sorted_by_name(self):
        rows = compare_against_baseline({"b": 1.0, "a": 1.0}, {}, threshold=1.5)
        assert [row[0] for row in rows] == ["a", "b"]


class TestTwinOverhead:
    @pytest.mark.parametrize("suffix, cap", TWIN_OVERHEAD_CAPS.items())
    def test_within_limit_passes(self, suffix, cap):
        suffixed = "k" + suffix
        rows = check_twin_overhead({"k": 1.0, suffixed: cap - 0.01}, suffix, cap)
        assert rows == [(suffixed, cap - 0.01, False)]

    @pytest.mark.parametrize("suffix, cap", TWIN_OVERHEAD_CAPS.items())
    def test_beyond_limit_fails(self, suffix, cap):
        suffixed = "k" + suffix
        rows = check_twin_overhead({"k": 1.0, suffixed: cap + 0.05}, suffix, cap)
        assert rows == [(suffixed, cap + 0.05, True)]

    def test_missing_twin_yields_no_row(self):
        assert check_twin_overhead({"k_reelect": 1.0}, "_reelect", 1.05) == []

    def test_zero_time_twin_yields_no_row(self):
        assert check_twin_overhead({"k": 0.0, "k_reelect": 1.0}, "_reelect", 1.05) == []

    def test_plain_benchmarks_are_not_paired(self):
        assert check_twin_overhead({"a": 1.0, "b": 2.0}, "_reelect", 1.05) == []

    def test_health_pairs_with_unmonitored_serve_twin(self):
        means = {
            "test_bench_throughput_serve_batches": 2.0,
            "test_bench_throughput_serve_batches_health": 2.06,
        }
        rows = check_twin_overhead(means, "_health", TWIN_OVERHEAD_CAPS["_health"])
        assert rows == [("test_bench_throughput_serve_batches_health", 1.03, False)]
        assert TWIN_OVERHEAD_CAPS["_health"] == 1.05


class TestLoadMeans:
    def test_extracts_means_from_pytest_benchmark_json(self, tmp_path):
        report = {
            "benchmarks": [
                {"name": "test_bench_kernel_x", "stats": {"mean": 0.25, "min": 0.2}},
                {"name": "test_bench_kernel_y", "stats": {"mean": 1.5}},
            ]
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report))
        assert load_benchmark_means(path) == {
            "test_bench_kernel_x": 0.25,
            "test_bench_kernel_y": 1.5,
        }

    def test_empty_report_yields_empty_map(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{}")
        assert load_benchmark_means(path) == {}


class TestLoadQueries:
    def test_extracts_query_counts_from_extra_info(self, tmp_path):
        report = {
            "benchmarks": [
                {
                    "name": "test_bench_throughput_x",
                    "stats": {"mean": 0.5},
                    "extra_info": {"queries": 20000},
                },
                # Plain benchmarks carry no queries and are excluded.
                {"name": "test_bench_kernel_y", "stats": {"mean": 1.5}},
                {
                    "name": "test_bench_kernel_z",
                    "stats": {"mean": 1.0},
                    "extra_info": {"other": 3},
                },
            ]
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report))
        assert load_benchmark_queries(path) == {"test_bench_throughput_x": 20000}

    def test_empty_report_yields_empty_map(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{}")
        assert load_benchmark_queries(path) == {}


class TestThroughput:
    def test_within_threshold_passes(self):
        # 1000 q / 0.5 s = 2000 q/s against a 2500 q/s baseline: above
        # the 2500/1.5 floor, so not a regression.
        rows = check_throughput({"t": 0.5}, {"t": 1000}, {"t": 2500.0})
        assert rows == [("t", 2000.0, 2500.0, False)]

    def test_below_floor_fails(self):
        rows = check_throughput(
            {"t": 1.0}, {"t": 1000}, {"t": 2000.0}, threshold=1.5
        )
        assert rows == [("t", 1000.0, 2000.0, True)]

    def test_new_benchmark_without_baseline_never_fails(self):
        rows = check_throughput({"t": 0.5}, {"t": 1000}, {})
        assert rows == [("t", 2000.0, None, False)]

    def test_benchmark_without_mean_yields_no_row(self):
        assert check_throughput({}, {"t": 1000}, {}) == []

    def test_rows_sorted_by_name(self):
        rows = check_throughput(
            {"b": 1.0, "a": 1.0}, {"b": 10, "a": 10}, {}
        )
        assert [row[0] for row in rows] == ["a", "b"]


class TestLoadMemory:
    def test_extracts_rss_and_subsystem_stamps(self, tmp_path):
        report = {
            "benchmarks": [
                {
                    "name": "test_bench_large_end_to_end_1e5",
                    "stats": {"mean": 100.0},
                    "extra_info": {
                        "peak_rss_mb": 17500.5,
                        "mem_subsystems": {"nodes": 9000000, "events": 2000},
                    },
                },
                {
                    "name": "test_bench_large_setup_1e5",
                    "stats": {"mean": 10.0},
                    "extra_info": {"peak_rss_mb": 800.0},
                },
                # Plain benchmarks carry no RSS stamp and are excluded.
                {"name": "test_bench_kernel_y", "stats": {"mean": 1.5}},
            ]
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report))
        assert load_benchmark_memory(path) == {
            "test_bench_large_end_to_end_1e5": {
                "peak_rss_mb": 17500.5,
                "subsystems": {"nodes": 9000000, "events": 2000},
            },
            "test_bench_large_setup_1e5": {"peak_rss_mb": 800.0},
        }

    def test_empty_report_yields_empty_map(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{}")
        assert load_benchmark_memory(path) == {}


class TestMemoryFootprint:
    def test_synthetic_regression_beyond_ceiling_fails(self):
        # 1.3x the committed footprint must trip the 1.2x ceiling.
        rows = check_memory_footprint(
            {"e2e": {"peak_rss_mb": 1300.0}}, {"e2e": {"peak_rss_mb": 1000.0}}
        )
        assert rows == [("e2e", 1300.0, 1000.0, True)]
        assert MEMORY_FOOTPRINT_THRESHOLD == 1.2

    def test_growth_within_ceiling_passes(self):
        rows = check_memory_footprint(
            {"e2e": {"peak_rss_mb": 1100.0}}, {"e2e": {"peak_rss_mb": 1000.0}}
        )
        assert rows == [("e2e", 1100.0, 1000.0, False)]

    def test_new_benchmark_without_baseline_never_fails(self):
        rows = check_memory_footprint({"fresh": {"peak_rss_mb": 9999.0}}, {})
        assert rows == [("fresh", 9999.0, None, False)]

    def test_memory_twin_cap_matches_other_instruments(self):
        assert TWIN_OVERHEAD_CAPS["_memory"] == 1.05
