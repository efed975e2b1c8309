"""Microbenchmarks of the computational kernels.

Unlike the figure benchmarks (whole simulation sweeps, pedantic
single-round), these measure the hot inner loops with normal
pytest-benchmark statistics: the Eq. (2) path weight, the single-source
opportunistic-path computation, the Eq. (3) metric over a full graph,
and the Eq. (7) knapsack under realistic buffer sizes.
"""

import os
import time

import numpy as np

from repro.caching.nocache import NoCache
from repro.core.data import Query
from repro.core.knapsack import KnapsackItem, solve_knapsack
from repro.experiments.serve import ServeSession
from repro.metrics.collector import MetricsCollector
from repro.core.ncl import _reference_ncl_metrics, ncl_metrics
from repro.experiments.runner import run_repeated
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import shortest_path_weight_matrix, shortest_paths_from
from repro.graph.weight_cache import shared_weight_cache
from repro.obs.memory import peak_rss_bytes
from repro.obs.profile import Profiler, set_active_profiler
from repro.mathutils.hypoexponential import (
    hypoexponential_cdf,
    hypoexponential_cdf_batch,
    pad_rate_rows,
)
from repro.traces.catalog import TRACE_PRESETS
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, HOUR, MEGABIT, WEEK
from repro.workload.config import WorkloadConfig


def _mit_graph():
    config = TRACE_PRESETS["mit_reality"].synthetic_config(
        seed=1, node_factor=0.6, time_factor=0.12
    )
    return ContactGraph.from_trace(generate_synthetic_trace(config))


def _large_graph(num_nodes=200):
    """A 200-node contact graph: the scale at which per-event Python
    overhead starts to dominate."""
    return ContactGraph.from_trace(
        generate_synthetic_trace(
            SyntheticTraceConfig(
                name=f"bench-n{num_nodes}",
                num_nodes=num_nodes,
                duration=4 * DAY,
                total_contacts=num_nodes * 40,
                granularity=60.0,
                seed=9,
            )
        )
    )


def _knapsack_items(count, seed=3):
    rng = np.random.default_rng(seed)
    return [
        KnapsackItem(i, float(rng.random()), int(rng.uniform(20, 200) * MEGABIT))
        for i in range(count)
    ]


def test_bench_kernel_path_weight(benchmark):
    rates = [1 / 3600.0, 1 / 7200.0, 1 / 1800.0, 1 / 5400.0]
    value = benchmark(hypoexponential_cdf, rates, 6 * 3600.0)
    assert 0.0 < value < 1.0


def test_bench_kernel_single_source_paths(benchmark):
    graph = _mit_graph()
    paths = benchmark(shortest_paths_from, graph, 0, 1 * WEEK)
    assert len(paths) >= 1


def test_bench_kernel_ncl_metrics(benchmark):
    graph = _mit_graph()

    def cold_metrics():
        # Clear the shared cache so each round measures the kernel,
        # not a cache hit on the previous round's result.
        shared_weight_cache().clear()
        return ncl_metrics(graph, 1 * WEEK)

    metrics = benchmark.pedantic(cold_metrics, rounds=2, iterations=1)
    assert len(metrics) == graph.num_nodes


def test_bench_kernel_ncl_metrics_n200(benchmark):
    graph = _large_graph()

    def cold_metrics():
        shared_weight_cache().clear()
        return ncl_metrics(graph, 1 * WEEK)

    metrics = benchmark.pedantic(cold_metrics, rounds=2, iterations=1)
    assert len(metrics) == graph.num_nodes


def test_bench_kernel_path_weight_batch(benchmark):
    rng = np.random.default_rng(11)
    rows = [
        tuple(rng.uniform(1e-6, 1e-3, rng.integers(1, 7)))
        for _ in range(512)
    ]
    padded = pad_rate_rows(rows)
    values = benchmark(hypoexponential_cdf_batch, padded, 6 * 3600.0)
    assert values.shape == (512,)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_bench_kernel_weight_matrix(benchmark):
    graph = _mit_graph()
    matrix = benchmark.pedantic(
        shortest_path_weight_matrix, args=(graph, 1 * WEEK), rounds=2, iterations=1
    )
    assert matrix.shape == (graph.num_nodes, graph.num_nodes)


def test_bench_kernel_weight_matrix_n200(benchmark):
    graph = _large_graph()
    matrix = benchmark.pedantic(
        shortest_path_weight_matrix, args=(graph, 1 * WEEK), rounds=2, iterations=1
    )
    assert matrix.shape == (graph.num_nodes, graph.num_nodes)


def test_bench_kernel_knn_rows_n2048_sparse(benchmark):
    """The scale-out kernel: k-NN truncated rows on a forced-sparse
    graph just past the auto-sparse threshold."""
    from repro.core.ncl import DEFAULT_KNN_K
    from repro.graph.sparse import knn_weight_rows
    from repro.traces.stream import SparseSyntheticConfig, stream_synthetic_contacts

    stream = stream_synthetic_contacts(
        SparseSyntheticConfig(
            name="bench-knn", num_nodes=2048, duration=2 * DAY,
            total_contacts=40_000, granularity=120.0, seed=5,
        )
    )
    graph = ContactGraph.from_trace(stream, sparse=True)

    def cold_rows():
        shared_weight_cache().clear()
        return knn_weight_rows(graph, 1 * DAY, DEFAULT_KNN_K)

    rows = benchmark.pedantic(cold_rows, rounds=2, iterations=1)
    assert rows.indptr.shape == (graph.num_nodes + 1,)


def test_bench_kernel_knn_rows_n100_sparse(benchmark):
    """k-NN truncated rows at sparse_churn's scale: a forced-sparse
    100-node streamed graph, small enough for the tree core."""
    from repro.core.ncl import DEFAULT_KNN_K
    from repro.graph.sparse import knn_weight_rows
    from repro.traces.stream import SparseSyntheticConfig, stream_synthetic_contacts

    stream = stream_synthetic_contacts(
        SparseSyntheticConfig(
            name="bench-knn-n100", num_nodes=100, duration=2 * DAY,
            total_contacts=2_000, granularity=120.0, seed=5,
        )
    )
    graph = ContactGraph.from_trace(stream, sparse=True)

    def cold_rows():
        shared_weight_cache().clear()
        return knn_weight_rows(graph, 1 * DAY, DEFAULT_KNN_K)

    rows = benchmark.pedantic(cold_rows, rounds=5, iterations=1)
    assert rows.indptr.shape == (graph.num_nodes + 1,)


def test_bench_kernel_weight_matrix_profiled(benchmark):
    """Same kernel with an *enabled* active profiler.

    The bench guard pairs this with ``test_bench_kernel_weight_matrix``
    and fails when the span instrumentation costs
    more than 5% — the profiler must stay cheap enough to leave on
    during investigations.
    """
    graph = _mit_graph()
    profiler = Profiler()
    previous = set_active_profiler(profiler)
    try:
        matrix = benchmark.pedantic(
            shortest_path_weight_matrix, args=(graph, 1 * WEEK), rounds=2, iterations=1
        )
    finally:
        set_active_profiler(previous)
    assert matrix.shape == (graph.num_nodes, graph.num_nodes)
    assert "kernel.weight_matrix" in profiler.as_dict()


def _run_static_sim(reelect, mem_profile=False):
    from repro.scenario import (
        RunSpec,
        ScenarioSpec,
        SchemeSpec,
        TraceSpec,
        build_trace,
        scheme_factory,
        simulator_config,
    )
    from repro.sim.simulator import Simulator

    # Memory columns live in the sampled rows, so profiling memory
    # keeps the time series too.
    spec = ScenarioSpec(
        trace=TraceSpec(name="mit_reality", node_factor=0.35, time_factor=0.08),
        scheme=SchemeSpec(reelect=reelect),
        run=RunSpec(mem_profile=mem_profile, timeseries=mem_profile),
    )
    trace = build_trace(spec.trace)
    workload = WorkloadConfig(
        mean_data_lifetime=trace.duration * 0.1, mean_data_size=100_000_000
    )
    sim = Simulator(trace, scheme_factory(spec)(), workload, simulator_config(spec))
    return sim, sim.run()


def test_bench_sim_static(benchmark):
    sim, result = benchmark.pedantic(
        _run_static_sim, args=(False,), rounds=2, iterations=1
    )
    assert result.queries_issued > 0


def test_bench_sim_static_reelect(benchmark):
    """Same static run with re-election enabled.

    The bench guard pairs this with ``test_bench_sim_static`` and fails
    when enabling re-election costs more than 5% — on a network with no
    churn the topology gate must keep the selection pass from running.
    """
    _, result = benchmark.pedantic(
        _run_static_sim, args=(True,), rounds=2, iterations=1
    )
    assert result.queries_issued > 0


def test_bench_sim_static_memory(benchmark):
    """Same static run keeping telemetry rows with memory columns.

    The bench guard pairs this with ``test_bench_sim_static`` and fails
    when footprint sampling (the rows and their memory columns) costs
    more than 5% — measuring where the bytes live must stay cheap
    enough to switch on the moment a run is suspected of bloating.  The final breakdown and the process peak RSS
    are stamped into ``extra_info``, which feeds the guard's memory tier
    (footprint ceiling = 1.2x the committed baseline).
    """
    sim, result = benchmark.pedantic(
        _run_static_sim, args=(False, True), rounds=2, iterations=1
    )
    assert result.queries_issued > 0
    rows = sim.timeseries.rows
    assert sim.memory.enabled and rows
    assert all(row.rss_mb > 0 and row.mem_subsystems for row in rows)
    benchmark.extra_info["peak_rss_mb"] = peak_rss_bytes() / 2**20
    benchmark.extra_info["mem_subsystems"] = sim.memory_breakdown()


def _run_traced_sim(diagnose):
    from repro.obs.recorder import MemoryRecorder
    from repro.scenario import (
        ScenarioSpec,
        SchemeSpec,
        TraceSpec,
        build_trace,
        scheme_factory,
        simulator_config,
    )
    from repro.sim.simulator import Simulator

    spec = ScenarioSpec(
        trace=TraceSpec(name="mit_reality", node_factor=0.35, time_factor=0.08),
        scheme=SchemeSpec(),
    )
    trace = build_trace(spec.trace)
    workload = WorkloadConfig(
        mean_data_lifetime=trace.duration * 0.1, mean_data_size=100_000_000
    )
    recorder = MemoryRecorder()
    sim = Simulator(
        trace, scheme_factory(spec)(), workload, simulator_config(spec),
        recorder=recorder,
    )
    result = sim.run()
    if diagnose:
        from repro.obs.causality import build_causality
        from repro.obs.diagnose import run_diagnosis

        diagnosis = run_diagnosis(
            build_causality(recorder.events), contact_trace=trace
        )
        assert diagnosis.num_events > 0
    return result


def test_bench_sim_traced(benchmark):
    result = benchmark.pedantic(_run_traced_sim, args=(False,), rounds=2, iterations=1)
    assert result.queries_issued > 0


def test_bench_sim_traced_diagnose(benchmark):
    """Traced run plus a full ``repro diagnose`` pass on the recording.

    The bench guard pairs this with ``test_bench_sim_traced`` and fails
    when the diagnosis (causal reconstruction, consistency cross-check,
    fidelity calibration) costs more than 50% on top of the traced
    simulation itself — offline post-processing, but it must stay cheap
    enough to run after every traced experiment.
    """
    result = benchmark.pedantic(_run_traced_sim, args=(True,), rounds=2, iterations=1)
    assert result.queries_issued > 0


def test_bench_kernel_knapsack(benchmark):
    items = _knapsack_items(24)
    solution = benchmark(solve_knapsack, items, 400 * MEGABIT)
    assert solution.total_size <= 400 * MEGABIT


def test_bench_kernel_knapsack_n200(benchmark):
    items = _knapsack_items(200)
    solution = benchmark(solve_knapsack, items, 2000 * MEGABIT)
    assert solution.total_size <= 2000 * MEGABIT


#: per-round query count of the streaming-collector throughput benchmark
COLLECTOR_FEED_QUERIES = 20_000


def _feed_streaming_collector(queries):
    collector = MetricsCollector()
    for query in queries:
        collector.on_query_created(query)
        collector.record_delivery(query, query.created_at + 1.0)
    return collector


def test_bench_throughput_streaming_collector(benchmark):
    """Raw bounded-memory collector throughput (queries/sec tier).

    Publishes its deterministic per-round query count through
    ``extra_info["queries"]``; the bench guard divides it by the mean
    round time and fails when queries/sec drops below
    baseline/threshold.
    """
    queries = [
        Query(
            query_id=index,
            requester=0,
            data_id=index,
            created_at=float(index),
            time_constraint=500.0,
        )
        for index in range(COLLECTOR_FEED_QUERIES)
    ]
    collector = benchmark(_feed_streaming_collector, queries)
    assert collector.queries_issued == COLLECTOR_FEED_QUERIES
    benchmark.extra_info["queries"] = COLLECTOR_FEED_QUERIES


def _run_serve_batches(health=None):
    from repro.scenario import (
        ScenarioSpec,
        SchemeSpec,
        TraceSpec,
        build_trace,
        scheme_factory,
        simulator_config,
    )

    spec = ScenarioSpec(
        trace=TraceSpec(name="mit_reality", node_factor=0.35, time_factor=0.08),
        scheme=SchemeSpec(),
    )
    trace = build_trace(spec.trace)
    workload = WorkloadConfig(
        mean_data_lifetime=trace.duration * 0.1,
        mean_data_size=100_000_000,
        arrival_process="bursty",
    )
    session = ServeSession(
        trace, scheme_factory(spec)(), workload, simulator_config(spec),
        health=health,
    )
    for _ in range(4):
        session.run_batch(rounds=4)
    return session.finalize()


def _run_serve_batches_health():
    from repro.obs.health import HealthMonitor
    from repro.obs.slo import SLO_PRESETS

    return _run_serve_batches(health=HealthMonitor(tuple(SLO_PRESETS.values())))


def test_bench_throughput_serve_batches(benchmark):
    """End-to-end serve-mode throughput on the bench-scale trace.

    The per-round query count is deterministic (fresh session, same
    seed each round), so the guard can derive queries/sec from it.
    """
    result = benchmark.pedantic(_run_serve_batches, rounds=2, iterations=1)
    assert result.queries_issued > 0
    benchmark.extra_info["queries"] = result.queries_issued


def test_bench_throughput_serve_batches_health(benchmark):
    """Monitored twin: same serve run with the live health monitor on.

    Per-batch ``observe_window`` snapshots, all four preset SLO rules,
    and the anomaly detectors run on every batch.  The bench guard
    pairs this with its unmonitored twin and fails when the monitor
    costs more than its ``_health`` cap in ``TWIN_OVERHEAD_CAPS`` (5%).
    """
    result = benchmark.pedantic(_run_serve_batches_health, rounds=2, iterations=1)
    assert result.queries_issued > 0
    benchmark.extra_info["queries"] = result.queries_issued


def _best_of(callable_, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        shared_weight_cache().clear()
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_speedup_ncl_metrics_vs_reference():
    """Acceptance harness: the vectorized Eq. (3) metric must be at
    least 5x faster than the retained pure-Python oracle on the
    mit_reality bench graph, while agreeing to 1e-9."""
    graph = _mit_graph()
    fast_time, fast = _best_of(lambda: ncl_metrics(graph, 1 * WEEK))
    slow_time, slow = _best_of(lambda: _reference_ncl_metrics(graph, 1 * WEEK))
    np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)
    speedup = slow_time / fast_time
    assert speedup >= 5.0, (
        f"ncl_metrics only {speedup:.1f}x faster than reference "
        f"({fast_time * 1e3:.1f} ms vs {slow_time * 1e3:.1f} ms)"
    )


def test_speedup_parallel_runner():
    """run_repeated(workers=4) must match the serial aggregates exactly
    on an 8-seed sweep; the >=2x wall-clock assertion only applies on
    machines with enough cores to show it."""
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(
            name="runner-bench",
            num_nodes=12,
            duration=4 * DAY,
            total_contacts=4000,
            granularity=60.0,
            seed=5,
        )
    )
    workload = WorkloadConfig(mean_data_lifetime=8 * HOUR, mean_data_size=10 * MEGABIT)
    seeds = tuple(range(1, 9))

    start = time.perf_counter()
    serial = run_repeated(trace, NoCache, workload, seeds=seeds)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_repeated(trace, NoCache, workload, seeds=seeds, workers=4)
    parallel_time = time.perf_counter() - start

    assert serial.runs == parallel.runs == len(seeds)
    assert serial.successful_ratio == parallel.successful_ratio
    assert serial.queries_issued == parallel.queries_issued
    assert serial.caching_overhead == parallel.caching_overhead

    if (os.cpu_count() or 1) >= 4:
        speedup = serial_time / parallel_time
        assert speedup >= 2.0, (
            f"parallel sweep only {speedup:.2f}x faster "
            f"({parallel_time:.2f}s vs {serial_time:.2f}s serial)"
        )
