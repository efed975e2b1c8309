"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``traces``
    Print the Table I summary of the four synthetic preset traces.
``ncl``
    Select NCLs on a preset trace and print the metric ranking.
``simulate``
    Run one scheme on a preset trace and print the headline metrics.
``compare``
    Run all five schemes head-to-head on a preset trace.
``fit``
    Check the exponential inter-contact assumption on a preset trace.
``figure``
    Regenerate one of the paper's tables/figures at a chosen scale.
``serve``
    Fit the network once, then replay query batches against the fitted
    state and report per-batch throughput (heavy-traffic mode).
    ``--slo``/``--out``/``--prom-out`` add live health telemetry: SLO
    rules, anomaly detection, a JSONL health log, Prometheus text.
``watch``
    Render a run directory's sample log: a serve run's health windows,
    else a simulate run's time-series rows (or a bare ``health.jsonl`` /
    ``timeseries.jsonl``).
``bench``
    Run the kernel microbenchmarks and fail on regression vs baseline.
``trace``
    Replay a JSONL trace file into a per-query audit report, or drill
    into one query/data item's causal chain (``--query-id``/``--data-id``).
``report``
    Render a run directory (``simulate --out DIR``) as Markdown.
``diagnose``
    Causal-chain and model-fidelity diagnosis of a run directory or a
    bare ``trace.jsonl`` (``--strict`` exits non-zero on warnings).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.experiments.report import render_table
from repro.experiments.figures import TableResult
from repro.graph.contact_graph import ContactGraph
from repro.core.ncl import select_ncls
from repro.metrics.results import SimulationResult
from repro.obs.causality import CausalityIndex
from repro.scenario import (
    RESPONSE_STRATEGIES,
    ROUTERS,
    SCHEMES as SCHEME_REGISTRY,
    TRACE_SOURCES,
    RunSpec,
    ScenarioSpec,
    SchemeSpec,
    TraceSpec,
    build_trace,
    scheme_factory,
    simulator_config,
)
from repro.sim.simulator import Simulator
from repro.traces.analysis import exponential_fit_report
from repro.traces.catalog import STREAM_PRESETS, TRACE_PRESETS, load_preset_trace
from repro.traces.contact import ContactTrace
from repro.traces.stats import summarize_trace
from repro.units import HOUR, MEGABIT
from repro.workload import ARRIVALS
from repro.workload.config import WorkloadConfig

SCHEMES = SCHEME_REGISTRY.names()


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        choices=sorted(TRACE_SOURCES.names()),
        default="mit_reality",
        help="Table I preset, or a streaming large-scale source "
        f"({', '.join(sorted(STREAM_PRESETS))})",
    )
    parser.add_argument("--node-factor", type=float, default=0.6)
    parser.add_argument("--time-factor", type=float, default=0.15)
    parser.add_argument("--trace-seed", type=int, default=1)


def _load_trace(args: argparse.Namespace):
    return build_trace(
        TraceSpec(
            name=args.trace,
            seed=args.trace_seed,
            node_factor=args.node_factor,
            time_factor=args.time_factor,
        )
    )


def _result_line(result: SimulationResult) -> str:
    delay = (
        f"{result.mean_access_delay / HOUR:8.1f}h"
        if result.queries_satisfied
        else "     n/a"
    )
    return (
        f"{result.name:14s} ratio={result.successful_ratio:6.3f} "
        f"delay={delay} copies/item={result.caching_overhead:5.2f} "
        f"queries={result.queries_issued}"
    )


def cmd_traces(args: argparse.Namespace) -> int:
    rows = []
    for key in TRACE_PRESETS:
        trace = load_preset_trace(
            key, seed=args.trace_seed, node_factor=args.node_factor, time_factor=args.time_factor
        )
        rows.append(summarize_trace(trace).as_row())
    print(render_table(TableResult("table1", "Trace summary (Table I)", rows)))
    return 0


def cmd_ncl(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    preset = TRACE_PRESETS.get(args.trace) or STREAM_PRESETS[args.trace]
    # from_trace iterates the trace lazily, so a streaming source builds
    # its (sparse) graph without ever materialising the contacts.
    graph = ContactGraph.from_trace(trace)
    selection = select_ncls(graph, args.k, preset.ncl_time_budget)
    print(f"trace: {trace}")
    print(f"time budget T = {preset.ncl_time_budget / HOUR:.0f}h; top {args.k} NCLs:")
    for rank, node in enumerate(selection.central_nodes):
        print(f"  #{rank + 1}: node {node}  C_i = {selection.metrics[node]:.4f}")
    return 0


def _parse_arrival_param(pair: str):
    key, sep, value = pair.partition("=")
    try:
        if not sep or not key:
            raise ValueError(pair)
        return key, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected KEY=NUMBER, got {pair!r}"
        ) from None


def _workload_from_args(args: argparse.Namespace) -> WorkloadConfig:
    params = dict(getattr(args, "arrival_param", None) or []) or None
    return WorkloadConfig(
        mean_data_lifetime=args.lifetime_hours * HOUR,
        mean_data_size=int(args.size_mb * MEGABIT),
        arrival_process=getattr(args, "arrival", "periodic"),
        arrival_params=params,
    )


def _scenario_from_args(
    args: argparse.Namespace, scheme_name: Optional[str] = None
) -> ScenarioSpec:
    """The ScenarioSpec the legacy CLI flags describe (thin-shim path)."""
    return ScenarioSpec(
        trace=TraceSpec(
            name=args.trace,
            seed=args.trace_seed,
            node_factor=args.node_factor,
            time_factor=args.time_factor,
        ),
        scheme=SchemeSpec(
            name=scheme_name or args.scheme,
            num_ncls=args.k,
            knn_k=getattr(args, "knn_k", None),
        ),
        workload=_workload_from_args(args),
        run=RunSpec(
            seed=args.seed,
            repeat=getattr(args, "repeat", 1),
            sparse_graph=getattr(args, "sparse", None),
            mem_profile=getattr(args, "mem_profile", False),
        ),
    )


def _run_one(args: argparse.Namespace, scheme_name: str) -> SimulationResult:
    spec = _scenario_from_args(args, scheme_name)
    trace = build_trace(spec.trace)
    config = simulator_config(spec, trace_path=getattr(args, "trace_out", None))
    return Simulator(trace, scheme_factory(spec)(), spec.workload, config).run()


def _print_registries() -> None:
    for title, registry in (
        ("schemes", SCHEME_REGISTRY),
        ("trace sources", TRACE_SOURCES),
        ("response strategies", RESPONSE_STRATEGIES),
        ("routers", ROUTERS),
        ("arrival processes", ARRIVALS),
    ):
        print(f"{title}: {', '.join(registry.names())}")


def cmd_simulate(args: argparse.Namespace) -> int:
    import os

    from repro.experiments.runner import ExperimentResult
    from repro.experiments.runstore import save_run
    from repro.metrics.results import aggregate_results
    from repro.obs.memory import render_memory_breakdown
    from repro.obs.profile import render_profile_table
    from repro.obs.provenance import build_manifest
    from repro.obs.timeseries import merge_timeseries, write_csv
    from repro.scenario import run_scenario

    if args.list_schemes:
        _print_registries()
        return 0
    if args.scenario:
        spec = ScenarioSpec.load(args.scenario)
    else:
        spec = _scenario_from_args(args)
    # --out implies telemetry collection; --profile implies spans;
    # --timeline-out is a CSV projection of the time series.
    collect = bool(args.out or args.profile)
    spec = dataclasses.replace(
        spec,
        run=dataclasses.replace(
            spec.run,
            profile=spec.run.profile or collect,
            timeseries=spec.run.timeseries or bool(args.out or args.timeline_out),
        ),
    )
    repeat = spec.run.repeat

    if repeat > 1 or (args.workers and args.workers > 1):
        if args.trace_out or args.timeline_out:
            print(
                "--trace-out/--timeline-out record one run; "
                "use --repeat 1 without --workers",
                file=sys.stderr,
            )
            return 2
        if spec.run.mem_profile:
            print(
                "--mem-profile records one process; use --repeat 1 "
                "without --workers",
                file=sys.stderr,
            )
            return 2
        experiment = run_scenario(spec, workers=args.workers)
        for result in experiment.results:
            print(_result_line(result))
    else:
        trace_out = args.trace_out
        if args.out and not trace_out:
            # Single traced runs into a run directory get their lifecycle
            # trace by default, so `repro report` can show the per-query
            # audit and event counts (churn/failure runs in particular).
            os.makedirs(args.out, exist_ok=True)
            trace_out = os.path.join(args.out, "trace.jsonl")
        trace = build_trace(spec.trace)
        config = simulator_config(spec, trace_path=trace_out)
        simulator = Simulator(trace, scheme_factory(spec)(), spec.workload, config)
        result = simulator.run()
        print(_result_line(result))
        if spec.run.mem_profile:
            print()
            print(render_memory_breakdown(simulator.memory_breakdown()))
        if args.timeline_out:
            write_csv(simulator.timeseries.records(), args.timeline_out)
            print(f"timeline written to {args.timeline_out}")
        experiment = ExperimentResult(
            aggregate=aggregate_results([result]),
            results=[result],
            registry=simulator.registry,
            profile=simulator.profiler.as_dict(),
            timeseries=merge_timeseries(
                [(spec.run.seed, simulator.timeseries.records())]
            ),
            manifest=build_manifest(spec.provenance_config(), spec.run.seeds),
        )

    if args.out:
        save_run(experiment, args.out)
        print(f"run directory written to {args.out} (render with `repro report`)")
    if args.profile:
        print()
        print(render_profile_table(experiment.profile))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    for scheme_name in SCHEMES:
        print(_result_line(_run_one(args, scheme_name)))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.errors import ConfigurationError
    from repro.experiments.runstore import HEALTH_FILE, MANIFEST_FILE
    from repro.experiments.serve import serve_repeated, summarize_throughput
    from repro.obs.health import render_prometheus
    from repro.obs.provenance import build_manifest, write_manifest
    from repro.obs.slo import SLOEngine, parse_slo_rule
    from repro.obs.timeseries import write_jsonl

    try:
        rules = tuple(parse_slo_rule(spec_text) for spec_text in (args.slo or []))
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    monitor = bool(rules or args.out or args.prom_out)

    spec = _scenario_from_args(args)
    outcomes = serve_repeated(
        build_trace(spec.trace),
        scheme_factory(spec),
        spec.workload,
        seeds=spec.run.seeds,
        batches=args.batches,
        rounds_per_batch=args.rounds,
        config=simulator_config(spec),
        workers=args.workers,
        slo_rules=rules,
        monitor_health=monitor,
    )
    all_batches = []
    for seed, outcome in zip(spec.run.seeds, outcomes):
        for batch in outcome.batches:
            print(
                f"seed {seed} batch {batch.index:3d} "
                f"[{batch.start / HOUR:7.1f}h, {batch.end / HOUR:7.1f}h) "
                f"issued={batch.queries_issued:5d} "
                f"satisfied={batch.queries_satisfied:5d} "
                f"pending={batch.pending_queries:5d} "
                f"{batch.queries_per_second:9.0f} q/s"
            )
        print(_result_line(outcome.result))
        if outcome.health is not None:
            for transition in outcome.health.transitions:
                print(
                    f"seed {seed} {transition.kind} rule={transition.rule} "
                    f"t={transition.time / HOUR:.1f}h "
                    f"{transition.field}={transition.value:.4g} "
                    f"(target {transition.target:.4g})"
                )
            if outcome.health.anomalies:
                print(
                    f"seed {seed} anomalies: "
                    f"{len(outcome.health.anomalies)} detector firing(s)"
                )
        all_batches.extend(outcome.batches)
    summary = summarize_throughput(all_batches)
    print(
        f"throughput: {summary['queries_issued']} queries in "
        f"{summary['wall_seconds']:.2f}s wall = "
        f"{summary['queries_per_second']:.0f} q/s "
        f"over {summary['batches']} batches"
    )

    first_health = outcomes[0].health if outcomes else None
    if args.out and first_health is not None:
        os.makedirs(args.out, exist_ok=True)
        write_jsonl(first_health.to_records(), os.path.join(args.out, HEALTH_FILE))
        write_manifest(
            build_manifest(
                spec.provenance_config(), spec.run.seeds, slo_rules=rules
            ),
            os.path.join(args.out, MANIFEST_FILE),
        )
        note = " (first seed)" if len(outcomes) > 1 else ""
        print(f"health log{note} written to {args.out} (render with `repro watch`)")
    if args.prom_out and first_health is not None:
        # Rebuild the final SLO state by replaying the frozen snapshot
        # stream (pure function of the stream, so this is exact).
        engine = SLOEngine(rules)
        for snapshot in first_health.snapshots:
            engine.evaluate(snapshot)
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(first_health, engine))
        print(f"Prometheus exposition written to {args.prom_out}")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    import os

    from repro.experiments.runstore import render_sample_log, sample_log_path

    path = sample_log_path(args.path) if os.path.isdir(args.path) else args.path
    if path is None or not os.path.exists(path):
        print(
            f"no health log or time series at {args.path!r} (serve with "
            "--slo/--out, or simulate with --out)",
            file=sys.stderr,
        )
        return 2
    print(render_sample_log(path, limit=args.limit))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    if not isinstance(trace, ContactTrace):
        trace = trace.materialize()  # the fit needs random access
    report = exponential_fit_report(trace)
    print(f"trace: {trace}")
    for key, value in report.as_row().items():
        print(f"  {key}: {value}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.configs import BENCH_SCALE, PAPER_SCALE, SMOKE_SCALE
    from repro.experiments.figures import ALL_EXPERIMENTS, TableResult
    from repro.experiments.report import render_figure

    scales = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "paper": PAPER_SCALE}
    runner = ALL_EXPERIMENTS.get(args.name)
    if runner is None:
        print(
            f"unknown experiment {args.name!r}; available: {sorted(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    import inspect

    parameters = inspect.signature(runner).parameters
    result = runner(scales[args.scale]) if "scale" in parameters else runner()
    if isinstance(result, TableResult):
        print(render_table(result))
    elif isinstance(result, dict):
        for figure in result.values():
            print(render_figure(figure, chart=args.chart))
    else:
        print(render_figure(result, chart=args.chart))
    return 0


def _render_drilldown(
    causality: CausalityIndex, query_id: Optional[int], data_id: Optional[int]
) -> int:
    """Shared ``--query-id``/``--data-id`` timeline rendering (trace +
    diagnose commands)."""
    from repro.obs import render_push_timeline, render_query_timeline

    try:
        if query_id is not None:
            print(render_query_timeline(causality, query_id))
        if data_id is not None:
            print(render_push_timeline(causality, data_id))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import build_causality, read_events, render_audit_report

    try:
        causality = build_causality(read_events(args.path))
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 2
    if args.query_id is not None or args.data_id is not None:
        return _render_drilldown(causality, args.query_id, args.data_id)
    print(render_audit_report(causality, limit=args.limit, only=args.only))
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.experiments.runstore import contact_trace_from_manifest, load_run
    from repro.obs import (
        build_causality,
        diagnosis_to_dict,
        read_events,
        render_diagnosis,
        run_diagnosis,
    )
    from repro.obs.fidelity import FidelityThresholds, override_thresholds

    contact_trace = None
    provenance = None
    if os.path.isdir(args.path):
        from repro.errors import ConfigurationError

        try:
            data = load_run(args.path)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not data["trace_path"]:
            print(
                f"run directory {args.path!r} has no trace.jsonl "
                "(re-run `repro simulate --out` with a single seed)",
                file=sys.stderr,
            )
            return 2
        trace_path = data["trace_path"]
        provenance = data["manifest"]
        contact_trace = contact_trace_from_manifest(provenance)
    else:
        trace_path = args.path
    try:
        causality = build_causality(read_events(trace_path))
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {trace_path!r}: {exc}", file=sys.stderr)
        return 2

    if args.query_id is not None or args.data_id is not None:
        return _render_drilldown(causality, args.query_id, args.data_id)

    thresholds = override_thresholds(
        FidelityThresholds(),
        max_median_ks=args.max_median_ks,
        max_delivery_brier=args.max_delivery_brier,
        max_calibration_gap=args.max_calibration_gap,
        max_load_cv=args.max_load_cv,
        min_samples=args.min_samples,
    )
    diagnosis = run_diagnosis(
        causality,
        contact_trace=contact_trace,
        thresholds=thresholds,
        provenance=provenance,
    )
    print(render_diagnosis(diagnosis), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(diagnosis_to_dict(diagnosis), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nJSON report written to {args.json}")
    if args.strict and diagnosis.warnings:
        print(
            f"\nstrict mode: {len(diagnosis.warnings)} warning(s)", file=sys.stderr
        )
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.experiments.runstore import render_run_report

    try:
        print(render_run_report(args.run_dir, audit_limit=args.limit))
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"cannot render run {args.run_dir!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.benchguard import run_guard

    return run_guard(
        benchmark_file=args.benchmark_file,
        baseline_path=args.baseline,
        result_json=args.json,
        threshold=args.threshold,
        update_baseline=args.update_baseline,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_traces = sub.add_parser("traces", help="Table I summary of the preset traces")
    _add_trace_args(p_traces)
    p_traces.set_defaults(func=cmd_traces)

    p_ncl = sub.add_parser("ncl", help="NCL selection on a preset trace")
    _add_trace_args(p_ncl)
    p_ncl.add_argument("-k", type=int, default=5)
    p_ncl.set_defaults(func=cmd_ncl)

    for name, func in (
        ("simulate", cmd_simulate),
        ("compare", cmd_compare),
        ("serve", cmd_serve),
    ):
        p = sub.add_parser(
            name,
            help=(
                "fit once, replay query batches (heavy-traffic mode)"
                if name == "serve"
                else f"{name} scheme(s) on a preset trace"
            ),
        )
        _add_trace_args(p)
        p.add_argument("--scheme", choices=SCHEMES, default="intentional")
        p.add_argument("-k", type=int, default=5)
        p.add_argument(
            "--sparse",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="force (--sparse) or forbid (--no-sparse) the k-NN NCL "
            "metric of sparse contact graphs; default: sparse at >= 2048 nodes",
        )
        p.add_argument(
            "--knn-k",
            type=int,
            default=None,
            metavar="K",
            help="truncate the NCL metric to each node's K nearest "
            "contacts (default: exact on dense graphs, K=32 on sparse)",
        )
        p.add_argument("--lifetime-hours", type=float, default=72.0)
        p.add_argument("--size-mb", type=float, default=100.0)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--arrival",
            choices=ARRIVALS.names(),
            default="periodic",
            help="query arrival process (default: the paper's periodic rounds)",
        )
        p.add_argument(
            "--arrival-param",
            action="append",
            type=_parse_arrival_param,
            metavar="KEY=VALUE",
            help="arrival-process knob, repeatable (e.g. --arrival-param burst=4)",
        )
        if name in ("simulate", "serve"):
            p.add_argument(
                "--mem-profile",
                action="store_true",
                help="fill the memory columns (peak RSS, heap, per-subsystem "
                "byte attribution) of each telemetry row: timeseries.jsonl "
                "for simulate, health.jsonl for serve, under --out",
            )
        if name == "serve":
            p.add_argument(
                "--batches", type=int, default=8, metavar="N",
                help="number of query batches to replay",
            )
            p.add_argument(
                "--rounds", type=int, default=1, metavar="N",
                help="query rounds per batch",
            )
            p.add_argument(
                "--repeat", type=int, default=1, metavar="N",
                help="serve sessions with seeds seed..seed+N-1",
            )
            p.add_argument(
                "--workers", type=int, default=None, metavar="N",
                help="process-pool size for --repeat > 1",
            )
            p.add_argument(
                "--slo", action="append", default=None, metavar="SPEC",
                help="SLO rule: a preset name (availability, latency, "
                "backlog, hit_ratio, memory) or field>=TARGET[:SUSTAIN] "
                "/ field<=TARGET[:SUSTAIN]; repeatable; implies health "
                "monitoring",
            )
            p.add_argument(
                "--out", default=None, metavar="DIR",
                help="write health.jsonl + manifest.json to this run "
                "directory (render with `repro watch DIR`)",
            )
            p.add_argument(
                "--prom-out", default=None, metavar="PATH",
                help="write the final health state in Prometheus text "
                "exposition format",
            )
            p.set_defaults(func=func)
            continue
        p.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help="record a JSONL lifecycle trace (replay with `repro trace PATH`)",
        )
        if name == "simulate":
            p.add_argument(
                "--scenario",
                default=None,
                metavar="PATH",
                help="run a ScenarioSpec JSON file (trace/scheme/workload/"
                "dynamics come from the file; flags like --out still apply)",
            )
            p.add_argument(
                "--list-schemes",
                action="store_true",
                help="list the registered schemes, trace sources, response "
                "strategies and routers, then exit",
            )
            p.add_argument(
                "--out",
                default=None,
                metavar="DIR",
                help="write a run directory (result, manifest, profile, "
                "time series; render with `repro report DIR`)",
            )
            p.add_argument(
                "--profile",
                action="store_true",
                help="collect wall-clock spans and print the profile table",
            )
            p.add_argument(
                "--timeline-out",
                default=None,
                metavar="PATH",
                help="write the periodic time series's scalar columns as CSV",
            )
            p.add_argument(
                "--repeat",
                type=int,
                default=1,
                metavar="N",
                help="repeat with seeds seed..seed+N-1 and aggregate",
            )
            p.add_argument(
                "--workers",
                type=int,
                default=None,
                metavar="N",
                help="process-pool size for --repeat > 1",
            )
        p.set_defaults(func=func)

    p_fit = sub.add_parser("fit", help="exponential inter-contact fit report")
    _add_trace_args(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    p_fig.add_argument("name", help="table1, fig4, fig7, fig9a, fig10, ...")
    p_fig.add_argument("--scale", choices=("smoke", "bench", "paper"), default="smoke")
    p_fig.add_argument("--chart", action="store_true", help="include ASCII charts")
    p_fig.set_defaults(func=cmd_figure)

    from repro.experiments.benchguard import (
        DEFAULT_BASELINE,
        DEFAULT_RESULT_JSON,
        DEFAULT_THRESHOLD,
    )
    from pathlib import Path

    p_bench = sub.add_parser("bench", help="kernel benchmark regression guard")
    from repro.experiments.benchguard import DEFAULT_BENCHMARK_FILE

    p_bench.add_argument(
        "--benchmark-file",
        type=Path,
        default=DEFAULT_BENCHMARK_FILE,
        help="pytest file holding the benchmarks (e.g. the opt-in "
        "benchmarks/test_bench_sim_large.py tier)",
    )
    p_bench.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    p_bench.add_argument("--json", type=Path, default=DEFAULT_RESULT_JSON)
    p_bench.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p_bench.add_argument("--update-baseline", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser("trace", help="per-query audit report from a JSONL trace")
    p_trace.add_argument("path", help="trace file written by --trace-out")
    p_trace.add_argument("--limit", type=int, default=None, help="show at most N queries")
    p_trace.add_argument(
        "--only",
        choices=("satisfied", "expired", "pending"),
        default=None,
        help="restrict the report to queries with this outcome",
    )
    p_trace.add_argument(
        "--query-id",
        type=int,
        default=None,
        metavar="N",
        help="render query N's causal response chain as a timeline",
    )
    p_trace.add_argument(
        "--data-id",
        type=int,
        default=None,
        metavar="N",
        help="render data item N's push tree as a timeline",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_diag = sub.add_parser(
        "diagnose",
        help="causal-chain + model-fidelity diagnosis of a run",
    )
    p_diag.add_argument("path", help="run directory (simulate --out) or trace.jsonl")
    p_diag.add_argument(
        "--query-id", type=int, default=None, metavar="N",
        help="render query N's causal response chain instead of the report",
    )
    p_diag.add_argument(
        "--data-id", type=int, default=None, metavar="N",
        help="render data item N's push tree instead of the report",
    )
    p_diag.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the diagnosis as JSON",
    )
    p_diag.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any warning fires (CI gate)",
    )
    p_diag.add_argument("--max-median-ks", type=float, default=None)
    p_diag.add_argument("--max-delivery-brier", type=float, default=None)
    p_diag.add_argument("--max-calibration-gap", type=float, default=None)
    p_diag.add_argument("--max-load-cv", type=float, default=None)
    p_diag.add_argument("--min-samples", type=int, default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_report = sub.add_parser(
        "report", help="Markdown report of a run directory (simulate --out)"
    )
    p_report.add_argument("run_dir", help="directory written by simulate --out")
    p_report.add_argument(
        "--limit", type=int, default=10, help="max queries in the trace audit section"
    )
    p_report.set_defaults(func=cmd_report)

    p_watch = sub.add_parser(
        "watch",
        help="render a run's sample log: a serve run's health windows, "
        "else a simulate run's time-series rows",
    )
    p_watch.add_argument(
        "path",
        help="run directory (serve --out or simulate --out), health.jsonl "
        "or timeseries.jsonl",
    )
    p_watch.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show at most the last N windows or rows",
    )
    p_watch.set_defaults(func=cmd_watch)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
