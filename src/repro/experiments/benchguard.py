"""Kernel-benchmark regression guard (``python -m repro bench``).

Runs the microbenchmarks in ``benchmarks/test_bench_kernels.py`` through
pytest-benchmark with ``--benchmark-json``, then compares each kernel's
mean time against the committed baseline and fails when any kernel
regresses beyond the threshold (default 1.5×).

The committed baseline (``benchmarks/kernels_baseline.json``) carries a
``benchmarks`` map of ``{benchmark name: mean seconds}`` plus a
provenance manifest recording where those numbers came from (git
revision, package versions, platform) — machine-dependent, so regenerate
it with ``--update-baseline`` when the hardware or an intentional
performance trade-off changes.  New benchmarks without a baseline entry
are reported but never fail the guard.

Benchmarks named ``<name><suffix>`` for a suffix in
:data:`TWIN_OVERHEAD_CAPS` are additionally paired with their plain
``<name>`` twin *within the same run*: the guard fails when the
suffixed variant costs more than the suffix's cap times the twin.

Benchmarks that publish ``benchmark.extra_info["queries"]`` (the
heavy-traffic workload benchmarks) additionally form a **throughput
tier**: the guard derives queries/sec from the deterministic per-round
query count and the measured mean, records it under the baseline's
``throughput`` map, and fails when a run's q/s drops below
``baseline / threshold`` — the reciprocal of the mean-time rule,
stated in the unit the heavy-traffic engine is specced in.

Benchmarks that publish ``benchmark.extra_info["peak_rss_mb"]`` (and
optionally ``extra_info["mem_subsystems"]``, the per-subsystem byte
attribution of :meth:`repro.sim.simulator.Simulator.memory_breakdown`)
form a **memory tier**: peak RSS and the attribution are stamped into
the baseline's ``memory`` map, and the guard fails when a run's
footprint exceeds ``MEMORY_FOOTPRINT_THRESHOLD`` (1.2×) its baseline —
time regressions and footprint regressions are caught by the same
gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.provenance import build_manifest

__all__ = [
    "load_benchmark_means",
    "load_benchmark_queries",
    "load_benchmark_memory",
    "compare_against_baseline",
    "TWIN_OVERHEAD_CAPS",
    "check_twin_overhead",
    "check_memory_footprint",
    "check_throughput",
    "run_guard",
    "main",
]

DEFAULT_BENCHMARK_FILE = Path("benchmarks/test_bench_kernels.py")
DEFAULT_RESULT_JSON = Path("BENCH_kernels.json")
DEFAULT_BASELINE = Path("benchmarks/kernels_baseline.json")
DEFAULT_THRESHOLD = 1.5

#: ``{suffix: cap}``: ``<name><suffix>`` may cost at most ``cap`` times
#: its plain ``<name>`` twin measured in the same run.
TWIN_OVERHEAD_CAPS: Dict[str, float] = {
    # span instrumentation stays cheap enough to leave on
    "_profiled": 1.05,
    # re-election on a static network: topology-gated, so nearly free
    "_reelect": 1.05,
    # `repro diagnose` after a traced run: offline post-processing, but
    # cheap enough to run after every traced simulation
    "_diagnose": 1.5,
    # the live health monitor on a serve run: O(1) windowed deltas keep
    # always-on telemetry in the noise
    "_health": 1.05,
    # mem-profile sampling: cheap enough to leave on whenever a run is
    # suspected of bloating
    "_memory": 1.05,
}

#: a benchmark's peak RSS may grow to at most 1.2x its baseline —
#: footprint regressions gate exactly like time regressions, just with
#: a tighter multiplier (RSS is far less noisy than wall-clock).
MEMORY_FOOTPRINT_THRESHOLD = 1.2

#: a throughput benchmark may drop to at most baseline/threshold q/s —
#: the reciprocal of the mean-time regression rule, stated in the unit
#: the heavy-traffic engine is specced in.
THROUGHPUT_THRESHOLD = DEFAULT_THRESHOLD


def load_benchmark_means(result_json: Path) -> Dict[str, float]:
    """Extract ``{benchmark name: mean seconds}`` from pytest-benchmark JSON."""
    payload = json.loads(Path(result_json).read_text())
    return {
        entry["name"]: float(entry["stats"]["mean"])
        for entry in payload.get("benchmarks", [])
    }


def load_benchmark_queries(result_json: Path) -> Dict[str, int]:
    """``{benchmark name: queries processed per round}`` from the report.

    Throughput benchmarks publish their deterministic per-round query
    count through ``benchmark.extra_info["queries"]``; benchmarks
    without it are not throughput benchmarks.
    """
    payload = json.loads(Path(result_json).read_text())
    queries = {}
    for entry in payload.get("benchmarks", []):
        count = entry.get("extra_info", {}).get("queries")
        if count:
            queries[entry["name"]] = int(count)
    return queries


def load_benchmark_memory(result_json: Path) -> Dict[str, Dict[str, object]]:
    """``{benchmark name: {"peak_rss_mb": .., "subsystems": {..}}}``.

    Memory-tier benchmarks publish their peak RSS (MB, via
    :func:`repro.obs.memory.peak_rss_bytes`) through
    ``benchmark.extra_info["peak_rss_mb"]`` and optionally the
    per-subsystem byte attribution through
    ``extra_info["mem_subsystems"]``; benchmarks without the RSS stamp
    are not memory benchmarks.
    """
    payload = json.loads(Path(result_json).read_text())
    memory: Dict[str, Dict[str, object]] = {}
    for entry in payload.get("benchmarks", []):
        extra = entry.get("extra_info", {})
        peak = extra.get("peak_rss_mb")
        if peak:
            record: Dict[str, object] = {"peak_rss_mb": float(peak)}
            subsystems = extra.get("mem_subsystems")
            if subsystems:
                record["subsystems"] = {
                    str(k): int(v) for k, v in subsystems.items()
                }
            memory[entry["name"]] = record
    return memory


def compare_against_baseline(
    current: Dict[str, float],
    baseline: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Tuple[str, float, Optional[float], bool]]:
    """Per-benchmark ``(name, mean, baseline mean, regressed)`` rows.

    A benchmark regresses when its mean exceeds ``threshold ×`` its
    baseline mean; benchmarks missing from the baseline never regress.
    """
    rows = []
    for name in sorted(current):
        mean = current[name]
        reference = baseline.get(name)
        regressed = reference is not None and mean > threshold * reference
        rows.append((name, mean, reference, regressed))
    return rows


def check_twin_overhead(
    current: Dict[str, float],
    suffix: str,
    threshold: float,
) -> List[Tuple[str, float, bool]]:
    """Pair each ``<name><suffix>`` benchmark with its plain twin.

    Both means come from the *same run*, so the comparison is free of
    baseline/machine drift.  Each row is ``(suffixed name, overhead
    ratio, failed)``; a missing or zero-time twin yields no row.
    """
    rows = []
    for name in sorted(current):
        if not name.endswith(suffix):
            continue
        twin = current.get(name[: -len(suffix)])
        if not twin:
            continue
        ratio = current[name] / twin
        rows.append((name, ratio, ratio > threshold))
    return rows


def check_memory_footprint(
    current: Dict[str, Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
    threshold: float = MEMORY_FOOTPRINT_THRESHOLD,
) -> List[Tuple[str, float, Optional[float], bool]]:
    """Per-benchmark ``(name, peak MB, baseline MB, regressed)`` rows.

    A benchmark regresses when its peak RSS exceeds ``threshold ×`` its
    baseline peak; benchmarks without a baseline entry never regress
    (they are NEW).  Peak RSS is a process-wide high-water mark, so
    within one pytest process later benchmarks inherit earlier peaks —
    footprint baselines are only meaningful for the run order the
    benchmark file fixes, which is why the stamp lives in the benches
    themselves rather than in a post-hoc probe.
    """
    rows = []
    for name in sorted(current):
        peak = float(current[name]["peak_rss_mb"])  # type: ignore[arg-type]
        entry = baseline.get(name)
        reference = float(entry["peak_rss_mb"]) if entry else None  # type: ignore[index]
        regressed = reference is not None and peak > threshold * reference
        rows.append((name, peak, reference, regressed))
    return rows


def check_throughput(
    means: Dict[str, float],
    queries: Dict[str, int],
    baseline_qps: Dict[str, float],
    threshold: float = THROUGHPUT_THRESHOLD,
) -> List[Tuple[str, float, Optional[float], bool]]:
    """Per-benchmark ``(name, q/s, baseline q/s, regressed)`` rows.

    A throughput benchmark regresses when its queries/sec falls below
    ``baseline / threshold``; benchmarks without a baseline entry never
    regress (they are NEW).
    """
    rows = []
    for name in sorted(queries):
        mean = means.get(name)
        if not mean:
            continue
        qps = queries[name] / mean
        reference = baseline_qps.get(name)
        regressed = reference is not None and qps < reference / threshold
        rows.append((name, qps, reference, regressed))
    return rows


def _run_benchmarks(benchmark_file: Path, result_json: Path) -> int:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    paths = env.get("PYTHONPATH", "")
    if src not in paths.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + paths if paths else "")
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(benchmark_file),
        "-q",
        "-p",
        "no:cacheprovider",
        f"--benchmark-json={result_json}",
    ]
    return subprocess.call(command, env=env)


def run_guard(
    benchmark_file: Path = DEFAULT_BENCHMARK_FILE,
    result_json: Path = DEFAULT_RESULT_JSON,
    baseline_path: Path = DEFAULT_BASELINE,
    threshold: float = DEFAULT_THRESHOLD,
    update_baseline: bool = False,
) -> int:
    """Run the kernel benchmarks and enforce the regression threshold."""
    status = _run_benchmarks(benchmark_file, result_json)
    if status != 0:
        print("benchmark run failed", file=sys.stderr)
        return status
    current = load_benchmark_means(result_json)
    query_counts = load_benchmark_queries(result_json)
    current_memory = load_benchmark_memory(result_json)
    current_qps = {
        name: query_counts[name] / current[name]
        for name in query_counts
        if current.get(name)
    }
    if update_baseline:
        # The manifest pins where these numbers came from (git revision,
        # package versions, platform) — baselines are machine-dependent.
        # The sparsity knobs are stamped too: a baseline measured with a
        # different auto-sparse threshold or truncation depth is not
        # comparable to the current tree's numbers.
        from repro.core.ncl import DEFAULT_KNN_K
        from repro.graph.contact_graph import DENSE_NODE_THRESHOLD

        manifest = build_manifest(
            {
                "benchmark_file": str(benchmark_file),
                "threshold": threshold,
                "sparsity": {
                    "dense_node_threshold": DENSE_NODE_THRESHOLD,
                    "default_knn_k": DEFAULT_KNN_K,
                },
            },
            [],
        )
        payload = {
            "benchmarks": current,
            "throughput": current_qps,
            "memory": current_memory,
            "provenance": manifest,
        }
        baseline_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(
            f"baseline updated: {baseline_path} ({len(current)} kernels, "
            f"{len(current_qps)} throughput, {len(current_memory)} memory)"
        )
        return 0
    if not baseline_path.exists():
        print(
            f"no baseline at {baseline_path}; run with --update-baseline first",
            file=sys.stderr,
        )
        return 2
    payload = json.loads(baseline_path.read_text())
    # Pre-provenance baselines were a bare {name: mean} map.
    baseline = payload.get("benchmarks", payload)
    failures = 0
    for name, mean, reference, regressed in compare_against_baseline(
        current, baseline, threshold
    ):
        if reference is None:
            verdict, detail = "NEW", "no baseline entry"
        else:
            ratio = mean / reference if reference > 0 else float("inf")
            verdict = "FAIL" if regressed else "ok"
            detail = f"baseline {reference * 1e3:8.3f} ms  ratio {ratio:5.2f}x"
            failures += int(regressed)
        print(f"{verdict:4s} {name:45s} {mean * 1e3:8.3f} ms  {detail}")
    overhead_failures = 0
    for suffix, cap in TWIN_OVERHEAD_CAPS.items():
        for name, ratio, failed in check_twin_overhead(current, suffix, cap):
            verdict = "FAIL" if failed else "ok"
            print(
                f"{verdict:4s} {name:45s} {suffix} overhead {ratio:5.2f}x "
                f"(limit {cap:.2f}x)"
            )
            overhead_failures += int(failed)
    throughput_failures = 0
    throughput_rows = check_throughput(
        current, query_counts, payload.get("throughput", {}), threshold
    )
    if throughput_rows:
        print("\nthroughput (queries/sec, floor = baseline / threshold):")
        for name, qps, reference, regressed in throughput_rows:
            if reference is None:
                verdict, detail = "NEW", "no baseline entry"
            else:
                verdict = "FAIL" if regressed else "ok"
                detail = f"baseline {reference:10.0f} q/s  ratio {qps / reference:5.2f}x"
                throughput_failures += int(regressed)
            print(f"{verdict:4s} {name:45s} {qps:10.0f} q/s  {detail}")
    memory_failures = 0
    memory_rows = check_memory_footprint(
        current_memory, payload.get("memory", {}), MEMORY_FOOTPRINT_THRESHOLD
    )
    if memory_rows:
        print(
            "\nmemory footprint (peak RSS, ceiling = "
            f"{MEMORY_FOOTPRINT_THRESHOLD:.2f}x baseline):"
        )
        for name, peak, reference, regressed in memory_rows:
            if reference is None:
                verdict, detail = "NEW", "no baseline entry"
            else:
                verdict = "FAIL" if regressed else "ok"
                detail = f"baseline {reference:10.1f} MB  ratio {peak / reference:5.2f}x"
                memory_failures += int(regressed)
            print(f"{verdict:4s} {name:45s} {peak:10.1f} MB  {detail}")
    if failures:
        print(
            f"{failures} kernel(s) regressed beyond {threshold:.2f}x baseline",
            file=sys.stderr,
        )
        return 1
    if overhead_failures:
        print(
            f"{overhead_failures} benchmark(s) exceed their twin overhead limit",
            file=sys.stderr,
        )
        return 1
    if throughput_failures:
        print(
            f"{throughput_failures} benchmark(s) fell below baseline/"
            f"{threshold:.2f} queries/sec",
            file=sys.stderr,
        )
        return 1
    if memory_failures:
        print(
            f"{memory_failures} benchmark(s) exceeded "
            f"{MEMORY_FOOTPRINT_THRESHOLD:.2f}x their baseline peak RSS",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(current)} kernels within {threshold:.2f}x of baseline")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro bench", description=__doc__)
    parser.add_argument(
        "--benchmark-file", type=Path, default=DEFAULT_BENCHMARK_FILE,
        help="pytest file holding the kernel benchmarks",
    )
    parser.add_argument(
        "--json", type=Path, default=DEFAULT_RESULT_JSON,
        help="where to write the pytest-benchmark JSON report",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="committed slim baseline ({name: mean seconds})",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="fail when a kernel's mean exceeds threshold x baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run instead of comparing",
    )
    args = parser.parse_args(argv)
    return run_guard(
        benchmark_file=args.benchmark_file,
        result_json=args.json,
        baseline_path=args.baseline,
        threshold=args.threshold,
        update_baseline=args.update_baseline,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via scripts/
    sys.exit(main())
