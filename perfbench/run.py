"""Benchmark of steinergraphs on the workloads named in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
SETUP_REPEATS fresh imports and builds), serial and 2-process time to
solution, per-operation latency and peak memory.  A workload repeats its
serial and parallel phases while another round fits in ``--seconds``;
times are medians over rounds.  ``--trace 1`` makes one traced run and
reports the per-layer metrics (see tracer.py), and how much the tracing
slowed the serial phase.

Stdout carries an environment stamp, one line per metric, and last one
JSON object {correct, attempted, failed, metrics}.  Oracle failures are
listed on stderr.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
LAYERS = ("gf", "linalg", "geometry", "designs", "reguli", "eigenfunctions", "partitions", "cli")


# -- environment stamp -----------------------------------------------------------------


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def env_stamp(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_1m_start": os.getloadavg()[0],
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- measurement -----------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def error_rate(outcomes) -> float:
    """Failed operations over attempted ones."""
    return sum(1 for o in outcomes if o.problems) / len(outcomes)


def timed_setup(workload, seed: int):
    start = perf_counter()
    mods = workloads.fresh_import()
    state = workload.setup(mods, seed)
    return perf_counter() - start, state


def measure(workload, seed: int, seconds: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up's modules and caches first
        gc.collect()
        elapsed, state = timed_setup(workload, seed)
        setups.append(elapsed)
    outcomes, walls, par_walls, latencies = [], [], [], []
    begin = perf_counter()
    while True:
        gc.collect()
        serial = workload.serial(state)
        gc.collect()
        par_wall, parallel = workload.parallel(state, serial)
        outcomes += serial + parallel
        walls.append(sum(o.seconds for o in serial))
        par_walls.append(par_wall)
        latencies += [o.seconds for o in serial]
        spent = perf_counter() - begin
        if spent + spent / len(walls) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "par_wall_s": statistics.median(par_walls),
        "op_p50_ms": percentile(latencies, 0.5) * 1000,
        "op_p90_ms": percentile(latencies, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, outcomes


def measure_traced(workload, seed: int):
    profile = tracer.LayerProfile(SRC / workloads.PACKAGE)
    with profile:
        _, state = timed_setup(workload, seed)
    searches = []
    eigenfunctions = state.mods["eigenfunctions"]
    search = eigenfunctions.search_min_support

    def capture(*args, **kwargs):
        result = search(*args, **kwargs)
        searches.append(result)
        return result

    # The untraced reference for the overhead ratio runs in a forked
    # process on the other core, alongside the traced phase.
    gc.collect()
    with workloads.forked_pool(state, workloads.serial_phase, processes=1) as pool:
        reference = pool.apply_async(workloads.run_adopted, (workload,))
        eigenfunctions.search_min_support = capture
        try:
            with profile:
                traced = workload.serial(state)
        finally:
            eigenfunctions.search_min_support = search
        untraced = reference.get()
    outcomes = untraced + traced
    search_par_s = 0.0
    if workload.trace_parallel:
        par_profile = tracer.LayerProfile(SRC / workloads.PACKAGE)
        gc.collect()
        with par_profile:
            _, parallel = workload.parallel(state, traced)
        outcomes += parallel
        search_par_s = par_profile.function("eigenfunctions", "search_min_support")[1]

    self_s, calls = profile.layers()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    fn = profile.function
    metrics["gf.check_calls"] = fn("gf", "check")[0]
    metrics["linalg.rational_kernel_calls"], metrics["linalg.rational_kernel_s"] = fn(
        "linalg", "rational_kernel"
    )
    metrics["linalg.rref_calls"] = fn("linalg", "rref")[0]
    metrics["geometry.span_calls"] = fn("geometry", "span_of_lines")[0]
    metrics["designs.graph_builds"] = fn("designs", "block_graph")[0]
    metrics["designs.srg_brute_s"] = fn("designs", "srg_params_brute")[1]
    metrics["reguli.enumerations"], metrics["reguli.enumerate_s"] = fn("reguli", "enumerate_reguli")
    metrics["reguli.pair_checks"] = (
        fn("reguli", "_check_regulus_pair")[0] + fn("reguli", "_check_affine_pair")[0]
    )
    metrics["eigenfunctions.verify_calls"], metrics["eigenfunctions.verify_s"] = fn(
        "eigenfunctions", "verify_eigenfunction"
    )
    metrics["eigenfunctions.search_s"] = fn("eigenfunctions", "search_min_support")[1]
    nodes = sum(r.nodes for r in searches[:1])
    kernel_calls = sum(r.kernel_calls for r in searches[:1])
    found = sum(len(r.functions) + len(r.families) for r in searches[:1])
    metrics["eigenfunctions.search_nodes"] = nodes
    metrics["eigenfunctions.kernel_calls"] = kernel_calls
    metrics["eigenfunctions.screen_yield"] = found / kernel_calls if kernel_calls else 0.0
    metrics["eigenfunctions.search_par_s"] = search_par_s
    metrics["partitions.cl_checks"], metrics["partitions.cl_s"] = fn(
        "partitions", "cameron_liebler_check"
    )
    metrics["partitions.quotient_calls"] = fn("partitions", "quotient_matrix")[0]
    metrics["cli.cert_bytes"] = sum(o.cert_bytes for o in traced)
    metrics["cli.encode_s"] = profile.called_from(os.path.join("json", "__init__.py"), "dumps", "cli")
    metrics["tracing.overhead_ratio"] = sum(o.seconds for o in traced) / sum(
        o.seconds for o in untraced
    )
    return metrics, outcomes


# -- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"error: no {workloads.PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    stamp = env_stamp(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, outcomes = measure_traced(workload, args.seed)
    else:
        metrics, outcomes = measure(workload, args.seed, args.seconds)
    stamp["loadavg_1m_end"] = os.getloadavg()[0]

    failed = [o for o in outcomes if o.problems]
    for outcome in failed:
        for problem in outcome.problems:
            print(f"oracle: {problem}", file=sys.stderr)
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"error_rate = {error_rate(outcomes)} ({len(failed)} of {len(outcomes)} operations)")
    report = {}
    for entry in wanted:
        report[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']} = {metrics[entry['name']]} {entry['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
