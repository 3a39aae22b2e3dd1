"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/report.py --runs 10 [--workloads census,queries] [--out FILE]

Each run is a fresh ``perfbench/run.py`` process with its own seed
(1..runs).  For every end-to-end metric the table gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  With
``--runs 1`` it is a one-command listing of every metric and unit.
``--trace`` reports the per-layer metrics of one traced run instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(next(l[4:] for l in lines if l.startswith("env ")))
    return result


def summarise(name: str, unit: str, bound: float | None, values: list[float]) -> dict:
    median = statistics.median(values)
    row = {"metric": name, "unit": unit, "median": median, "values": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    if bound is not None:
        row["bound"] = bound
    return row


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, spec["run_seconds"], int(args.trace)))
            r = results[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} load {r['env']['loadavg_1m_start']:.2f}"
                  f"->{r['env']['loadavg_1m_end']:.2f}", file=sys.stderr, flush=True)
        rows = [
            summarise(m["name"], m["unit"], m.get("bound"),
                      [r["metrics"][m["name"]]["value"] for r in results])
            for m in metrics
        ]
        summary[workload] = {
            "runs": len(results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "env": [r["env"] for r in results],
            "metrics": rows,
        }
        print(f"\n{workload}: {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']} operations failed")
        for row in rows:
            line = f"  {row['metric']:<32} {row['median']:>14.6g} {row['unit']:<6}"
            if "spread" in row:
                line += f" q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.3f}"
            if "bound" in row:
                line += f" bound {row['bound']}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
