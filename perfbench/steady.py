#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed and report, for each
end-to-end metric, the median and the spread (distance between the first and
third quartile as a share of the median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1            # one run of every workload
    python3 perfbench/steady.py --workload fit_quadratic --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --sets 2

With ``--sets 2`` every seed runs twice, in two consecutive sets, and the
second set's median must not be worse than the first's by more than the
bound.  Results are also written to .perfbench_out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
            raise SystemExit(f"{workload} seed {seed}: run failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # The measured (unscaled) median pass wall, for comparison with wall_s.
        for line in proc.stdout.splitlines():
            if line.startswith("  median pass wall "):
                values.setdefault("measured_wall_s", []).append(float(line.split()[3]))
        print(f"  {workload} seed {seed} ({elapsed:.0f} s): " + ", ".join(
            f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()), flush=True)
    return values


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="steadiness check of the benchmark")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    steady = True
    for workload in workloads:
        sets = [run_set(workload, seeds, bench["run_seconds"]) for _ in range(args.sets)]
        out = ROOT / ".perfbench_out" / f"steady-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seeds": seeds, "sets": sets}, indent=1))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = [f"{workload:14s} {name:13s} bound {bound:.2f}"]
            for values in (run[name] for run in sets):
                if len(values) < 2:
                    line.append(f"value {values[0]:.5g}")
                    continue
                s = spread(values)
                ok = s <= bound or name == "setup_s"
                steady &= ok
                line.append(f"median {statistics.median(values):.5g} spread {s:.3f}"
                            f" ({s / bound:.2f} of bound){'' if ok else ' OVER'}")
            if len(sets) == 2:
                worse = worse_by(statistics.median(sets[0][name]), statistics.median(sets[1][name]),
                                 metric["better"])
                ok = worse <= bound
                steady &= ok
                line.append(f"second set worse by {worse:+.3f}{'' if ok else ' OVER'}")
            print(" | ".join(line))
        measured = [run["measured_wall_s"] for run in sets if "measured_wall_s" in run]
        if measured and len(measured[0]) > 1:
            print(f"{workload:14s} measured wall, not scaled: " + " | ".join(
                f"median {statistics.median(v):.5g} spread {spread(v):.3f}" for v in measured))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
