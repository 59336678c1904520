#!/usr/bin/env python3
"""Benchmark of the fungible package, run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Workloads: ``study`` (the study design's cells, checked against the
``fungible study`` CLI with 2 workers), ``fit_quadratic`` and
``sweep_dense``, all timed in process on one thread; see perfbench/README.md.  The package is imported from ``src/`` of the checkout
and nowhere else.  With ``--trace 0`` the run sets the workload up several
times (``setup_s`` is the median), then runs the workload's pass for about
``--seconds`` and reports the end-to-end metrics, with every timing scaled
to the reference speed of ``speed.py``.  With ``--trace 1``
it runs one untraced and one traced pass and reports per-layer metrics.
Outputs are checked either way; a run whose checks fail prints
``"correct": false`` with no metrics and exits 1.  The last line of standard
output is the JSON result; the lines before it are a readable report.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads, so the study's two
# worker processes do not oversubscribe two cores.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("study", "fit_quadratic", "sweep_dense")
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
# Latencies of one pass beyond the reported tail percentile.
TAIL_BEYOND = 10
# In process, the speed probe runs after every PROBE_EVERY_S of unit work
# (about 5% of the time); around a set-up, which it cannot interrupt, it
# takes a longer sample.
PROBE_EVERY_S = 0.1
SETUP_PROBE_RUNS = 20


def import_package() -> bool:
    """Put the checkout's ``src/`` first on the import path and import the
    package from there; False (with a message) when it is not there."""
    pkg = SRC / "fungible"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no package source at {pkg.relative_to(ROOT)}; run from a full checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import fungible

    if Path(fungible.__file__).resolve().parent != pkg.resolve():
        print(f"error: fungible imported from {fungible.__file__}, not {pkg}", file=sys.stderr)
        return False
    return True


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": ",".join(f"{k}={v}" for k, v in BLAS_THREADS.items()),
    }


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest percentile with at least
    ``beyond`` samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def make_workload(name, seed):
    import workloads

    if name == "study":
        return workloads.Study(seed, OUT, child_env())
    if name == "fit_quadratic":
        return workloads.FitQuadratic(seed)
    return workloads.SweepDense(seed)


def run_pass(workload, tally, scaled) -> tuple[float, float]:
    """One pass of the workload: its wall clock and its wall clock at the
    reference speed, in seconds.  The speed probe runs between units after
    every PROBE_EVERY_S of work, the wall is the sum of the unit latencies,
    and each unit's latency at the reference speed is appended to
    ``scaled``."""
    before = speed.probe_s()
    wall = at_reference = 0.0
    chunk = []

    def flush():
        nonlocal before, wall, at_reference
        after = speed.probe_s()
        factor = speed.scale(before, after)
        scaled.extend(v * factor for v in chunk)
        wall += sum(chunk)
        at_reference += factor * sum(chunk)
        chunk.clear()
        before = after

    for unit in workload.units():
        tally.run(unit)
        chunk.append(tally.latencies[-1])
        if sum(chunk) >= PROBE_EVERY_S:
            flush()
    if chunk:
        flush()
    return wall, at_reference


def timed_phase(workload, seconds):
    """Repeat the workload's pass for about ``seconds``: another pass starts
    while at least half of one still fits in the time left.  Returns the
    pass walls (measured and at the reference speed), the tally and each
    pass's unit latencies at the reference speed."""
    import workloads

    tally = workloads.Tally()
    walls, walls_ref, passes = [], [], []
    start = time.perf_counter()
    while True:
        scaled = []
        wall, wall_ref = run_pass(workload, tally, scaled)
        walls.append(wall)
        walls_ref.append(wall_ref)
        passes.append(scaled)
        if time.perf_counter() - start + statistics.median(walls) / 2 > seconds:
            break
    if hasattr(workload, "classify_excluded"):
        workload.classify_excluded(tally)
    return walls, walls_ref, tally, passes


def end_to_end(workload, seconds, report):
    setups, setups_ref = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.probe_s(SETUP_PROBE_RUNS)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        setups_ref.append(setups[-1] * speed.scale(before, speed.probe_s(SETUP_PROBE_RUNS)))
    walls, walls_ref, tally, passes = timed_phase(workload, seconds)
    rss = peak_rss_mb()
    latencies = [v for lat in passes for v in lat]
    p50 = statistics.median(latencies)
    # Every pass has the same units.  The tail is the highest percentile with
    # TAIL_BEYOND latencies of one pass beyond it, taken over all passes: the
    # same percentile whatever number of passes the host's speed allows.
    tail_value, tail_pct = tail(latencies, TAIL_BEYOND * len(passes))
    # Throughput is that of the median pass: a slow stretch of the machine
    # moves it no more than wall_s.
    completed_per_pass = (tally.attempted - tally.failed) / len(walls)
    wall_ref = statistics.median(walls_ref)
    metrics = {
        "setup_s": (statistics.median(setups_ref), "s"),
        "wall_s": (wall_ref, "s"),
        "units_per_s": (completed_per_pass / wall_ref, "1/s"),
        "unit_p50_ms": (1e3 * p50, "ms"),
        "unit_tail_ms": (1e3 * tail_value, "ms"),
        "ok_share": (tally.ok / tally.attempted, "share"),
        "peak_rss_mb": (rss, "MB"),
    }
    report.append("timings at the reference speed (see perfbench/speed.py); measured values:")
    report.append(f"  passes: {len(walls)}, pass walls (s): {', '.join(f'{w:.3f}' for w in walls)}")
    report.append(f"  speed factors of the passes: {', '.join(f'{r / w:.3f}' for r, w in zip(walls_ref, walls))}")
    report.append(f"  set-up runs (s): {', '.join(f'{s:.3f}' for s in setups)}; "
                  f"median {statistics.median(setups):.4f}")
    report.append(f"  median pass wall {statistics.median(walls):.4f} s, "
                  f"{completed_per_pass / statistics.median(walls):.4f} units/s")
    report.append(f"unit_p50_ms is the median of {len(latencies)} unit latencies; "
                  f"unit_tail_ms is p{tail_pct:.1f} of them, {TAIL_BEYOND} per pass of "
                  f"{len(passes[0])} beyond it")
    report_outcomes(tally, report)
    return metrics, tally


def report_outcomes(tally, report):
    failed_share = 1.0 - tally.ok / tally.attempted
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(tally.outcomes.items()))
    report.append(f"units attempted: {tally.attempted}; outcomes: {kinds}")
    report.append(f"failed_share (failed or excluded / attempted): {failed_share:.6f}")
    if tally.first_error:
        report.append("first undeclared error:\n" + tally.first_error.rstrip())


def cli_startup_s(report) -> float:
    """Median wall clock of ``fungible table-check``: the CLI's fixed cost."""
    walls = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fungible.cli", "table-check"],
                              env=child_env(), capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            report.append(f"CHECK FAILED: table-check exited {proc.returncode}")
            return None
    return statistics.median(walls)


def traced(workload, seed, report):
    """One untraced and one traced pass, then the per-layer metrics.
    Returns (metrics, tally, problems)."""
    import tracing
    import workloads
    from fungible import simstudy

    problems = []
    workload.setup()
    wall_untraced, ref_untraced = run_pass(workload, workloads.Tally(), [])
    tally = workloads.Tally()
    with tracing.Tracer() as tracer:
        workload.setup()
        wall_traced, ref_traced = run_pass(workload, tally, [])
        misses = simstudy.condition_at.cache_info().misses
        if workload.name == "study":
            report.append(full_design_line(tracer, workload, ref_untraced / wall_traced))
        workloads.layer_probe(seed)
    if hasattr(workload, "classify_excluded"):
        workload.classify_excluded(tally)

    metrics = tracer.layer_metrics()
    metrics["simstudy.condition_at.misses"] = (misses, "count")
    startup = cli_startup_s(report)
    if startup is None:
        problems.append("table-check failed")
    metrics["cli.startup_s"] = (startup or 0.0, "s")
    # The user's command on this seed's study design, untraced.  The study
    # workload's check compares its table with the in-process one.
    study = workload if workload.name == "study" else make_workload("study", seed)
    wall, text = study.run_cli()
    if not text:
        problems.append(f"the study command failed: {study.error}")
    metrics["cli.study_s"] = (wall, "s")
    if study is not workload:
        report += study.notes
    # At the reference speed: a change of machine speed between the two
    # passes would otherwise read as overhead.
    metrics["trace.overhead_s"] = (ref_traced - ref_untraced, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    cost = tracing.span_cost_s()
    report.append(f"untraced pass {wall_untraced:.3f} s ({ref_untraced:.3f} s at the reference speed), "
                  f"traced pass {wall_traced:.3f} s ({ref_traced:.3f} s); "
                  f"{len(tracer.spans)} spans (set-up and layer probe included) x "
                  f"{1e6 * cost:.2f} us measured per span = {len(tracer.spans) * cost:.3f} s")
    path = OUT / f"trace-{workload.name}-{seed}.csv"
    tracer.write(path)
    report.append(f"spans written to {path.relative_to(ROOT)}")
    report_outcomes(tally, report)
    return metrics, tally, problems


def full_design_line(tracer, workload, factor) -> str:
    """Extrapolate the traced single-process seconds per replication to the
    full default design: 48 sampled cells x 500 replications x 360
    directions.  The ray sweep scales with the direction count; the fit and
    the golden-section refinement do not.  ``factor``, the untraced pass at
    the reference speed over the traced pass as measured, takes the traced
    timings to the reference speed without the tracing overhead."""
    design = workload.design
    cells = tracer.total_s("simstudy.run_cell")
    widths = tracer.total_s("contour.axis_widths_exact", within="simstudy.run_cell")
    refine = tracer.total_s("_solve.golden_max", within="simstudy.run_cell")
    sampled = workload.units_per_pass - len(design.conditions) * len(design.sample_sizes)
    sweep = widths - refine
    scale = 360 / design.directions
    per_rep = (cells - sweep + sweep * scale) / sampled * factor
    core_h = per_rep * 48 * 500 / 3600.0
    return (f"simstudy.full_design_core_h: {core_h:.3f} h "
            f"({per_rep:.4f} core-s per replication at 360 directions and the reference speed; "
            f"report only, not gated; "
            f"study design {design.replications} replications at {design.directions} directions)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not import_package():
        return 2

    report = [f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}"]
    report.append("machine: " + ", ".join(f"{k}={v}" for k, v in machine_info().items()))
    workload = make_workload(args.workload, args.seed)
    if args.trace:
        metrics, tally, problems = traced(workload, args.seed, report)
    else:
        metrics, tally = end_to_end(workload, args.seconds, report)
        problems = []
    try:
        problems += workload.check()
    except Exception:  # a check that cannot run is a failed check
        problems.append("output check raised:\n" + traceback.format_exc())
    report += workload.notes

    for name, (value, unit) in metrics.items():
        report.append(f"{name} = {value!r} {unit}")
    for problem in problems[:20]:
        report.append(f"CHECK FAILED: {problem}")
    report.append(f"checks: {'passed' if not problems else f'{len(problems)} failed'}")
    print("\n".join(report))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {} if problems else {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
