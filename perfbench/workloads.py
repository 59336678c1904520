"""The three benchmark workloads and their output checks.

Each workload has a set-up (building the inputs; timed as ``setup_s``), a
pass (the fixed batch of units the timed phase repeats) and a check of the
outputs.  Functions of the package are looked up on their module at call
time, so the tracer in ``tracing.py`` sees the calls the benchmark makes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fungible.contour as contour
import fungible.discrepancy as discrepancy
import fungible.fit as fit_mod
import fungible.simstudy as simstudy
from fungible.contour import CONFIDENCE, EPS_TILDE, ContourTarget
from fungible.errors import FungibleError

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

CONDITIONS = ("Sigma1", "Sigma2", "Sigma3", "Sigma4")
EPSILONS = (0.0, 0.03, 0.09)
FOCAL = ("gamma1", "gamma2")
TARGETS = simstudy.DEFAULT_TARGETS

# study: the ROADMAP's fixed benchmark design at 90 directions.
STUDY_SAMPLE_SIZES = (1000, 200)
STUDY_REPLICATIONS = 1
STUDY_DIRECTIONS = 90
STUDY_WORKERS = 2
# fit_quadratic: N=50 brings in improper and nonconverged fits.  Each pass
# is a round of FITQ_DRAWS fresh draws per cell.
FITQ_SAMPLE_SIZES = (50, 200, 1000)
FITQ_DRAWS = 8
# sweep_dense: few fits, many rays.
SWEEP_SAMPLE_SIZES = (200, 1000)
SWEEP_EPSILONS = (0.0, 0.09)
SWEEP_DIRECTIONS = 360
SWEEP_CHECK_STRIDE = 30

# The reference design of the study check: one table row, captured by
# capture_reference.py at the commit that introduced the benchmark.
REFERENCE_DESIGN = dict(
    conditions=["Sigma3"], sample_sizes=[200], epsilons=[0.0, 0.09],
    replications=2, seed=0, directions=STUDY_DIRECTIONS,
)
# Determinism contract: byte-identical, or every value within this relative
# tolerance when a change of summation order is unavoidable.
CSV_REL_TOL = 1e-9
# Fit estimates must match the reference within this absolute tolerance: the
# optimizer stops at gradient max-norm 1e-6, so a reordered sum can move an
# estimate by about that much divided by the curvature.
THETA_ABS_TOL = 1e-5


def classify(exc: BaseException) -> str:
    """Failure type of an exception raised by a unit: the FungibleError
    subclass name, or ``other_error`` for anything the package does not
    declare (a defect)."""
    if isinstance(exc, FungibleError):
        return type(exc).__name__
    return "other_error"


@dataclass
class Tally:
    """Unit outcomes of the timed phase, counted against attempts."""

    attempted: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    first_error: str | None = None

    def run(self, unit):
        """Run one unit, time it and record its outcome; never raises."""
        start = time.perf_counter()
        try:
            status = unit()
        except Exception as exc:  # the benchmark must count and go on
            status = classify(exc)
            if status == "other_error" and self.first_error is None:
                self.first_error = traceback.format_exc()
        self.latencies.append(time.perf_counter() - start)
        self.add(status)
        return status

    def add(self, status: str, count: int = 1):
        self.attempted += count
        self.outcomes[status] = self.outcomes.get(status, 0) + count

    @property
    def ok(self) -> int:
        return self.outcomes.get("ok", 0)

    @property
    def failed(self) -> int:
        """Units that raised an error the package does not declare."""
        return self.outcomes.get("other_error", 0)


def focal_of(model):
    return tuple(model.theta_names.index(name) for name in FOCAL)


def build_conditions(pairs):
    """The set-up every workload shares: each (condition, epsilon) pair
    through ``condition_at``, whose cache is emptied first so every call is
    the work a fresh worker process does."""
    simstudy.condition_at.cache_clear()
    return {(c, e): simstudy.condition_at(c, e) for c, e in pairs}


def fit_outcome(res) -> str:
    if not res.converged:
        return "nonconverged"
    if res.improper:
        return "improper"
    return "ok"


# ---------------------------------------------------------------------------
# fit_quadratic


class FitQuadratic:
    """Draw -> fit -> three contour levels -> Hessian axis widths, in process.
    No exact sweep runs, so a contour-engine change should leave it flat.

    Pass r runs replications FITQ_DRAWS*r .. FITQ_DRAWS*(r+1)-1 of every
    cell: each pass draws afresh, so the passes of a run average over the
    draws instead of repeating the same few 500-iteration fits.  Set-up
    starts again at pass 0."""

    name = "fit_quadratic"

    def __init__(self, seed: int):
        self.seed = seed
        self.round = 0
        self.results = {}
        self.notes: list[str] = []

    def setup(self):
        self.conditions = build_conditions([(c, e) for c in CONDITIONS for e in EPSILONS])
        self.round = 0

    def units(self):
        first = FITQ_DRAWS * self.round
        self.round += 1
        for c in CONDITIONS:
            for n in FITQ_SAMPLE_SIZES:
                for e in EPSILONS:
                    for rep in range(first, first + FITQ_DRAWS):
                        yield lambda coord=(c, n, e, rep): self._unit(coord)

    def _unit(self, coord):
        c, n, e, rep = coord
        cond = self.conditions[(c, e)]
        rng = simstudy.replication_rng(self.seed, c, n, e, rep)
        s = simstudy.wishart_sample(cond.sigma_pop, n, rng)
        res = fit_mod.fit_ml(cond.model, s, n=n)
        status = fit_outcome(res)
        widths = []
        if status == "ok":
            focal = focal_of(cond.model)
            for target in TARGETS:
                level = contour.f_target(target, res, n_focal=len(focal))
                widths.append(contour.axis_widths_quadratic(res, level, focal))
        self.results[coord] = (res.converged, res.grad_norm, widths)
        return status

    def check(self):
        problems = []
        grad_tol = fit_mod.FitOptions().grad_tol
        for coord, (converged, grad_norm, widths) in self.results.items():
            if converged and not grad_norm < grad_tol:
                problems.append(f"{coord}: converged with grad_norm {grad_norm:.3e}")
            for w in widths:
                if not (math.isfinite(w.major) and w.major >= w.minor > 0.0):
                    problems.append(f"{coord}: bad quadratic widths {w.major}, {w.minor}")
        problems += check_fit_reference()
        return problems


def fit_reference_coords():
    return [(c, n, 0.09, 0) for c in CONDITIONS for n in (50, 200)]


def fit_reference_record(seed, coord):
    c, n, e, rep = coord
    cond = simstudy.condition_at(c, e)
    s = simstudy.wishart_sample(cond.sigma_pop, n, simstudy.replication_rng(seed, c, n, e, rep))
    try:
        res = fit_mod.fit_ml(cond.model, s, n=n)
    except FungibleError as exc:
        return {"coord": list(coord), "status": classify(exc)}
    return {
        "coord": list(coord), "status": fit_outcome(res),
        "f_hat": res.f_hat, "theta_hat": [float(v) for v in res.theta_hat],
    }


def check_fit_reference():
    """Re-fit the reference draws and compare with the estimates captured
    at the commit that introduced the benchmark."""
    doc = json.loads((REFERENCE / "fit_reference.json").read_text())
    problems = []
    for ref in doc["fits"]:
        got = fit_reference_record(doc["seed"], tuple(ref["coord"]))
        if got["status"] != ref["status"]:
            problems.append(f"reference fit {ref['coord']}: status {got['status']} != {ref['status']}")
            continue
        if "theta_hat" not in ref:
            continue
        diff = float(np.max(np.abs(np.subtract(got["theta_hat"], ref["theta_hat"]))))
        if diff > THETA_ABS_TOL or not math.isclose(got["f_hat"], ref["f_hat"], rel_tol=1e-8, abs_tol=1e-12):
            problems.append(f"reference fit {ref['coord']}: estimates differ by {diff:.3e}")
    return problems


# ---------------------------------------------------------------------------
# sweep_dense


class SweepDense:
    """The interactive fpe/confset use: few fits, 360-direction exact sweeps
    for all three targets and an FPE sample, in process.  Fitting happens in
    set-up, so the timed phase is ray solving only."""

    name = "sweep_dense"

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = [(c, n, e) for c in CONDITIONS for n in SWEEP_SAMPLE_SIZES for e in SWEEP_EPSILONS]
        self.points = []
        self.notes: list[str] = []

    def setup(self):
        self.conditions = build_conditions([(c, e) for c in CONDITIONS for e in SWEEP_EPSILONS])
        self.fits = []
        skipped = 0
        for c, n, e in self.cells:
            cond = self.conditions[(c, e)]
            # The first replication whose fit is usable; skipped draws are
            # counted and reported, never hidden.
            for rep in range(10):
                rng = simstudy.replication_rng(self.seed, c, n, e, rep)
                try:
                    s = simstudy.wishart_sample(cond.sigma_pop, n, rng)
                    res = fit_mod.fit_ml(cond.model, s, n=n)
                except FungibleError:
                    res = None
                if res is not None and fit_outcome(res) == "ok":
                    break
                skipped += 1
            else:
                raise RuntimeError(f"no usable fit for {(c, n, e)} in 10 draws")
            self.fits.append((res, focal_of(cond.model)))
        self.notes = [f"set-up skipped {skipped} draws whose fit was excluded"] if skipped else []

    def units(self):
        for res, focal in self.fits:
            for target in TARGETS:
                yield lambda res=res, focal=focal, target=target: self._widths(res, focal, target)
            yield lambda res=res, focal=focal: self._fpe(res, focal)

    def _widths(self, res, focal, target):
        level = contour.f_target(target, res, n_focal=len(focal))
        widths = contour.axis_widths_exact(res, level, focal, SWEEP_DIRECTIONS)
        return "partial_sweep" if widths.partial else "ok"

    def _fpe(self, res, focal):
        target = ContourTarget(mode=EPS_TILDE)
        points = contour.fpe_sample(res, target, focal, SWEEP_DIRECTIONS)
        if len(self.points) < len(self.fits):
            self.points.append((res, contour.f_target(target, res, n_focal=len(focal)), points))
        return "ok"

    def check(self):
        """Re-evaluate a sample of the returned contour points with the
        scalar discrepancy: |F - T| must stay within the solver's f_tol."""
        problems = []
        f_tol = 1e-9
        for res, level, points in self.points:
            if len(points) < 0.95 * SWEEP_DIRECTIONS:
                problems.append(f"fpe_sample returned {len(points)} of {SWEEP_DIRECTIONS} points")
            for theta in points[::SWEEP_CHECK_STRIDE]:
                gap = abs(discrepancy.f_ml(res.model, theta, res.s) - level)
                if not gap <= f_tol:
                    problems.append(f"contour point off its level by {gap:.3e}")
        return problems


# ---------------------------------------------------------------------------
# study


def study_design_doc(seed: int) -> dict:
    return dict(
        conditions=list(CONDITIONS), sample_sizes=list(STUDY_SAMPLE_SIZES),
        epsilons=list(EPSILONS), replications=STUDY_REPLICATIONS, seed=seed,
        directions=STUDY_DIRECTIONS,
    )


def design_from_doc(doc) -> simstudy.StudyDesign:
    return simstudy.StudyDesign(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def sampled_modes(design) -> int:
    """Contour modes whose cells are Monte Carlo sampled, one cell per misfit
    level; the confidence-set cell analyses the population once."""
    return sum(t.mode not in design.population_analysis for t in design.targets)


def study_units(design) -> int:
    """Replications a design with the default targets attempts."""
    rows = len(design.conditions) * len(design.sample_sizes)
    return rows * (1 + sampled_modes(design) * len(design.epsilons) * design.replications)


def compare_csv(got: str, want: str) -> str | None:
    """None when ``got`` meets the determinism contract against ``want``."""
    if got == want:
        return None
    got_rows = [ln.split(",") for ln in got.strip().splitlines()]
    want_rows = [ln.split(",") for ln in want.strip().splitlines()]
    if len(got_rows) != len(want_rows) or any(len(a) != len(b) for a, b in zip(got_rows, want_rows)):
        return "table shape differs from the reference"
    if got_rows[0] != want_rows[0]:
        return "table header differs from the reference"
    for a_row, b_row in zip(got_rows[1:], want_rows[1:]):
        if a_row[:2] != b_row[:2]:
            return f"row {a_row[:2]} != {b_row[:2]}"
        for a, b in zip(a_row[2:], b_row[2:]):
            x, y = float(a), float(b)
            if not (x == y or (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=CSV_REL_TOL)):
                return f"value {a} != reference {b} in row {a_row[:2]}"
    return None


class Study:
    """The study design's cells in process, one thread, each through
    ``simstudy.run_cell``: the work ``fungible study`` hands its worker
    processes.  The command itself, ``python -m fungible.cli study --threads
    2``, runs once per run outside the timed phase; its CSV must match the
    in-process table of the same design byte for byte.

    The 2-worker command is not what the timed phase measures: on a shared
    2-core host its wall clock spread more between sets of runs than any
    bound allows, and a speed probe cannot follow two processes (see
    README.md).  Its wall clock is reported, and traced runs give it as
    ``cli.study_s``.

    A unit is one cell; at one replication a sampled cell is one
    replication.  Pass k runs the design with seed ``pass_seed(k)``: each
    pass draws afresh, so the passes of a run average over the draws and the
    exclusions.  Set-up starts again at pass 0."""

    name = "study"

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.design = self.design_of(0)
        self.units_per_pass = study_units(self.design)
        self.round = 0
        # Pass -> the cells it made, in job order.
        self.cells: dict[int, list[simstudy.StudyCell]] = {}
        # (wall clock in s, CSV text; "" when the command failed) of the CLI.
        self.cli: tuple[float, str] | None = None
        self.error: str | None = None
        self.notes: list[str] = []

    def pass_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def design_of(self, k: int) -> simstudy.StudyDesign:
        return design_from_doc(study_design_doc(self.pass_seed(k)))

    def setup(self):
        self.conditions = build_conditions(
            [(c, e) for c in self.design.conditions for e in self.design.epsilons]
        )
        self.round = 0

    def units(self):
        k = self.round
        self.round += 1
        design = self.design_of(k)
        cells = self.cells[k] = []
        for job in study_jobs(design):
            yield lambda job=job: self._cell(design, job, cells)

    @staticmethod
    def _cell(design, job, cells):
        cell = simstudy.run_cell(design, *job)
        cells.append(cell)
        return "ok" if cell.n_excluded == 0 else "excluded"

    def classify_excluded(self, tally: Tally):
        """Replace the tally's ``excluded`` count by failure types, found
        after the timed phase by redoing the excluded replications' draws and
        fits.  A cell has one replication, so an excluded cell is one
        excluded replication."""
        if not tally.outcomes.pop("excluded", 0):
            return
        for k, cells in self.cells.items():
            design = self.design_of(k)
            for cell in cells:
                if cell.n_excluded:
                    status = replication_outcome(design, cell)
                    tally.outcomes[status] = tally.outcomes.get(status, 0) + cell.n_excluded

    def table(self, k: int) -> str:
        design = self.design_of(k)
        return simstudy.emit_table(simstudy.StudyTable(
            design.conditions, design.sample_sizes, design.epsilons, tuple(self.cells[k])
        ))

    def run_cli(self):
        """``fungible study --threads 2`` on pass 0's design, once."""
        if self.cli is not None:
            return self.cli
        self.workdir.mkdir(parents=True, exist_ok=True)
        config = self.workdir / f"study-{self.seed}.json"
        config.write_text(json.dumps(study_design_doc(self.pass_seed(0))))
        out = self.workdir / f"study-{self.seed}.csv"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "fungible.cli", "study", "--config", str(config),
               "--threads", str(STUDY_WORKERS), "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            self.error = proc.stderr[-2000:]
        self.cli = (wall, out.read_text() if proc.returncode == 0 else "")
        self.notes.append(f"fungible study --threads {STUDY_WORKERS} on pass 0's design: "
                          f"{wall:.3f} s wall clock (reported, not gated)")
        return self.cli

    def check(self):
        problems = []
        if 0 not in self.cells:
            return ["no study pass ran"]
        _, text = self.run_cli()
        if not text:
            problems.append(f"the study command failed: {self.error}")
        elif text != self.table(0):
            problems.append("the 2-worker CLI table differs in its bytes from the in-process table")
        for k in sorted(self.cells):
            problems += self.check_table(self.design_of(k), self.table(k))
        problems += check_study_reference()
        return problems

    @staticmethod
    def check_table(design, text):
        """The header and the (condition, n) rows of the design, no ragged row."""
        empty = simstudy.StudyTable(design.conditions, design.sample_sizes, design.epsilons, ())
        want = [ln.split(",") for ln in simstudy.emit_table(empty).splitlines()]
        got = [ln.split(",") for ln in text.splitlines()]
        if got[0] != want[0] or [r[:2] for r in got] != [r[:2] for r in want]:
            return [f"study table rows/header differ: {got[0][:4]}..."]
        if any(len(r) != len(got[0]) for r in got):
            return ["study table has ragged rows"]
        return []


def study_jobs(design):
    """(condition, n, epsilon, mode) of every cell, in the order the study
    command runs them: the confidence set once per row at epsilon 0, every
    other mode at every epsilon."""
    jobs = []
    for c in design.conditions:
        for n in design.sample_sizes:
            for target in design.targets:
                if target.mode == CONFIDENCE:
                    jobs.append((c, n, 0.0, target.mode))
                else:
                    jobs += [(c, n, e, target.mode) for e in design.epsilons]
    return jobs


def replication_outcome(design, cell) -> str:
    """Why the replication of a one-replication cell was excluded: the
    draw's or the fit's failure type, else ``partial_sweep`` (a partial or
    failed exact sweep)."""
    cond = simstudy.condition_at(cell.condition, cell.epsilon)
    try:
        if cell.mode in design.population_analysis:
            s = cond.sigma_pop
        else:
            rng = simstudy.replication_rng(design.seed, cell.condition, cell.n, cell.epsilon, 0)
            s = simstudy.wishart_sample(cond.sigma_pop, cell.n, rng)
        status = fit_outcome(fit_mod.fit_ml(cond.model, s, n=cell.n))
    except Exception as exc:  # counted by type, never raised
        return classify(exc)
    return "partial_sweep" if status == "ok" else status


def check_study_reference():
    """Run the reference design and compare it with the table captured at
    the commit that introduced the benchmark."""
    table = simstudy.run_design(design_from_doc(REFERENCE_DESIGN), threads=1)
    problem = compare_csv(simstudy.emit_table(table), (REFERENCE / "study_reference.csv").read_text())
    return [] if problem is None else [f"study reference: {problem}"]


def layer_probe(seed: int):
    """A fixed call of every layer, run at the end of each traced run so that
    no layer's time reads 0 only because a workload bypasses it: one sampled
    study cell of one replication, plus an FPE sample and Hessian widths on
    one fit."""
    design = simstudy.StudyDesign(
        conditions=("Sigma1",), sample_sizes=(200,), epsilons=(0.0,),
        replications=1, seed=seed, directions=STUDY_DIRECTIONS,
    )
    simstudy.run_cell(design, "Sigma1", 200, 0.0, EPS_TILDE)
    cond = simstudy.condition_at("Sigma1", 0.0)
    s = simstudy.wishart_sample(cond.sigma_pop, 200, simstudy.replication_rng(seed, "Sigma1", 200, 0.0, 0))
    res = fit_mod.fit_ml(cond.model, s, n=200)
    focal = focal_of(cond.model)
    contour.fpe_sample(res, ContourTarget(mode=EPS_TILDE), focal, STUDY_DIRECTIONS)
    level = contour.f_target(ContourTarget(mode=CONFIDENCE), res, n_focal=len(focal))
    contour.axis_widths_quadratic(res, level, focal)
