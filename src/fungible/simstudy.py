"""Factorial Monte Carlo study: conditions x sample sizes x misfit levels x
contour modes, aggregated into a table of axis widths.

Determinism contract: (seed, design) fully determines the result.  Each
replication draws from its own counter-based Philox stream keyed by
hash(seed, condition, n, epsilon, replication index), so cells are
order-independent and can run in parallel without shared state.

The stream is keyed without the contour mode, so the sampled modes of one
(condition, n, epsilon) draw the same S: each process draws and fits it once
and every sampled mode measures its widths on that fit.  The replications'
fits are cached per (seed, condition, n, epsilon, replications), at most 8
such entries (about 3.5 KB per fit: 14 MB at 500 replications each).  The
population fit is cached per (condition, epsilon) and shared across N, since
the fit's iterates do not depend on N.  A cached fit is the same computation
as a fresh one, so the table is byte-identical in any cell order;
:func:`run_design` hands each worker process the cells of one (condition, n,
epsilon) together.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np

from .contour import (CONFIDENCE, DELTA_F, EPS_TILDE, N_DIRECTIONS, ContourTarget, _is_real,
                       axis_widths_exact, f_target)
from .errors import DegenerateSample, FungibleError, NotPositiveDefinite
from .fit import fit_ml
from .model import canonical_model, condition_from_label, focal_indices, misspecify_to_epsilon

# The study's delta_f target uses relative scaling: only then do delta_f
# widths grow with the population misfit level, the pattern the reference
# table shows within rows.  Likelihood scaling keeps the offset constant in
# epsilon, which leaves the widths flat.
DEFAULT_TARGETS = (
    ContourTarget(mode=CONFIDENCE, confidence=0.95),
    ContourTarget(mode=EPS_TILDE, epsilon_tilde=0.005),
    ContourTarget(mode=DELTA_F, delta_f=0.05, scaling="relative"),
)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


@dataclass(frozen=True)
class StudyDesign:
    conditions: tuple[str, ...] = ("Sigma1", "Sigma2", "Sigma3", "Sigma4")
    sample_sizes: tuple[int, ...] = (1000, 200)
    epsilons: tuple[float, ...] = (0.0, 0.03, 0.09)
    replications: int = 500
    seed: int = 0
    targets: tuple[ContourTarget, ...] = DEFAULT_TARGETS
    directions: int = N_DIRECTIONS
    focal: tuple[str, str] = ("gamma1", "gamma2")
    population_analysis: tuple[str, ...] = (CONFIDENCE,)

    def __post_init__(self):
        for name in ("replications", "seed", "directions"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name, is_kind, kind in (
            ("conditions", _is_str, "strings"),
            ("sample_sizes", _is_int, "integers"),
            ("epsilons", _is_real, "finite real numbers"),
            ("focal", _is_str, "strings"),
            ("population_analysis", _is_str, "strings"),
        ):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(map(is_kind, values)):
                raise ValueError(f"{name} must be a list of {kind}, got {values!r}")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "focal", tuple(self.focal))
        object.__setattr__(
            self, "population_analysis", tuple(self.population_analysis)
        )
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        # a repeated value would repeat table rows or column names
        if len(set(self.conditions)) != len(self.conditions):
            raise ValueError("conditions must be distinct")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError("sample sizes must be at least 2")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ValueError("sample sizes must be distinct")
        eps = self.epsilons
        if any(e < 0 for e in eps) or any(a >= b for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be nonnegative and strictly ascending")
        modes = [t.mode for t in self.targets]
        if len(set(modes)) != len(modes):
            raise ValueError("duplicate contour modes in targets")
        stray = [mode for mode in self.population_analysis if mode not in modes]
        if stray:
            raise ValueError(f"population_analysis lists modes not in targets: {stray}")
        # every builtin condition analyzes the canonical model
        focal_indices(canonical_model(), self.focal)


@dataclass(frozen=True)
class StudyCell:
    condition: str
    n: int
    epsilon: float
    mode: str
    major_mean: float
    major_sd: float
    minor_mean: float
    minor_sd: float
    n_converged: int
    n_excluded: int


@dataclass(frozen=True)
class StudyTable:
    conditions: tuple[str, ...]
    sample_sizes: tuple[int, ...]
    epsilons: tuple[float, ...]
    cells: tuple[StudyCell, ...]

    @cached_property
    def _by_key(self) -> dict[tuple, StudyCell]:
        # reversed, so the first of any cells sharing a key wins
        return {(c.condition, c.n, c.mode, c.epsilon): c for c in reversed(self.cells)}

    def cell(self, condition, n, mode, epsilon=0.0) -> StudyCell | None:
        return self._by_key.get((condition, n, mode, epsilon))


def replication_rng(seed: int, condition: str, n: int, epsilon: float, rep: int) -> np.random.Generator:
    """Counter-based generator for one replication, keyed by a stable hash of
    the cell coordinates so streams never collide or depend on run order."""
    tag = f"{int(seed)}|{condition}|{int(n)}|{float(epsilon)!r}|{int(rep)}"
    digest = hashlib.blake2b(tag.encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def wishart_sample(sigma, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample covariance of n multivariate-normal observations with population
    covariance ``sigma``, via the Bartlett decomposition.

    S = L A A' L' / (n - 1) with L = chol(sigma), A lower triangular with
    chi-distributed diagonal (df n-1, n-2, ...) and standard-normal
    subdiagonal.  Raises :class:`DegenerateSample` if the draw fails its
    Cholesky check twice.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if n <= p:
        raise ValueError("wishart sampling needs n > p")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("sigma") from None

    def draw():
        a = np.zeros((p, p))
        dfs = n - 1 - np.arange(p)
        a[np.diag_indices(p)] = np.sqrt(rng.chisquare(dfs))
        if p > 1:
            a[np.tril_indices(p, k=-1)] = rng.standard_normal(p * (p - 1) // 2)
        w = chol @ a
        s = (w @ w.T) / (n - 1)
        return 0.5 * (s + s.T)

    for _ in range(2):
        s = draw()
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            continue
        return s
    raise DegenerateSample("sampled covariance failed its Cholesky check twice")


@lru_cache(maxsize=None)
def condition_at(label: str, epsilon: float):
    """Builtin condition misspecified to a population RMSEA (cached; the
    root search behind it is deterministic)."""
    cond = condition_from_label(label)
    if epsilon == 0.0:
        return cond
    return misspecify_to_epsilon(cond, epsilon)


def _usable_fit(cond, n, rng):
    """ML fit of the population covariance (``rng`` None) or of a sample of
    size ``n`` drawn with ``rng``; None where the draw or the fit raises a
    :class:`FungibleError`, or the fit is nonconverged or improper."""
    try:
        s = cond.sigma_pop if rng is None else wishart_sample(cond.sigma_pop, n, rng)
        res = fit_ml(cond.model, s, n=n)
    except FungibleError:
        return None
    return res if res.converged and not res.improper else None


@lru_cache(maxsize=8)
def _sample_fits(seed: int, condition: str, n: int, epsilon: float, replications: int):
    """:func:`_usable_fit` of every replication's draw, shared by the sampled
    modes.  Mode-major cell order needs one live entry per epsilon."""
    cond = condition_at(condition, epsilon)
    return tuple(
        _usable_fit(cond, n, replication_rng(seed, condition, n, epsilon, rep))
        for rep in range(replications)
    )


@lru_cache(maxsize=None)
def _population_fit(condition: str, epsilon: float):
    """:func:`_usable_fit` of the population covariance, analyzed at no N."""
    return _usable_fit(condition_at(condition, epsilon), None, None)


def run_cell(design: StudyDesign, condition: str, n: int, epsilon: float, mode: str) -> StudyCell:
    """One table cell: replicate draw -> fit -> exact axis widths, then mean
    and SD over the converged replications.

    Modes listed in ``design.population_analysis`` analyze the population
    covariance directly instead (one replication, SD exactly 0).  Failed,
    nonconverged, improper, and partial-sweep replications are excluded and
    counted.  Draws and fits are cached and shared by the cells of one
    (condition, n, epsilon); see the module docstring.
    """
    target = {t.mode: t for t in design.targets}[mode]
    n, epsilon = int(n), float(epsilon)
    model = condition_at(condition, epsilon).model
    focal = focal_indices(model, design.focal)
    if mode in design.population_analysis:
        fit = _population_fit(condition, epsilon)
        fits = (None if fit is None else replace(fit, n=n),)
    else:
        fits = _sample_fits(design.seed, condition, n, epsilon, design.replications)

    majors, minors = [], []
    excluded = 0
    for res in fits:
        if res is None:
            excluded += 1
            continue
        try:
            level = f_target(target, res, n_focal=len(focal))
            widths = axis_widths_exact(res, level, focal, design.directions)
        except FungibleError:
            excluded += 1
            continue
        if widths.partial:
            excluded += 1
            continue
        majors.append(widths.major)
        minors.append(widths.minor)

    def mean(xs):
        return float(np.mean(xs)) if xs else math.nan

    def sd(xs):
        return float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0

    return StudyCell(
        condition=condition,
        n=n,
        epsilon=epsilon,
        mode=mode,
        major_mean=mean(majors),
        major_sd=sd(majors),
        minor_mean=mean(minors),
        minor_sd=sd(minors),
        n_converged=len(majors),
        n_excluded=excluded,
    )


def _jobs(design: StudyDesign):
    """(condition, n, epsilon, mode) of every cell the table holds for the
    modes the design targets: per (condition, n), the (mode, epsilon) of
    each :func:`_columns` entry in table order."""
    modes = {target.mode for target in design.targets}
    cells = dict.fromkeys((mode, eps) for _, mode, eps, _ in _columns(design.epsilons) if mode in modes)
    return [(condition, n, eps, mode) for condition in design.conditions
            for n in design.sample_sizes for mode, eps in cells]


def _worker_count(n_jobs, threads):
    if threads is None:
        env = os.environ.get("FC_THREADS")
        threads = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(int(threads), n_jobs))


def _run_cells(design: StudyDesign, jobs) -> list[StudyCell]:
    """:func:`run_cell` for each job in turn, in one process."""
    return [run_cell(design, *job) for job in jobs]


def run_design(design: StudyDesign, threads: int | None = None) -> StudyTable:
    """Run every cell of the design.  ``threads`` defaults to the FC_THREADS
    environment variable, then the processor count.  Each worker process
    takes the cells of one (condition, n, epsilon) together, so they share
    its draws and fits; the merge keeps the job order whatever the worker
    count."""
    jobs = _jobs(design)
    groups: dict[tuple, list] = {}
    for job in jobs:
        groups.setdefault(job[:3], []).append(job)
    workers = _worker_count(len(groups), threads)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_cells, repeat(design), groups.values()))
    else:
        done = [_run_cells(design, group) for group in groups.values()]
    cell_of = {
        job: cell for group, cells in zip(groups.values(), done) for job, cell in zip(group, cells)
    }
    return StudyTable(
        conditions=design.conditions,
        sample_sizes=design.sample_sizes,
        epsilons=design.epsilons,
        cells=tuple(cell_of[job] for job in jobs),
    )


# ---------------------------------------------------------------------------
# Table emission and parsing


def _columns(epsilons):
    """The table's width columns in order, each as (name, contour mode,
    epsilon, the :class:`StudyCell` field it holds): the layout that
    :func:`emit_table` writes and :func:`parse_table` reads."""
    cols = [
        (f"cs_{field}", CONFIDENCE, 0.0, field)
        for field in ("major_mean", "major_sd", "minor_mean", "minor_sd")
    ]
    for mode in (EPS_TILDE, DELTA_F):
        for eps in epsilons:
            cols.append((f"{mode}_major_{eps:g}", mode, eps, "major_mean"))
            cols.append((f"{mode}_minor_{eps:g}", mode, eps, "minor_mean"))
    return cols


def emit_table(table: StudyTable, format: str = "csv") -> str:
    """Render the 18-column study table (condition, N, then 16 width columns:
    confidence-set major/minor mean and SD, then major/minor per epsilon for
    the two FPE modes).  CSV carries full precision; markdown rounds to two
    decimals.  A missing cell's columns hold NaN.
    """
    columns = _columns(table.epsilons)
    header = ["condition", "n"] + [name for name, *_ in columns]
    rows = []
    for condition in table.conditions:
        for n in table.sample_sizes:
            values = []
            for _, mode, eps, field in columns:
                cell = table.cell(condition, n, mode, eps)
                values.append(math.nan if cell is None else getattr(cell, field))
            rows.append((condition, n, values))
    if format == "csv":
        lines = [",".join(header)]
        for condition, n, values in rows:
            lines.append(",".join([condition, str(n)] + [repr(float(v)) for v in values]))
        return "\n".join(lines) + "\n"
    if format == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join([" --- "] * len(header)) + "|")
        for condition, n, values in rows:
            cells = [condition, str(n)] + [f"{v:.2f}" for v in values]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {format!r}")


def parse_table(text: str) -> StudyTable:
    """Parse the CSV of :func:`emit_table` back into a :class:`StudyTable`.

    FPE cells carry only means in the table, so their SDs parse as 0 and the
    replication counts are placeholders.  Raises :class:`ValueError` naming
    the problem when the text has no ``condition,n,...`` header, lacks a
    column of the layout, has a row whose field count differs from the
    header's, or holds a value that is not a number.
    """
    lines = [ln.split(",") for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0][:2] != ["condition", "n"]:
        raise ValueError("no study table header: the first line must start with condition,n")
    header = lines[0]
    prefix = f"{EPS_TILDE}_major_"
    epsilons = tuple(
        _number(name[len(prefix):], f"column {name!r}") for name in header if name.startswith(prefix)
    )
    columns = _columns(epsilons)
    missing = [name for name, *_ in columns if name not in header]
    if missing:
        raise ValueError(f"the table lacks the column(s): {', '.join(missing)}")
    fields: dict[tuple, dict] = {}
    for number, row in enumerate(lines[1:], 1):
        if len(row) != len(header):
            raise ValueError(f"row {number} has {len(row)} fields, the header has {len(header)}")
        values = dict(zip(header, row))
        n = _number(row[1], f"row {number}, column 'n'", int)
        for name, mode, eps, field in columns:
            cell = fields.setdefault((row[0], n, eps, mode), {"major_sd": 0.0, "minor_sd": 0.0})
            cell[field] = _number(values[name], f"row {number}, column {name!r}")
    return StudyTable(
        conditions=tuple(dict.fromkeys(key[0] for key in fields)),
        sample_sizes=tuple(dict.fromkeys(key[1] for key in fields)),
        epsilons=epsilons,
        cells=tuple(
            StudyCell(*key, **cell, n_converged=1, n_excluded=0) for key, cell in fields.items()
        ),
    )


def _number(text, where, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where}: {text!r} is not a number") from None


# Embedded reference table of axis widths (8 rows x 16 width columns) used
# by the internal-consistency check: confidence-set widths must scale across
# N = 1000 -> 200 by sqrt(999/199).
PAPER_TABLE_CSV = """\
condition,n,cs_major_mean,cs_major_sd,cs_minor_mean,cs_minor_sd,eps_tilde_major_0,eps_tilde_minor_0,eps_tilde_major_0.03,eps_tilde_minor_0.03,eps_tilde_major_0.09,eps_tilde_minor_0.09,delta_f_major_0,delta_f_minor_0,delta_f_major_0.03,delta_f_minor_0.03,delta_f_major_0.09,delta_f_minor_0.09
Sigma1,1000,0.19,0,0.18,0,0.16,0.15,0.33,0.32,0.59,0.56,0.13,0.13,0.18,0.17,0.40,0.38
Sigma1,200,0.43,0,0.40,0,0.48,0.44,0.30,0.28,0.60,0.55,0.29,0.27,0.32,0.30,0.50,0.46
Sigma2,1000,0.17,0,0.16,0,0.18,0.18,0.29,0.29,0.51,0.50,0.11,0.11,0.16,0.15,0.36,0.35
Sigma2,200,0.38,0,0.36,0,0.39,0.38,0.26,0.25,0.52,0.50,0.26,0.25,0.28,0.27,0.43,0.42
Sigma3,1000,0.25,0,0.20,0,0.27,0.22,0.42,0.34,0.75,0.61,0.17,0.14,0.23,0.18,0.52,0.42
Sigma3,200,0.56,0,0.44,0,0.50,0.39,0.40,0.31,0.76,0.59,0.38,0.30,0.42,0.33,0.63,0.50
Sigma4,1000,0.20,0,0.17,0,0.25,0.22,0.35,0.30,0.62,0.53,0.14,0.12,0.19,0.16,0.43,0.37
Sigma4,200,0.46,0,0.39,0,0.46,0.39,0.32,0.27,0.63,0.53,0.32,0.27,0.35,0.29,0.53,0.45
"""


def paper_fixture() -> StudyTable:
    """The embedded reference table."""
    return parse_table(PAPER_TABLE_CSV)


# the reference table rounds widths to two decimals
SCALING_SLACK = 0.015


def check_fixture_scaling(table: StudyTable | None = None):
    """Internal-consistency check of the reference table: every confidence-set
    width at N=200 must equal the N=1000 width times sqrt(999/199) within the
    rounding slack :data:`SCALING_SLACK`.  Returns (ok, report lines)."""
    if table is None:
        table = paper_fixture()
    if not {1000, 200} <= set(table.sample_sizes):
        raise ValueError("scaling check needs sample sizes 1000 and 200")
    ratio = math.sqrt(999.0 / 199.0)
    ok = True
    lines = [f"confidence-set width scaling check: N=200 vs N=1000 x {ratio:.4f}"]
    for condition in table.conditions:
        big = table.cell(condition, 1000, CONFIDENCE, 0.0)
        small = table.cell(condition, 200, CONFIDENCE, 0.0)
        if big is None or small is None:
            ok = False
            lines.append(f"{condition}: missing confidence-set cells")
            continue
        for axis, w_big, w_small in (
            ("major", big.major_mean, small.major_mean),
            ("minor", big.minor_mean, small.minor_mean),
        ):
            predicted = w_big * ratio
            delta = abs(w_small - predicted)
            good = delta <= SCALING_SLACK
            ok = ok and good
            lines.append(
                f"{condition} {axis}: {w_big:.2f} x {ratio:.4f} = {predicted:.3f} "
                f"vs {w_small:.2f} (delta {delta:.3f}) {'ok' if good else 'FAIL'}"
            )
    lines.append("all checks passed" if ok else "CHECK FAILED")
    return ok, lines
