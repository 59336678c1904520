"""Factorial Monte Carlo study: conditions x sample sizes x misfit levels x
contour modes, aggregated into a table of axis widths.

Determinism contract: (seed, design) fully determines the result.  Each
replication draws from its own counter-based Philox stream keyed by
hash(seed, condition, n, epsilon, replication index), so cells are
order-independent and can run in parallel without shared state.

The stream is keyed without the contour mode, so the sampled modes of one
(condition, n, epsilon) draw the same S.  A (condition, n) row is the work
unit: its run fits the row's population fit(s) and every epsilon's
replications once and solves every cell's widths on those fits, each fit at
its own cells' levels, in chunks of :data:`GROUP_CHUNK` fits.  A chunk's
draws are fitted in one lockstep run (:func:`~fungible.fit.fit_stack`, each
fit its one-row fit bit for bit) and its widths solved in one engine run
(:func:`~fungible.contour.axis_widths_group`); each width is counted into
its cell when its chunk ends, and none is kept.  A width that fails
excludes its replication from its own cell alone, and an error the package
does not declare is that cell's outcome alone.  The last row run is cached,
so :func:`run_cell` reads a row's cells from one run.  The population fit
is cached per (condition, epsilon) and shared across N, since the fit's
iterates do not depend on N.  Every width of a run is the one-width
computation bit for bit, so the table is byte-identical in any cell order;
:func:`run_design` hands each worker process one row.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np

from .contour import (CONFIDENCE, DELTA_F, EPS_TILDE, N_DIRECTIONS, ContourTarget,
                       axis_widths_group, f_target)
from .errors import DegenerateSample, FungibleError, NotPositiveDefinite
from .fit import FitResult, fit_stack
from .model import (CONDITION_LABELS, as_cov, as_int, canonical_model, check_focal,
                    condition_from_label, focal_indices, is_int, is_real, misspecify_to_epsilon)

# The study's delta_f target uses relative scaling: only then do delta_f
# widths grow with the population misfit level, the pattern the reference
# table shows within rows.  Likelihood scaling keeps the offset constant in
# epsilon, which leaves the widths flat.
DEFAULT_TARGETS = (
    ContourTarget(mode=CONFIDENCE, confidence=0.95),
    ContourTarget(mode=EPS_TILDE, epsilon_tilde=0.005),
    ContourTarget(mode=DELTA_F, delta_f=0.05, scaling="relative"),
)


# fits per lockstep fit and engine run.  A chunk's rays stack, 360 per level
# of each fit at the default sweep.  On a 2-core VM, a one-process run of 500
# replications (Sigma1 and Sigma4, N 1000, eps 0 and .09) peaked at 50.5 MB
# RSS at 20 and 75.3 MB at 60, against 40.4 MB at 1; its wall time, 6.3-8.0 s
# at 20 and 4.9-6.8 s at 60, was too noisy there to choose by
GROUP_CHUNK = 20


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
            as_int(getattr(self, name), name)
        for name, is_kind, kind in (
            ("conditions", lambda label: _is_str(label) and label in CONDITION_LABELS,
             f"builtin labels {list(CONDITION_LABELS)}"),
            ("sample_sizes", is_int, "integers"),
            ("epsilons", is_real, "finite real numbers"),
            ("focal", _is_str, "strings"),
            ("population_analysis", _is_str, "strings"),
            ("targets", lambda target: isinstance(target, ContourTarget), "contour targets"),
        ):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(map(is_kind, values)):
                raise ValueError(f"{name} must be a list of {kind}, got {values!r}")
        for name in ("conditions", "targets", "focal", "population_analysis"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.directions < 4:
            raise ValueError(f"directions must be at least 4, got {self.directions}")
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
        if len(self.focal) != 2:
            raise ValueError(f"focal must name two distinct parameters, got {list(self.focal)}")
        # every builtin condition analyzes the canonical model
        model = canonical_model()
        check_focal(focal_indices(model, self.focal), model.q)
        p = len(model.observed)
        if set(modes) - set(self.population_analysis) and any(n <= p for n in self.sample_sizes):
            raise ValueError(f"sample_sizes must exceed the {p} observed variables where a mode "
                             f"is sampled, got {list(self.sample_sizes)}")


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
    seed, n, rep = as_int(seed, "seed"), as_int(n, "n"), as_int(rep, "rep")
    tag = f"{seed}|{condition}|{n}|{float(epsilon)!r}|{rep}"
    digest = hashlib.blake2b(tag.encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def wishart_sample(sigma, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample covariance of n multivariate-normal observations with population
    covariance ``sigma``, via the Bartlett decomposition.

    S = L A A' L' / (n - 1) with L = chol(sigma), A lower triangular with
    chi-distributed diagonal (df n-1, n-2, ...) and standard-normal
    subdiagonal.  ``sigma`` must pass :func:`~fungible.model.as_cov` (as
    ``"sigma"``), and so must each draw, symmetrized by it; raises
    :class:`DegenerateSample` if the draw fails its Cholesky check twice.
    """
    chol = as_cov(sigma, which="sigma")[1]
    p = len(chol)
    n = as_int(n, "n")
    if n <= p:
        raise ValueError("wishart sampling needs n > p")

    def draw():
        a = np.zeros((p, p))
        dfs = n - 1 - np.arange(p)
        a[np.diag_indices(p)] = np.sqrt(rng.chisquare(dfs))
        if p > 1:
            a[np.tril_indices(p, k=-1)] = rng.standard_normal(p * (p - 1) // 2)
        w = chol @ a
        return (w @ w.T) / (n - 1)

    for _ in range(2):
        try:
            return as_cov(draw())[0]
        except NotPositiveDefinite:
            pass
    raise DegenerateSample("sampled covariance failed its Cholesky check twice")


@lru_cache(maxsize=None)
def condition_at(label: str, epsilon: float):
    """Builtin condition misspecified to a population RMSEA (cached; the
    root search behind it is deterministic)."""
    cond = condition_from_label(label)
    if epsilon == 0.0:
        return cond
    return misspecify_to_epsilon(cond, epsilon)


def _usable(fit):
    """A :func:`~fungible.fit.fit_stack` row if it is a converged, proper fit."""
    return fit if isinstance(fit, FitResult) and fit.converged and not fit.improper else None


@lru_cache(maxsize=None)
def _population_fit(condition: str, epsilon: float):
    """:func:`_usable` fit of the population covariance, analyzed at no N."""
    cond = condition_at(condition, epsilon)
    return _usable(*fit_stack(cond.model, [cond.sigma_pop]))


def _chunk_fits(design: StudyDesign, condition: str, n: int, chunk):
    """The :func:`_usable` fit of each ``(epsilon, rep, modes)`` unit of a
    row, None where its draw fails: the population fit at N ``n`` for a
    ``rep`` of None, else replication ``rep``'s.  The draws are fitted in
    one :func:`~fungible.fit.fit_stack` call, since every builtin condition
    analyzes one model."""
    fits, draws = [None] * len(chunk), {}
    for k, (eps, rep, _) in enumerate(chunk):
        cond = condition_at(condition, eps)
        if rep is None:
            fit = _population_fit(condition, eps)
            fits[k] = None if fit is None else replace(fit, n=n)
            continue
        with suppress(FungibleError):
            draws[k] = wishart_sample(cond.sigma_pop, n,
                                      replication_rng(design.seed, condition, n, eps, rep))
    for k, fit in zip(draws, fit_stack(cond.model, list(draws.values()), n)):
        fits[k] = _usable(fit)
    return fits


@lru_cache(maxsize=1)
def _row(design: StudyDesign, condition: str, n: int) -> tuple:
    """The cells of one (condition, n) row in :func:`_cells` order, each a
    :class:`StudyCell` or the first error the package does not declare among
    its replications' widths.  A fit is the population's at an epsilon with
    population cells, or a replication's, at its own cells' levels;
    GROUP_CHUNK fits share one lockstep fit and one engine run, and each
    width is counted into its cell when its chunk ends.  Cells are asked
    for row by row: one entry."""
    targets = {target.mode: target for target in design.targets}
    cells = _cells(design)
    modes: dict[tuple, list] = {}  # (epsilon, population fit?) -> its cells' modes
    for mode, eps in cells:
        modes.setdefault((eps, mode in design.population_analysis), []).append(mode)
    units = [(eps, rep, unit_modes) for (eps, population), unit_modes in modes.items()
             for rep in ([None] if population else range(design.replications))]
    focal = focal_indices(canonical_model(), design.focal)
    axes = {cell: [] for cell in cells}  # (major, minor) of each counted width
    errors = {}
    for start in range(0, len(units), GROUP_CHUNK):
        chunk = units[start:start + GROUP_CHUNK]
        fits = _chunk_fits(design, condition, n, chunk)
        usable = [(fit, unit_modes) for fit, (*_, unit_modes) in zip(fits, chunk) if fit is not None]
        levels = [[f_target(targets[mode], fit, n_focal=len(focal)) for mode in unit_modes]
                  for fit, unit_modes in usable]
        widths = iter(axis_widths_group([fit for fit, _ in usable], levels, focal, design.directions))
        for fit, (eps, _, unit_modes) in zip(fits, chunk):
            for mode, width in zip(unit_modes, repeat(None) if fit is None else next(widths)):
                cell = mode, eps
                if isinstance(width, Exception) and not isinstance(width, FungibleError):
                    errors.setdefault(cell, width)
                elif not (width is None or isinstance(width, FungibleError) or width.partial):
                    axes[cell].append((width.major, width.minor))

    def aggregate(mode, eps):
        counted, stats = axes[mode, eps], []  # mean and SD of the major, then the minor axis
        for xs in zip(*counted) if counted else ((), ()):
            stats += [float(np.mean(xs)) if xs else math.nan,
                      float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0]
        runs = 1 if mode in design.population_analysis else design.replications
        return StudyCell(condition, n, eps, mode, *stats, n_converged=len(counted),
                         n_excluded=runs - len(counted))

    return tuple(errors[cell] if cell in errors else aggregate(*cell) for cell in cells)


def run_cell(design: StudyDesign, condition: str, n: int, epsilon: float, mode: str) -> StudyCell:
    """One table cell: replicate draw -> fit -> exact axis widths, then mean
    and SD over the converged replications.

    Modes listed in ``design.population_analysis`` analyze the population
    covariance directly instead (one replication, SD exactly 0).  Failed,
    nonconverged, improper, and partial-sweep replications are excluded and
    counted; a width error the package does not declare is raised, and a
    ``(mode, epsilon)`` that is not a cell column of the design raises
    :class:`ValueError`.  The cell is read from its row's run, which is
    cached for the last row asked for.
    """
    n, epsilon = as_int(n, "n"), float(epsilon)
    cells = list(_cells(design))
    if (mode, epsilon) not in cells:
        raise ValueError(f"the design has no cell ({mode!r}, {epsilon!r}); its cells are {cells}")
    cell = _row(design, condition, n)[cells.index((mode, epsilon))]
    if isinstance(cell, Exception):
        raise cell
    return cell


def _cells(design: StudyDesign) -> dict:
    """(mode, epsilon) of every cell of a row, in table order, as dict keys:
    the :func:`_columns` entries of the modes the design targets."""
    modes = {target.mode for target in design.targets}
    return dict.fromkeys((mode, eps) for _, mode, eps, _ in _columns(design.epsilons) if mode in modes)


def _worker_count(n_jobs, threads):
    if threads is None:
        threads = os.cpu_count() or 1
    elif as_int(threads, "threads") < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return max(1, min(int(threads), n_jobs))


def run_design(design: StudyDesign, threads: int | None = None) -> StudyTable:
    """Run every cell of the design.  ``threads`` caps the worker processes
    (an integer of at least 1, :func:`~fungible.model.as_int`'s rule; raises
    :class:`ValueError` otherwise) and defaults to the processor count.
    Each worker process runs one (condition, n) row at a time, so its cells
    share the row's draws, fits and engine runs; the merge keeps the table
    order whatever the worker count, and the first cell error in that order
    is raised."""
    conditions = [condition for condition in design.conditions for _ in design.sample_sizes]
    sizes = [n for _ in design.conditions for n in design.sample_sizes]
    workers = _worker_count(len(sizes), threads)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_checked_row, repeat(design), conditions, sizes))
    else:
        rows = list(map(_checked_row, repeat(design), conditions, sizes))
    cells = tuple(cell for row in rows for cell in row)
    return StudyTable(design.conditions, design.sample_sizes, design.epsilons, cells)


def _checked_row(design: StudyDesign, condition: str, n: int) -> tuple:
    """:func:`_row`, raising the first error among its cells: a run stops at
    the first row that fails, as a pool cancels the rows not yet started."""
    row = _row(design, condition, n)
    for cell in row:
        if isinstance(cell, Exception):
            raise cell
    return row


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
