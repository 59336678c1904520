"""Covariance-structure models in RAM form.

A model is a pattern over two m x m matrices (m = #observed + #latent):
``A`` holds directed path coefficients ("structural effects") and ``S`` holds
variances and covariances (its free observed-diagonal entries are the
"unique variances").  Each entry is either a fixed value or one of ``q`` free
parameters, and the implied covariance of the observed variables is

    Sigma(theta) = F (I - A)^-1 S (I - A)^-T F^T

where ``F`` is the 0/1 filter selecting observed rows.  Variables are ordered
observed first, latent last, so ``F = [I_p  0]`` throughout.

The module also provides the four canonical population conditions used by the
simulation study (``Sigma1`` .. ``Sigma4``, a 2 x 2 grid of unique-variance
and structural-effect magnitudes) and controlled injection of population
misfit at a target RMSEA via an omitted residual covariance.

Sigma(theta) at a parameter vector is computed only by
:func:`implied_stack`, over a ``(k, q)`` stack of parameter vectors with a
per-row mask of the rows where (I - A)^-1 is usable and NaN at the others;
:func:`sigma_of_theta` is its one-row view.  When no directed path of A's
pattern has two steps, as in the builtin conditions
(:attr:`ModelSpec.single_step`), (I - A)^-1 is exactly I + A: there is no
solve, and (I - A) is never singular.  Every other model solves (I - A)
and tests each row for singularity.  The choice
is made once per model from its pattern.  On the plane through one
parameter vector along a few focal parameters, Sigma of a single-step model
is a polynomial in their offsets, whose coefficients
:func:`plane_polynomial` expands.  Parameter vectors are plain 1-d numpy
arrays of length ``q`` in ``theta_names`` order; they are validated once at
every entry point.  Every covariance matrix given to the package is checked
by one rule, :func:`as_cov`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np
# numpy.linalg's LAPACK gufuncs, without its wrappers.  Private numpy API; each
# gives numpy.linalg's bits, and NaN (invalid flag set, so call them under
# np.errstate) for a matrix that fails.  tests/test_discrepancy.py::TestLapack
# pins both.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky, inv as _inv, solve as _lu_solve

from ._solve import UNDEFINED, bracket_level, bracketed_root
from .errors import (
    NoConvergence,
    NotPositiveDefinite,
    RootAboveTolerance,
    SingularStructure,
    TargetUnreachable,
)

FIXED = -1

# Canonical magnitudes for the builtin conditions.  "Large"/"small" unique
# variances pin the loadings through the standardization lambda^2 + u = 1;
# the structural-effect level sets the two outcome paths gamma1, gamma2.
UNIQUE_VARIANCE_LEVELS = {"large_uv": 0.64, "small_uv": 0.36}
STRUCTURAL_EFFECT_LEVELS = {"small_se": 0.2, "large_se": 0.5}
# strong enough that the two-indicator factor stays well identified in
# samples of N = 200 (weaker values produce frequent Heywood cases)
FACTOR_COVARIANCE = 0.5

# each builtin condition's table label and its (unique-variance,
# structural-effect) levels
CONDITION_LABELS = {
    "Sigma1": ("large_uv", "small_se"),
    "Sigma2": ("small_uv", "small_se"),
    "Sigma3": ("large_uv", "large_se"),
    "Sigma4": ("small_uv", "large_se"),
}


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelSpec:
    """RAM pattern of a covariance-structure model.

    ``directed_fixed``/``directed_param`` describe A, ``symmetric_fixed``/
    ``symmetric_param`` describe S.  ``*_param`` entries hold a free-parameter
    index (into ``theta_names``) or ``FIXED``; the matching ``*_fixed`` entry
    then holds the fixed value.  ``start`` is an optional explicit start
    vector; when ``None`` the fitting default is used (free variances at half
    the observed diagonal, free effects at 0.1, free covariances at 0).
    """

    observed: tuple[str, ...]
    latent: tuple[str, ...]
    directed_fixed: np.ndarray
    directed_param: np.ndarray
    symmetric_fixed: np.ndarray
    symmetric_param: np.ndarray
    theta_names: tuple[str, ...]
    start: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "observed", tuple(self.observed))
        object.__setattr__(self, "latent", tuple(self.latent))
        object.__setattr__(self, "theta_names", tuple(self.theta_names))
        object.__setattr__(
            self, "directed_fixed", _frozen_array(self.directed_fixed, float)
        )
        object.__setattr__(
            self, "directed_param", _frozen_array(self.directed_param, np.int64)
        )
        object.__setattr__(
            self, "symmetric_fixed", _frozen_array(self.symmetric_fixed, float)
        )
        object.__setattr__(
            self, "symmetric_param", _frozen_array(self.symmetric_param, np.int64)
        )
        if self.start is not None:
            object.__setattr__(self, "start", _frozen_array(self.start, float))
        self._validate()

    def _validate(self):
        m = self.m
        names = self.observed + self.latent
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for label, arr in (
            ("directed_fixed", self.directed_fixed),
            ("directed_param", self.directed_param),
            ("symmetric_fixed", self.symmetric_fixed),
            ("symmetric_param", self.symmetric_param),
        ):
            if arr.shape != (m, m):
                raise ValueError(f"{label} must have shape ({m}, {m})")
            if not np.isfinite(arr).all():
                raise ValueError(f"{label} must be finite")
        if not np.array_equal(self.symmetric_fixed, self.symmetric_fixed.T):
            raise ValueError("symmetric pattern values are not symmetric")
        if not np.array_equal(self.symmetric_param, self.symmetric_param.T):
            raise ValueError("symmetric pattern parameter indices are not symmetric")
        q = self.q
        if q < 1:
            raise ValueError("model has no free parameters")
        used = set(self.directed_param[self.directed_param >= 0].tolist())
        used |= set(self.symmetric_param[self.symmetric_param >= 0].tolist())
        if used != set(range(q)):
            raise ValueError(
                "free-parameter indices must cover 0..q-1 exactly "
                f"(q={q}, used={sorted(used)})"
            )
        if self.df < 0:
            raise ValueError(f"negative degrees of freedom: df={self.df}")
        if self.start is not None:
            if self.start.shape != (q,):
                raise ValueError(f"start vector must have length {q}")
            if not np.all(np.isfinite(self.start)):
                raise ValueError("start vector must be finite")
        theta0 = self.start if self.start is not None else self.default_start()
        if not implied_stack(self, theta0[None])[0][0]:
            raise ValueError("(I - A) is singular at the model's default start vector")

    @property
    def n_observed(self) -> int:
        return len(self.observed)

    @property
    def m(self) -> int:
        return len(self.observed) + len(self.latent)

    @property
    def q(self) -> int:
        return len(self.theta_names)

    @property
    def df(self) -> int:
        p = self.n_observed
        return p * (p + 1) // 2 - self.q

    @cached_property
    def _eye(self) -> np.ndarray:
        """The read-only m x m identity."""
        return _frozen_array(np.eye(self.m), float)

    @cached_property
    def _free(self) -> tuple[tuple[int, int, int, bool], ...]:
        """Every free entry as (parameter, row, column, in S): A's entries,
        then S's upper triangle including the diagonal, each in row-major
        order.  The gradient sums the terms of a shared parameter in this
        order."""
        entries = []
        for in_s, param in ((False, self.directed_param), (True, self.symmetric_param)):
            free = np.triu(param >= 0) if in_s else param >= 0
            entries += [(int(param[i, j]), int(i), int(j), in_s) for i, j in zip(*np.nonzero(free))]
        return tuple(entries)

    @cached_property
    def _gradient_gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per free entry of :attr:`_free`, for the analytic gradient: its
        parameter, its flat position in the A entries' m x m matrix (read
        transposed) followed by the S entries', and its term's factor (1 on
        the S diagonal, else 2)."""
        params, rows, cols, in_s = np.array(self._free, dtype=int).reshape(-1, 4).T.copy()
        in_s = in_s.astype(bool)
        m = self.m
        flat = np.where(in_s, m * m + rows * m + cols, cols * m + rows)
        factor = np.where(in_s & (rows == cols), 1.0, 2.0)
        return params, flat, factor

    @cached_property
    def variance_param_mask(self) -> np.ndarray:
        """Boolean theta mask of parameters appearing on the S diagonal."""
        mask = np.zeros(self.q, dtype=bool)
        for k, i, j, in_s in self._free:
            if in_s and i == j:
                mask[k] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def _assembly(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A's then S's fixed values as one flat row, the flat positions of
        their free entries, and those entries' parameter indices."""
        fixed = np.concatenate([self.directed_fixed.ravel(), self.symmetric_fixed.ravel()])
        param = np.concatenate([self.directed_param.ravel(), self.symmetric_param.ravel()])
        free = np.flatnonzero(param >= 0)
        return fixed, free, param[free]

    @cached_property
    def single_step(self) -> bool:
        """Whether no directed path of A's pattern (free or fixed nonzero
        entries) has two steps, a self-loop included.  Then A @ A = 0 at
        every theta, (I - A)^-1 is I + A exactly, and Sigma on a focal plane
        is the polynomial :func:`plane_polynomial` expands."""
        edges = ((self.directed_param >= 0) | (self.directed_fixed != 0.0)).astype(int)
        return not (edges @ edges).any()

    def _assemble(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """(A, S) stacks at the rows of a validated ``(k, q)`` stack."""
        fixed, free, params = self._assembly
        mats = np.empty((len(thetas), len(fixed)))
        mats[:] = fixed
        mats[:, free] = thetas.take(params, axis=1)
        mats = mats.reshape(len(thetas), 2, self.m, self.m)
        return mats[:, 0], mats[:, 1]

    def default_start(self, s=None) -> np.ndarray:
        """Fitting start vector: free variances at half the matching observed
        diagonal (0.5 when no covariance is supplied or the variance is
        latent), free effects at 0.1, free covariances at 0."""
        start = np.zeros(self.q)
        p = self.n_observed
        for k, i, j, in_s in self._free:
            if not in_s:
                start[k] = 0.1
            elif i != j:
                start[k] = 0.0
            elif s is not None and i < p:
                start[k] = 0.5 * float(np.asarray(s)[i, i])
            else:
                start[k] = 0.5
        return start


def is_int(value) -> bool:
    """Whether a count is an integer: a :class:`numbers.Integral` other
    than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether a level is a real number: a finite :class:`numbers.Real`
    other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def as_int(value, name: str) -> int:
    """A count given to the package as an int; raises :class:`ValueError`
    naming ``name`` for a value that fails :func:`is_int`."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_theta(model: ModelSpec, theta) -> np.ndarray:
    """Validate and return theta as a length-q float array."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.q,):
        raise ValueError(
            f"parameter vector must have length {model.q}, got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameter vector must be finite")
    return theta


def as_cov(s, p: int | None = None, which: str = "s"):
    """The one check of a covariance matrix given to the package: square,
    ``p`` x ``p`` when ``p`` is given, finite, and symmetric within
    1e-10 max(1, max|s|).  Returns the exactly symmetrized matrix and its
    Cholesky factor.  Raises :class:`ValueError` naming ``which`` for a
    malformed matrix and :class:`NotPositiveDefinite` ``(which)`` when the
    Cholesky test fails."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.size == 0:
        raise ValueError(f"covariance matrix {which!r} must be square, got shape {s.shape}")
    if p is not None and len(s) != p:
        raise ValueError(f"covariance matrix {which!r} is {len(s)} x {len(s)}, model has p={p}")
    if not np.isfinite(s).all():
        raise ValueError(f"covariance matrix must be finite ({which!r} holds NaN or inf)")
    asym = np.abs(s - s.T).max()
    if asym > 1e-10 * max(1.0, np.abs(s).max()):
        raise ValueError(
            f"covariance matrix {which!r} is not symmetric (max asymmetry {asym:.2e})"
        )
    s = 0.5 * (s + s.T)
    with np.errstate(all="ignore"):
        chol = _cholesky(s)
    if np.isnan(chol).any():
        raise NotPositiveDefinite(which)
    return s, chol


def focal_indices(model: ModelSpec, focal) -> tuple[int, ...]:
    """Focal parameters, each given by name or by index into
    ``theta_names`` (an integer, :func:`as_int`'s rule, or a string of
    one), as indices.  Raises :class:`ValueError` naming any token that is
    neither; :func:`check_focal` checks the indices' range and
    distinctness."""
    indices = []
    for token in focal:
        token = token.strip() if isinstance(token, str) else token
        if token in model.theta_names:
            indices.append(model.theta_names.index(token))
            continue
        try:
            indices.append(int(token) if isinstance(token, str) else as_int(token, "focal index"))
        except ValueError:
            raise ValueError(f"unknown parameter {token!r}") from None
    return tuple(indices)


def check_focal(focal, q: int) -> tuple[int, ...]:
    """Focal parameter indices as a tuple; raises :class:`ValueError` for no
    index, one that fails :func:`as_int`, one outside 0..q-1 (a negative
    one included) or a repeated one."""
    focal = tuple(as_int(i, "focal index") for i in focal)
    if not focal:
        raise ValueError("focal parameters must not be empty")
    if not all(0 <= i < q for i in focal):
        raise ValueError(f"focal indices must lie in 0..{q - 1}, got {focal}")
    if len(set(focal)) != len(focal):
        raise ValueError(f"focal indices must be distinct, got {focal}")
    return focal


def implied_stack(model: ModelSpec, thetas):
    """Sigma(theta) at every row of a validated ``(k, q)`` parameter stack.

    Returns ``(ok, G, GSG', Sigma)``, G = (I - A)^-1, each stack with all k
    rows, NaN at the rows that the ``(k,)`` mask ``ok`` rejects.  For a
    ``single_step`` model G = I + A, finite at a finite theta, so every row
    is ok; otherwise G is the stacked (I - A) solve, and ``ok`` marks the
    rows whose solve is finite with residual at most 1e-8 max(1, max|G|).
    """
    a, s = model._assemble(thetas)
    eye = model._eye
    if model.single_step:
        g = eye + a
        ok = np.ones(len(thetas), dtype=bool)
    else:
        im_a = eye - a
        with np.errstate(all="ignore"):  # a singular row comes back as NaN
            g = _lu_solve(im_a, eye)
        resid = np.abs(im_a @ g - eye).max(axis=(1, 2))
        g_max = np.abs(g).max(axis=(1, 2))
        ok = np.isfinite(g_max) & (resid <= 1e-8 * np.maximum(1.0, g_max))
        g[~ok] = np.nan
    c = g @ s @ g.transpose(0, 2, 1)
    p = model.n_observed
    sigma = c[:, :p, :p]
    return ok, g, c, 0.5 * (sigma + sigma.transpose(0, 2, 1))


def sum_by_monomial(keys, terms):
    """Terms summed by monomial, ``keys[i]`` the focal positions term i
    multiplies: ``(monomials, coef)``, each monomial the ascending tuple of
    its positions (``()`` is 1), by degree and then tuple order, and their
    terms summed in the order given, symmetrized over the last two axes."""
    keys = [tuple(sorted(key)) for key in keys]
    monomials = sorted(set(keys), key=lambda key: (len(key), key))
    index = {key: j for j, key in enumerate(monomials)}
    coef = np.zeros((len(monomials),) + terms.shape[1:])
    np.add.at(coef, [index[key] for key in keys], terms)
    return monomials, 0.5 * (coef + coef.swapaxes(-1, -2))


def plane_polynomial(model: ModelSpec, theta, focal):
    """Sigma on the plane theta + E delta of a ``single_step`` model, where
    E places offsets delta of the parameters ``focal``, as a polynomial in
    delta.

    There G = I + A(theta) + sum_i delta_i A_i and S = S(theta) +
    sum_i delta_i S_i, with A_i and S_i the 0/1 patterns of focal parameter
    i (every entry it sits on), so Sigma = F G S G' F' has degree at most 3:
    2 when no focal parameter sits on S, 1 when none sits on A.  Returns
    the monomials and their ``(M, p, p)`` coefficients as
    :func:`sum_by_monomial` gives them, so 1 comes first, expanded exactly
    from the products of G(theta), S(theta) and the patterns (each pattern
    set by its entries, every product in one stacked matmul) and
    symmetrized as :func:`implied_stack` symmetrizes Sigma.
    """
    a, s = model._assemble(theta[None])
    p = model.n_observed

    def with_patterns(constant, param):
        # the constant, then each focal parameter's 0/1 pattern, set by its
        # entries, with their monomials
        keys, mats = [()], [constant]
        for i, k in enumerate(focal):
            entries = np.nonzero(param == k)
            if len(entries[0]):
                keys.append((i,))
                mats.append(np.zeros_like(constant))
                mats[-1][entries] = 1.0
        return keys, np.array(mats)

    # F G: the observed rows of I + A and of A's patterns
    g_keys, g = with_patterns((model._eye + a[0])[:p], model.directed_param[:p])
    s_keys, s_mats = with_patterns(s[0], model.symmetric_param)
    # every product (F G_a) S_b (F G_c)' in one stacked product
    terms = (g[:, None, None] @ s_mats[None, :, None]) @ g.swapaxes(1, 2)[None, None, :]
    keys = [ka + kb + kc for ka in g_keys for kb in s_keys for kc in g_keys]
    return sum_by_monomial(keys, terms.reshape(-1, p, p))


def sigma_of_theta(model: ModelSpec, theta) -> np.ndarray:
    """Model-implied covariance of the observed variables at theta.

    Returns an exactly symmetric p x p matrix; positive definite whenever
    S(theta) is positive definite and the model is recursive.  Raises
    :class:`SingularStructure` when (I - A) is numerically singular.
    """
    ok, _, _, sigma = implied_stack(model, as_theta(model, theta)[None])
    if not ok[0]:
        raise SingularStructure("(I - A) is numerically singular")
    return sigma[0]


# ---------------------------------------------------------------------------
# Model construction and JSON interchange


def _resolve(name_to_index, entry, key):
    if key not in entry:
        raise ValueError(f"entry {entry!r} lacks the key {key!r}")
    value = entry[key]
    if is_int(value):
        idx = int(value)
        if not 0 <= idx < len(name_to_index):
            raise ValueError(f"variable index {idx} out of range")
        return idx
    try:
        return name_to_index[value]
    except KeyError:
        raise ValueError(f"unknown variable {value!r}") from None


def make_model(observed, latent, directed, symmetric, start_values=None) -> ModelSpec:
    """Build a :class:`ModelSpec` from entry lists.

    ``directed`` and ``symmetric`` hold dicts with keys ``row``, ``col`` and
    either ``value`` (fixed) or ``param`` (free, a parameter name).  Rows and
    columns are variable names (or integer indices into observed+latent).
    Free-parameter indices are assigned in order of first appearance, directed
    entries before symmetric ones.  ``start_values`` optionally lists
    ``{"param": name, "value": v}`` overrides for the default start.
    """
    observed = tuple(str(v) for v in observed)
    latent = tuple(str(v) for v in latent)
    names = observed + latent
    if len(set(names)) != len(names):
        raise ValueError("variable names must be unique")
    index = {name: i for i, name in enumerate(names)}
    m = len(names)

    d_fixed = np.zeros((m, m))
    d_param = np.full((m, m), FIXED, dtype=np.int64)
    s_fixed = np.zeros((m, m))
    s_param = np.full((m, m), FIXED, dtype=np.int64)
    param_index: dict[str, int] = {}

    def fixed_value(entry, i, j):
        value = float(entry["value"])
        if not math.isfinite(value):
            raise ValueError(f"the fixed value at ({names[i]}, {names[j]}) must be finite, got {value}")
        return value

    def param_id(name):
        name = str(name)
        if name not in param_index:
            param_index[name] = len(param_index)
        return param_index[name]

    for entry in directed:
        i = _resolve(index, entry, "row")
        j = _resolve(index, entry, "col")
        if d_param[i, j] != FIXED or d_fixed[i, j] != 0.0:
            raise ValueError(f"duplicate directed entry at ({i}, {j})")
        if "param" in entry:
            d_param[i, j] = param_id(entry["param"])
        elif "value" in entry:
            d_fixed[i, j] = fixed_value(entry, i, j)
        else:
            raise ValueError("directed entry needs 'param' or 'value'")

    for entry in symmetric:
        i = _resolve(index, entry, "row")
        j = _resolve(index, entry, "col")
        if "param" in entry:
            k = param_id(entry["param"])
            for r, c in ((i, j), (j, i)):
                if s_param[r, c] not in (FIXED, k):
                    raise ValueError(f"conflicting symmetric entry at ({r}, {c})")
                s_param[r, c] = k
        elif "value" in entry:
            v = fixed_value(entry, i, j)
            for r, c in ((i, j), (j, i)):
                if s_param[r, c] != FIXED or (s_fixed[r, c] not in (0.0, v)):
                    raise ValueError(f"conflicting symmetric entry at ({r}, {c})")
                s_fixed[r, c] = v
        else:
            raise ValueError("symmetric entry needs 'param' or 'value'")

    theta_names = tuple(sorted(param_index, key=param_index.get))
    start = None
    if start_values:
        probe = ModelSpec(
            observed, latent, d_fixed, d_param, s_fixed, s_param, theta_names
        )
        start = probe.default_start()
        for item in start_values:
            if "param" not in item or "value" not in item:
                raise ValueError(f"start value {item!r} needs 'param' and 'value'")
            name = str(item["param"])
            if name not in param_index:
                raise ValueError(f"start value for unknown parameter {name!r}")
            start[param_index[name]] = float(item["value"])
    return ModelSpec(
        observed, latent, d_fixed, d_param, s_fixed, s_param, theta_names, start
    )


def load_model(source) -> ModelSpec:
    """Load a model from a dict, or from a JSON file given by its path (a
    ``str`` or :class:`~pathlib.Path`; a string is always read as a path).

    The document schema is described in docs/model-format.md.
    """
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"a model document must be a JSON object, got {type(doc).__name__}")
    for key in ("observed", "latent"):
        if key not in doc:
            raise ValueError(f"the model document lacks the required key {key!r}")
    for key in ("observed", "latent", "directed", "symmetric", "start_values"):
        value = doc.get(key, [])
        if not isinstance(value, list) and not (key == "start_values" and value is None):
            raise ValueError(f"the model key {key!r} must be a list, got {type(value).__name__}")
        if key not in ("observed", "latent") and not all(isinstance(e, dict) for e in value or []):
            raise ValueError(f"every entry of the model key {key!r} must be a JSON object")
    return make_model(
        doc["observed"],
        doc["latent"],
        doc.get("directed", []),
        doc.get("symmetric", []),
        doc.get("start_values"),
    )


def model_to_dict(model: ModelSpec) -> dict:
    """Inverse of :func:`load_model` (zero fixed entries are omitted)."""
    names = model.observed + model.latent

    def entries(in_s, fixed):
        out = [
            {"row": names[i], "col": names[j], "param": model.theta_names[k]}
            for k, i, j, entry_in_s in model._free
            if entry_in_s == in_s
        ]
        out += [
            {"row": names[i], "col": names[j], "value": float(fixed[i, j])}
            for i, j in zip(*np.nonzero(fixed))
        ]
        return out

    doc = {
        "observed": list(model.observed),
        "latent": list(model.latent),
        "directed": entries(False, model.directed_fixed),
        "symmetric": entries(True, np.triu(model.symmetric_fixed)),
    }
    if model.start is not None:
        doc["start_values"] = [
            {"param": name, "value": float(v)}
            for name, v in zip(model.theta_names, model.start)
        ]
    return doc


def save_model(model: ModelSpec, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Population conditions


@dataclass(frozen=True)
class PopulationCondition:
    """A population covariance plus the analysis model fitted to it.

    ``epsilon_pop`` is the population misfit on the RMSEA scale;
    ``misfit_pair`` designates the observed pair whose omitted residual
    covariance absorbs misfit perturbations, and ``perturbation`` records the
    magnitude already applied to ``sigma_pop``.  ``sigma_pop`` passes
    :func:`as_cov` (as ``"sigma_pop"``) and is stored symmetrized.
    """

    label: str
    model: ModelSpec
    theta_star: np.ndarray
    sigma_pop: np.ndarray
    epsilon_pop: float = 0.0
    misfit_pair: tuple[int, int] | None = None
    perturbation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta_star", _frozen_array(self.theta_star, float))
        as_theta(self.model, self.theta_star)
        p = self.model.n_observed
        sigma = as_cov(self.sigma_pop, p, which="sigma_pop")[0]
        object.__setattr__(self, "sigma_pop", _frozen_array(sigma, float))
        if not (is_real(self.epsilon_pop) and self.epsilon_pop >= 0.0):
            raise ValueError(f"epsilon_pop must be finite and nonnegative, got {self.epsilon_pop!r}")
        if self.misfit_pair is not None:
            try:
                i, j = self.misfit_pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"misfit_pair must be two observed indices, got {self.misfit_pair!r}"
                ) from None
            i, j = as_int(i, "misfit_pair index"), as_int(j, "misfit_pair index")
            if not (0 <= i < p and 0 <= j < p and i != j):
                raise ValueError("misfit_pair must be two distinct observed indices")
            object.__setattr__(self, "misfit_pair", (i, j))


def canonical_model() -> ModelSpec:
    """The desk-scale analysis model behind the builtin conditions.

    Six standardized observed variables and two correlated factors: f1 is
    measured by x1-x3, f2 by x4-x5, and x6 is an observed outcome regressed
    on both factors.  The two outcome paths gamma1 and gamma2 are the primary
    structural effects (the default focal pair downstream).
    """
    observed = ["x1", "x2", "x3", "x4", "x5", "x6"]
    latent = ["f1", "f2"]
    directed = [
        {"row": "x1", "col": "f1", "param": "lam1"},
        {"row": "x2", "col": "f1", "param": "lam2"},
        {"row": "x3", "col": "f1", "param": "lam3"},
        {"row": "x4", "col": "f2", "param": "lam4"},
        {"row": "x5", "col": "f2", "param": "lam5"},
        {"row": "x6", "col": "f1", "param": "gamma1"},
        {"row": "x6", "col": "f2", "param": "gamma2"},
    ]
    symmetric = [{"row": v, "col": v, "param": f"u{k}"} for k, v in enumerate(observed, 1)]
    symmetric += [
        {"row": "f1", "col": "f1", "value": 1.0},
        {"row": "f2", "col": "f2", "value": 1.0},
        {"row": "f1", "col": "f2", "param": "phi"},
    ]
    return make_model(observed, latent, directed, symmetric)


# observed pair whose residual covariance is fixed to zero in the analysis
# model and carries the misfit perturbation (x1 with x4, across factors)
MISFIT_PAIR = (0, 3)


def condition_from_label(label: str) -> PopulationCondition:
    """Builtin condition by its table label (``Sigma1`` .. ``Sigma4``), the
    canonical population condition at the label's levels in
    :data:`CONDITION_LABELS`.

    The construction is standardized: every observed variance is exactly 1,
    loadings are sqrt(1 - u), and the outcome's unique variance absorbs the
    variance explained by the two structural effects.  ``epsilon_pop`` is 0
    and ``sigma_pop`` equals ``sigma_of_theta(model, theta_star)``.
    """
    try:
        uv, se = CONDITION_LABELS[label]
    except KeyError:
        raise ValueError(f"unknown condition label {label!r}") from None
    u = UNIQUE_VARIANCE_LEVELS[uv]
    g = STRUCTURAL_EFFECT_LEVELS[se]
    phi = FACTOR_COVARIANCE
    lam = math.sqrt(1.0 - u)
    u6 = 1.0 - (2.0 * g * g + 2.0 * g * g * phi)

    model = canonical_model()
    theta = dict.fromkeys(model.theta_names, 0.0)
    for name in ("lam1", "lam2", "lam3", "lam4", "lam5"):
        theta[name] = lam
    theta["gamma1"] = theta["gamma2"] = g
    for name in ("u1", "u2", "u3", "u4", "u5"):
        theta[name] = u
    theta["u6"] = u6
    theta["phi"] = phi
    theta_star = np.array([theta[name] for name in model.theta_names])
    sigma_pop = sigma_of_theta(model, theta_star)
    return PopulationCondition(
        label=label,
        model=model,
        theta_star=theta_star,
        sigma_pop=sigma_pop,
        epsilon_pop=0.0,
        misfit_pair=MISFIT_PAIR,
    )


def misspecify_to_epsilon(cond: PopulationCondition, epsilon_target: float) -> PopulationCondition:
    """Perturb a condition's population covariance to an exact RMSEA misfit.

    Adds magnitude t to the residual covariance at ``cond.misfit_pair`` and
    solves for t so that fitting the analysis model to the perturbed
    covariance yields sqrt(F0/df) = ``epsilon_target`` within 1e-6: the
    contour rays' walk (:func:`~fungible._solve.bracket_level`) doubles t
    from 0.05 and bisects back to the edge of the region where the perturbed
    covariance is positive definite and cleanly fittable, then a safeguarded
    1-d root search solves inside the bracket.  Raises
    :class:`TargetUnreachable` when the target misfit lies beyond that edge
    or is not reached in 60 doublings, and :class:`NotPositiveDefinite` when
    a fit fails strictly inside the root bracket.
    """
    from .fit import population_rmsea

    if not (is_real(epsilon_target) and epsilon_target >= 0.0):
        raise ValueError(f"epsilon_target must be finite and nonnegative, got {epsilon_target!r}")
    if cond.model.df < 1:
        raise ValueError("df must be at least 1")
    if epsilon_target == 0.0:
        return cond
    if cond.misfit_pair is None:
        raise ValueError("condition has no designated perturbation direction")

    i, j = cond.misfit_pair
    p = cond.model.n_observed
    direction = np.zeros((p, p))
    direction[i, j] = direction[j, i] = 1.0
    base = np.asarray(cond.sigma_pop)

    def gaps(ts, _which):
        # NaN past the region where the perturbed covariance is pd and
        # cleanly fittable
        out = np.full(len(ts), np.nan)
        for k, t in enumerate(ts):
            try:
                out[k] = population_rmsea(cond.model, base + t * direction) - epsilon_target
            except (NotPositiveDefinite, NoConvergence):
                pass
        return out

    g_lo = population_rmsea(cond.model, base) - epsilon_target
    if g_lo > 0:
        raise ValueError(
            "condition already exceeds the target misfit; start from the base condition"
        )
    lo, hi, g_lo, g_hi, escaped = bracket_level(
        gaps, [0.0], [0.05], [g_lo], doublings=60, edge_iters=40
    )
    if escaped[0]:
        if np.isnan(g_hi[0]):
            raise TargetUnreachable(
                f"no perturbation in the search bracket attains RMSEA {epsilon_target}"
            )
        raise TargetUnreachable(
            f"population covariance loses positive definiteness before "
            f"RMSEA {epsilon_target} is reached (max attainable "
            f"{g_hi[0] + epsilon_target:.4f})"
        )

    roots, fault = bracketed_root(gaps, lo, hi, g_lo, g_hi, f_tol=2e-7)
    if fault[0] == UNDEFINED:
        raise NotPositiveDefinite(
            "s", "the perturbed covariance cannot be fit inside the misfit root bracket"
        )
    if fault[0]:
        raise RootAboveTolerance("misfit root residual above tolerance 2.0e-07")
    t = roots[0]
    return replace(
        cond,
        sigma_pop=base + t * direction,
        epsilon_pop=float(epsilon_target),
        perturbation=float(t),
    )

