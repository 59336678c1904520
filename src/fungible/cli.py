"""Command-line front end.

Subcommands: ``fit`` (ML estimates for one covariance), ``fpe`` (contour
points), ``confset`` (confidence-set axis widths), ``study`` (the Monte Carlo
study), and ``table-check`` (internal-consistency check of the embedded
reference table).  Numeric output is CSV (or markdown for ``study``) written
to ``--out`` or standard out; nothing else is written anywhere.

Exit codes: 0 success, 1 domain errors (one-line diagnostic on stderr),
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .contour import (
    CONFIDENCE,
    DELTA_F,
    EPS_TILDE,
    N_DIRECTIONS,
    SCALINGS,
    ContourTarget,
    axis_widths_exact,
    axis_widths_quadratic,
    f_target,
    sweep_contour,
)
from .discrepancy import rmsea_from_f
from .errors import FungibleError
from .fit import FitOptions, fit_ml
from .model import focal_indices, load_model
from .simstudy import (
    DEFAULT_TARGETS,
    StudyDesign,
    check_fixture_scaling,
    emit_table,
    run_design,
)

_MODE_NAMES = {"delta-f": DELTA_F, "eps-tilde": EPS_TILDE, "confset": CONFIDENCE}


def _write(text, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _check_files(args, names):
    """Check, before any work, that the input files exist and that ``--out``
    names a file in an existing directory; prints one usage error if not."""
    for name in names:
        path = getattr(args, name, None)
        if path and not Path(path).exists():
            print(f"usage error: file not found: {path}", file=sys.stderr)
            return False
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        print(f"usage error: --out must name a file in an existing directory: {args.out}",
              file=sys.stderr)
        return False
    return True


def _read_numbers(path, ndmin):
    """The numbers of a comma-separated file; raises :class:`ValueError`
    naming the file when it holds none or a cell or row numpy cannot read.
    numpy's advice to pass ``usecols`` is dropped: the CLI has no such
    option."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            values = np.loadtxt(path, delimiter=",", ndmin=ndmin)
        except ValueError as exc:
            raise ValueError(f"{path}: {str(exc).partition('; use `usecols`')[0]}") from None
    if values.size == 0:
        raise ValueError(f"no numbers in {path}")
    return values


def _do_fit(args):
    model = load_model(args.model)
    s = _read_numbers(args.cov, ndmin=2)
    if args.start:
        model = replace(model, start=_read_numbers(args.start, ndmin=1).reshape(-1))
    opts = FitOptions(max_iter=args.max_iter, grad_tol=args.grad_tol)
    return fit_ml(model, s, n=args.n, opts=opts)


def _number(value):
    """The one format of a numeric CSV cell: the shortest round-trip repr."""
    return repr(float(value))


def cmd_fit(args):
    if not _check_files(args, ("model", "cov", "start")):
        return 2
    res = _do_fit(args)
    stats = {"f_hat": res.f_hat, "rmsea": rmsea_from_f(res.f_hat, res.df, res.n),
             "grad_norm": res.grad_norm}
    lines = ["quantity,name,value"]
    lines += [f"param,{name},{_number(v)}" for name, v in zip(res.model.theta_names, res.theta_hat)]
    lines += [f"stat,{name},{_number(v)}" for name, v in stats.items()]
    lines += [f"stat,{name},{getattr(res, name)}" for name in ("iterations", "converged", "improper")]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_fpe(args):
    if not _check_files(args, ("model", "cov", "start")):
        return 2
    res = _do_fit(args)
    focal = focal_indices(res.model, args.focal.split(","))
    target = ContourTarget(
        mode=_MODE_NAMES[args.mode],
        delta_f=args.delta_f,
        epsilon_tilde=args.eps_tilde,
        confidence=args.level,
        scaling=args.scaling,
    )
    level = f_target(target, res, n_focal=len(focal))
    angles, radii, thetas = sweep_contour(res, level, focal, args.directions)
    header = ["angle", "r"] + [f"theta_{k + 1}" for k in range(res.model.q)] + ["f_value"]
    rows = np.column_stack([angles, radii, thetas, res.objectives(thetas)])
    lines = [",".join(header)] + [",".join(map(_number, row)) for row in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_confset(args):
    if not _check_files(args, ("model", "cov", "start")):
        return 2
    res = _do_fit(args)
    focal = focal_indices(res.model, args.focal.split(","))
    target = ContourTarget(mode=CONFIDENCE, confidence=args.level)
    level = f_target(target, res, n_focal=len(focal))
    quad = axis_widths_quadratic(res, level, focal)
    exact = axis_widths_exact(res, level, focal, args.directions)
    lines = [
        "method,major,minor",
        f"quadratic,{_number(quad.major)},{_number(quad.minor)}",
        f"exact,{_number(exact.major)},{_number(exact.minor)}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


_DESIGN_KEYS = tuple(field.name for field in fields(StudyDesign))
# per contour mode: config key -> the ContourTarget field it overrides
_TARGET_KEYS = {CONFIDENCE: {"confidence": "confidence"},
                EPS_TILDE: {"eps_tilde": "epsilon_tilde"},
                DELTA_F: {"delta_f": "delta_f", "delta_f_scaling": "scaling"}}


def _known_keys(doc, known, what):
    """Raise :class:`ValueError` unless ``doc`` is a dict whose keys are all
    in ``known``, naming the unknown ones."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def _target_from_config(default, given):
    """``default`` with the fields that the config keys in ``given`` name
    replaced one key at a time, so that a bad value's error names its key."""
    target = default
    for key, field in _TARGET_KEYS[default.mode].items():
        if key in given:
            try:
                target = replace(target, **{field: given[key]})
            except ValueError as exc:
                raise ValueError(f"study config targets key {key!r}: {exc}") from None
    return target


def _design_from_config(doc, seed=None):
    _known_keys(doc, _DESIGN_KEYS, "study config")
    given = doc.get("targets", {})
    _known_keys(given, [key for rename in _TARGET_KEYS.values() for key in rename],
                "study config targets")
    kwargs = {key: value for key, value in doc.items() if key != "targets"}
    kwargs["targets"] = tuple(_target_from_config(default, given) for default in DEFAULT_TARGETS)
    if seed is not None:
        kwargs["seed"] = seed
    return StudyDesign(**kwargs)


def cmd_study(args):
    if not _check_files(args, ("config",)):
        return 2
    if args.threads is not None and args.threads < 1:
        print(f"usage error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return 2
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    design = _design_from_config(doc, seed=args.seed)
    table = run_design(design, threads=args.threads)
    _write(emit_table(table, args.format), args.out)
    return 0


def cmd_table_check(args):
    if not _check_files(args, ()):
        return 2
    ok, lines = check_fixture_scaling()
    _write("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _add_fit_arguments(sub):
    sub.add_argument("--model", required=True, help="model JSON file")
    sub.add_argument("--cov", required=True, help="covariance CSV (p x p, no header)")
    sub.add_argument("--n", required=True, type=int, help="sample size")
    sub.add_argument("--max-iter", type=int, default=FitOptions.max_iter)
    sub.add_argument("--grad-tol", type=float, default=FitOptions.grad_tol)
    sub.add_argument("--start", help="start vector file (one value per line); "
                     "replaces the model's start vector")
    sub.add_argument("--out", help="output file (default: stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fungible",
        description="ML covariance-structure fitting, fungible-parameter "
        "contours, and the axis-width simulation study.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("fit", help="fit a model to a covariance matrix")
    _add_fit_arguments(sub)
    sub.set_defaults(func=cmd_fit)

    sub = subs.add_parser("fpe", help="sample fungible parameter estimates")
    _add_fit_arguments(sub)
    sub.add_argument("--mode", choices=sorted(_MODE_NAMES), default="delta-f")
    sub.add_argument("--delta-f", type=float, default=ContourTarget.delta_f)
    sub.add_argument("--eps-tilde", type=float, default=ContourTarget.epsilon_tilde)
    sub.add_argument("--level", type=float, default=ContourTarget.confidence)
    sub.add_argument("--scaling", choices=SCALINGS, default=ContourTarget.scaling)
    sub.add_argument("--focal", default=",".join(StudyDesign.focal),
                     help="two focal parameters, by name or index (comma separated)")
    sub.add_argument("--directions", type=int, default=N_DIRECTIONS)
    sub.set_defaults(func=cmd_fpe)

    sub = subs.add_parser("confset", help="confidence-set axis widths")
    _add_fit_arguments(sub)
    sub.add_argument("--level", type=float, default=ContourTarget.confidence)
    sub.add_argument("--focal", default=",".join(StudyDesign.focal))
    sub.add_argument("--directions", type=int, default=N_DIRECTIONS)
    sub.set_defaults(func=cmd_confset)

    sub = subs.add_parser("study", help="run the Monte Carlo study")
    sub.add_argument("--config", help="study design JSON (defaults apply if omitted)")
    sub.add_argument("--seed", type=int, help="override the design seed")
    sub.add_argument("--format", choices=("csv", "markdown"), default="csv")
    sub.add_argument("--threads", type=int,
                     help="worker process cap (default: the processor count)")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.set_defaults(func=cmd_study)

    sub = subs.add_parser("table-check", help="check the embedded reference table")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.set_defaults(func=cmd_table_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FungibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
