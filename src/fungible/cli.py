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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .contour import (
    CONFIDENCE,
    DELTA_F,
    EPS_TILDE,
    ContourTarget,
    _sweep_directions,
    axis_widths_exact,
    axis_widths_quadratic,
    f_target,
    sweep_contour,
)
from .errors import FungibleError
from .fit import FitOptions, fit_ml
from .model import load_model
from .simstudy import (
    DEFAULT_TARGETS,
    StudyDesign,
    check_fixture_scaling,
    emit_table,
    run_design,
)

_MODE_NAMES = {"delta-f": DELTA_F, "eps-tilde": EPS_TILDE, "confset": CONFIDENCE}


def _read_cov(path):
    s = np.loadtxt(path, delimiter=",", ndmin=2)
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"covariance file {path} is not square: {s.shape}")
    if np.abs(s - s.T).max() > 1e-10:
        raise ValueError(f"covariance file {path} is not symmetric within 1e-10")
    return 0.5 * (s + s.T)


def _write(text, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _check_files(args, names):
    for name in names:
        path = getattr(args, name, None)
        if path and not Path(path).exists():
            print(f"usage error: file not found: {path}", file=sys.stderr)
            return False
    return True


def _fit_options(args):
    start = None
    if getattr(args, "start", None):
        start = np.loadtxt(args.start, delimiter=",").reshape(-1)
    return FitOptions(max_iter=args.max_iter, grad_tol=args.grad_tol, start=start)


def _do_fit(args):
    model = load_model(args.model)
    s = _read_cov(args.cov)
    return fit_ml(model, s, n=args.n, opts=_fit_options(args))


def _parse_focal(spec, model):
    focal = []
    for token in spec.split(","):
        token = token.strip()
        if token in model.theta_names:
            focal.append(model.theta_names.index(token))
        else:
            focal.append(int(token))
    return tuple(focal)


def cmd_fit(args):
    if not _check_files(args, ("model", "cov", "start")):
        return 2
    res = _do_fit(args)
    lines = ["quantity,name,value"]
    for name, value in zip(res.model.theta_names, res.theta_hat):
        lines.append(f"param,{name},{value!r}")
    lines.append(f"stat,f_hat,{res.f_hat!r}")
    lines.append(f"stat,rmsea,{res.indices.rmsea_sample!r}")
    lines.append(f"stat,grad_norm,{res.grad_norm!r}")
    lines.append(f"stat,iterations,{res.iterations}")
    lines.append(f"stat,converged,{res.converged}")
    lines.append(f"stat,improper,{res.improper}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_fpe(args):
    if not _check_files(args, ("model", "cov", "start")):
        return 2
    res = _do_fit(args)
    focal = _parse_focal(args.focal, res.model)
    target = ContourTarget(
        mode=_MODE_NAMES[args.mode],
        delta_f=args.delta_f,
        epsilon_tilde=args.eps_tilde,
        confidence=args.level,
        scaling=args.scaling,
    )
    level = f_target(target, res, n_focal=len(focal))
    header = ["angle", "r"] + [f"theta_{k + 1}" for k in range(res.model.q)] + ["f_value"]
    lines = [",".join(header)]
    if level > res.f_hat:
        points = sweep_contour(res, level, focal, args.directions)
        thetas = np.array([pt.theta for pt in points]).reshape(len(points), res.model.q)
        for pt, f_value in zip(points, res.objectives(thetas)):
            row = [repr(pt.angle), repr(pt.r)]
            row += [repr(float(v)) for v in pt.theta]
            row.append(repr(float(f_value)))
            lines.append(",".join(row))
    else:
        angles, _ = _sweep_directions(focal, args.directions)
        for angle in angles:
            row = [repr(float(angle)), repr(0.0)]
            row += [repr(float(v)) for v in res.theta_hat]
            row.append(repr(res.f_hat))
            lines.append(",".join(row))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_confset(args):
    if not _check_files(args, ("model", "cov", "start")):
        return 2
    res = _do_fit(args)
    focal = _parse_focal(args.focal, res.model)
    target = ContourTarget(mode=CONFIDENCE, confidence=args.level)
    level = f_target(target, res, n_focal=len(focal))
    quad = axis_widths_quadratic(res, level, focal)
    exact = axis_widths_exact(res, level, focal, args.directions)
    lines = [
        "method,major,minor",
        f"quadratic,{quad.major!r},{quad.minor!r}",
        f"exact,{exact.major!r},{exact.minor!r}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _design_from_config(doc, seed=None):
    kwargs = {}
    for key in ("conditions", "sample_sizes", "epsilons", "replications",
                "seed", "directions", "focal", "population_analysis"):
        if key in doc:
            kwargs[key] = doc[key]
    # per default target: config key -> the ContourTarget field it overrides
    given = doc.get("targets", {})
    renames = ({"confidence": "confidence"}, {"eps_tilde": "epsilon_tilde"},
               {"delta_f": "delta_f", "delta_f_scaling": "scaling"})
    kwargs["targets"] = tuple(
        replace(default, **{field: given[key] for key, field in rename.items() if key in given})
        for default, rename in zip(DEFAULT_TARGETS, renames)
    )
    if seed is not None:
        kwargs["seed"] = seed
    return StudyDesign(**kwargs)


def cmd_study(args):
    if not _check_files(args, ("config",)):
        return 2
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    design = _design_from_config(doc, seed=args.seed)
    table = run_design(design, threads=args.threads)
    _write(emit_table(table, args.format), args.out)
    return 0


def cmd_table_check(args):
    if args.fixture != "paper":
        print(f"usage error: unknown fixture {args.fixture!r}", file=sys.stderr)
        return 2
    ok, lines = check_fixture_scaling()
    _write("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _add_fit_arguments(sub):
    sub.add_argument("--model", required=True, help="model JSON file")
    sub.add_argument("--cov", required=True, help="covariance CSV (p x p, no header)")
    sub.add_argument("--n", required=True, type=int, help="sample size")
    sub.add_argument("--max-iter", type=int, default=500)
    sub.add_argument("--grad-tol", type=float, default=1e-6)
    sub.add_argument("--start", help="start vector file (one value per line)")
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
    sub.add_argument("--delta-f", type=float, default=0.05)
    sub.add_argument("--eps-tilde", type=float, default=0.005)
    sub.add_argument("--level", type=float, default=0.95)
    sub.add_argument("--scaling", choices=("likelihood", "raw", "relative"),
                     default="likelihood")
    sub.add_argument("--focal", default="gamma1,gamma2",
                     help="two focal parameters, by name or index (comma separated)")
    sub.add_argument("--directions", type=int, default=360)
    sub.set_defaults(func=cmd_fpe)

    sub = subs.add_parser("confset", help="confidence-set axis widths")
    _add_fit_arguments(sub)
    sub.add_argument("--level", type=float, default=0.95)
    sub.add_argument("--focal", default="gamma1,gamma2")
    sub.add_argument("--directions", type=int, default=360)
    sub.set_defaults(func=cmd_confset)

    sub = subs.add_parser("study", help="run the Monte Carlo study")
    sub.add_argument("--config", help="study design JSON (defaults apply if omitted)")
    sub.add_argument("--seed", type=int, help="override the design seed")
    sub.add_argument("--format", choices=("csv", "markdown"), default="csv")
    sub.add_argument("--threads", type=int, help="worker cap (default: FC_THREADS)")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.set_defaults(func=cmd_study)

    sub = subs.add_parser("table-check", help="check the embedded reference table")
    sub.add_argument("--fixture", default="paper")
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
