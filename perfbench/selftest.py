#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting:

    python3 perfbench/selftest.py

1. A declared domain error is counted by its class name: a fit allowed one
   iteration raises NoConvergence and counts as ``NoConvergence``.
2. An error the package does not declare is counted as ``other_error``, not
   raised: ``discrepancy.f_ml`` can raise numpy's LinAlgError from
   ``np.linalg.solve`` after its Cholesky check passed, and neither the
   contour solver's domain-edge bisection nor ``run_cell`` catches it.  The
   case below (Sigma3, N=50, epsilon 0.09, replication 0 of seed 1, raw
   delta_f 2.0, exact widths at 90 directions) hits it.  Once the package
   handles that case, part 2 reports the new outcome and fails, and this
   test must be updated with the fix.

Exits 0 when both outcomes are as stated.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    if not run.import_package():
        return 2
    import workloads
    from fungible import contour, fit, simstudy
    from fungible.contour import DELTA_F, ContourTarget

    def draw_and_fit(opts=None):
        cond = simstudy.condition_at("Sigma3", 0.09)
        rng = simstudy.replication_rng(1, "Sigma3", 50, 0.09, 0)
        s = simstudy.wishart_sample(cond.sigma_pop, 50, rng)
        return fit.fit_ml(cond.model, s, n=50, opts=opts), workloads.focal_of(cond.model)

    def one_iteration_fit():
        draw_and_fit(fit.FitOptions(max_iter=1))
        return "ok"

    def raw_delta_f_widths():
        res, focal = draw_and_fit()
        target = ContourTarget(mode=DELTA_F, delta_f=2.0, scaling="raw")
        level = contour.f_target(target, res, n_focal=len(focal))
        contour.axis_widths_exact(res, level, focal, 90)
        return "ok"

    tally = workloads.Tally()
    cases = (
        ("declared error", one_iteration_fit, "NoConvergence", None),
        ("undeclared LinAlgError", raw_delta_f_widths, "other_error", "LinAlgError"),
    )
    passed = True
    for label, unit, want, error_name in cases:
        got = tally.run(unit)
        ok = got == want and (error_name is None or error_name in (tally.first_error or ""))
        passed &= ok
        print(f"{'PASS' if ok else 'FAIL'}: {label}: counted as {got}, expected {want}")
    print(f"attempted {tally.attempted}, outcomes {tally.outcomes}, failed {tally.failed}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
