"""Span tracing of the fungible package from outside it.

The tracer replaces public functions at the module attribute their callers
look up (``fungible.fit.f_ml`` is what ``FitResult.objective`` and the line
search call, ``fungible.simstudy.fit_ml`` is what ``run_cell`` calls) with a
wrapper that records one span per call: name, parent span, start and end.
Spans stay in memory until :meth:`Tracer.write`.  Nothing inside ``src/``
changes; a site that a later version of the package no longer has is skipped,
and its metrics then read 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

import fungible.contour
import fungible.discrepancy
import fungible.fit
import fungible.model
import fungible.simstudy
from fungible.errors import NoConvergence

# (span name, modules whose attribute of that name is replaced).  Every site
# listed for one name gets the same wrapper, so each call is one span.
SITES = (
    ("model.misspecify_to_epsilon", "misspecify_to_epsilon", (fungible.model, fungible.simstudy)),
    ("fit.population_rmsea", "population_rmsea", (fungible.fit,)),
    ("fit.fit_ml", "fit_ml", (fungible.fit, fungible.simstudy)),
    ("discrepancy.f_ml", "f_ml", (fungible.discrepancy, fungible.fit)),
    ("discrepancy.hessian", "hessian", (fungible.discrepancy, fungible.fit)),
    ("discrepancy.gradient", "gradient", (fungible.discrepancy,)),
    ("contour.axis_widths_exact", "axis_widths_exact", (fungible.contour, fungible.simstudy)),
    ("contour.axis_widths_quadratic", "axis_widths_quadratic", (fungible.contour,)),
    ("contour.sweep_contour", "sweep_contour", (fungible.contour,)),
    ("_solve.bracketed_root", "bracketed_root", (fungible.contour, fungible.model)),
    ("_solve.golden_max", "golden_max", (fungible.contour,)),
    ("simstudy.wishart_sample", "wishart_sample", (fungible.simstudy,)),
    ("simstudy.run_cell", "run_cell", (fungible.simstudy,)),
)

_NAME, _PARENT, _START, _END = range(4)


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = getattr(self, "_on_" + name.rsplit(".", 1)[1], None)
        counts = self.counts
        count_no_convergence = name == "fit.fit_ml"

        def wrapper(*args, **kwargs):
            record = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except NoConvergence:
                if count_no_convergence:
                    counts["fit.no_convergence"] += 1
                raise
            finally:
                record[_END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_fit_ml(self, res):
        self.counts["fit.iterations"] += res.iterations
        self.counts["fit.results"] += 1
        self.counts["fit.improper"] += bool(res.improper)
        self.counts["fit.nonconverged"] += not res.converged

    def _on_axis_widths_exact(self, widths):
        self.counts["contour.skipped_rays"] += widths.skipped
        self.counts["contour.partial"] += bool(widths.partial)

    def _on_run_cell(self, cell):
        self.counts["simstudy.excluded"] += cell.n_excluded

    def __enter__(self):
        for name, attr, modules in SITES:
            present = [m for m in modules if hasattr(m, attr)]
            if not present:
                continue
            wrapper = self._wrap(name, getattr(present[0], attr))
            for module in present:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def write(self, path: Path) -> None:
        """Write every span as one CSV line: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for k, (name, parent, start, end) in enumerate(self.spans):
                out.write(f"{k},{parent},{name},{start!r},{end!r}\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times: calls, self time (duration minus the
        part covered by child spans), total time, and the ratios the
        benchmark reports."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for k, (name, parent, start, end) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[k]
            durations[name].append(end - start)

        def ancestor_is(k, target):
            k = spans[k][_PARENT]
            while k >= 0:
                if spans[k][_NAME] == target:
                    return True
                k = spans[k][_PARENT]
            return False

        f_ml_in_width = 0
        f_ml_in_ray_root = 0
        for k, span in enumerate(spans):
            if span[_NAME] == "discrepancy.f_ml":
                f_ml_in_width += ancestor_is(k, "contour.axis_widths_exact")
                parent = span[_PARENT]
                f_ml_in_ray_root += parent >= 0 and spans[parent][_NAME] == "_solve.bracketed_root"
        ray_roots = sum(
            1 for name, parent, _, _ in spans
            if name == "_solve.bracketed_root"
            and not (parent >= 0 and spans[parent][_NAME] == "model.misspecify_to_epsilon")
        )

        def ratio(a, b):
            return a / b if b else 0.0

        def p50_ms(name):
            return 1e3 * statistics.median(durations[name]) if durations[name] else 0.0

        counts = self.counts
        cell_durations = durations["simstudy.run_cell"]
        return {
            "model.misspecify_to_epsilon.calls": (calls["model.misspecify_to_epsilon"], "count"),
            "model.misspecify_to_epsilon.self_s": (self_s["model.misspecify_to_epsilon"], "s"),
            "fit.population_rmsea.calls": (calls["fit.population_rmsea"], "count"),
            "fit.fit_ml.calls": (calls["fit.fit_ml"], "count"),
            "fit.fit_ml.self_s": (self_s["fit.fit_ml"], "s"),
            "fit.iterations_mean": (ratio(counts["fit.iterations"], counts["fit.results"]), "count"),
            "fit.improper": (int(counts["fit.improper"]), "count"),
            "fit.nonconverged": (int(counts["fit.nonconverged"]), "count"),
            "fit.no_convergence": (int(counts["fit.no_convergence"]), "count"),
            "discrepancy.f_ml.calls": (calls["discrepancy.f_ml"], "count"),
            "discrepancy.f_ml.self_s": (self_s["discrepancy.f_ml"], "s"),
            "discrepancy.f_ml.mean_us": (1e6 * ratio(total["discrepancy.f_ml"], calls["discrepancy.f_ml"]), "us"),
            "discrepancy.hessian.calls": (calls["discrepancy.hessian"], "count"),
            "discrepancy.hessian.self_s": (self_s["discrepancy.hessian"], "s"),
            "discrepancy.gradient.calls": (calls["discrepancy.gradient"], "count"),
            "contour.axis_widths_exact.calls": (calls["contour.axis_widths_exact"], "count"),
            "contour.axis_widths_exact.self_s": (self_s["contour.axis_widths_exact"], "s"),
            "contour.axis_widths_exact.p50_ms": (p50_ms("contour.axis_widths_exact"), "ms"),
            "contour.sweep_contour.self_s": (self_s["contour.sweep_contour"], "s"),
            "contour.axis_widths_quadratic.self_s": (self_s["contour.axis_widths_quadratic"], "s"),
            "contour.f_ml_per_width": (ratio(f_ml_in_width, calls["contour.axis_widths_exact"]), "count"),
            "contour.skipped_rays": (int(counts["contour.skipped_rays"]), "count"),
            "contour.partial": (int(counts["contour.partial"]), "count"),
            "solve.bracketed_root.calls": (calls["_solve.bracketed_root"], "count"),
            "solve.bracketed_root.self_s": (self_s["_solve.bracketed_root"], "s"),
            "solve.golden_max.calls": (calls["_solve.golden_max"], "count"),
            "solve.golden_max.total_s": (total["_solve.golden_max"], "s"),
            "solve.f_ml_per_root": (ratio(f_ml_in_ray_root, ray_roots), "count"),
            "simstudy.wishart_sample.calls": (calls["simstudy.wishart_sample"], "count"),
            "simstudy.wishart_sample.self_s": (self_s["simstudy.wishart_sample"], "s"),
            "simstudy.run_cell.calls": (calls["simstudy.run_cell"], "count"),
            "simstudy.run_cell.total_s": (total["simstudy.run_cell"], "s"),
            "simstudy.run_cell.max_s": (max(cell_durations, default=0.0), "s"),
            "simstudy.excluded": (int(counts["simstudy.excluded"]), "count"),
        }

    def total_s(self, name: str, within: str | None = None) -> float:
        """Summed duration of spans called ``name`` (optionally only those
        with an ancestor called ``within``)."""
        spans = self.spans
        out = 0.0
        for name_k, parent, start, end in spans:
            if name_k != name:
                continue
            if within is not None:
                k = parent
                while k >= 0 and spans[k][_NAME] != within:
                    k = spans[k][_PARENT]
                if k < 0:
                    continue
            out += end - start
        return out


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of recording one span: a wrapped no-op call minus a bare
    one, on a scratch tracer."""
    def noop():
        return None

    wrapped = Tracer()._wrap("probe.noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, time.perf_counter() - start - bare) / calls
