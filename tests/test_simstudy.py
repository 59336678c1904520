import dataclasses
import math
import multiprocessing
import re

import numpy as np
import pytest

from fungible import (
    ContourEscapesDomain,
    DegenerateSample,
    NotPositiveDefinite,
    StudyCell,
    StudyDesign,
    StudyTable,
    check_fixture_scaling,
    emit_table,
    paper_fixture,
    parse_table,
    replication_rng,
    run_cell,
    run_design,
    wishart_sample,
)
from fungible import contour, fit, simstudy
from fungible.simstudy import PAPER_TABLE_CSV, _cells, _columns, condition_at
from helpers import clear_fit_caches, reference_run_cell


def _jobs(design):
    """(condition, n, epsilon, mode) of every cell the table holds, row by
    row: per (condition, n), the design's cells in table order."""
    return [(condition, n, eps, mode) for condition in design.conditions
            for n in design.sample_sizes for mode, eps in _cells(design)]


SMALL_DESIGN = StudyDesign(
    conditions=("Sigma1",),
    sample_sizes=(200,),
    epsilons=(0.0, 0.03),
    replications=2,
    seed=7,
    directions=16,
)


class TestReplicationRng:
    def test_streams_are_stable(self):
        a = replication_rng(1, "Sigma1", 200, 0.03, 5).standard_normal(4)
        b = replication_rng(1, "Sigma1", 200, 0.03, 5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_coordinates(self):
        base = replication_rng(1, "Sigma1", 200, 0.03, 5).standard_normal(4)
        for args in [
            (2, "Sigma1", 200, 0.03, 5),
            (1, "Sigma2", 200, 0.03, 5),
            (1, "Sigma1", 1000, 0.03, 5),
            (1, "Sigma1", 200, 0.0, 5),
            (1, "Sigma1", 200, 0.03, 6),
        ]:
            other = replication_rng(*args).standard_normal(4)
            assert not np.array_equal(base, other)


class TestWishart:
    def test_fixed_seed_bit_identical(self):
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        a = wishart_sample(sigma, 50, replication_rng(3, "c", 50, 0.0, 0))
        b = wishart_sample(sigma, 50, replication_rng(3, "c", 50, 0.0, 0))
        np.testing.assert_array_equal(a, b)

    def test_mean_recovers_scale_matrix(self):
        rng = replication_rng(11, "mean", 50, 0.0, 0)
        sigma = np.eye(2)
        draws = np.stack([wishart_sample(sigma, 50, rng) for _ in range(10000)])
        # Var(S_ij) = (sigma_ii sigma_jj + sigma_ij^2) / (n - 1)
        se_diag = math.sqrt(2.0 / 49 / 10000)
        se_off = math.sqrt(1.0 / 49 / 10000)
        mean = draws.mean(axis=0)
        assert abs(mean[0, 0] - 1.0) < 3 * se_diag
        assert abs(mean[1, 1] - 1.0) < 3 * se_diag
        assert abs(mean[0, 1]) < 3 * se_off

    def test_scalar_chi_square_reduction(self):
        rng = replication_rng(13, "chi2", 25, 0.0, 0)
        n = 25
        draws = np.array(
            [wishart_sample(np.array([[1.0]]), n, rng)[0, 0] for _ in range(4000)]
        )
        scaled = (n - 1) * draws
        se = math.sqrt(2.0 * (n - 1) / 4000)
        assert abs(scaled.mean() - (n - 1)) < 3 * se

    def test_sample_is_symmetric_pd(self):
        rng = replication_rng(5, "pd", 10, 0.0, 0)
        sigma = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]])
        s = wishart_sample(sigma, 10, rng)
        assert (s == s.T).all()
        assert np.linalg.eigvalsh(s).min() > 0

    def test_requires_n_above_p(self):
        with pytest.raises(ValueError, match="n > p"):
            wishart_sample(np.eye(3), 3, replication_rng(0, "x", 3, 0.0, 0))

    def test_invalid_scale_matrix(self):
        with pytest.raises(NotPositiveDefinite):
            wishart_sample(-np.eye(2), 50, replication_rng(0, "x", 50, 0.0, 0))

    def test_degenerate_sample_after_two_tries(self):
        class ZeroRng:
            def chisquare(self, dfs):
                return np.zeros(np.shape(dfs))

            def standard_normal(self, size):
                return np.zeros(size)

        with pytest.raises(DegenerateSample):
            wishart_sample(np.eye(2), 50, ZeroRng())


class TestRunCell:
    def test_population_confidence_cell(self):
        cell = run_cell(SMALL_DESIGN, "Sigma1", 200, 0.0, "confidence")
        assert cell.major_sd == 0.0
        assert cell.minor_sd == 0.0
        assert cell.n_converged == 1
        assert cell.n_excluded == 0
        assert cell.major_mean >= cell.minor_mean > 0

    def test_single_replication_sd_zero(self):
        design = StudyDesign(
            conditions=("Sigma1",),
            sample_sizes=(200,),
            epsilons=(0.0,),
            replications=1,
            seed=3,
            directions=16,
        )
        cell = run_cell(design, "Sigma1", 200, 0.0, "eps_tilde")
        assert cell.major_sd == 0.0
        assert cell.n_converged + cell.n_excluded == 1

    def test_equal_seeds_identical_cells(self):
        a = run_cell(SMALL_DESIGN, "Sigma1", 200, 0.03, "delta_f")
        clear_fit_caches()
        b = run_cell(SMALL_DESIGN, "Sigma1", 200, 0.03, "delta_f")
        assert a == b

    def test_counts_add_up(self):
        cell = run_cell(SMALL_DESIGN, "Sigma1", 200, 0.03, "eps_tilde")
        assert cell.n_converged + cell.n_excluded == SMALL_DESIGN.replications

    def test_condition_cache(self):
        assert condition_at("Sigma1", 0.03) is condition_at("Sigma1", 0.03)

    @pytest.mark.parametrize(
        "untargeted, mode, epsilon, message",
        [
            # an unknown mode once raised a bare KeyError
            (None, "bogus", 0.0, "the design has no cell ('bogus', 0.0); its cells are [("),
            # an epsilon outside the design once ran a group of its own
            (None, "eps_tilde", 0.05, "the design has no cell ('eps_tilde', 0.05); its cells are [("),
            (None, "confidence", 0.03, "the design has no cell ('confidence', 0.03); its cells are [("),
            (contour.EPS_TILDE, "eps_tilde", 0.0, "the design has no cell ('eps_tilde', 0.0); its cells are [("),
        ],
    )
    def test_cell_not_in_design_raises(self, untargeted, mode, epsilon, message):
        targets = tuple(t for t in SMALL_DESIGN.targets if t.mode != untargeted)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_cell(dataclasses.replace(SMALL_DESIGN, targets=targets), "Sigma1", 200, epsilon, mode)


class TestRunDesign:
    def test_cell_layout(self):
        table = run_design(SMALL_DESIGN, threads=1)
        # one confidence cell plus one cell per epsilon for each FPE mode
        assert len(table.cells) == 1 + 2 * len(SMALL_DESIGN.epsilons)
        modes = {c.mode for c in table.cells}
        assert modes == {"confidence", "eps_tilde", "delta_f"}

    def test_emitted_csv_deterministic(self):
        a = emit_table(run_design(SMALL_DESIGN, threads=1), "csv")
        clear_fit_caches()
        b = emit_table(run_design(SMALL_DESIGN, threads=1), "csv")
        assert a == b

    def test_threaded_run_matches_serial(self):
        serial = run_design(SMALL_DESIGN, threads=1)
        threaded = run_design(SMALL_DESIGN, threads=2)
        assert serial == threaded
        # no threads: the processor count, capped at the design's one row
        assert run_design(SMALL_DESIGN) == serial

    def test_target_order_does_not_change_the_table(self):
        reverse = dataclasses.replace(SMALL_DESIGN, targets=SMALL_DESIGN.targets[::-1])
        assert emit_table(run_design(reverse, threads=1)) == emit_table(run_design(SMALL_DESIGN, threads=1))

    def test_untargeted_mode_runs_no_cell(self):
        design = dataclasses.replace(
            SMALL_DESIGN,
            targets=tuple(t for t in SMALL_DESIGN.targets if t.mode != contour.EPS_TILDE),
        )
        assert all(mode != contour.EPS_TILDE for *_, mode in _jobs(design))
        table = run_design(design, threads=1)
        assert {c.mode for c in table.cells} == {contour.CONFIDENCE, contour.DELTA_F}
        header, row = emit_table(table).splitlines()
        for name, value in zip(header.split(","), row.split(",")):
            assert (value == "nan") == name.startswith(contour.EPS_TILDE), name

    def test_generated_major_at_least_minor(self):
        table = run_design(SMALL_DESIGN, threads=1)
        for cell in table.cells:
            if not math.isnan(cell.major_mean):
                assert cell.major_mean >= cell.minor_mean

    def test_design_validation(self):
        with pytest.raises(ValueError):
            StudyDesign(replications=0)
        with pytest.raises(ValueError):
            StudyDesign(epsilons=(0.09, 0.03))
        with pytest.raises(ValueError):
            StudyDesign(epsilons=(-0.01, 0.03))
        with pytest.raises(ValueError, match="sample sizes"):
            StudyDesign(sample_sizes=(200, 1))
        # a repeated value would emit repeated rows or column names
        with pytest.raises(ValueError, match="conditions"):
            StudyDesign(conditions=("Sigma1", "Sigma1"))
        with pytest.raises(ValueError, match="sample sizes"):
            StudyDesign(sample_sizes=(200, 200))
        with pytest.raises(ValueError, match="epsilons"):
            StudyDesign(epsilons=(0.0, 0.0))
        with pytest.raises(ValueError, match="unknown parameter 'bogus'"):
            StudyDesign(focal=("gamma1", "bogus"))
        with pytest.raises(ValueError, match="population_analysis"):
            StudyDesign(population_analysis=("bogus",))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("directions", 3),
            ("directions", 0),
            ("focal", ("gamma1",)),
            ("focal", ("gamma1", "gamma2", "phi")),
            ("focal", ("gamma1", "gamma1")),
            ("focal", ("gamma1", "5")),  # index 5 is gamma1
            ("focal", ("gamma1", "14")),  # q = 14
            ("focal", ("gamma1", "-1")),
        ],
    )
    def test_bad_sweep_setting_names_its_key(self, field, value):
        # directions 3 once failed only inside the first cell, with a message
        # that did not name the config key
        with pytest.raises(ValueError, match=f"^{field} (indices )?must "):
            StudyDesign(**{field: value})

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_raise(self, threads):
        # they once ran one worker
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_design(SMALL_DESIGN, threads=threads)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("replications", "2"),
            ("replications", True),
            ("seed", 1.5),
            ("directions", "90"),
            ("sample_sizes", (200.5,)),
            ("sample_sizes", (True, 200)),
            ("sample_sizes", 200),
            ("epsilons", ("0.03",)),
            ("epsilons", (0.0, math.nan)),
            ("conditions", ("Sigma1", 2)),
            ("conditions", "Sigma1"),
            ("focal", ("gamma1", 7)),
            ("population_analysis", "confidence"),
            ("population_analysis", ("confidence", None)),
        ],
    )
    def test_field_types(self, field, value):
        # a float sample size or seed was once truncated, a string count
        # raised TypeError, and a string list split into its letters
        with pytest.raises(ValueError, match=f"^{field} must be "):
            StudyDesign(**{field: value})

    def test_integer_like_fields_accept_numpy_scalars(self):
        design = StudyDesign(
            conditions=("Sigma1",), sample_sizes=(np.int64(200),), epsilons=(np.float64(0.0),),
            replications=np.int64(1), seed=np.int32(3), directions=16,
        )
        assert design.sample_sizes == (200,) and type(design.sample_sizes[0]) is int


# Sigma1 at N=200: the first replication at epsilon .09 is an improper fit, excluded
EXCLUDING_DESIGN = StudyDesign(
    conditions=("Sigma1",),
    sample_sizes=(200,),
    epsilons=(0.0, 0.09),
    replications=3,
    seed=6,
    directions=16,
)


def _grouped(jobs):
    """The jobs of each (condition, n, epsilon) together: a row's cells
    epsilon by epsilon instead of in table order."""
    keys = [job[:3] for job in jobs]
    return sorted(jobs, key=lambda job: keys.index(job[:3]))


class TestSharedFits:
    """Cells share cached draws and fits; each must equal the cell that its
    own draw -> fit -> width loop gives, whatever the call order."""

    @pytest.mark.parametrize("order", ["mode-major", "grouped", "reversed"])
    def test_cells_match_reference_loop(self, order):
        jobs = _jobs(EXCLUDING_DESIGN)
        jobs = {"mode-major": jobs, "grouped": _grouped(jobs), "reversed": jobs[::-1]}[order]
        want = {job: reference_run_cell(EXCLUDING_DESIGN, *job) for job in jobs}
        assert any(cell.n_excluded for cell in want.values())
        clear_fit_caches()
        for _ in ("cold", "warm"):
            for job in jobs:
                assert run_cell(EXCLUDING_DESIGN, *job) == want[job], job

    def test_one_fit_per_draw(self, monkeypatch):
        design = StudyDesign(replications=1, directions=16)
        for condition in design.conditions:
            for epsilon in design.epsilons:
                condition_at(condition, epsilon)  # the misfit search fits, not counted
        clear_fit_caches()
        rows = []
        fit_stack = fit.fit_stack

        def counted(model, covariances, *args, **kwargs):
            rows.extend(covariances)
            return fit_stack(model, covariances, *args, **kwargs)

        # every fit, fit_ml's one row included, is a row of the lockstep driver
        monkeypatch.setattr(fit, "fit_stack", counted)
        monkeypatch.setattr(simstudy, "fit_stack", counted)
        run_design(design, threads=1)
        # 4 conditions x 2 N x 3 epsilons sampled draws, 4 population fits
        assert len(rows) == 28


# Four rows of 3 replications at 3 epsilons (Sigma1 at N=200, epsilon .09
# excludes a replication); ALL_POPULATION_DESIGN is criterion 09's variant,
# with a population fit at every epsilon
ROW_DESIGN = dataclasses.replace(
    EXCLUDING_DESIGN, conditions=("Sigma1", "Sigma3"), sample_sizes=(1000, 200),
    epsilons=(0.0, 0.03, 0.09),
)
ALL_POPULATION_DESIGN = dataclasses.replace(
    ROW_DESIGN, population_analysis=(contour.CONFIDENCE, contour.EPS_TILDE, contour.DELTA_F),
)


@pytest.fixture(scope="module")
def reference_tables():
    """Each row design's CSV from the reference loop, every width alone."""
    tables = {}
    for design in (ROW_DESIGN, ALL_POPULATION_DESIGN):
        cells = tuple(reference_run_cell(design, *job) for job in _jobs(design))
        tables[design] = emit_table(StudyTable(design.conditions, design.sample_sizes,
                                               design.epsilons, cells))
    return tables


class TestRowRun:
    """A (condition, n) row solves every cell's widths GROUP_CHUNK fits per
    engine run; the chunks split rows and cross epsilons, and no chunking
    may move a byte."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_fit_caches()
        yield
        clear_fit_caches()

    @pytest.mark.parametrize("design", [ROW_DESIGN, ALL_POPULATION_DESIGN],
                             ids=["population-confidence", "all-population"])
    @pytest.mark.parametrize("chunk", [1, 7, 20])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_table_bytes_at_any_chunk(self, monkeypatch, reference_tables, design, chunk, threads):
        monkeypatch.setattr(simstudy, "GROUP_CHUNK", chunk)
        assert emit_table(run_design(design, threads=threads)) == reference_tables[design]

    # a row holds one population fit and 3 x 3 replications: 10 fits, so at
    # the default chunk every row is one engine run
    @pytest.mark.parametrize("chunk, runs", [(1, 10), (3, 4), (7, 2), (simstudy.GROUP_CHUNK, 1)])
    def test_runs_per_row(self, monkeypatch, chunk, runs):
        monkeypatch.setattr(simstudy, "GROUP_CHUNK", chunk)
        calls = []
        group = simstudy.axis_widths_group

        def counted(*args):
            calls.append(args)
            return group(*args)

        monkeypatch.setattr(simstudy, "axis_widths_group", counted)
        run_design(ROW_DESIGN, threads=1)
        assert len(calls) == 4 * runs


class TestExclusions:
    """Each exclusion branch of run_cell, driven by stand-ins for the draw and
    for the group's width results; every cell must equal the reference loop
    under the same stand-ins."""

    DESIGN = StudyDesign(
        conditions=("Sigma1",), sample_sizes=(200,), epsilons=(0.0,), replications=3,
        seed=11, directions=8,
    )
    JOB = ("Sigma1", 200, 0.0, "eps_tilde")

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        # no draw or fit made under a stand-in may outlive the test
        clear_fit_caches()
        yield
        clear_fit_caches()

    def _rep1(self):
        """The generator key and the fit's F-hat of replication 1."""
        rng = replication_rng(self.DESIGN.seed, *self.JOB[:3], 1)
        key = rng.bit_generator.state["state"]["key"].tobytes()
        cond = condition_at("Sigma1", 0.0)
        return key, fit.fit_ml(cond.model, wishart_sample(cond.sigma_pop, 200, rng), n=200).f_hat

    @staticmethod
    def _results(monkeypatch, stand_in):
        """Every group run's result for level k of a fit replaced by
        ``stand_in(fit, k, result)``, in run_cell and in the reference
        loop's one-width view alike."""
        group = contour.axis_widths_group

        def widths(fits, levels, *args):
            out = group(fits, levels, *args)
            return [[stand_in(res, k, w) for k, w in enumerate(row)] for res, row in zip(fits, out)]

        monkeypatch.setattr(simstudy, "axis_widths_group", widths)
        monkeypatch.setattr(contour, "axis_widths_group", widths)

    def _check(self, monkeypatch, draw=wishart_sample):
        monkeypatch.setattr(simstudy, "wishart_sample", draw)
        cell = run_cell(self.DESIGN, *self.JOB)
        assert (cell.n_converged, cell.n_excluded) == (2, 1)
        clear_fit_caches()
        assert cell == reference_run_cell(self.DESIGN, *self.JOB)

    def test_no_exclusion_without_stand_ins(self):
        # so each exclusion below comes from its stand-in alone
        cell = run_cell(self.DESIGN, *self.JOB)
        assert (cell.n_converged, cell.n_excluded) == (3, 0)

    def test_unmet_root_tolerance_excludes(self, monkeypatch):
        # no ray root meets a tolerance of 0: every width raises the declared
        # fault, so every replication is excluded and no cell raises
        monkeypatch.setattr(contour, "F_TOL", 0.0)
        for job in _jobs(self.DESIGN):
            cell = run_cell(self.DESIGN, *job)
            runs = 1 if job[3] in self.DESIGN.population_analysis else self.DESIGN.replications
            assert (cell.n_converged, cell.n_excluded) == (0, runs), job

    @pytest.mark.parametrize("failure", ["draw", "fit"])
    def test_failed_draw_or_fit(self, monkeypatch, failure):
        key, _ = self._rep1()

        def draw(sigma, n, rng):
            if rng.bit_generator.state["state"]["key"].tobytes() != key:
                return wishart_sample(sigma, n, rng)
            if failure == "draw":
                raise DegenerateSample("stand-in draw")
            return -np.eye(len(sigma))  # fit_ml raises NotPositiveDefinite

        self._check(monkeypatch, draw=draw)

    def test_width_raises(self, monkeypatch):
        _, f_hat = self._rep1()
        self._results(monkeypatch, lambda res, k, w: (
            ContourEscapesDomain("stand-in width") if res.f_hat == f_hat else w))
        self._check(monkeypatch)

    def test_partial_sweep(self, monkeypatch):
        _, f_hat = self._rep1()
        self._results(monkeypatch, lambda res, k, w: (
            dataclasses.replace(w, partial=True) if res.f_hat == f_hat else w))
        self._check(monkeypatch)

    @pytest.mark.parametrize("failure", ["error", "partial", "undeclared"])
    def test_population_failure_stays_in_its_cell(self, monkeypatch, failure):
        # the confidence cell's population fit shares the row's engine run
        # with the sample fits; its failure must reach no other cell
        jobs = _jobs(self.DESIGN)
        want = {job: run_cell(self.DESIGN, *job) for job in jobs}
        clear_fit_caches()
        sigma = condition_at("Sigma1", 0.0).sigma_pop
        stand_in = {
            "error": lambda w: ContourEscapesDomain("stand-in width"),
            "partial": lambda w: dataclasses.replace(w, partial=True),
            "undeclared": lambda w: RuntimeError("stand-in"),
        }[failure]
        self._results(monkeypatch, lambda res, k, w: (
            stand_in(w) if np.array_equal(res.s, sigma) else w))
        assert jobs[0][3] == contour.CONFIDENCE  # so it runs the row
        for job in jobs:
            if job[3] != contour.CONFIDENCE:
                assert run_cell(self.DESIGN, *job) == want[job], job
            elif failure == "undeclared":
                with pytest.raises(RuntimeError, match="stand-in"):
                    run_cell(self.DESIGN, *job)
            else:
                cell = run_cell(self.DESIGN, *job)
                assert (cell.n_converged, cell.n_excluded) == (0, 1)
                assert math.isnan(cell.major_mean) and math.isnan(cell.minor_mean)

    def test_undeclared_error_stays_in_its_cell(self, monkeypatch):
        # an error the package does not declare, at replication 1's delta_f
        # level, ends the delta_f cell alone, whichever cell of the group
        # runs the group
        _, f_hat = self._rep1()
        self._results(monkeypatch, lambda res, k, w: (
            RuntimeError("stand-in") if res.f_hat == f_hat and k == 1 else w))
        delta_f = self.JOB[:3] + ("delta_f",)
        for first in (self.JOB, delta_f):
            clear_fit_caches()
            if first == delta_f:
                with pytest.raises(RuntimeError, match="stand-in"):
                    run_cell(self.DESIGN, *delta_f)
            cell = run_cell(self.DESIGN, *self.JOB)
            assert (cell.n_converged, cell.n_excluded) == (3, 0)
            with pytest.raises(RuntimeError, match="stand-in"):
                run_cell(self.DESIGN, *delta_f)

    @pytest.mark.parametrize("sizes", [(1000, 200), (200, 1000)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_row_error_is_raised(self, monkeypatch, sizes, threads):
        # both rows carry an undeclared error naming their N; the design
        # raises the first row's, whichever worker ends first, and a serial
        # run never starts the second row.  The workers see the stand-in
        # only if they inherit it by fork.
        if threads > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes are not forked")
        self._results(monkeypatch, lambda res, k, w: RuntimeError(f"stand-in at N {res.n}"))
        design = dataclasses.replace(self.DESIGN, sample_sizes=sizes)
        clear_fit_caches()
        with pytest.raises(RuntimeError, match=f"^stand-in at N {sizes[0]}$"):
            run_design(design, threads=threads)
        assert simstudy._row.cache_info().misses == (1 if threads == 1 else 0)


class TestTableEmission:
    def test_empty_design_emits_header_only(self):
        design = StudyDesign(conditions=(), sample_sizes=(), replications=1)
        text = emit_table(run_design(design, threads=1), "csv")
        assert len(text.strip().splitlines()) == 1

    def test_csv_parse_round_trip(self):
        table = run_design(SMALL_DESIGN, threads=1)
        csv = emit_table(table, "csv")
        again = emit_table(parse_table(csv), "csv")
        assert csv == again

    def test_markdown_is_csv_at_two_decimals(self):
        table = run_design(SMALL_DESIGN, threads=1)
        csv_rows = [ln.split(",") for ln in emit_table(table, "csv").splitlines()]
        md_lines = emit_table(table, "markdown").splitlines()
        md_rows = [[c.strip() for c in ln.strip("|").split("|")] for ln in md_lines]
        assert md_rows[0] == csv_rows[0]
        assert md_rows[1] == ["---"] * len(csv_rows[0])
        assert len(md_rows) == len(csv_rows) + 1
        for md, csv in zip(md_rows[2:], csv_rows[1:]):
            assert md[:2] == csv[:2]
            assert md[2:] == [f"{float(v):.2f}" for v in csv[2:]]

    def test_emitted_bytes_pinned(self):
        # a hand-built table with a missing confidence cell (Sigma1, 200) and a
        # missing FPE cell (delta_f, 1000, .05), pinned at the bytes emitted
        # before the column schema was written once
        cell = StudyCell
        cells = (
            cell("Sigma1", 1000, 0.0, "confidence", 0.25, 0.0, 1 / 3, 0.0, 1, 0),
            cell("Sigma1", 1000, 0.0, "eps_tilde", 0.1 + 0.2, 0.01, 0.125, 0.02, 2, 0),
            cell("Sigma1", 1000, 0.05, "eps_tilde", 2 / 3, 0.01, 0.5, 0.02, 2, 0),
            cell("Sigma1", 1000, 0.0, "delta_f", 1e-5, 0.0, 1e-6, 0.0, 2, 0),
            cell("Sigma1", 200, 0.0, "eps_tilde", 1.005, 0.1, 0.995, 0.1, 1, 1),
            cell("Sigma1", 200, 0.05, "eps_tilde", 12.345, 0.0, 0.0, 0.0, 2, 0),
            cell("Sigma1", 200, 0.0, "delta_f", math.nan, 0.0, math.nan, 0.0, 0, 2),
            cell("Sigma1", 200, 0.05, "delta_f", 0.07, 0.0, 0.06, 0.0, 2, 0),
        )
        table = StudyTable(("Sigma1",), (1000, 200), (0.0, 0.05), cells)
        header = (
            "condition,n,cs_major_mean,cs_major_sd,cs_minor_mean,cs_minor_sd,"
            "eps_tilde_major_0,eps_tilde_minor_0,eps_tilde_major_0.05,eps_tilde_minor_0.05,"
            "delta_f_major_0,delta_f_minor_0,delta_f_major_0.05,delta_f_minor_0.05"
        )
        csv = emit_table(table, "csv")
        assert emit_table(parse_table(csv), "csv") == csv
        assert csv == (
            f"{header}\n"
            "Sigma1,1000,0.25,0.0,0.3333333333333333,0.0,0.30000000000000004,0.125,"
            "0.6666666666666666,0.5,1e-05,1e-06,nan,nan\n"
            "Sigma1,200,nan,nan,nan,nan,1.005,0.995,12.345,0.0,nan,nan,0.07,0.06\n"
        )
        assert emit_table(table, "markdown") == (
            "| " + header.replace(",", " | ") + " |\n"
            + "|" + " --- |" * 14 + "\n"
            "| Sigma1 | 1000 | 0.25 | 0.00 | 0.33 | 0.00 | 0.30 | 0.12 | 0.67 | 0.50 "
            "| 0.00 | 0.00 | nan | nan |\n"
            "| Sigma1 | 200 | nan | nan | nan | nan | 1.00 | 0.99 | 12.35 | 0.00 "
            "| nan | nan | 0.07 | 0.06 |\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no study table header"),
            (emit_table(paper_fixture(), "markdown"), "no study table header"),
            ("condition,n,cs_major_mean\nSigma1,200,0.5\n", "lacks the column(s): cs_major_sd"),
            (PAPER_TABLE_CSV.replace("0.19,0,0.18", "0.19,0"), "row 1 has 17 fields"),
            (PAPER_TABLE_CSV.replace("0.19,0,0.18", "0.19,wide,0.18"), "'wide' is not a number"),
            (PAPER_TABLE_CSV.replace("Sigma1,1000", "Sigma1,many"), "'many' is not a number"),
            # a second Sigma1,1000 row once replaced the first without a word
            (PAPER_TABLE_CSV + PAPER_TABLE_CSV.splitlines()[1].replace("0.19", "9.99") + "\n",
             "row 9 repeats the row of (Sigma1, 1000)"),
            # the table of epsilons .03 and .03000001 once parsed as (.03, .03)
            (emit_table(StudyTable(("Sigma1",), (200,), (0.03, 0.03000001), ())),
             "the header repeats the column(s): eps_tilde_major_0.03, eps_tilde_minor_0.03, "
             "delta_f_major_0.03, delta_f_minor_0.03"),
        ],
        ids=["empty", "markdown", "missing-column", "ragged-row", "value", "sample-size",
             "repeated-row", "repeated-column"],
    )
    def test_parse_rejects_malformed_text(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_table(text)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(run_design(SMALL_DESIGN, threads=1), "xml")


class TestPaperFixture:
    def test_fixture_shape(self):
        table = paper_fixture()
        assert len(table.conditions) == 4
        assert len(table.sample_sizes) == 2
        rows = len(table.conditions) * len(table.sample_sizes)
        assert rows == 8
        assert len(_columns(table.epsilons)) == 16

    def test_reference_values_spot_checks(self):
        table = paper_fixture()
        cs = table.cell("Sigma1", 1000, "confidence", 0.0)
        assert cs.major_mean == 0.19
        assert cs.major_sd == 0.0
        assert cs.minor_mean == 0.18
        df_cell = table.cell("Sigma1", 1000, "delta_f", 0.09)
        assert (df_cell.major_mean, df_cell.minor_mean) == (0.40, 0.38)
        et_cell = table.cell("Sigma3", 200, "eps_tilde", 0.0)
        assert (et_cell.major_mean, et_cell.minor_mean) == (0.50, 0.39)

    def test_scaling_check_passes(self):
        ok, lines = check_fixture_scaling()
        assert ok
        assert sum("ok" in ln for ln in lines) >= 8
        assert lines[-1] == "all checks passed"

    def test_scaling_check_detects_misfit(self):
        import dataclasses

        table = paper_fixture()
        cells = list(table.cells)
        for i, cell in enumerate(cells):
            if cell.condition == "Sigma1" and cell.n == 200 and cell.mode == "confidence":
                cells[i] = dataclasses.replace(cell, major_mean=0.50)
        bad = dataclasses.replace(table, cells=tuple(cells))
        ok, lines = check_fixture_scaling(bad)
        assert not ok
        assert any("FAIL" in ln for ln in lines)

    def test_scaling_check_without_confidence_cells(self):
        table = paper_fixture()
        cells = tuple(cell for cell in table.cells if cell.mode != "confidence")
        ok, lines = check_fixture_scaling(dataclasses.replace(table, cells=cells))
        assert not ok
        assert lines[1:-1] == [f"{c}: missing confidence-set cells" for c in table.conditions]
        assert lines[-1] == "CHECK FAILED"


# each validation branch of the module with a call that takes it and the
# message it raises
_VALIDATION_CASES = {
    "duplicate modes": (lambda: StudyDesign(targets=(contour.ContourTarget(mode="confidence"),) * 2),
                        "duplicate contour modes in targets"),
    # the four below once passed or failed outside the design's checks: a
    # mode name raised AttributeError, a lone target TypeError, and an
    # unknown label or a draw of n <= p failed only inside a worker
    "mode name as target": (lambda: StudyDesign(targets=("confidence",)),
                            "targets must be a list of contour targets"),
    "lone target": (lambda: StudyDesign(targets=contour.ContourTarget()),
                    "targets must be a list of contour targets"),
    "unknown condition": (lambda: StudyDesign(conditions=("Sigma9",)),
                          re.escape("conditions must be a list of builtin labels ['Sigma1',")),
    "sampled n <= p": (lambda: StudyDesign(sample_sizes=(6,)),
                       re.escape("sample_sizes must exceed the 6 observed variables where a mode is "
                                 "sampled, got [6]")),
    # these once named four table columns twice each
    "epsilons sharing a column name": (lambda: StudyDesign(epsilons=(0.03, 0.03000001)),
                                       re.escape("epsilons must differ in their first 6 "
                                                 "significant digits, which name the table's "
                                                 "columns, got [0.03, 0.03000001]")),
    "fixture without N 200": (lambda: check_fixture_scaling(
        dataclasses.replace(paper_fixture(), sample_sizes=(1000, 50))),
        "scaling check needs sample sizes 1000 and 200"),
}


@pytest.mark.parametrize("case", list(_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = _VALIDATION_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_population_modes_alone_run_at_n_up_to_p():
    # no draw is made, so n <= p is no error when every mode is the population's
    design = dataclasses.replace(SMALL_DESIGN, sample_sizes=(6,), targets=SMALL_DESIGN.targets[:1])
    assert run_cell(design, "Sigma1", 6, 0.0, contour.CONFIDENCE).n_converged == 1
