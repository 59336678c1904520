import dataclasses
import math
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
from fungible.simstudy import PAPER_TABLE_CSV, _columns, _jobs, condition_at
from helpers import clear_fit_caches, reference_run_cell

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


class TestRunDesign:
    def test_cell_layout(self):
        table = run_design(SMALL_DESIGN)
        # one confidence cell plus one cell per epsilon for each FPE mode
        assert len(table.cells) == 1 + 2 * len(SMALL_DESIGN.epsilons)
        modes = {c.mode for c in table.cells}
        assert modes == {"confidence", "eps_tilde", "delta_f"}

    def test_emitted_csv_deterministic(self):
        a = emit_table(run_design(SMALL_DESIGN), "csv")
        clear_fit_caches()
        b = emit_table(run_design(SMALL_DESIGN), "csv")
        assert a == b

    def test_threaded_run_matches_serial(self):
        serial = run_design(SMALL_DESIGN, threads=1)
        threaded = run_design(SMALL_DESIGN, threads=2)
        assert serial == threaded

    def test_target_order_does_not_change_the_table(self):
        reverse = dataclasses.replace(SMALL_DESIGN, targets=SMALL_DESIGN.targets[::-1])
        assert emit_table(run_design(reverse)) == emit_table(run_design(SMALL_DESIGN))

    def test_untargeted_mode_runs_no_cell(self):
        design = dataclasses.replace(
            SMALL_DESIGN,
            targets=tuple(t for t in SMALL_DESIGN.targets if t.mode != contour.EPS_TILDE),
        )
        assert all(mode != contour.EPS_TILDE for *_, mode in _jobs(design))
        table = run_design(design)
        assert {c.mode for c in table.cells} == {contour.CONFIDENCE, contour.DELTA_F}
        header, row = emit_table(table).splitlines()
        for name, value in zip(header.split(","), row.split(",")):
            assert (value == "nan") == name.startswith(contour.EPS_TILDE), name

    def test_generated_major_at_least_minor(self):
        table = run_design(SMALL_DESIGN)
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
    """The jobs of each (condition, n, epsilon) together, as run_design
    hands them to a worker."""
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
        calls = []
        fit_ml = fit.fit_ml

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_ml(*args, **kwargs)

        monkeypatch.setattr(fit, "fit_ml", counted)
        monkeypatch.setattr(simstudy, "fit_ml", counted)
        run_design(design, threads=1)
        # 4 conditions x 2 N x 3 epsilons sampled draws, 4 population fits
        assert len(calls) == 28


class TestExclusions:
    """Each exclusion branch of run_cell, driven by stand-ins for the draw and
    the width; every cell must equal the reference loop under the same
    stand-ins."""

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

    def _check(self, monkeypatch, draw=wishart_sample, widths=simstudy.axis_widths_exact):
        monkeypatch.setattr(simstudy, "wishart_sample", draw)
        monkeypatch.setattr(simstudy, "axis_widths_exact", widths)
        monkeypatch.setattr(contour, "axis_widths_exact", widths)
        cell = run_cell(self.DESIGN, *self.JOB)
        assert (cell.n_converged, cell.n_excluded) == (2, 1)
        clear_fit_caches()
        assert cell == reference_run_cell(self.DESIGN, *self.JOB)

    def test_no_exclusion_without_stand_ins(self):
        # so each exclusion below comes from its stand-in alone
        cell = run_cell(self.DESIGN, *self.JOB)
        assert (cell.n_converged, cell.n_excluded) == (3, 0)

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
        exact = simstudy.axis_widths_exact

        def widths(res, *args):
            if res.f_hat == f_hat:
                raise ContourEscapesDomain("stand-in width")
            return exact(res, *args)

        self._check(monkeypatch, widths=widths)

    def test_partial_sweep(self, monkeypatch):
        _, f_hat = self._rep1()
        exact = simstudy.axis_widths_exact

        def widths(res, *args):
            out = exact(res, *args)
            return dataclasses.replace(out, partial=True) if res.f_hat == f_hat else out

        self._check(monkeypatch, widths=widths)


class TestTableEmission:
    def test_empty_design_emits_header_only(self):
        design = StudyDesign(conditions=(), sample_sizes=(), replications=1)
        text = emit_table(run_design(design), "csv")
        assert len(text.strip().splitlines()) == 1

    def test_csv_parse_round_trip(self):
        table = run_design(SMALL_DESIGN)
        csv = emit_table(table, "csv")
        again = emit_table(parse_table(csv), "csv")
        assert csv == again

    def test_markdown_is_csv_at_two_decimals(self):
        table = run_design(SMALL_DESIGN)
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
        ],
        ids=["empty", "markdown", "missing-column", "ragged-row", "value", "sample-size"],
    )
    def test_parse_rejects_malformed_text(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_table(text)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(run_design(SMALL_DESIGN), "xml")


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
