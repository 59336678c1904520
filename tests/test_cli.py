import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from fungible import (
    canonical_model,
    condition_from_label,
    replication_rng,
    save_model,
    wishart_sample,
)
from fungible.cli import _design_from_config, main
from fungible.simstudy import DEFAULT_TARGETS, StudyDesign

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    cond = condition_from_label("Sigma1")
    save_model(canonical_model(), path / "model.json")
    np.savetxt(path / "cov.csv", np.asarray(cond.sigma_pop), delimiter=",")
    return path


def test_fit_smoke(workdir, capsys):
    code = main(
        ["fit", "--model", str(workdir / "model.json"), "--cov", str(workdir / "cov.csv"), "--n", "200"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "param,gamma1," in out
    assert "stat,f_hat," in out
    assert "stat,rmsea," in out


def test_fit_writes_only_out_file(workdir, tmp_path):
    out = tmp_path / "fit.csv"
    before = set(p.name for p in tmp_path.iterdir())
    code = main(
        [
            "fit",
            "--model", str(workdir / "model.json"),
            "--cov", str(workdir / "cov.csv"),
            "--n", "200",
            "--out", str(out),
        ]
    )
    assert code == 0
    after = set(p.name for p in tmp_path.iterdir())
    assert after - before == {"fit.csv"}
    assert "stat,converged,True" in out.read_text()


def test_fpe_points_csv(workdir, tmp_path):
    out = tmp_path / "points.csv"
    code = main(
        [
            "fpe",
            "--model", str(workdir / "model.json"),
            "--cov", str(workdir / "cov.csv"),
            "--n", "200",
            "--mode", "delta-f",
            "--directions", "12",
            "--focal", "gamma1,gamma2",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    q = canonical_model().q
    assert lines[0] == "angle,r," + ",".join(f"theta_{k+1}" for k in range(q)) + ",f_value"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert len(first) == q + 3


def test_fpe_csv_pinned(tmp_path):
    # fpe on a sampled covariance, byte for byte against the CSV written when
    # each point's f_value was a separate scalar evaluation
    cond = condition_from_label("Sigma3")
    s = wishart_sample(cond.sigma_pop, 50, replication_rng(1, "Sigma3", 50, 0.0, 0))
    save_model(canonical_model(), tmp_path / "model.json")
    np.savetxt(tmp_path / "cov.csv", s, delimiter=",")
    out = tmp_path / "points.csv"
    code = main(
        [
            "fpe",
            "--model", str(tmp_path / "model.json"),
            "--cov", str(tmp_path / "cov.csv"),
            "--n", "50",
            "--mode", "delta-f",
            "--directions", "24",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "fpe_sigma3_n50.csv").read_bytes()


def test_fpe_focal_by_index(workdir, capsys):
    code = main(
        [
            "fpe",
            "--model", str(workdir / "model.json"),
            "--cov", str(workdir / "cov.csv"),
            "--n", "200",
            "--focal", "5,6",
            "--directions", "8",
        ]
    )
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 9


def test_fpe_degenerate_target_rows_follow_sweep(workdir, capsys):
    # --delta-f 0 puts the level at the minimum: one row at r = 0 per swept
    # angle, and an odd direction count sweeps one more
    code = main(
        [
            "fpe",
            "--model", str(workdir / "model.json"),
            "--cov", str(workdir / "cov.csv"),
            "--n", "200",
            "--delta-f", "0",
            "--directions", "7",
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == list(2.0 * np.pi * np.arange(8) / 8)
    assert all(float(row[1]) == 0.0 for row in rows)


def test_confset_smoke(workdir, capsys):
    code = main(
        [
            "confset",
            "--model", str(workdir / "model.json"),
            "--cov", str(workdir / "cov.csv"),
            "--n", "200",
            "--directions", "16",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("method,major,minor")
    assert "quadratic," in out and "exact," in out


def test_study_deterministic_files(workdir, tmp_path):
    config = {
        "conditions": ["Sigma1"],
        "sample_sizes": [200],
        "epsilons": [0.0],
        "replications": 2,
        "directions": 16,
    }
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for out in (out1, out2):
        code = main(["study", "--config", str(cfg), "--seed", "42", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_design_targets_from_config():
    assert _design_from_config({}).targets == StudyDesign().targets
    confidence, eps_tilde, delta_f = DEFAULT_TARGETS
    assert _design_from_config({"targets": {"eps_tilde": 0.01}}).targets == (
        confidence, dataclasses.replace(eps_tilde, epsilon_tilde=0.01), delta_f
    )
    assert _design_from_config({"targets": {"delta_f_scaling": "raw"}}).targets == (
        confidence, eps_tilde, dataclasses.replace(delta_f, scaling="raw")
    )


def test_study_markdown_format(workdir, tmp_path, capsys):
    cfg = tmp_path / "design.json"
    cfg.write_text(
        json.dumps(
            {
                "conditions": ["Sigma1"],
                "sample_sizes": [200],
                "epsilons": [0.0],
                "replications": 1,
                "directions": 16,
                "seed": 1,
            }
        )
    )
    code = main(["study", "--config", str(cfg), "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("| condition | n |")


def test_table_check_passes(capsys):
    code = main(["table-check", "--fixture", "paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    assert out.count("ok") >= 8


def test_table_check_unknown_fixture(capsys):
    code = main(["table-check", "--fixture", "unknown"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_missing_file_exits_two(workdir, capsys):
    code = main(
        ["fit", "--model", "no-such-model.json", "--cov", str(workdir / "cov.csv"), "--n", "200"]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_domain_error_exits_one(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    s = np.asarray(condition_from_label("Sigma1").sigma_pop).copy()
    s[0, 1] += 0.5
    np.savetxt(bad, s, delimiter=",")
    code = main(
        ["fit", "--model", str(workdir / "model.json"), "--cov", str(bad), "--n", "200"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
