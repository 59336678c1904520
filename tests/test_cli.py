import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from fungible import (
    canonical_model,
    condition_from_label,
    model_to_dict,
    replication_rng,
    save_model,
    wishart_sample,
)
from fungible.cli import _design_from_config, build_parser, main
from fungible.simstudy import DEFAULT_TARGETS, StudyDesign
from helpers import clear_fit_caches

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


@pytest.mark.parametrize("command", ["confset", "fpe"])
@pytest.mark.parametrize(
    "focal, message",
    [
        ("0,99", "0..13"),
        ("gamma1,-1", "0..13"),
        ("gamma1,gamma1", "distinct"),
        ("gamma1,bogus", "unknown parameter 'bogus'"),
    ],
)
def test_bad_focal_exits_one(workdir, capsys, command, focal, message):
    code = main(
        [
            command,
            "--model", str(workdir / "model.json"),
            "--cov", str(workdir / "cov.csv"),
            "--n", "200",
            "--focal", focal,
            "--directions", "8",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert message in lines[0]


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
        clear_fit_caches()
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


def test_cov_within_relative_symmetry_accepted(workdir, tmp_path, capsys):
    # asymmetry 5e-10 on entries near 10 is within fit_ml's relative rule
    # (1e-10 x max|s|), so the CLI fits it as the library does
    s = 10.0 * np.asarray(condition_from_label("Sigma1").sigma_pop)
    s[0, 1] += 5e-10
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, s, delimiter=",", fmt="%.17g")
    code = main(["fit", "--model", str(workdir / "model.json"), "--cov", str(cov), "--n", "200"])
    assert code == 0
    assert "stat,converged,True" in capsys.readouterr().out


@pytest.mark.parametrize("shape_error, message", [(False, "symmetric"), (True, "square")])
def test_bad_cov_file_exits_one(workdir, tmp_path, capsys, shape_error, message):
    s = np.asarray(condition_from_label("Sigma1").sigma_pop).copy()
    if shape_error:
        s = s[:, :-1]
    else:
        s[0, 1] += 1e-3
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, s, delimiter=",", fmt="%.17g")
    code = main(["fit", "--model", str(workdir / "model.json"), "--cov", str(cov), "--n", "200"])
    assert code == 1
    assert message in capsys.readouterr().err


def _one_error_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(prefix)
    return lines[0]


@pytest.mark.parametrize(
    "config, message",
    [
        # a misspelt key would otherwise run the default 500 replications
        ({"replication": 2}, "unknown study config key(s): 'replication'"),
        ({"targets": {"eps-tilde": 0.01}}, "unknown study config targets key(s): 'eps-tilde'"),
        ({"focal": ["gamma1", "bogus"]}, "unknown parameter 'bogus'"),
        # would otherwise turn the sampled confidence cell into a population cell
        ({"population_analysis": ["bogus"]}, "population_analysis lists modes not in targets"),
        # a TypeError traceback, N = 200, seed 1 and an accepted string before
        ({"replications": "2"}, "replications must be an integer, got '2'"),
        ({"sample_sizes": [200.5]}, "sample_sizes must be a list of integers"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"directions": "90"}, "directions must be an integer, got '90'"),
        # a TypeError traceback before, and a list of the string's letters
        ({"targets": {"confidence": "0.95"}}, "confidence must be a finite real number, got '0.95'"),
        ({"targets": {"delta_f_scaling": 1}}, "scaling must be a string, got 1"),
        ({"population_analysis": "confidence"},
         "population_analysis must be a list of strings, got 'confidence'"),
        # once named the ContourTarget field, or no field at all
        ({"targets": {"eps_tilde": "x"}},
         "targets key 'eps_tilde': epsilon_tilde must be a finite real number, got 'x'"),
        ({"targets": {"delta_f_scaling": 1}},
         "targets key 'delta_f_scaling': scaling must be a string, got 1"),
        ({"targets": {"eps_tilde": -1}},
         "targets key 'eps_tilde': contour offsets must be nonnegative"),
        ({"targets": {"delta_f_scaling": "bogus"}},
         "targets key 'delta_f_scaling': unknown delta_f scaling 'bogus'"),
    ],
)
def test_bad_study_config_exits_one(tmp_path, capsys, config, message):
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps(config))
    assert main(["study", "--config", str(cfg)]) == 1
    assert message in _one_error_line(capsys, "error:")


@pytest.mark.parametrize("command", ["fit", "fpe", "confset"])
def test_parser_defaults(command):
    args = build_parser().parse_args([command, "--model", "m.json", "--cov", "c.csv", "--n", "50"])
    assert (args.max_iter, args.grad_tol) == (500, 1e-6)
    if command != "fit":
        assert (args.level, args.focal, args.directions) == (0.95, "gamma1,gamma2", 360)
    if command == "fpe":
        assert (args.delta_f, args.eps_tilde, args.scaling) == (0.05, 0.005, "likelihood")


def _model_doc_without(key, entry_key=None):
    doc = json.loads(json.dumps(model_to_dict(canonical_model())))
    if entry_key is None:
        del doc[key]
    else:
        del doc[key][0][entry_key]
    return doc


def _model_doc_with_nan_f1_variance():
    doc = model_to_dict(canonical_model())
    doc["symmetric"] = [e for e in doc["symmetric"] if (e["row"], e["col"]) != ("f1", "f1")]
    # written as the JSON literal NaN, which json reads back
    doc["symmetric"].append({"row": "f1", "col": "f1", "value": float("nan")})
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_model_doc_without("observed"), "lacks the required key 'observed'"),
        (_model_doc_without("directed", "row"), "lacks the key 'row'"),
        ([1, 2], "must be a JSON object, got list"),
        # once "conflicting symmetric entry at (6, 6)"
        (_model_doc_with_nan_f1_variance(), "fixed value at (f1, f1) must be finite, got nan"),
    ],
    ids=["no-observed", "entry-without-row", "top-level-list", "nan-fixed-value"],
)
def test_bad_model_file_exits_one(workdir, tmp_path, capsys, doc, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = main(["fit", "--model", str(model), "--cov", str(workdir / "cov.csv"), "--n", "200"])
    assert code == 1
    assert message in _one_error_line(capsys, "error:")


@pytest.mark.parametrize("command", ["fit", "table-check"])
def test_out_in_missing_directory_exits_two(workdir, tmp_path, capsys, command):
    out = tmp_path / "no-such-dir" / "out.csv"
    args = ["--out", str(out)]
    if command == "fit":
        args += ["--model", str(workdir / "model.json"), "--cov", str(workdir / "cov.csv")]
        args += ["--n", "200"]
    assert main([command, *args]) == 2
    assert "existing directory" in _one_error_line(capsys, "usage error:")
    assert not out.parent.exists()
