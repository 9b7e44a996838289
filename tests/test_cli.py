import json

import pytest

from jacobi_periods.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classnum_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "classnum", "--max", "8")
    assert code == 0
    data = json.loads(out)
    assert [0, -1, 12] in data["values"]
    assert [3, 1, 3] in data["values"]
    code, out, _ = run_cli(capsys, "classnum", "--max", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,numerator,denominator"
    assert lines[1] == "0,-1,12"


def test_classnum_usage_error(capsys):
    code, _, err = run_cli(capsys, "classnum", "--max", "-1")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_expand_e21_contains_constant_term(capsys):
    code, out, _ = run_cli(capsys, "expand", "e21", "--qbound", "2")
    assert code == 0
    data = json.loads(out)
    assert [0, 0, 1, 1] in data["terms"]
    assert data["weight"] == 2 and data["index"] == 1 and data["scale"] == 1


def test_expand_theta_fractional_weight(capsys):
    code, out, _ = run_cli(capsys, "expand", "theta1", "--qbound", "2")
    data = json.loads(out)
    assert data["weight"] == [1, 2]
    assert [1, 1, 1, 1] in data["terms"]


def test_expand_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "expand", "h32", "--qbound", "30")
    _, out2, _ = run_cli(capsys, "expand", "h32", "--qbound", "30")
    assert out1 == out2


def test_hecke_t2_literal_flag(capsys):
    code, out, _ = run_cli(capsys, "hecke", "t2", "--p", "2", "--qbound", "6")
    assert code == 0
    data = json.loads(out)
    assert [0, 3, 1] in data["terms"]  # (p+1) constant term
    code, out, _ = run_cli(capsys, "hecke", "t2", "--p", "2", "--qbound", "6",
                           "--literal-paper")
    data = json.loads(out)
    assert [0, 9, 4] in data["terms"]  # p + p^-2 constant instead


def test_lift_phi_matches_e2(capsys):
    code, out, _ = run_cli(capsys, "lift", "phi", "--D", "-4", "--qbound", "6")
    assert code == 0
    data = json.loads(out)
    assert [0, 1, 1] in data["terms"] and [1, -24, 1] in data["terms"]
    code, _, err = run_cli(capsys, "lift", "phi", "--qbound", "4")
    assert code == 2


def test_verify_relations(capsys):
    code, out, _ = run_cli(capsys, "verify", "relations")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["T^4 = E"] is True


def test_verify_relations_literal_law_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "relations", "--literal-paper")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_verify_groupring(capsys):
    code, out, _ = run_cli(capsys, "verify", "groupring", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "theorem_congruence" and data["status"] == "pass"
    assert data["n"] == 2


def test_verify_thetadecomp(capsys):
    code, out, _ = run_cli(capsys, "verify", "thetadecomp", "--qbound", "10")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_eigen_single_prime(capsys):
    code, out, _ = run_cli(capsys, "verify", "eigen", "--p", "2", "--qbound", "10")
    assert code == 0
    data = json.loads(out)
    assert data["p2"] == "pass"


def test_verify_product_reports_ambiguity(capsys):
    code, out, _ = run_cli(capsys, "verify", "product", "--n", "2", "--np", "3", "--k", "2")
    data = json.loads(out)
    assert data["defect_in_transfer_ambiguity"] is True
    assert code in (0, 1)


def test_verify_diagram_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "diagram", "--p", "2", "--D", "-3",
                           "--qbound", "5")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_diagram_literal_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "diagram", "--p", "2", "--D", "-3",
                           "--qbound", "5", "--literal-paper")
    assert code == 1


def test_verify_numeric_beta_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "numeric", "--check", "beta")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["status"] == "pass"
    # the closed form runs at the configured 30 digits, not mpmath's default 15
    assert data["reports"][0]["max_abs_error"] < 1e-25


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["--output", str(target), "expand", "e2", "--qbound", "3"])
    assert code == 0
    data = json.loads(target.read_text())
    assert [1, -24, 1] in data["terms"]


def test_precision_env_var(monkeypatch):
    import argparse

    from jacobi_periods.cli import _config

    args = argparse.Namespace(qmax=10, quad_nodes=4, tol=1e-6, precision=25)
    monkeypatch.setenv("JACOBI_PERIODS_PRECISION", "44")
    assert _config(args).dps == 44
    monkeypatch.delenv("JACOBI_PERIODS_PRECISION")
    assert _config(args).dps == 25
    monkeypatch.setenv("JACOBI_PERIODS_PRECISION", "lots")
    code = main(["verify", "numeric", "--check", "beta"])
    assert code == 2
