import hashlib
import json

import pytest

from jacobi_periods.cli import _config, build_parser, main
from jacobi_periods.numeric import NumericConfig


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


def test_verify_options_reach_the_config():
    parser = build_parser()
    cfg = _config(parser.parse_args(["verify", "numeric", "--precision", "44", "--qmax", "12"]))
    assert (cfg.dps, cfg.qmax) == (44, 12)
    assert _config(parser.parse_args(["verify", "numeric"])) == NumericConfig()


@pytest.mark.parametrize("argv", [
    ("verify", "groupring", "--n", "0"),
    ("verify", "eigen", "--p", "0", "--qbound", "3"),
    ("verify", "eigen", "--qbound", "-1"),
    ("verify", "theorem1", "--n", "0"),
    ("verify", "diagram", "--p", "0", "--D", "-3"),
    ("hecke", "thalf", "--p", "0"),
    ("hecke", "t2", "--p", "0"),
    ("verify", "thetadecomp", "--qbound", "0"),
    ("expand", "e21", "--qbound", "-3"),
    ("hecke", "tj", "--qbound", "-3"),
    ("hecke", "v", "--qbound", "-3"),
    ("lift", "phi", "--D", "-3", "--qbound", "-3"),
    ("lift", "psi", "--qbound", "-1"),
    ("verify", "numeric", "--check", "beta", "--tol", "nan"),
    ("verify", "eigen", "--qbound", "0"),
    ("verify", "product", "--n", "2", "--np", "2", "--k", "1"),
])
def test_explicit_bad_levels_are_usage_errors(capsys, argv):
    # an explicit out-of-range value is refused with a DomainError
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_negative_qbound_is_named_as_given(capsys):
    # hecke and lift derive the builders' bounds from --qbound, so they check it first
    code, _, err = run_cli(capsys, "hecke", "v", "--qbound", "-3")
    assert code == 2 and err == "error: qbound must be >= 0, got -3\n"


def test_eigen_qbound_is_named_as_given(capsys):
    # qbound 0 would compare no order; the derived output order is -1
    code, out, err = run_cli(capsys, "verify", "eigen", "--qbound", "0")
    assert (code, out) == (2, "") and err == "error: qbound must be >= 1, got 0\n"


@pytest.mark.parametrize("option, want", [
    (("--p", "5"), ["p5_D-3", "p5_D-4"]),
    (("--D", "-4"), ["p2_D-4", "p3_D-4"]),
])
def test_verify_diagram_single_option(capsys, option, want):
    # a lone --p or --D fixes that coordinate and keeps the other's defaults
    code, out, _ = run_cli(capsys, "verify", "diagram", *option, "--qbound", "4")
    rep = json.loads(out)
    assert code == 0 and sorted(k for k in rep if k.startswith("p")) == want


# SHA-256 of the stdout of deterministic commands (no floating-point output)
GOLDEN = {
    "expand e21 --qbound 8":
        "0c4a0a014263d8aa0a697064f2a7d089175232634a6ce4d5f98d9c68b57473cb",
    "hecke tj --p 3 --qbound 10":
        "db4227311e71df63658ac12547307700e59abe6ee3940125b94c7df5a4db844f",
    "hecke t2 --p 2 --qbound 6 --literal-paper":
        "08c85f3f6c4e4d2d263a7d9847b2309df8d8a5efd4f62fd14f0e3df878ec39a9",
    "verify relations":
        "ef943812c3c21197d25ee6b6907d72f3a9068a8d87f8244fc018d9b184342a9d",
    "verify relations --literal-paper":
        "073f3d0b43e07c03ac5af9ffca898812c1d44517f938027453f03c3cb561fe70",
    "verify groupring --n 3":
        "65b16c3c7ca369f223b7e65b5b2dca615a21d5d6323fe3b5e911217e9e9ae1b7",
    "verify product --n 2 --np 3 --k 2":
        "f2073231e4c59900549dcb4966fb7c6c311c4990c32bd839a404758a71803708",
    "classnum --max 100 --format csv":
        "42bdbdcc6e4517b302a6ce017dd9d4b294da6f137e51f220820dd17d6e9b87c9",
    "hecke v --n 3 --qbound 10":
        "57f5fc6fc31937fe770bf9e1509c53c13bb7b0ab3414f020a6ea438546062ad8",
    "lift psi --qbound 20":
        "5db1928047996f69ac9c76a6ac343085e5b1ca31c7863f8278af25653ecef9da",
    "lift phi --D -3 --qbound 6":
        "de2be2ce742cc1d0fe3fc3a908813577f6a7f75b3cb4f4d49552d897f53ce6f5",
    "verify eigen":
        "80ea40e6b0f3e38331a5b23499ea4ae0d6f0360b2f326cf734a7ed219c2dae93",
    "verify diagram":
        "5ee69cc0cf2e5441c9d892e85cbae436644dbd51bb621dfd3c6a91de2680b261",
}


def test_deterministic_outputs_are_unchanged(capsys):
    for command, digest in GOLDEN.items():
        _, out, _ = run_cli(capsys, *command.split())
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
