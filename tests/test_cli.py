import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from jacobi_periods import fourier
from jacobi_periods.cli import _SERIES_BUILDERS, _config, build_parser, main
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
    assert code == 2 and err == "error: table bound must be nonnegative, got -1\n"


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


@pytest.mark.parametrize("n", [1, 4, 6, 7, 11])
def test_verify_eigen_at_any_level_uses_sigma_one(capsys, n):
    # the eigenvalue of T_n on E_{2,1} is sigma_1(n), which is n + 1 only at primes
    code, out, _ = run_cli(capsys, "verify", "eigen", "--p", str(n), "--qbound", "15")
    assert code == 0 and json.loads(out)[f"p{n}"] == "pass"


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


@pytest.mark.parametrize("command", [
    "hecke v --n 3", "hecke tj --p 3", "hecke thalf --p 3", "hecke t2 --p 2", "lift phi --D -3",
    "lift psi",
])
@pytest.mark.parametrize("qbound", [0, 1, 6])
def test_qbound_is_the_output_bound(capsys, command, qbound):
    # --qbound Q emits an expansion complete below q^Q on every command
    code, out, _ = run_cli(capsys, *command.split(), "--qbound", str(qbound))
    data = json.loads(out)
    assert code == 0 and data["qbound"] == qbound
    assert qbound or data["terms"] == []


@pytest.mark.parametrize("qbound", ["0", "1", "20"])
def test_lift_psi_is_the_e21_expansion(capsys, qbound):
    _, lifted, _ = run_cli(capsys, "lift", "psi", "--qbound", qbound)
    _, expanded, _ = run_cli(capsys, "expand", "e21", "--qbound", qbound)
    assert lifted == expanded


def test_every_series_is_empty_at_qbound_zero(capsys):
    for argv in [[name] for name in _SERIES_BUILDERS] + [["hmu", "--mu", "1"]]:
        _, out, _ = run_cli(capsys, "expand", *argv, "--qbound", "0")
        data = json.loads(out)
        assert (data["qbound"], data["terms"]) == (0, []), argv


@pytest.mark.parametrize("command", [
    "verify groupring --precision 50 --D 7",
    "verify relations --qbound 3 --check nope",
    "verify thetadecomp --literal-paper",
    "verify numeric --check beta --n 9",
    "verify numeric --check nope",
    "verify eigen --tol nan",
    "verify numeric --qmax 5",
    "verify theorem1 --tol 1e-9",
    "verify --n 3 groupring",
    "expand e21 --mu 1",
    "hecke tj --n 3",
    "hecke v --literal-paper",
    "lift psi --D -3",
])
def test_foreign_options_are_usage_errors(capsys, command):
    # each leaf command accepts only the options it reads, after its own name;
    # any other is refused by the parser, before a suite runs
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out) == (2, "") and err.startswith("usage: jacobi-periods")


def test_verify_options_reach_the_config():
    parser = build_parser()
    cfg = _config(parser.parse_args(["verify", "numeric", "--precision", "44", "--quad-nodes", "7"]))
    assert (cfg.dps, cfg.quad_nodes) == (44, 7)
    assert _config(parser.parse_args(["verify", "numeric"])) == NumericConfig()


def _leaf_options(parser, path=()):
    """{command path: its options} for every leaf command under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): {o for a in parser._actions for o in a.option_strings
                                 if o.startswith("--") and o != "--help"}}
    return {leaf: opts for name, sub in subs[0].choices.items()
            for leaf, opts in _leaf_options(sub, path + (name,)).items()}


def test_readme_option_table_matches_the_parser():
    # each row of the README's option table names one or more leaf commands
    # (`hecke tj\|thalf`) and lists exactly the options each of them takes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = {}
    for command, options in re.findall(r"^\| `([a-z0-9 \\|]+)` \| (.*) \|$", readme, re.M):
        *head, last = command.split()
        for name in last.split("\\|"):
            documented[" ".join(head + [name])] = set(re.findall(r"--[A-Za-z][\w-]*", options))
    assert documented == _leaf_options(build_parser())


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
    ("verify", "numeric", "--check", "beta", "--precision", "0"),
    ("verify", "eigen", "--qbound", "0"),
    ("verify", "product", "--n", "2", "--np", "2", "--k", "1"),
    # refused by the term budgets
    ("verify", "groupring", "--n", "12"),
    ("verify", "groupring", "--n", "1000"),
    ("verify", "product", "--n", "3", "--np", "5"),
    ("verify", "product", "--n", "1000", "--np", "1"),
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


@pytest.mark.parametrize("command, message", [
    ("hecke v --n -1", "level must be >= 1, got -1"),
    ("hecke v --n 0", "level must be >= 1, got 0"),
    ("hecke t2 --p -1", "level must be >= 1, got -1"),
    ("hecke t2 --p 0", "level must be >= 1, got 0"),
    ("hecke thalf --p 0", "level must be >= 1, got 0"),
    ("hecke tj --p 0", "level must be >= 1, got 0"),
    ("verify eigen --p -5", "n must be >= 1, got -5"),
    ("verify diagram --p -5", "n must be >= 1, got -5"),
])
def test_hecke_level_is_named_as_given(capsys, command, message):
    # the level is checked before it scales any bound
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("suite", ["diagram", "thetadecomp"])
@pytest.mark.parametrize("qbound", ["0", "-2"])
def test_diagram_and_thetadecomp_qbound_is_named_as_given(capsys, suite, qbound):
    code, out, err = run_cli(capsys, "verify", suite, "--qbound", qbound)
    assert (code, out) == (2, "") and err == f"error: qbound must be >= 1, got {qbound}\n"


@pytest.mark.parametrize("command", [
    "lift phi --D -400 --qbound 30",
    "lift phi --D 400 --qbound 30",
    "verify diagram --D -400 --p 5",
])
def test_bad_discriminant_is_refused_before_any_series_is_built(capsys, monkeypatch, command):
    def no_series(qbound):
        raise AssertionError("a series was built")

    monkeypatch.setattr(fourier, "h32_series", no_series)
    code, out, err = run_cli(capsys, *command.split())
    D = command.split()[command.split().index("--D") + 1]
    assert (code, out, err) == (2, "", f"error: {D} is not a negative fundamental discriminant\n")


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
        "e8d4f34dbb52113e7e3c6e4ef4fc5edd7531689c44cda129a3ae8e5ee10dac47",
    "verify relations":
        "ef943812c3c21197d25ee6b6907d72f3a9068a8d87f8244fc018d9b184342a9d",
    "verify relations --literal-paper":
        "073f3d0b43e07c03ac5af9ffca898812c1d44517f938027453f03c3cb561fe70",
    "verify groupring --n 3":
        "65b16c3c7ca369f223b7e65b5b2dca615a21d5d6323fe3b5e911217e9e9ae1b7",
    "verify groupring --n 6":
        "09e1b25bc5e0ddb63a6f85ace034159b2245418078be4a2ce43aaf13f17262b7",
    "verify groupring --n 10":
        "361cdcce9b892af67ea9d43c01bd1d82d09619f3243033eb18b54178d8913bf3",
    "verify product --n 2 --np 3 --k 2":
        "f2073231e4c59900549dcb4966fb7c6c311c4990c32bd839a404758a71803708",
    "classnum --max 100 --format csv":
        "42bdbdcc6e4517b302a6ce017dd9d4b294da6f137e51f220820dd17d6e9b87c9",
    "classnum --max 2000":
        "60987b929e4606bc097d64cc35335a25e7fe5564ad850bc50ac1c1876e4f1e06",
    "hecke v --n 3 --qbound 10":
        "1b0f488e8396c1322b0a86c7693f5ca8f6b5da1a5e6168c098db94c89affff8d",
    "lift psi --qbound 20":
        "9af56a60143a9ae523a3780fac7900315716e202e1f9b9b388bcd86e5fb7c96a",
    "lift phi --D -3 --qbound 6":
        "d0cbdf7f7927b837bf481b7aebb2c5b4c1330bc1a59d5eb3eea3f7f22d6d1c7b",
    "hecke thalf --p 3 --qbound 10":
        "1088ee14f8405dc7a6599e6c197a298931aaf6c7cf40453aa9d65c0e0ad10dca",
    "verify eigen":
        "80ea40e6b0f3e38331a5b23499ea4ae0d6f0360b2f326cf734a7ed219c2dae93",
    "verify diagram":
        "5ee69cc0cf2e5441c9d892e85cbae436644dbd51bb621dfd3c6a91de2680b261",
    "verify numeric":
        "10b02294e798039b171f5b53769b0309bd096bb3ad929fb5f272892024a42cea",
    "verify numeric --check transfer --p 3":
        "823a1fc1692ee1c273080742229afd75a873dcfb82e927fcf7f23c18a96e47bd",
    "verify theorem1":
        "9f51beff0fa162b989ec928d6c649e396f0cc06e418f97163159c935656a6208",
    "verify numeric --check relations --precision 45":
        "e5b5d2dc1f8b515cc015e03cb57d3fa011d77641b60c7a8b3c33612f780fd702",
    "verify numeric --check translaw --precision 60 --quad-nodes 7":
        "0d2cdd532b75ee1e181230e956e9fb53ba23e31d8a1960afdd31922ce4dd64ec",
    "verify theorem1 --n 3":
        "6b54455d78b3cb73c8629afbf571eb7a789089b4fe4bbdb02300a01b2fd68610",
    "verify numeric --check phi --precision 45":
        "c816029d0d54f6544082c95b6cf320ff7b8b6cdc4483f5058b4c503401f16686",
}


def test_deterministic_outputs_are_unchanged(capsys):
    for command, digest in GOLDEN.items():
        _, out, _ = run_cli(capsys, *command.split())
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
