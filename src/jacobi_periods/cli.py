"""Command-line front end.

Subcommands mirror the library: exact expansions and Hecke actions, the
class-number table, the lift square, and the verification suites; each leaf
(`hecke tj`, `verify numeric`, ...) takes only the options it reads.  Reports
are JSON with sorted keys and sorted term lists, so identical invocations are
byte-identical.  On `expand`, `hecke` and `lift`, `--qbound Q` emits an
expansion complete below q^Q, with qbound Q; each input is built to the
order such an output reads.  Exit codes: 0 on success/pass, 1 when a
verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arith, fourier, group_ring, jacobi_group, numeric
from .errors import DomainError, InvalidElementError, PrecisionError, ResourceLimitError

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _write(text, args) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload, args) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2), args)


def _emit_csv(rows, header, args) -> None:
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    _write("\n".join(lines), args)


def _config(args) -> numeric.NumericConfig:
    return numeric.NumericConfig(quad_nodes=args.quad_nodes, dps=args.precision)


def cmd_classnum(args) -> int:
    table = arith.ClassNumberTable.build(args.max)
    rows = list(table.rows())
    if args.format == "csv":
        _emit_csv(rows, ("N", "numerator", "denominator"), args)
    else:
        _emit({"max": table.max, "values": [list(r) for r in rows]}, args)
    return EXIT_OK


_SERIES_BUILDERS = {
    "e21": lambda a: fourier.e21_expansion(a.qbound),
    "theta0": lambda a: fourier.theta(0, a.qbound),
    "theta1": lambda a: fourier.theta(1, a.qbound),
    "e2": lambda a: fourier.e2_series(a.qbound),
    "h32": lambda a: fourier.h32_series(a.qbound),
    "hmu": lambda a: fourier.h_mu_series(a.mu, a.qbound),
}


def cmd_expand(args) -> int:
    _emit(_SERIES_BUILDERS[args.series](args).to_json_dict(), args)
    return EXIT_OK


def cmd_hecke(args) -> int:
    q = args.qbound
    fourier._bound(q)  # named as given: the builders see only bounds derived from it
    n = args.n if args.operator == "v" else args.p
    if n < 1:  # refused before it scales any bound
        raise DomainError(f"level must be >= 1, got {n}")
    if args.operator == "v":
        out = fourier.apply_V(fourier.e21_expansion(q * n), n)
    elif args.operator == "tj":
        need = fourier.tj_needed_nmax(n, q - 1) + 1 if q else 0
        out = fourier.apply_T_jacobi(fourier.e21_expansion(need), n)
    elif args.operator == "thalf":
        out = fourier.apply_T_half(fourier.h32_series(q * n**2), n)
    else:  # t2
        out = fourier.apply_T_weight2(fourier.e2_series(q * n), n, literal=args.literal_paper)
    _emit(out.to_json_dict(), args)
    return EXIT_OK


def cmd_lift(args) -> int:
    q = args.qbound
    fourier._bound(q)
    if args.lift == "phi":
        arith.require_negative_fundamental(args.D)  # before the series is built
        out = fourier.phi_lift(fourier.h32_series(q * q * abs(args.D)), args.D)
    else:
        out = fourier.psi_lift(fourier.h32_series(4 * q))
    _emit(out.to_json_dict(), args)
    return EXIT_OK


def _verify_report(name, passed, detail, args) -> int:
    detail = dict(detail)
    detail.update({"check": name, "status": "pass" if passed else "fail"})
    _emit(detail, args)
    return EXIT_OK if passed else EXIT_FAIL


def verify_thetadecomp(args) -> int:
    ok = fourier.theta_decomposition_check(args.qbound)
    return _verify_report("theta_decomposition", ok, {"qbound": args.qbound}, args)


def verify_eigen(args) -> int:
    qb, primes = args.qbound, [2, 3, 5] if args.p is None else [args.p]
    fourier._bound(qb, 1)  # the output orders compared are 0..qb-1
    detail, ok = {"qbound": qb, "primes": primes}, True
    for p in primes:
        f = fourier.e21_expansion(fourier.tj_needed_nmax(p, qb - 1) + 1)
        want = f.below(qb).scaled_by(arith.sigma(p, 1))  # the eigenvalue of T_n on E
        good = fourier.apply_T_jacobi(f, p).equal_below(want, qb)
        detail[f"p{p}"] = "pass" if good else "fail"
        ok = ok and good
    return _verify_report("hecke_eigenvalue", ok, detail, args)


def verify_diagram(args) -> int:
    detail, ok = {"qbound": args.qbound}, True
    for p in (2, 3) if args.p is None else [args.p]:
        for D in (-3, -4) if args.D is None else [args.D]:
            rep = fourier.diagram_check(p, D, args.qbound, literal_weight2=args.literal_paper)
            detail[f"p{p}_D{D}"] = "pass" if rep["ok"] else "fail"
            ok = ok and rep["ok"]
    return _verify_report("lift_diagram", ok, detail, args)


def verify_groupring(args) -> int:
    rep = group_ring.check_theorem_congruence(args.n)
    return _verify_report("theorem_congruence", rep.pop("ok"),
                          {"n": args.n, **{k: bool(v) for k, v in rep.items()}}, args)


def verify_product(args) -> int:
    rep = group_ring.check_product_formula(args.n, args.np, args.k)
    return _verify_report("product_formula", rep.pop("ok"),
                          {"n": args.n, "np": args.np, "k": args.k, **rep}, args)


def verify_relations(args) -> int:
    if args.literal_paper:
        a, b, c = (jacobi_group.generator(name) for name in ("S", "T", "I2"))
        lit = jacobi_group.compose_literal_subscriptfree
        assoc = lit(lit(a, b), c) == lit(a, lit(b, c))
        return _verify_report("group_relations_literal_law", assoc,
                              {"associative": assoc, "note": "subscript-free lattice law"}, args)
    rep = jacobi_group.check_relations()
    return _verify_report("group_relations", all(rep.values()),
                          {k: bool(v) for k, v in rep.items()}, args)


def verify_theorem1(args) -> int:
    cfg, check = _config(args), numeric.CHECKS["theorem1"]
    detail, ok = {"tol": check.gate}, True
    for n in [2, 3] if args.n is None else [args.n]:
        rep = check.run(cfg, n)
        detail[f"n{n}_max_abs_error"] = rep[check.key]
        ok = ok and rep[check.key] < check.gate
    return _verify_report("index_raising_transfer", ok, detail, args)


# `verify numeric` runs every floating check but theorem1 (its own suite)
_NUMERIC_SUITE = [name for name in numeric.CHECKS if name != "theorem1"]


def verify_numeric(args) -> int:
    cfg, reports, ok = _config(args), [], True
    for name in [args.check] if args.check else _NUMERIC_SUITE:
        check = numeric.CHECKS[name]
        rep = check.run(cfg, args.p)
        passed = rep[check.key] < check.gate
        rep.update({"tol": check.gate, "status": "pass" if passed else "fail"})
        reports.append(rep)
        ok = ok and passed
    _emit({"check": "numeric_suite", "reports": reports,
           "status": "pass" if ok else "fail"}, args)
    return EXIT_OK if ok else EXIT_FAIL


def _commands(sub, name, dest, help):
    """The subcommands of `name`; the one given is stored as args.<dest>."""
    return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)


def _leaf(sub, name, func, help=None, **options):
    """Add the command `name`, run by `func`, with one option per keyword
    (`quad_nodes` is `--quad-nodes`): an int or None is an integer option
    with that default, a dict holds add_argument's own settings."""
    p = sub.add_parser(name, help=help)
    for dest, spec in options.items():
        p.add_argument("--" + dest.replace("_", "-"),
                       **(spec if isinstance(spec, dict) else {"type": int, "default": spec}))
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobi-periods",
        description="Exact and numerical verification of the Hecke action on "
                    "period functions of index-one Jacobi forms.",
    )
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    _leaf(sub, "classnum", cmd_classnum, "emit the Hurwitz class-number table",
          max={"type": int, "required": True},
          format={"choices": ("json", "csv"), "default": "json"})

    series = _commands(sub, "expand", "series", "emit a standard expansion as JSON")
    for name in sorted(_SERIES_BUILDERS):
        mu = {"mu": {"type": int, "choices": (0, 1), "default": 0}} if name == "hmu" else {}
        _leaf(series, name, cmd_expand, qbound=10, **mu)

    ops = _commands(sub, "hecke", "operator", "apply a Hecke operator to the standard series")
    _leaf(ops, "v", cmd_hecke, "index-raising V_n", n=2, qbound=10)
    _leaf(ops, "tj", cmd_hecke, "index-preserving T_p", p=2, qbound=10)
    _leaf(ops, "thalf", cmd_hecke, "weight-3/2 T_{p^2}", p=2, qbound=10)
    _leaf(ops, "t2", cmd_hecke, "weight-2 T_p", p=2, qbound=10,
          literal_paper={"action": "store_true", "help": "use the d^-4 lower-term exponent"})

    lifts = _commands(sub, "lift", "lift", "lift the class-number series")
    _leaf(lifts, "phi", cmd_lift, D={"type": int, "required": True,
                                     "help": "negative fundamental discriminant"}, qbound=10)
    _leaf(lifts, "psi", cmd_lift, qbound=10)

    suites = _commands(sub, "verify", "suite", "run a verification suite")
    literal = {"action": "store_true", "help": "demonstrate the documented source discrepancy"}
    d = numeric.DEFAULT_CONFIG
    config = {"quad_nodes": d.quad_nodes, "precision": d.dps}
    _leaf(suites, "thetadecomp", verify_thetadecomp, qbound=20)
    _leaf(suites, "eigen", verify_eigen, p=None, qbound=15)
    _leaf(suites, "diagram", verify_diagram, p=None, D=None, qbound=12, literal_paper=literal)
    _leaf(suites, "groupring", verify_groupring, n=2)
    _leaf(suites, "product", verify_product, n=2, np=3, k=2)
    _leaf(suites, "relations", verify_relations, literal_paper=literal)
    _leaf(suites, "numeric", verify_numeric, p=None, **config,
          check={"choices": _NUMERIC_SUITE, "help": "run only this check"})
    _leaf(suites, "theorem1", verify_theorem1, n=None, **config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DomainError, InvalidElementError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
