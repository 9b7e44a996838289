"""Command-line front end.

Subcommands mirror the library: exact expansions and Hecke actions, the
class-number table, the lift square, and the verification suites.  All
reports are emitted as JSON with sorted keys and sorted term lists, so
identical invocations are byte-identical.  Exit codes: 0 on success/pass,
1 when a verification fails, 2 on usage errors.
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
    return numeric.NumericConfig(qmax=args.qmax, quad_nodes=args.quad_nodes, tol=args.tol,
                                 dps=args.precision)


def cmd_classnum(args) -> int:
    if args.max < 0:
        print("classnum: --max must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    table = arith.ClassNumberTable.build(args.max)
    rows = list(table.rows())
    if args.format == "csv":
        _emit_csv(rows, ("N", "numerator", "denominator"), args)
    else:
        _emit({"max": table.max, "values": [list(r) for r in rows]}, args)
    return EXIT_OK


_SERIES_BUILDERS = {
    "e21": lambda q, a: fourier.e21_expansion(q),
    "theta0": lambda q, a: fourier.theta(0, q),
    "theta1": lambda q, a: fourier.theta(1, q),
    "e2": lambda q, a: fourier.e2_series(q),
    "h32": lambda q, a: fourier.h32_series(q),
    "hmu": lambda q, a: fourier.h_mu_series(a.mu, q),
}


def cmd_expand(args) -> int:
    obj = _SERIES_BUILDERS[args.series](args.qbound, args)
    _emit(obj.to_json_dict(), args)
    return EXIT_OK


def _require_qbound(qbound: int, least: int = 0) -> None:
    """Reject a --qbound below `least` up front, naming the value given: the
    builders see only bounds derived from it."""
    if qbound < least:
        raise DomainError(f"qbound must be >= {least}, got {qbound}")


def cmd_hecke(args) -> int:
    _require_qbound(args.qbound)
    if args.operator == "v":
        out = fourier.apply_V(fourier.e21_expansion(args.qbound * args.n + 1), args.n)
    elif args.operator == "tj":
        need = fourier.tj_needed_nmax(args.p, max(args.qbound - 1, 0)) + 1
        out = fourier.apply_T_jacobi(fourier.e21_expansion(max(need, args.qbound)), args.p)
    elif args.operator == "thalf":
        out = fourier.apply_T_half(fourier.h32_series(args.qbound * args.p**2 + 1), args.p)
    else:  # t2
        out = fourier.apply_T_weight2(fourier.e2_series(args.qbound * args.p + 1), args.p,
                                      literal=args.literal_paper)
    _emit(out.to_json_dict(), args)
    return EXIT_OK


def cmd_lift(args) -> int:
    _require_qbound(args.qbound)
    if args.lift == "phi":
        if args.D is None:
            print("lift phi: --D is required", file=sys.stderr)
            return EXIT_USAGE
        src = fourier.h32_series(args.qbound * args.qbound * abs(args.D) + 1)
        out = fourier.phi_lift(src, args.D)
    else:
        out = fourier.psi_lift(fourier.h32_series(4 * args.qbound + 1))
    _emit(out.to_json_dict(), args)
    return EXIT_OK


def _verify_report(name, passed, detail, args) -> int:
    detail = dict(detail)
    detail.update({"check": name, "status": "pass" if passed else "fail"})
    _emit(detail, args)
    return EXIT_OK if passed else EXIT_FAIL


def _given(value, default):
    return default if value is None else value


def cmd_verify(args) -> int:
    cfg = _config(args)
    if args.suite == "thetadecomp":
        qb = _given(args.qbound, 20)
        ok = fourier.theta_decomposition_check(qb)
        return _verify_report("theta_decomposition", ok, {"qbound": qb}, args)

    if args.suite == "eigen":
        primes = [2, 3, 5] if args.p is None else [args.p]
        qb = _given(args.qbound, 15)
        _require_qbound(qb, 1)  # the output orders compared are 0..qb-1
        detail, ok = {"qbound": qb, "primes": primes}, True
        for p in primes:
            need = fourier.tj_needed_nmax(p, qb - 1) + 1
            f = fourier.e21_expansion(need)
            out = fourier.apply_T_jacobi(f, p)
            good = out.equal_below(f.scaled_by(p + 1), qb)
            detail[f"p{p}"] = "pass" if good else "fail"
            ok = ok and good
        return _verify_report("hecke_eigenvalue", ok, detail, args)

    if args.suite == "diagram":
        qb = _given(args.qbound, 12)
        detail, ok = {"qbound": qb}, True
        for p in (2, 3) if args.p is None else [args.p]:
            for D in (-3, -4) if args.D is None else [args.D]:
                rep = fourier.diagram_check(p, D, qb, literal_weight2=args.literal_paper)
                detail[f"p{p}_D{D}"] = "pass" if rep["ok"] else "fail"
                ok = ok and rep["ok"]
        return _verify_report("lift_diagram", ok, detail, args)

    if args.suite == "groupring":
        n = _given(args.n, 2)
        rep = group_ring.check_theorem_congruence(n)
        return _verify_report("theorem_congruence", rep.pop("ok"),
                              {"n": n, **{k: bool(v) for k, v in rep.items()}}, args)

    if args.suite == "product":
        n, n2, k = _given(args.n, 2), _given(args.np, 3), _given(args.k, 2)
        rep = group_ring.check_product_formula(n, n2, k)
        ok = rep.pop("ok")
        return _verify_report("product_formula", ok, {"n": n, "np": n2, "k": k, **rep}, args)

    if args.suite == "relations":
        if args.literal_paper:
            S, T = jacobi_group.generator("S"), jacobi_group.generator("T")
            lit = jacobi_group.compose_literal_subscriptfree
            a, b, c = S, T, jacobi_group.generator("I2")
            assoc = lit(lit(a, b), c) == lit(a, lit(b, c))
            return _verify_report("group_relations_literal_law", assoc,
                                  {"associative": assoc,
                                   "note": "subscript-free lattice law"}, args)
        rep = jacobi_group.check_relations()
        return _verify_report("group_relations", all(rep.values()),
                              {k: bool(v) for k, v in rep.items()}, args)

    if args.suite == "theorem1":
        check = numeric.CHECKS["theorem1"]
        detail, ok = {"tol": check.gate}, True
        for n in [2, 3] if args.n is None else [args.n]:
            rep = check.run(cfg, n)
            detail[f"n{n}_max_abs_error"] = rep[check.key]
            ok = ok and rep[check.key] < check.gate
        return _verify_report("index_raising_transfer", ok, detail, args)

    # args.suite == "numeric": every floating check but theorem1 (its own suite)
    suite = [name for name in numeric.CHECKS if name != "theorem1"]
    selected = [args.check] if args.check else suite
    reports, ok = [], True
    for name in selected:
        if name not in suite:
            print(f"verify numeric: unknown check {name!r}", file=sys.stderr)
            return EXIT_USAGE
        check = numeric.CHECKS[name]
        rep = check.run(cfg, args.p)
        passed = rep[check.key] < check.gate
        rep.update({"tol": check.gate, "status": "pass" if passed else "fail"})
        reports.append(rep)
        ok = ok and passed
    _emit({"check": "numeric_suite", "reports": reports,
           "status": "pass" if ok else "fail"}, args)
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobi-periods",
        description="Exact and numerical verification of the Hecke action on "
                    "period functions of index-one Jacobi forms.",
    )
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classnum", help="emit the Hurwitz class-number table")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_classnum)

    p = sub.add_parser("expand", help="emit a standard expansion as JSON")
    p.add_argument("series", choices=sorted(_SERIES_BUILDERS))
    p.add_argument("--qbound", type=int, default=10)
    p.add_argument("--mu", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("hecke", help="apply a Hecke operator to the standard series")
    p.add_argument("operator", choices=("v", "tj", "thalf", "t2"))
    p.add_argument("--n", type=int, default=2, help="index-raising level (v)")
    p.add_argument("--p", type=int, default=2, help="prime for tj/thalf/t2")
    p.add_argument("--qbound", type=int, default=10)
    p.add_argument("--literal-paper", action="store_true",
                   help="use the d^-4 lower-term exponent in t2")
    p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("lift", help="lift the class-number series")
    p.add_argument("lift", choices=("phi", "psi"))
    p.add_argument("--D", type=int, help="negative fundamental discriminant (phi)")
    p.add_argument("--qbound", type=int, default=10)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("thetadecomp", "eigen", "diagram", "groupring",
                                     "product", "relations", "numeric", "theorem1"))
    p.add_argument("--qbound", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--np", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--check", help="restrict the numeric suite to one check")
    defaults = numeric.NumericConfig()
    p.add_argument("--qmax", type=int, default=defaults.qmax)
    p.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=defaults.quad_nodes)
    p.add_argument("--tol", type=float, default=defaults.tol)
    p.add_argument("--precision", type=int, default=defaults.dps)
    p.add_argument("--literal-paper", action="store_true",
                   help="demonstrate the documented source discrepancies")
    p.set_defaults(func=cmd_verify)
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
