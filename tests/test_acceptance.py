"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6's product-formula clause is asserted for the transfer elements,
which are determined only up to the transfer-ambiguity kernel: the report's
certificate field, as the ``group_ring.check_product_formula`` docstring
states it.  Ideal membership of the literal difference (the report's ``ok``)
depends on the representatives chosen (see
``tests/test_group_ring.py::test_transfer_ambiguity_kernel_not_in_ideal``),
so it is printed, not asserted.
"""

import time
from fractions import Fraction

import pytest

from jacobi_periods import arith, fourier, group_ring, jacobi_group
from jacobi_periods.numeric import (
    CHECKS,
    DEFAULT_POINTS,
    EvalPoint,
    NumericConfig,
    check_beta,
    check_eichler_integral,
    check_period_relations,
    check_phi_invariance,
    check_theorem1,
    check_tildeT_action,
    check_transformation_law,
    eval_expansion,
    hecke_slash_sum_value,
)

CFG = NumericConfig(quad_nodes=6, dps=30)


def _report(num, ok, elapsed, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s): {text}")


def test_criterion_01_theta_decomposition():
    t0 = time.monotonic()
    ok = fourier.theta_decomposition_check(20)
    dt = time.monotonic() - t0
    _report(1, ok and dt < 5, dt, "exact theta decomposition to qbound 20 in < 5 s")
    assert ok
    assert dt < 5


def test_criterion_02_hecke_eigenvalues():
    t0 = time.monotonic()
    need = fourier.tj_needed_nmax(5, 14) + 1
    f = fourier.e21_expansion(need)
    ok = True
    for p in (2, 3, 5):
        out = fourier.apply_T_jacobi(f, p)
        ok = ok and out.qbound >= 15 and out.equal_below(f.scaled_by(p + 1), 15)
    dt = time.monotonic() - t0
    _report(2, ok and dt < 30, dt,
            "exact (p+1)-eigenvalue for p in {2,3,5} to qbound 15 in < 30 s")
    assert ok
    assert dt < 30


def test_criterion_03_half_integral_eigenvalue():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 5, 7):
        for n in range(0, 201):
            if n % 4 in (1, 2):
                continue
            lhs = arith.hurwitz(n * p * p) + arith.kronecker(-n, p) * arith.hurwitz(n)
            if n % (p * p) == 0:
                lhs += p * arith.hurwitz(n // (p * p))
            ok = ok and lhs == (p + 1) * arith.hurwitz(n)
    dt = time.monotonic() - t0
    _report(3, ok, dt, "exact class-number Hecke relation, N <= 200, p in {2,3,5,7}")
    assert ok


def test_criterion_04_lift_diagram():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        for disc in (-3, -4):
            ok = ok and fourier.diagram_check(p, disc, 12)["ok"]
    dt = time.monotonic() - t0
    _report(4, ok and dt < 60, dt,
            "exact lift-square commutativity, (p,D) in {2,3}x{-3,-4}, qbound 12, < 60 s")
    assert ok
    assert dt < 60


def test_criterion_05_group_relations():
    t0 = time.monotonic()
    rep = jacobi_group.check_relations()
    ok = all(rep.values())
    dt = time.monotonic() - t0
    _report(5, ok, dt, "defining group relations under exact composition")
    assert ok, rep


def test_criterion_06a_groupring_congruences():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3):
        rep = group_ring.check_theorem_congruence(n)
        ok = ok and rep["ok"]
    dt = time.monotonic() - t0
    _report(6, ok and dt < 120, dt,
            "hat-element congruences reduce to the empty orbit vector, n in {2,3}, < 2 min")
    assert ok
    assert dt < 120


def test_criterion_06b_product_formula_literal():
    # the product formula holds for the transfer elements: (T-E)*diff lies in
    # the generator ideal; tests/test_group_ring.py re-expands an explicit
    # witness for it
    t0 = time.monotonic()
    rep = group_ring.check_product_formula(2, 3, 2)
    dt = time.monotonic() - t0
    _report(6, rep["defect_in_transfer_ambiguity"], dt,
            "product formula (n,np)=(2,3), k=2 holds modulo the transfer-ambiguity "
            f"kernel [literal reduction of these representatives: "
            f"{rep['residual_orbits']} residual orbits]")
    assert rep["defect_in_transfer_ambiguity"], (
        "(T-E)*(tilde(2)tilde(3) - tilde(6)) is not in the generator ideal; see "
        "the check_product_formula docstring"
    )


def test_check_gates_are_the_acceptance_tolerances():
    # the one statement of the gates in the tests: loosening one fails here
    assert {name: check.gate for name, check in CHECKS.items()} == {
        "translaw": 1e-6, "relations": 1e-6, "transfer": 1e-4, "theorem1": 1e-5,
        "beta": 1e-10, "eichler": 1e-8, "phi": 1e-6, "extended": 1e-6, "cocycle": 1e-10,
    }


def _passes(name, rep):
    check = CHECKS[name]
    return rep[check.key] < check.gate


def test_criterion_07_transformation_law():
    t0 = time.monotonic()
    rep = check_transformation_law(CFG, DEFAULT_POINTS)
    dt = time.monotonic() - t0
    ok = _passes("translaw", rep)
    _report(7, ok and dt < 120, dt,
            f"transformation law at 3 points, err={rep['max_abs_error']:.2e} "
            f"< {CHECKS['translaw'].gate:.0e}, < 2 min")
    assert ok
    assert dt < 120


def test_criterion_08_period_relations():
    t0 = time.monotonic()
    rep = check_period_relations(CFG, DEFAULT_POINTS)
    dt = time.monotonic() - t0
    ok = _passes("relations", rep)
    _report(8, ok, dt,
            f"four- and six-term period relations at 3 points, "
            f"errT={rep['max_abs_error_T']:.2e}, errU={rep['max_abs_error_U']:.2e} "
            f"< {CHECKS['relations'].gate:.0e}")
    assert ok


def test_criterion_09_transfer_action():
    t0 = time.monotonic()
    rep = check_tildeT_action(2, CFG)
    dt = time.monotonic() - t0
    ok = _passes("transfer", rep)
    _report(9, ok and dt < 300, dt,
            f"p^-2 P|transfer(2) = 3P at 2 points, rel err={rep['max_rel_error']:.2e} "
            f"< {CHECKS['transfer'].gate:.0e}, < 5 min")
    assert ok
    assert dt < 300


def test_criterion_10_transfer_v_beta_eichler_phi():
    t0 = time.monotonic()
    reps = [("theorem1", check_theorem1(n, CFG)) for n in (2, 3)]
    reps += [("beta", check_beta(CFG)), ("eichler", check_eichler_integral(CFG)),
             ("phi", check_phi_invariance(CFG))]
    dt = time.monotonic() - t0
    ok = all(_passes(name, rep) for name, rep in reps)
    _report(10, ok, dt,
            "index-raising transfer n=2,3, beta, completion integral, inversion "
            "invariance: " + ", ".join(f"{rep['check']} {rep[CHECKS[name].key]:.2e} "
                                       f"< {CHECKS[name].gate:.0e}" for name, rep in reps))
    assert ok, reps


def test_criterion_11_oracle_pairs():
    t0 = time.monotonic()
    exact = fourier.apply_T_jacobi(fourier.e21_expansion(100), 2)
    hecke_err = 0.0
    for pt in (EvalPoint(1j, complex(0.1, 0.1)), EvalPoint(complex(0.3, 1.1), 0j)):
        direct = hecke_slash_sum_value(2, pt, CFG)
        via_exact, _ = eval_expansion(exact, pt, CFG)
        hecke_err = max(hecke_err, float(abs(direct - via_exact)))
    from test_fourier import _apply_V_oracle

    f = fourier.e21_expansion(10)
    v_exact = True
    for ell in (2, 3):
        got = fourier.apply_V(f, ell)
        oracle = _apply_V_oracle(f, ell)
        for (n, r), c in got.coeffs.items():
            v_exact = v_exact and oracle.get((n, r), Fraction(0)) == c
        for (n, r), c in oracle.items():
            if n < got.qbound:
                v_exact = v_exact and got.coeff(n, r) == c
    dt = time.monotonic() - t0
    ok = hecke_err < 1e-6 and v_exact
    _report(11, ok, dt,
            f"oracle pairs: slash-sum vs exact ({hecke_err:.2e} < 1e-6), "
            f"index-raising closed form vs cyclotomic substitution (exact: {v_exact})")
    assert ok
