import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ceil, gcd, isqrt
from pathlib import Path

import pytest
import sympy
from sympy import QQ, Poly, Symbol, cyclotomic_poly

from jacobi_periods import fourier
from jacobi_periods.arith import divisors, hurwitz, moebius, sigma
from jacobi_periods.errors import DomainError
from jacobi_periods.fourier import (
    JacobiExpansion,
    QSeries,
    apply_T_half,
    apply_T_jacobi,
    apply_T_weight2,
    apply_V,
    diagram_check,
    e2_series,
    e21_expansion,
    h32_series,
    h_mu_series,
    phi_lift,
    psi_lift,
    theta,
    theta_combination,
    theta_decomposition_check,
    tj_needed_nmax,
)


def test_theta_coefficients():
    t0 = theta(0, 10)
    assert t0.coeff(0, 0) == 1
    assert t0.coeff(4, 2) == 1 and t0.coeff(4, -2) == 1
    assert t0.coeff(4, 0) == 0
    t1 = theta(1, 10)
    assert t1.coeff(1, 1) == 1 and t1.coeff(1, -1) == 1
    assert all(ns >= 1 for ns, _ in t1.coeffs)
    assert t0.weight == Fraction(1, 2) and t0.index == 1 and t0.scale == 4


def test_h_series():
    h0 = h_mu_series(0, 10)
    assert h0.coeff(0) == Fraction(-1, 12)
    assert h0.coeff(4) == Fraction(1, 2)
    h1 = h_mu_series(1, 10)
    assert h1.coeff(3) == Fraction(1, 3)
    assert all(n % 4 == 3 for n in h1.coeffs)
    # interleaving identity: h32 is the two components with exponents x4
    h32 = h32_series(40)
    for n, c in h32.coeffs.items():
        src = h0 if n % 4 == 0 else h1
        assert src.coeff(n) == c


@pytest.mark.parametrize("q", [0, 1, 2, 7, 20, Fraction(7, 3), Fraction(49, 16)])
def test_class_number_series_match_termwise_hurwitz(q):
    for mu in (0, 1):
        want = {N: hurwitz(N) for N in range(4 * 21) if N % 4 == 3 * mu and Fraction(N, 4) < q}
        h = h_mu_series(mu, q)
        assert (h.scale, h.coeffs, h.qbound) == (4, want, q), mu
    want = {N: hurwitz(N) for N in range(21) if N < q and hurwitz(N)}
    h = h32_series(q)
    assert (h.scale, h.coeffs, h.qbound) == (1, want, q)


def test_e21_expansion_matches_termwise_class_numbers():
    for q in range(31):  # q = 0 gives the empty expansion
        want = {(n, r): -12 * hurwitz(4 * n - r * r)
                for n in range(q) for r in range(-2 * n, 2 * n + 1) if r * r <= 4 * n}
        e = e21_expansion(q)
        assert (e.weight, e.index, e.scale, e.coeffs, e.qbound) == (2, 1, 1, want, q), q
    # the bound is the first order left out: the orders n < 9/2 are those n < 5
    assert e21_expansion(Fraction(9, 2)) == e21_expansion(5)


def test_e2_series_coefficients():
    e2 = e2_series(8)
    assert [e2.coeff(n) for n in range(4)] == [1, -24, -72, -96]
    assert e2.coeff(5) == -24 * sigma(5, 1)


def test_e21_coefficients():
    f = e21_expansion(6)
    assert f.coeff(0, 0) == 1
    assert f.coeff(1, 1) == -4
    assert f.coeff(1, 0) == -6
    assert f.coeff(2, 0) == -12  # -12 H(8)
    for (n, r) in f.coeffs:
        assert 4 * n - r * r >= 0
    # coefficient depends only on the discriminant
    for (n, r), c in f.coeffs.items():
        for (n2, r2), c2 in f.coeffs.items():
            if 4 * n - r * r == 4 * n2 - r2 * r2:
                assert c == c2


def test_theta_decomposition():
    assert theta_decomposition_check(20)


def test_expansion_addition_respects_bounds():
    f = e21_expansion(10)
    g = e21_expansion(6).scaled_by(-1)
    h = f + g
    assert h.qbound == 6
    assert all(c for c in h.coeffs.values())
    assert h.equal_below(JacobiExpansion(2, 1, 1, {}, 6), 6)
    with pytest.raises(DomainError):
        f + theta(0, 5)


def test_theta_decomposition_negative_control():
    h0 = h_mu_series(0, 10)
    h0_bad = QSeries(4, dict(h0.coeffs), h0.qbound)
    h0_bad.coeffs[8] = h0_bad.coeff(8) + 1
    combo = theta_combination(h0_bad, h_mu_series(1, 10))
    assert not e21_expansion(10).equal_below(combo, 10)


def test_psi_lift_equals_e21():
    e = psi_lift(h32_series(49))
    want = e21_expansion(e.qbound)
    assert e.equal_below(want, e.qbound)
    assert e.qbound >= 12


def test_psi_lift_delta_and_constant():
    delta = QSeries(1, {0: 1}, 20)
    out = psi_lift(delta)
    assert out.coeff(0, 0) == -12
    for (n, r), c in out.coeffs.items():
        assert 4 * n == r * r and c == -12


# --- the table form of the psi-lift against its (n, r) dict ------------------

def _psi_lift_dict(c):
    """The psi-lift built term by term into an (n, r) dict: the oracle for the
    table form that `psi_lift` returns."""
    q_out = max(0, ceil(c.qbound / 4))
    twelve = [-12 * c.coeff(N) for N in range(4 * q_out - 3)]
    coeffs = {}
    for n in range(q_out):
        for r in range(-isqrt(4 * n), isqrt(4 * n) + 1):
            coeffs[(n, r)] = twelve[4 * n - r * r]
    return JacobiExpansion(2, 1, 1, coeffs, q_out)


# gaps, Fraction values (all but one integral after the factor -12) and c(0) = 0
_SPARSE = QSeries(1, {3: Fraction(1, 3), 4: 2, 11: Fraction(-5, 2), 12: Fraction(3, 4),
                      20: 7, 27: Fraction(1, 5)}, 31)


def _types(f):
    return {key: type(c) for key, c in f.coeffs.items()}


@pytest.mark.parametrize("source", [h32_series(81), _SPARSE], ids=["h32", "sparse"])
def test_psi_lift_table_form_matches_the_term_dict(source):
    f, want = psi_lift(source), _psi_lift_dict(source)
    top = ceil(f.qbound)
    for n in range(-2, top + 3):  # n >= qbound, n < 0 and D < 0 included
        for r in range(-2 * top - 2, 2 * top + 3):
            assert f.coeff(n, r) == want.coeff(n, r), (n, r)
    for bound in (0, 1, 3, Fraction(9, 2), top - 1, top, top + 5):
        assert f.below(bound) == want.below(bound), bound
        assert _types(f.below(bound)) == _types(want.below(bound)), bound
    for k in (2, Fraction(1, 4), 0):
        assert f.scaled_by(k) == want.scaled_by(k), k
        assert _types(f.scaled_by(k)) == _types(want.scaled_by(k)), k
    assert f.min_discriminant() == want.min_discriminant()
    assert "coeffs" not in vars(f)  # none of the above built the dict
    assert f.coeffs == want.coeffs and _types(f) == _types(want)
    assert all(c is f._table[4 * n - r * r] for (n, r), c in f.coeffs.items())
    assert psi_lift(source).rescaled(4) == want.rescaled(4)
    assert psi_lift(source) + want == want.scaled_by(2) == want + psi_lift(source)
    assert psi_lift(source) == want and want == psi_lift(source)
    assert psi_lift(source) != want.scaled_by(2) and psi_lift(source) != want.below(top - 1)
    assert psi_lift(source).to_json_dict() == want.to_json_dict()


def test_psi_lift_table_form_minimum_and_empty_bound():
    assert psi_lift(_SPARSE).min_discriminant() == 3
    assert psi_lift(QSeries(1, {8: 1}, 31)).below(2).min_discriminant() is None
    empty = psi_lift(QSeries(1, {0: 1}, 0))
    assert empty == JacobiExpansion(2, 1, 1, {}, 0) and empty.min_discriminant() is None


@pytest.mark.parametrize("n", range(1, 8))
def test_apply_T_jacobi_reads_the_table_form_as_the_dict(n):
    # random support on D < 8 n^2, every discriminant an image below q^3 reads
    rng = random.Random(n)
    source = QSeries(1, {D: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 6)))
                         for D in range(8 * n * n) if D % 4 in (0, 3) and rng.random() < 0.6},
                     4 * tj_needed_nmax(n, 2) + 1)
    f, want = psi_lift(source), _psi_lift_dict(source)
    got = apply_T_jacobi(f, n)
    assert "coeffs" not in vars(f)  # read only through coeff
    assert got.coeffs and _same_image(got, apply_T_jacobi(want, n))
    assert _same_image(got, _apply_T_jacobi_push(want, n))


def test_verify_eigen_path_builds_no_term_dict_of_its_input(monkeypatch):
    # the `verify eigen` comparison at p = 5: E to q^1451 is only read through
    # its table, and the one dict built is the 149-term side compared
    built = []
    lazy = JacobiExpansion.__getattr__

    def counted(self, name):
        coeffs = lazy(self, name)
        built.append(len(coeffs))
        return coeffs

    monkeypatch.setattr(JacobiExpansion, "__getattr__", counted)
    f = e21_expansion(tj_needed_nmax(5, 14) + 1)
    out = apply_T_jacobi(f, 5)
    assert out.equal_below(f.below(15).scaled_by(6), 15)
    assert "coeffs" not in vars(f)
    assert built == [len(out.below(15).coeffs)] == [149]


def test_phi_lift_to_weight_two():
    for disc in (-4, -3):
        lifted = phi_lift(h32_series(1600), disc)
        assert lifted.qbound >= 20
        assert lifted.equal_below(e2_series(20), 20)
    # n = 1 coefficient with D = -4: -(24 / (1/2)) * H(4) = -24
    lifted = phi_lift(h32_series(20), -4)
    assert lifted.coeff(1) == -24


@pytest.mark.parametrize("make", [
    lambda: QSeries(0, {0: 1}, 1),
    lambda: QSeries(-4, {0: 1, 4: 2}, 1),
    lambda: QSeries(2.5, {0: 1}, 1),
    lambda: JacobiExpansion(2, 1, 0, {(0, 0): 1}, 1),
    lambda: QSeries(4, {0: 1}, -1),
    lambda: JacobiExpansion(2, 1, 1, {(0, 0): 1}, Fraction(-1, 2)),
    lambda: JacobiExpansion._of_discriminant(2, [-1], -1),
], ids=["QSeries_scale_0", "QSeries_scale_-4", "QSeries_scale_2.5", "Jacobi_scale_0",
        "QSeries_qbound_-1", "Jacobi_qbound_-1/2", "table_qbound_-1"])
def test_expansions_refuse_a_bad_scale_or_qbound(make):
    # each of these once constructed and failed only when evaluated
    with pytest.raises(DomainError):
        make()


def test_exact_layers_never_import_mpmath():
    # the exact benchmark and CLI paths run without the numeric layer
    code = "\n".join([
        "import sys",
        "import jacobi_periods",
        "from jacobi_periods import arith, fourier, group_ring",
        "fourier.apply_T_jacobi(fourier.e21_expansion(20), 2)",
        "group_ring.check_theorem_congruence(6)",
        "arith.ClassNumberTable.build(1000)",
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'mpmath'))",
    ])
    src = str(Path(fourier.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]", out.stdout


def test_phi_lift_domain_errors():
    h = h32_series(10)
    for bad in (-9, -12, 5, 0):
        with pytest.raises(DomainError):
            phi_lift(h, bad)


def test_apply_T_half_values():
    h = h32_series(20)
    out = apply_T_half(h, 2)
    assert out.coeff(3) == 1  # H(12) - H(3) = 4/3 - 1/3
    assert out.coeff(0) == Fraction(-1, 4)  # 3 H(0), kronecker(0,2)=0
    for p in (2, 3):
        h = h32_series(201 * p * p)
        out = apply_T_half(h, p)
        want = QSeries(1, {n: (p + 1) * c for n, c in h.coeffs.items()}, h.qbound)
        assert out.equal_below(want, 201)


def test_apply_T_half_rejects_bad_support():
    with pytest.raises(DomainError):
        apply_T_half(QSeries(1, {2: 1}, 5), 2)


def test_apply_T_weight2_eigenvalue():
    for p in (2, 3):
        e2 = e2_series(20 * p + 1)
        out = apply_T_weight2(e2, p)
        want = QSeries(1, {n: (p + 1) * c for n, c in e2.coeffs.items()}, e2.qbound)
        assert out.equal_below(want, 20)
        assert out.coeff(0) == p + 1
    assert apply_T_weight2(QSeries(1, {}, 50), 3).coeffs == {}


def test_hecke_output_is_complete_below_a_fractional_bound():
    # the output orders n with 2n < 21/2 are 0, ..., 5: c'(5) reads c(10),
    # which lies below the input bound
    e2 = e2_series(Fraction(21, 2))
    out = apply_T_weight2(e2, 2)
    assert out.qbound == 6
    assert out.coeff(5) == e2.coeff(10) != 0


def test_jacobi_hecke_and_lift_count_orders_below_a_fractional_bound():
    # tj_needed_nmax(2, 0) = 4 < 9/2, so the order 0 of the T_2 image is complete
    assert apply_T_jacobi(JacobiExpansion(2, 1, 1, e21_expansion(5).coeffs, Fraction(9, 2)),
                          2).qbound == 1
    # 0 and 1^2 * 3 lie below 7/2
    assert phi_lift(h32_series(Fraction(7, 2)), -3).qbound == 2
    # with no input order the lift knows none, not even the constant term
    empty = phi_lift(h32_series(0), -3)
    assert empty.qbound == 0 and empty.coeffs == {}


def test_apply_T_weight2_literal_variant_breaks_eigenvalue():
    e2 = e2_series(41)
    out = apply_T_weight2(e2, 2, literal=True)
    assert out.coeff(0) == 2 + Fraction(1, 4)
    assert out.coeff(0) != 3


@pytest.mark.parametrize("apply", [apply_V, apply_T_jacobi])
def test_level_one_is_the_identity(apply):
    for q in (0, 1, 5, 20):
        f = e21_expansion(q)
        out = apply(f, 1)
        assert out == f and all(type(c) is int for c in out.coeffs.values())
    # an input complete below 9/2 gives an output complete to the order 4 it holds
    assert apply(JacobiExpansion(2, 1, 1, e21_expansion(5).coeffs, Fraction(9, 2)),
                 1) == e21_expansion(5)
    for k in (4, -2):
        f = JacobiExpansion(k, 1, 1, {(0, 0): 1, (1, 1): Fraction(2, 3), (4, 0): 5}, 17)
        assert apply(f, 1) == f


def test_constructors_adopt_and_normalize_the_coefficient_dict():
    for make, keys in ((lambda c: QSeries(1, c, 5), range(5)),
                       (lambda c: JacobiExpansion(2, 1, 1, c, 5), [(n, 0) for n in range(5)])):
        given = dict(zip(keys, (Fraction(4, 2), 0, Fraction(1, 3), Fraction(0), 5)))
        coeffs = make(given).coeffs
        assert coeffs is given
        assert list(coeffs.items()) == [(keys[0], 2), (keys[2], Fraction(1, 3)), (keys[4], 5)]
        assert [type(c) for c in coeffs.values()] == [int, Fraction, int]


def test_apply_V_identity_and_spot_values():
    f = e21_expansion(20)
    assert apply_V(f, 1).coeffs == f.coeffs
    out = apply_V(f, 2)
    assert out.index == 2
    assert out.coeff(1, 0) == f.coeff(2, 0) == -12  # -12 H(8)
    for ell in (2, 3, 6):
        assert apply_V(f, ell).coeff(0, 0) == sigma(ell, 1) * f.coeff(0, 0)


def test_apply_V_rejects_fractional():
    with pytest.raises(DomainError):
        apply_V(theta(0, 5), 2)


# --- symbolic substitution oracle for the index-raising action -------------
#
# Applies the defining sum term by term, carrying the root of unity
# e^{2 pi i n' b / d} as x^j in Q[x]/(x^L - 1); a bucket matches the closed
# form iff (bucket poly - expected rational) vanishes mod the L-th
# cyclotomic polynomial, and fractional-exponent buckets must vanish.

def _apply_V_oracle(f, ell):
    k = int(f.weight)
    L = ell
    x = Symbol("x")
    buckets = {}
    for a in [d for d in range(1, ell + 1) if ell % d == 0]:
        d = ell // a
        for b in range(d):
            for (n1, r1), c in f.coeffs.items():
                q_num, q_den = n1 * a, d  # exponent n1*a/d
                g = gcd(q_num, q_den)
                key = (q_num // g, q_den // g, a * r1)
                phase = (n1 * b * (L // d)) % L  # n1*b/d as a multiple of 1/L
                buckets.setdefault(key, {})
                buckets[key][phase] = buckets[key].get(phase, Fraction(0)) + \
                    Fraction(ell) ** (k - 1) * Fraction(1, d**k) * c
    phi_L = Poly(cyclotomic_poly(L, x), x, domain=QQ)
    out = {}
    for (qn, qd, r), phases in buckets.items():
        poly = Poly.from_dict({(p,): QQ(c.numerator, c.denominator) for p, c in phases.items()}, x, domain=QQ)
        rem = poly.rem(Poly(x**L - 1, x, domain=QQ)).rem(phi_L)
        if qd != 1:
            assert rem.is_zero, f"fractional bucket q^{qn}/{qd} did not cancel"
            continue
        const = rem
        if const.is_zero:
            continue
        assert const.degree() <= 0, f"bucket ({qn},{r}) not rational after reduction: {const}"
        out[(qn, r)] = Fraction(int(const.nth(0).numerator), int(const.nth(0).denominator))
    return out


def test_apply_V_matches_symbolic_substitution_oracle():
    f = e21_expansion(10)
    for ell in (2, 3):
        got = apply_V(f, ell)
        oracle = _apply_V_oracle(f, ell)
        for key, val in oracle.items():
            n, r = key
            if n < got.qbound:
                assert got.coeff(n, r) == val, (ell, key)
        for (n, r), c in got.coeffs.items():
            assert oracle.get((n, r), Fraction(0)) == c, (ell, n, r)


# --- the slash-commutation identities behind the index-raising action ------

def test_v_sum_commutation_identities():
    # multisets of representative products match after b-normalization:
    # upper-triangular sums commute with the shear and, with rescaled
    # translation, with the z-shift
    from jacobi_periods.jacobi_group import JacobiGroupElement, compose, generator

    for ell in (2, 3):
        reps = []
        for a in [d for d in range(1, ell + 1) if ell % d == 0]:
            d = ell // a
            for b in range(d):
                reps.append((a, b, d))
        S = generator("S")
        lhs, rhs = [], []
        for (a, b, d) in reps:
            g = JacobiGroupElement.make(((a, b), (0, d)))
            lhs.append(compose(g, S).mat)
            rhs.append(compose(S, g).mat)

        # normalize top-right mod d (the b mod d re-indexing)
        def bnorm(m):
            a, b, c, d = m
            return (a, b % d, c, d)
        assert sorted(map(bnorm, lhs)) == sorted(map(bnorm, rhs))
        # translation identity: [a,b;0,d] * [I,(0,ell/  sqrt)] = [I,(0,a)] * [a,b;0,d]
        for (a, b, d) in reps:
            g_mat = (a, b, 0, d)
            # scaled check: (0, a) * A == (0, ell)
            assert (0 * a + a * 0, 0 * b + a * d) == (0, ell)


def test_apply_T_jacobi_eigenvalue_p2():
    f = e21_expansion(100)
    out = apply_T_jacobi(f, 2)
    assert out.qbound >= 15
    want = e21_expansion(out.qbound).scaled_by(3)
    assert out.equal_below(want, min(15, out.qbound))
    assert out.coeff(1, 1) == 3 * (-4)


def test_apply_T_jacobi_zero_and_errors():
    z = JacobiExpansion(2, 1, 1, {}, 50)
    assert apply_T_jacobi(z, 2).coeffs == {}
    with pytest.raises(DomainError):
        apply_T_jacobi(theta(0, 5), 2)  # scale 4
    with pytest.raises(DomainError):
        apply_T_jacobi(JacobiExpansion(2, 2, 1, {(1, 0): 1}, 5), 2)  # index 2
    with pytest.raises(DomainError):
        apply_T_jacobi(JacobiExpansion(2, 1, 1, {(0, 1): 1}, 5), 2)  # disc < 0


def test_apply_T_jacobi_composite_level():
    # n = 4 exercises the square-gcd sieve with eps = 4 on the (4, 4) block
    f = e21_expansion(260)
    out = apply_T_jacobi(f, 4)
    assert out.qbound >= 2
    want = e21_expansion(out.qbound).scaled_by(7)  # sigma_1(4) = 7
    assert out.equal_below(want, out.qbound)


def test_apply_T_jacobi_commutes_with_rational_scaling():
    # a non-integral input scale keeps the image exact, term for term
    for p in (2, 3):
        f = e21_expansion(p * p * 20 + 1)
        assert apply_T_jacobi(f.scaled_by(Fraction(1, 7)), p) == \
            apply_T_jacobi(f, p).scaled_by(Fraction(1, 7))


def test_apply_T_jacobi_off_weight_two():
    # T_2 of c(0,0) = c(1,1) = c(4,0) = 1 at weight k, from the docstring's
    # weight 2^(k-4) (2/d)^k 2 = a^k / 8 per factorization a*d = 4, the
    # mu-sum (2 when R = 2 r / d is an integer) and x = 0, 1:
    #   (a, d) = (1, 4), every b mod 4, b-sum 4 when 4 | n: (0,0) and (4,0)
    #     give 4/8 at (0,0), (1,2) and (1,0);
    #   (2, 2), b = 1 only (gcd 2 is no square), b-sum (-1)^n: (0,0) gives
    #     2^k/8 at (0,0) and (1,2), (1,1) gives -2^k/8 at (1,1);
    #   (4, 1), b = 0: (0,0) gives 4^k/8 at (0,0) and (1,2).
    f = {(0, 0): 1, (1, 1): 1, (4, 0): 1}
    want = {
        0: {(0, 0): Fraction(3, 4), (1, 2): Fraction(3, 4), (1, 0): Fraction(1, 2),
            (1, 1): Fraction(-1, 8)},
        4: {(0, 0): Fraction(69, 2), (1, 2): Fraction(69, 2), (1, 0): Fraction(1, 2),
            (1, 1): -2},
        -2: {(0, 0): Fraction(69, 128), (1, 2): Fraction(69, 128), (1, 0): Fraction(1, 2),
             (1, 1): Fraction(-1, 32)},
    }
    for k, image in want.items():
        out = apply_T_jacobi(JacobiExpansion(k, 1, 1, f, 17), 2)
        assert out.qbound == 2 and out.coeffs == image, k


# --- push-form oracle for the index-preserving action ----------------------
#
# The scan over the stored input terms: each term (n', r'), for each
# a*d = n^2, each piece of the b-sum sieve and each x mod n, adds to the
# output key (n' a/d + r'' x + x^2, r'' + 2x), r'' = r' n/d, that it reaches.
# `apply_T_jacobi` computes the same sums from the output side.

def _apply_T_jacobi_push(f, n):
    q_out = 0
    while tj_needed_nmax(n, q_out) < f.qbound:
        q_out += 1
    k = int(f.weight)
    den = n ** 3 if k >= 0 else n ** (3 - 2 * k)
    sums = {}
    for a in divisors(n * n):
        d = n * n // a
        g = gcd(a, d)
        base = a ** k if k >= 0 else d ** -k
        sieve = []
        for eps in divisors(g):
            if isqrt(eps) ** 2 != eps:
                continue
            for t in divisors(g // eps):
                mt = moebius(t)
                if mt:
                    block = d // (eps * t)
                    sieve.append((block, mt * block))
        for (np_, rp), c in f.coeffs.items():
            # output discriminants scale by a/d; prune inputs that cannot reach q_out
            disc = 4 * np_ - rp * rp
            if a * disc >= 4 * q_out * d:
                continue
            if (rp * n) % d:
                continue
            rnd = rp * n // d
            for block, kappa in sieve:
                if np_ % block:
                    continue
                w = base * kappa * c
                na = np_ * a // d
                for x in range(n):
                    N = na + rnd * x + x * x
                    if 0 <= N < q_out:
                        key = (N, rnd + 2 * x)
                        sums[key] = sums.get(key, 0) + w
    return JacobiExpansion(f.weight, 1, 1, {key: Fraction(v, den) for key, v in sums.items()},
                           q_out)


def _random_input(rng, n, k, fractional):
    """Random coefficients on about half the keys an image below q^orders
    reads (input discriminant < 4 orders n^2), plus 20 keys anywhere; the
    bound lies just past the order that image needs."""
    orders = rng.randint(1, 3 if n <= 3 else 2)
    qbound = tj_needed_nmax(n, orders - 1) + rng.choice((Fraction(1, 2), 1, 3))
    top, dmax = ceil(qbound), 4 * orders * n * n
    keys = [(m, r) for r in range(-isqrt(4 * (top - 1)), isqrt(4 * (top - 1)) + 1)
            for m in range(-(-r * r // 4), min(top, (r * r + dmax + 3) // 4))
            if rng.random() < 0.5]
    for _ in range(20):
        m = rng.randrange(top)
        keys.append((m, rng.randint(-isqrt(4 * m), isqrt(4 * m))))

    def coeff():
        v = rng.randint(-9, 9)
        return Fraction(v, rng.randint(1, 6)) if fractional else v

    return JacobiExpansion(k, 1, 1, {key: coeff() for key in keys}, qbound)


def _same_image(got, want):
    """Equal values, value types and bounds."""
    return got == want and {key: type(c) for key, c in got.coeffs.items()} == \
        {key: type(c) for key, c in want.coeffs.items()}


@pytest.mark.parametrize("n", range(1, 8))
def test_pull_form_matches_push_oracle_on_random_inputs(n):
    for seed in (0, 1):
        for k in (-2, 0, 2, 3, 4):
            for fractional in (False, True):
                rng = random.Random(f"{n}:{seed}:{k}:{fractional}")
                f = _random_input(rng, n, k, fractional)
                got, want = apply_T_jacobi(f, n), _apply_T_jacobi_push(f, n)
                assert want.coeffs and _same_image(got, want), (n, seed, k, fractional)


def _count_reads(f, budget):
    """Make `f.coeff` count its calls, failing past `budget` of them."""
    reads = []

    def coeff(n_scaled, r):
        reads.append(n_scaled)
        assert len(reads) <= budget, "read past the reach of the input"
        return JacobiExpansion.coeff(f, n_scaled, r)

    f.coeff = coeff
    return reads


@pytest.mark.parametrize("n, n_top", [(1, 40), (2, 12), (3, 6), (4, 2)])
def test_pull_form_stops_at_the_reach_of_a_sparse_input(n, n_top):
    # a few terms of order <= n_top under the bound 10^4: the image is the
    # push oracle's, and the loop over N stops at tj_needed_nmax(n, n_top) + 1
    # (each key read at most tau(n^2) n times), far below the output bound
    for seed in range(3):
        rng = random.Random(f"{n}:{seed}")
        keys = {(n_top, 0)}
        while len(keys) < 6:
            m = rng.randint(0, n_top)
            keys.add((m, rng.randint(-isqrt(4 * m), isqrt(4 * m))))
        f = JacobiExpansion(2, 1, 1, {key: Fraction(rng.choice((-5, -1, 1, 7)),
                                                    rng.choice((1, 1, 3)))
                                      for key in keys}, 10**4)
        want = _apply_T_jacobi_push(f, n)
        stop = tj_needed_nmax(n, n_top) + 1
        assert stop < want.qbound
        reads = _count_reads(f, sum(2 * isqrt(4 * N) + 1 for N in range(stop))
                             * len(divisors(n * n)) * n)
        got = apply_T_jacobi(f, n)
        assert want.coeffs and _same_image(got, want) and reads, (n, seed)


def test_empty_input_returns_at_once():
    z = JacobiExpansion(2, 1, 1, {}, 10**4)
    _count_reads(z, 0)  # any coefficient read fails
    out = apply_T_jacobi(z, 2)
    assert out.coeffs == {}
    assert out.qbound == _apply_T_jacobi_push(z, 2).qbound == 2401


def _output_bound_by_steps(n, qbound):
    q_out = 0
    while tj_needed_nmax(n, q_out) < qbound:
        q_out += 1
    return q_out


def test_output_bound_bisection_matches_the_linear_search():
    # the least q_out with tj_needed_nmax(n, q_out) >= qbound, at every step
    # of tj_needed_nmax, one below and one above it, and between the steps
    for n in range(1, 8):
        steps = [tj_needed_nmax(n, N) for N in range(12)]
        bounds = {0, 1, Fraction(9, 2)}
        bounds |= {s + d for s in steps for d in (-1, 0, 1)}
        bounds |= {s + Fraction(d, 2) for s in steps for d in (-1, 1)}
        for b in sorted(bounds):
            for qbound in (b, Fraction(b)):
                got = fourier._tj_output_bound(n, qbound)
                assert got == _output_bound_by_steps(n, qbound), (n, qbound)
                assert type(got) is int
    # a large bound, through `apply_T_jacobi` on an empty input
    for n, qbound in ((1, 10**5), (2, Fraction(10**5)), (3, Fraction(2 * 10**5 + 1, 2))):
        out = apply_T_jacobi(JacobiExpansion(2, 1, 1, {}, qbound), n)
        assert out.qbound == _output_bound_by_steps(n, qbound), (n, qbound)
    for bad in (0, -1):
        with pytest.raises(DomainError):
            fourier._tj_output_bound(bad, 0)


def test_pull_form_matches_push_oracle_on_e21():
    for p in (2, 3, 5):
        f = e21_expansion(tj_needed_nmax(p, 14) + 1)
        assert _same_image(apply_T_jacobi(f, p), _apply_T_jacobi_push(f, p)), p
    f = JacobiExpansion(2, 1, 1, e21_expansion(5).coeffs, Fraction(9, 2))
    for n in (1, 2):
        assert _same_image(apply_T_jacobi(f, n), _apply_T_jacobi_push(f, n)), n
    # one term of negative discriminant among valid ones is refused
    bad = JacobiExpansion(2, 1, 1, {**e21_expansion(30).coeffs, (5, 5): 1}, 30)
    with pytest.raises(DomainError):
        apply_T_jacobi(bad, 2)


def test_below_truncates_terms_and_bound():
    e = e21_expansion(10)
    assert e.below(6) == e21_expansion(6) and e.below(20) == e
    assert e.below(Fraction(9, 2)) == JacobiExpansion(2, 1, 1, e21_expansion(5).coeffs,
                                                      Fraction(9, 2))
    h = h32_series(40)
    assert h.rescaled(4).below(7) == h32_series(7)
    with pytest.raises(DomainError):
        e.below(-1)


def test_integral_coefficients_are_ints():
    e = e21_expansion(30)
    assert all(type(c) is int for c in e.coeffs.values())
    assert all(type(c) is int for c in apply_T_jacobi(e, 2).coeffs.values())
    assert all(type(c) is int for c in psi_lift(h32_series(81)).coeffs.values())
    h = h32_series(40)
    assert type(h.coeff(7)) is int and h.coeff(3) == Fraction(1, 3)
    assert type(e.scaled_by(Fraction(2, 1)).coeff(1, 0)) is int
    assert e.scaled_by(Fraction(1, 4)).coeff(1, 0) == Fraction(-3, 2)


def test_expansion_equality_over_a_common_scale():
    e = e21_expansion(6)
    assert e.rescaled(4) == e and e == e.rescaled(4).rescaled(8)
    assert e != e21_expansion(5) and e != e.scaled_by(2) and e != h32_series(6)
    h = h32_series(20)
    assert h.rescaled(3) == h and h != h32_series(21)
    with pytest.raises(DomainError):
        e.rescaled(4).rescaled(6)


def test_apply_V_stays_exact_at_weight_zero():
    # the a^(k-1) factor is 1/a at weight 0, and a large integer input stays exact
    f = JacobiExpansion(0, 1, 1, {(3, 0): 10**20 + 1, (1, 1): 1}, 10)
    assert apply_V(f, 3).coeffs == {(1, 0): 10**20 + 1, (3, 3): Fraction(1, 3)}


def test_diagram_commutes():
    for p in (2, 3):
        for disc in (-3, -4):
            rep = diagram_check(p, disc, 6)
            assert rep["ok"], rep


def test_diagram_linearity_and_negative_control():
    # scaling the index-1 lift by 2 commutes trivially; perturbing the
    # half-integral action breaks commutativity
    h = h32_series(4 * 9 * 6 + 40)
    th = apply_T_half(h, 2)
    th_bad = QSeries(1, dict(th.coeffs), th.qbound)
    th_bad.coeffs[3] = th_bad.coeff(3) + 1
    lhs = psi_lift(th_bad)
    rhs = apply_T_jacobi(psi_lift(h), 2)
    bound = min(lhs.qbound, rhs.qbound, 5)
    assert not lhs.equal_below(rhs, bound)
    assert psi_lift(th).scaled_by(2).equal_below(rhs.scaled_by(2), bound)


def test_diagram_negative_control_on_the_jacobi_side(monkeypatch):
    # a T_J that doubles its output breaks the psi side of the square under
    # the truncated lifts, and leaves the phi side alone
    apply = fourier.apply_T_jacobi
    monkeypatch.setattr(fourier, "apply_T_jacobi", lambda f, n: apply(f, n).scaled_by(2))
    for p in (2, 3):
        for disc in (-3, -4):
            rep = diagram_check(p, disc, 12)
            assert rep["phi_commutes"] and rep["psi_commutes"] is False, rep
