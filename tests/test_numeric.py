from dataclasses import replace
from fractions import Fraction
from math import isqrt

import mpmath as mp
import pytest

from jacobi_periods import numeric
from jacobi_periods.arith import hurwitz
from jacobi_periods.errors import DomainError, PrecisionError
from jacobi_periods.fourier import (
    QSeries,
    apply_T_jacobi,
    apply_V,
    e21_expansion,
    h_mu_series,
    theta,
    tj_needed_nmax,
)
from jacobi_periods.jacobi_group import JacobiGroupElement, generator
from jacobi_periods.numeric import (
    CHECKS,
    DEFAULT_POINTS,
    EvalPoint,
    NumericConfig,
    PeriodEvaluator,
    beta_fn,
    beta_fn_quadrature,
    check_cocycle,
    check_extended_relation_readings,
    check_period_relations,
    check_phi_invariance,
    check_theorem1,
    check_tildeT_action,
    check_transformation_law,
    e21_value,
    eichler_theta_integral,
    eval_expansion,
    hecke_slash_sum_value,
    pairwise_sum,
    period_relation_negative_control,
    period_value,
    phi_value,
    slash,
    theta_value,
    v_sum_value,
)

CFG = NumericConfig(qmax=48, quad_nodes=6, tol=1e-9, dps=30)


def test_eval_point_requires_upper_half_plane():
    with pytest.raises(DomainError):
        EvalPoint(complex(1.0, -0.5))
    with pytest.raises(DomainError):
        NumericConfig(qmax=0)
    with pytest.raises(DomainError):
        NumericConfig(tol=float("nan"))


def test_e_is_exact_at_quarter_integers():
    with mp.workdps(30):
        for k in range(-4, 5):
            assert numeric._e(mp.mpf(k) / 4) == (1, 1j, -1, -1j)[k % 4], k


def _theta_term_by_term(mu, tau, z):
    """theta_mu(tau, z) with one exponential per term at 60 digits, summed
    until the terms drop below 10^-66, and the sum of the terms' absolute
    values."""
    with mp.workdps(60):
        tau, z = mp.mpc(tau), mp.mpc(z)
        v, y = mp.im(tau), abs(mp.im(z))
        terms, r = [], mu
        while r * v <= 2 * y or r * r * v / 4 - r * y < 26:
            for s in ((1, -1) if r else (1,)):
                terms.append(mp.exp(2j * mp.pi * (r * r / mp.mpf(4) * tau + s * r * z)))
            r += 2
        return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def test_theta_value_matches_term_by_term_sum():
    # the terms are built by recurrence; down to Im tau = 0.02 (about 60
    # terms) the sum stays within 1e-30 of the terms' absolute sum
    for v in (0.02, 0.05, 0.1, 1, 10):
        for tau in (complex(0, v), complex(0.3, v)):
            for z in (0, complex(0.1, 0.5), complex(-0.3, -0.5), complex(0.25, 0.2)):
                for mu in (0, 1):
                    ref, size = _theta_term_by_term(mu, tau, z)
                    with mp.workdps(30):
                        val = theta_value(mu, mp.mpc(tau), mp.mpc(z))
                    with mp.workdps(60):
                        assert abs(val - ref) < 1e-30 * size, (mu, tau, z)


def test_theta_inversion_on_the_ray():
    # (2t)^(1/2) theta_mu(i t, 0) = theta_0(i/(4t), mu/4): the two forms in
    # which `PeriodEvaluator` reads theta on the ray
    with mp.workdps(30):
        for t in (mp.mpf("0.01"), mp.mpf("0.05"), mp.mpf("0.3"), mp.mpf("0.77"), mp.mpf(1)):
            for mu in (0, 1):
                lhs = mp.sqrt(2 * t) * theta_value(mu, 1j * t, 0)
                rhs = theta_value(0, 1j / (4 * t), mp.mpf(mu) / 4)
                assert abs(lhs - rhs) < 1e-28 * abs(rhs), (mu, t)


def test_eval_expansion_constant_and_dominant_term():
    one = QSeries(1, {0: 1}, 50)
    val, err = eval_expansion(one, EvalPoint(2j), CFG)
    assert abs(val - 1) == 0
    f = e21_expansion(40)
    val, err = eval_expansion(f, EvalPoint(10j), CFG)
    assert abs(val - 1) < 1e-12
    assert err < 1e-12


def test_eval_expansion_theta_cross_check():
    # stored partial sums at two truncation orders against the adaptive
    # direct evaluation: both stay below their estimated tail bounds
    for qb in (40, 60):
        t0 = theta(0, qb)
        for pt in DEFAULT_POINTS:
            val, err = eval_expansion(t0, pt, CFG)
            with mp.workdps(CFG.dps):
                direct = theta_value(0, mp.mpc(pt.tau), mp.mpc(pt.z))
                assert abs(val - direct) < max(float(err), 1e-20) + 1e-20


def _term_by_term(f, pt):
    """sum c e(n tau + r z) with one exponential per term at 40 digits, and
    the sum of the terms' absolute values."""
    with mp.workdps(40):
        tau, z = mp.mpc(pt.tau), mp.mpc(pt.z)
        terms = []
        for key, c in f.coeffs.items():
            n, r = key if isinstance(key, tuple) else (key, 0)
            x = mp.mpf(n) / f.scale * tau + r * z
            terms.append(mp.mpf(c.numerator) / c.denominator * mp.exp(2j * mp.pi * x))
        return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def test_eval_expansion_matches_term_by_term_sum():
    # relative to the terms' absolute sum: theta_1(2i, 1/4) itself vanishes
    series = (e21_expansion(30), apply_V(e21_expansion(30), 2), h_mu_series(1, 30),
              theta(1, 10))
    for f in series:
        for pt in DEFAULT_POINTS:
            val, _ = eval_expansion(f, pt, CFG)
            direct, size = _term_by_term(f, pt)
            assert abs(val - direct) < 1e-27 * size, (f, pt)


def test_e21_value_matches_the_generic_evaluator():
    e21 = e21_expansion(CFG.qmax)
    for pt in DEFAULT_POINTS:
        via_series, _ = eval_expansion(e21, pt, CFG)
        assert abs(e21_value(pt.tau, pt.z, CFG) - via_series) < 1e-25, pt


def test_eval_expansion_precision_error_reports_requirement():
    f = e21_expansion(3)  # far too short at low height
    with pytest.raises(PrecisionError) as info:
        eval_expansion(f, EvalPoint(complex(0.0, 0.9), 0j), CFG)
    assert info.value.required_qbound and info.value.required_qbound > 3


def _dropped_tail(short, long, pt):
    """|the terms that `long` stores and `short` drops| at pt, summed at 60
    digits: the truncation error of `short`, up to the order of `long`."""
    dropped = replace(long, coeffs={k: c for k, c in long.coeffs.items() if k not in short.coeffs})
    return abs(eval_expansion(dropped, pt, NumericConfig(dps=60))[0])


def test_tail_bound_dominates_the_dropped_tail():
    # h_mu sized as _h_mu_value sizes it, against the series to four times
    # the order
    for v in (0.1, 1 / 9, 0.3, 1, 10):
        q = max(CFG.qmax, int(mp.ceil((CFG.dps + 3) * mp.log(10) / (2 * mp.pi * v))))
        pt = EvalPoint(complex(0.2, v))
        for mu in (0, 1):
            _, bound = eval_expansion(h_mu_series(mu, q), pt, CFG)
            assert _dropped_tail(h_mu_series(mu, q), h_mu_series(mu, 4 * q), pt) <= bound, (mu, v)
    # the Jacobi series, where the coefficient constant is fitted
    short, long = e21_expansion(30), e21_expansion(120)
    for v, y in ((1 / 3, 0.0), (0.5, 0.3), (1.0, 0.6)):
        pt = EvalPoint(complex(0.1, v), complex(0.2, y))
        _, bound = eval_expansion(short, pt, CFG)
        assert _dropped_tail(short, long, pt) <= bound, (v, y)


def test_class_numbers_meet_the_tail_bound_hypothesis():
    # H(N) <= A(A+1) <= (N+1)/2 <= (N/4+1)^2, so C = 1 bounds h_mu
    for n in range(3, 10**5 + 1):
        a = isqrt(n // 3)
        assert hurwitz(n) <= a * (a + 1) <= Fraction(n + 1, 2), n


def test_growing_majorant_at_the_cut_raises_without_a_requirement():
    # (n+1)^2 e^(-2 pi n / 10) still grows at n0 = 1, so the bound is +inf
    with pytest.raises(PrecisionError) as info:
        eval_expansion(QSeries(1, {0: 1}, 1), EvalPoint(0.1j))
    assert info.value.required_qbound is None


def test_pairwise_sum_matches_builtin():
    with mp.workdps(30):
        vals = [mp.mpf(1) / (i + 1) for i in range(37)]
        assert abs(pairwise_sum(vals) - sum(vals)) < mp.mpf(10) ** -25


def test_slash_identity_and_z_translation():
    with mp.workdps(40):
        f = lambda tau, z: mp.e ** (2j * mp.pi * (tau + 2 * z))
        E = generator("E")
        tau, z = mp.mpc(0.2, 1.3), mp.mpc(0.1, 0.05)
        assert abs(slash(f, E, 2, 1)(tau, z) - f(tau, z)) < 1e-25
        shift = JacobiGroupElement.make(((1, 0), (0, 1)), (0, 1))
        assert abs(slash(f, shift, 2, 1)(tau, z) - f(tau, z)) < 1e-25


def test_cocycle_identity():
    report = check_cocycle(CFG, trials=100)
    assert report["max_abs_error"] < CHECKS["cocycle"].gate, report


def test_cocycle_check_sees_the_slash_factor(monkeypatch):
    # drop the lam*mu term from the factor that slash applies: lam*mu is an
    # integer for integral elements at m = 1, so only the normalized
    # determinant-ell composites of the cocycle check can expose it
    act = numeric._act

    def without_lam_mu(t, k, m, tau, z):
        j, tau2, z2 = act(t, k, m, tau, z)
        lam, mu = t[1]
        return j * numeric._e(-m * lam * mu), tau2, z2

    monkeypatch.setattr(numeric, "_act", without_lam_mu)
    assert check_cocycle(CFG, trials=100)["max_abs_error"] > 1e-3


def test_beta_closed_form_vs_quadrature():
    with mp.workdps(30):
        assert abs(beta_fn(0) - 1 / (8 * mp.pi)) < 1e-25
        for x in (0.3, 1.0, 2.5):
            assert abs(beta_fn(x) - beta_fn_quadrature(x, CFG)) < CHECKS["beta"].gate
        grid = [beta_fn(x / 2) for x in range(11)]
        assert all(a > b for a, b in zip(grid, grid[1:]))
    with pytest.raises(DomainError):
        beta_fn(-1)


def test_eichler_integral_identity():
    for mu in (0, 1):
        for tau in (1j, 2j, mp.mpc(0.5, 1.3)):
            series, integral = eichler_theta_integral(mu, tau, CFG)
            assert abs(series - integral) < CHECKS["eichler"].gate, (mu, tau)


def test_period_evaluator_stability_and_periodicity():
    P = PeriodEvaluator(CFG)
    v1 = P(1j, mp.mpc(0.0, 0.0))
    finer = PeriodEvaluator(NumericConfig(qmax=48, quad_nodes=CFG.quad_nodes + 1,
                                          tol=1e-9, dps=40))
    v2 = finer(1j, mp.mpc(0.0, 0.0))
    assert abs(v1 - v2) < 1e-9
    # z -> z + 1 leaves both theta components fixed
    assert abs(P(1j, mp.mpc(0.1, 0.05)) - P(1j, mp.mpc(1.1, 0.05))) < 1e-12


def test_period_evaluator_reuses_the_ray_factors(monkeypatch):
    calls = []
    theta = numeric.theta_value

    def counting(mu, tau, z):
        calls.append(mu)
        return theta(mu, tau, z)

    monkeypatch.setattr(numeric, "theta_value", counting)
    P = PeriodEvaluator(CFG)
    first, second = DEFAULT_POINTS[:2]
    P(first.tau, first.z)
    assert len(calls) > 100  # the ray factors, one per quadrature node
    seen = len(calls)
    # the second tau needs no quadrature degree beyond the first's, so every
    # ray factor it reads is memoized: only theta_mu(tau, z) for mu = 0, 1
    # is evaluated
    P(second.tau, second.z)
    assert calls[seen:] == [0, 1]


def test_ray_factor_memo_keeps_values_exact():
    warm = PeriodEvaluator(CFG)
    warm(0.1j, complex(0.3, 0.05))
    for pt in DEFAULT_POINTS:
        assert warm(pt.tau, pt.z) == PeriodEvaluator(CFG)(pt.tau, pt.z), pt
    # the memo is keyed by precision: a value computed at 30 digits is never
    # read back at 45
    tau = mp.mpc(0.2, 0.7)
    with mp.workdps(30):
        warm.component_integral(1, tau)
    with mp.workdps(45):
        assert warm.component_integral(1, tau) == PeriodEvaluator(CFG).component_integral(1, tau)


def test_period_value_matches_quadrature():
    # the transfer check cannot see P's normalization, so this comparison
    # with the independent quadrature pins it
    P = PeriodEvaluator(CFG)
    points = [(0.1j, complex(0.3, 0.05)), (complex(0.3, 0.2), complex(0.49, 0.1)),
              (10j, complex(-0.48, 0.02)), (1j, complex(0.1, 0.2)),
              (complex(-0.4, 1.3), complex(0.45, -0.15)), (complex(0.25, 0.5), -0.5),
              (complex(0.1, 3.0), complex(0.2, 0.3)), (complex(-0.2, 0.15), 0.05j)]
    for tau, z in points:
        closed = period_value(tau, z, CFG)
        with mp.workdps(CFG.dps):
            quad = P(tau, z)
            assert abs(closed - quad) < 1e-25 * abs(quad), (tau, z)


def test_transfer_checks_see_the_completion(monkeypatch):
    # keep only the leading l = mu term of each completion component: P is
    # then no longer 12 (R'|T - R') of a T-invariant completion, and both
    # checks built on the closed form must fail
    def leading_term(mu, tau):
        tau = mp.mpc(tau)
        v = mp.im(tau)
        term = beta_fn(mp.pi * mu * mu * v) * numeric._e(-mu * mu / mp.mpf(4) * tau)
        return (term if mu == 0 else 2 * term) / mp.sqrt(v)

    monkeypatch.setattr(numeric, "completion_term", leading_term)
    assert check_tildeT_action(2, CFG)["max_rel_error"] > 1e-3
    assert check_theorem1(2, CFG)["max_abs_error"] > 1e-4


def test_transformation_law():
    report = check_transformation_law(CFG)
    assert report["max_abs_error"] < CHECKS["translaw"].gate, report


def test_period_relations():
    report = check_period_relations(CFG)
    assert report["max_abs_error"] < CHECKS["relations"].gate, report
    assert period_relation_negative_control(CFG) > 1e-3


def test_extended_relation_both_readings():
    report = check_extended_relation_readings(CFG)
    assert report["max_abs_error_minus_I_shift"] < CHECKS["extended"].gate
    assert report["max_abs_error_I2"] < CHECKS["extended"].gate


def test_tildeT_action_single_point():
    report = check_tildeT_action(2, CFG, points=(EvalPoint(1j, complex(0.1, 0.1)),))
    assert report["max_rel_error"] < CHECKS["transfer"].gate, report


def test_tildeT_action_p3():
    report = check_tildeT_action(3, CFG)
    assert report["max_rel_error"] < CHECKS["transfer"].gate, report


def test_theorem1_small_levels():
    for n in (1, 2, 4, 5):
        report = check_theorem1(n, CFG)
        assert report["max_abs_error"] < CHECKS["theorem1"].gate, (n, report)


def test_theorem1_near_the_edge_of_the_z_strip():
    # the E|V_3 side slashes E at z shifted by lattice multiples of tau;
    # its series tail is no longer truncated in the zeta direction
    point = EvalPoint(complex(0.387, 1.844), complex(0.456, -0.039))
    report = check_theorem1(3, CFG, (point,))
    assert report["max_abs_error"] < CHECKS["theorem1"].gate, report


def test_phi_invariance():
    report = check_phi_invariance(CFG)
    assert report["max_abs_error_T"] < CHECKS["phi"].gate, report
    assert report["max_abs_error_S"] < 1e-8
    assert report["max_abs_error_I1"] < 1e-8
    assert report["holomorphic_only_T_defect"] > 1e-3


def test_exact_hecke_matches_slash_sum():
    exact = apply_T_jacobi(e21_expansion(100), 2)
    for pt in (EvalPoint(1j, complex(0.1, 0.1)), EvalPoint(complex(0.3, 1.1), 0j)):
        direct = hecke_slash_sum_value(2, pt, CFG)
        via_exact, _ = eval_expansion(exact, pt, CFG)
        assert abs(direct - via_exact) < 1e-6


def test_exact_hecke_matches_slash_sum_p3():
    exact = apply_T_jacobi(e21_expansion(tj_needed_nmax(3, 12)), 3)
    pt = EvalPoint(1j, complex(0.1, 0.1))
    via_exact, _ = eval_expansion(exact, pt, CFG)
    assert abs(hecke_slash_sum_value(3, pt, CFG) - via_exact) < 1e-20


def test_v_sum_matches_the_exact_index_raising_operator():
    # the oracle pair of V_l: the slash sum of E by hecke_hat_V(l) against
    # the closed-form coefficients of fourier.apply_V
    source = e21_expansion(160)
    for ell in (2, 3):
        image = apply_V(source, ell)
        for pt in DEFAULT_POINTS:
            via_exact, _ = eval_expansion(image, pt, CFG)
            assert abs(v_sum_value(ell, pt, CFG) - via_exact) < 1e-20, (ell, pt)
