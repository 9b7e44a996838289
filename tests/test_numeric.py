import random
import weakref
from dataclasses import replace
from fractions import Fraction
from math import isnan, isqrt

import mpmath as mp
import pytest

from jacobi_periods import numeric
from jacobi_periods.arith import hurwitz
from jacobi_periods.errors import DomainError, PrecisionError
from jacobi_periods.fourier import (
    JacobiExpansion,
    QSeries,
    apply_T_jacobi,
    apply_V,
    e21_expansion,
    h32_series,
    h_mu_series,
    theta,
    tj_needed_nmax,
)
from jacobi_periods.group_ring import tilde_T
from jacobi_periods.jacobi_group import JacobiGroupElement, generator
from jacobi_periods.numeric import (
    CHECKS,
    DEFAULT_POINTS,
    EvalPoint,
    NumericConfig,
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
    period_quadrature,
    period_relation_negative_control,
    period_value,
    phi_value,
    slash,
    slash_formal_sum,
    theta_value,
    v_sum_value,
)

CFG = NumericConfig(quad_nodes=6, dps=30)


def test_eval_point_requires_upper_half_plane():
    with pytest.raises(DomainError):
        EvalPoint(complex(1.0, -0.5))
    with pytest.raises(DomainError):
        NumericConfig(quad_nodes=0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("tau, z", [
    (1j, NAN),
    (1j, complex(0.1, NAN)),
    (1j, INF),
    (complex(NAN, 1), 0j),
    (complex(0, INF), 0j),
    (mp.mpc(0, mp.inf), 0j),
])
def test_eval_point_refuses_non_finite_coordinates(tau, z):
    # accepted, these gave nan+nanj beside a finite tail bound, or a
    # ZeroDivisionError at tau = i inf
    with pytest.raises(DomainError):
        EvalPoint(tau, z)


@pytest.mark.parametrize("evaluator", [period_value, period_quadrature, e21_value, phi_value])
@pytest.mark.parametrize("tau, z", [(1j, NAN), (1j, INF), (complex(NAN, 1), 0j)])
def test_point_evaluators_refuse_non_finite_coordinates(evaluator, tau, z):
    # period_value(1j, nan) raised a ValueError from int() of a nan
    with pytest.raises(DomainError):
        evaluator(tau, z, CFG)


@pytest.mark.parametrize("call", [
    lambda tau: EvalPoint(tau),
    lambda tau: theta_value(0, tau, 0.1),
    lambda tau: numeric.theta_pair(tau, 0.1),
    lambda tau: numeric.completion_term(0, tau),
    lambda tau: eichler_theta_integral(1, tau, CFG),
    lambda tau: e21_value(tau, 0.1, CFG),
    lambda tau: phi_value(tau, 0.1, CFG),
    lambda tau: period_value(tau, 0.1, CFG),
    lambda tau: period_quadrature(tau, 0.1, CFG),
], ids=["EvalPoint", "theta_value", "theta_pair", "completion_term", "eichler_theta_integral",
        "e21_value", "phi_value", "period_value", "period_quadrature"])
@pytest.mark.parametrize("tau", [complex(0.3, 0), complex(0.3, -0.5), mp.mpc(0, "-1e-40")])
def test_tau_entry_points_refuse_the_lower_half_plane(monkeypatch, call, tau):
    # theta, e21_value and period_value raised a TypeError below the real
    # axis, period_quadrature a ZeroDivisionError on it, and completion_term
    # and eichler_theta_integral never returned at Im tau = 0: with the sums
    # behind the entry points made to fail, a missing check fails the test
    # instead of hanging it
    def unreached(*args):
        raise AssertionError("evaluated outside the upper half plane")

    for name in ("_theta_sums", "_completion_series", "_tanh_sinh"):
        monkeypatch.setattr(numeric, name, unreached)
    with pytest.raises(DomainError):
        call(tau)


@pytest.mark.parametrize("x", [NAN, INF, -1, mp.mpf("-1e-40")])
@pytest.mark.parametrize("beta", [beta_fn, beta_fn_quadrature])
def test_beta_refuses_arguments_outside_its_domain(beta, x):
    # a nan passed the x < 0 test and gave nan, and the closed form is nan
    # at +inf
    with pytest.raises(DomainError):
        beta(x)


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
    # which `period_quadrature` reads theta on the ray
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


def _object_tree(values):
    """The fixed pairwise tree on mpmath objects, with their operators: the
    oracle of the bits of `pairwise_sum`'s raw-tuple tree."""
    vals = list(values)
    if not vals:
        return mp.mpc(0)
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)] + (
            [vals[-1]] if len(vals) % 2 else []
        )
    return vals[0]


def _raw(x):
    """x as a raw mpc tuple, an mpf x read as (x, 0)."""
    return x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, mp.mpf(0)._mpf_)


@pytest.mark.parametrize("dps", [30, 45])
@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 37, 100])
def test_pairwise_sum_is_the_object_tree_bit_for_bit(dps, mixed, length):
    rng = random.Random(length + dps)
    with mp.workdps(dps):
        vals = [mp.mpf(rng.uniform(-1, 1)) / 3 if mixed and rng.random() < 0.5
                else mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 7 for _ in range(length)]
        got = pairwise_sum(vals)
        assert isinstance(got, mp.mpc)
        assert got._mpc_ == _raw(_object_tree(vals))


def _object_eval_expansion(f, point, cfg):
    """`eval_expansion` on mpmath objects, one mpf per term and the tail
    constant from the rounded coefficients: the oracle of the bits of its
    raw-tuple loop, value and bound, and of its `PrecisionError`."""
    if isinstance(f, JacobiExpansion):
        m, coeffs = f.index, f.coeffs
    else:
        m, coeffs = 0, {(ns, 0): c for ns, c in f.coeffs.items()}
    with mp.workdps(cfg.dps):
        tau, z = mp.mpc(point.tau), mp.mpc(point.z)
        rows = {}
        for (ns, r), c in sorted(coeffs.items()):
            rows.setdefault(ns, []).append((r, c))
        rs = [r for row in rows.values() for r, _ in row]
        zeta = numeric._powers(numeric._e(z), min(rs, default=0), max(rs, default=0))
        base = numeric._e(tau / f.scale)
        cmax = mp.mpf(1)
        parts, qpow, at = [], mp.mpc(1), 0
        for ns, row in rows.items():
            cs = [mp.mpf(c.numerator) / c.denominator for _, c in row]
            cmax = max(cmax, max(abs(c) for c in cs) / (ns / f.scale + 1) ** 2)
            qpow *= base ** (ns - at)
            at = ns
            parts.append(qpow * _object_tree(c * zeta[r] for c, (r, _) in zip(cs, row)))
        value = _object_tree(parts)
        bound = numeric._tail_bound(m, f.scale, f.qbound, tau, z, cmax)
        if bound > cfg.tol:
            extra = float(mp.log(bound / mp.mpf(cfg.tol)) / (2 * mp.pi * mp.im(tau)))
            raise PrecisionError(
                "tail bound", required_qbound=None if mp.isinf(bound)
                else int(float(f.qbound) + extra + 2))
        return value, bound


def _oracle_expansions():
    """Every kind of input the raw loop reads: E as a table and as a dict,
    Hecke images, class-number series holding Fractions (H(0) = -1/12 and
    H(3k^2), H(4k^2)), negative r alone, and numerators wider than 2^prec
    at every tested precision, where the tail constant compares the
    converted values."""
    e = e21_expansion(12)
    wide = 2**250
    return {
        "E_table": e,
        "E_dict": JacobiExpansion(2, 1, 1, dict(e.coeffs), e.qbound),
        "V_2": apply_V(e21_expansion(30), 2),
        "V_3": apply_V(e21_expansion(30), 3),
        "T_2": apply_T_jacobi(e21_expansion(tj_needed_nmax(2, 7) + 1), 2),
        "h_0": h_mu_series(0, 20),
        "h_1": h_mu_series(1, 20),
        "h32": h32_series(30),
        "wide_fraction": QSeries(4, {0: Fraction(wide + 1, 3), 3: Fraction(-(wide + 2), 3),
                                     4: Fraction(5, 7), 7: Fraction(wide + 7, wide - 1)}, 60),
        "negative_r": JacobiExpansion(2, 1, 1, {(1, -2): Fraction(wide + 1, 3), (1, -1): -4,
                                                (2, -2): Fraction(-(wide + 3), 3), (3, -3): 2**200},
                                      60),
    }


ORACLE_POINTS = (
    EvalPoint(1j, complex(0.1, 0.2)),
    EvalPoint(complex(0.3, 1.1)),
    EvalPoint(complex(-0.4, 0.8), complex(0.25, 0.1)),
    EvalPoint(mp.mpc("0.1", "1.3"), mp.mpc("0.05", "-0.1")),  # mpc-valued
)


def _outcome(evaluate, f, pt, cfg):
    """The raw value and bound of evaluate(f, pt, cfg), or the
    `required_qbound` of its `PrecisionError`."""
    try:
        value, bound = evaluate(f, pt, cfg)
    except PrecisionError as exc:
        return "refused", exc.required_qbound
    return value._mpc_, bound._mpf_


@pytest.mark.parametrize("dps", [30, 45, 60])
@pytest.mark.parametrize("name", list(_oracle_expansions()))
def test_eval_expansion_is_the_object_loop_bit_for_bit(dps, name):
    f = _oracle_expansions()[name]
    cfg = replace(CFG, dps=dps)
    outcomes = [_outcome(eval_expansion, f, pt, cfg) for pt in ORACLE_POINTS]
    assert outcomes == [_outcome(_object_eval_expansion, f, pt, cfg) for pt in ORACLE_POINTS]
    assert any(value != "refused" for value, _ in outcomes)


@pytest.mark.parametrize("dps", [30, 45, 60])
def test_tail_constant_of_wide_fractions_is_the_rounded_maximum(dps):
    # a < b, but b's numerator rounds down and a's up, so the rounded a is
    # the larger: the row's constant must come from the rounded values
    with mp.workdps(dps):
        n1 = 2 ** (mp.mp.prec + 1) + 3
        n2 = next(n for n in range(-(-5 * n1 // 3), 5 * n1) if n % 4 == 1)
        a, b = Fraction(n1, 3), Fraction(n2, 5)
        assert a < b and mp.mpf(a.numerator) / 3 > mp.mpf(b.numerator) / 5
    f = JacobiExpansion(2, 1, 1, {(1, -1): -a, (1, 1): b, (2, 0): 1}, 60)
    cfg = replace(CFG, dps=dps)
    for pt in ORACLE_POINTS:
        assert _outcome(eval_expansion, f, pt, cfg) == _outcome(_object_eval_expansion, f, pt, cfg)


@pytest.mark.parametrize("dps", [30, 45, 60])
@pytest.mark.parametrize("f, point", [
    (e21_expansion(3), EvalPoint(complex(0.0, 0.9), 0j)),
    (e21_expansion(5), EvalPoint(mp.mpc("0.2", "0.35"), mp.mpc("0.1", "0.05"))),
    (QSeries(1, {0: 1}, 1), EvalPoint(0.1j)),
])
def test_eval_expansion_refuses_as_the_object_loop(dps, f, point):
    cfg = replace(CFG, dps=dps)
    with pytest.raises(PrecisionError) as want:
        _object_eval_expansion(f, point, cfg)
    with pytest.raises(PrecisionError) as got:
        eval_expansion(f, point, cfg)
    assert got.value.required_qbound == want.value.required_qbound


def _mutable_expansions():
    """Expansions to change after a first evaluation, each with a key it
    lacks: E as a table (its dict built by the evaluation) and as a dict,
    and a class-number series."""
    e = e21_expansion(12)
    return {"E_table": (e21_expansion(12), (3, 5)),
            "E_dict": (JacobiExpansion(2, 1, 1, dict(e.coeffs), e.qbound), (3, 5)),
            "h_0": (h_mu_series(0, 20), 1)}


_CHANGES = {
    "change_coefficient": lambda f, new: f.coeffs.update({sorted(f.coeffs)[1]: 7}),
    "add_key": lambda f, new: f.coeffs.update({new: 5}),
    "remove_key": lambda f, new: f.coeffs.pop(min(f.coeffs)),
    "rebind_qbound": lambda f, new: setattr(f, "qbound", f.qbound - 9),
    "rebind_coeffs": lambda f, new: setattr(f, "coeffs", {k: 2 * c for k, c in f.coeffs.items()}),
    "rebind_scale": lambda f, new: setattr(f, "scale", 2 * f.scale),
}


def _fresh(f):
    """A new expansion with f's fields and a copy of its terms, which no
    evaluation has seen."""
    return replace(f, coeffs=dict(f.coeffs))


@pytest.mark.parametrize("change", list(_CHANGES))
@pytest.mark.parametrize("name", list(_mutable_expansions()))
def test_a_changed_expansion_is_evaluated_afresh(name, change):
    f, new = _mutable_expansions()[name]
    pt = ORACLE_POINTS[0]
    before = _outcome(eval_expansion, f, pt, CFG)
    _CHANGES[change](f, new)
    after = _outcome(eval_expansion, f, pt, CFG)
    assert after == _outcome(eval_expansion, _fresh(f), pt, CFG)
    assert after != before


def test_each_precision_keeps_its_own_form():
    f = apply_V(e21_expansion(20), 2)
    for dps in (30, 45, 30, 60, 45):
        cfg = replace(CFG, dps=dps)
        for pt in ORACLE_POINTS[:2]:
            assert _outcome(eval_expansion, f, pt, cfg) == _outcome(eval_expansion, _fresh(f), pt, cfg)


def test_evaluation_forms_go_with_their_expansion():
    f = apply_V(e21_expansion(20), 2)
    eval_expansion(f, ORACLE_POINTS[0], CFG)
    eval_expansion(f, ORACLE_POINTS[0], replace(CFG, dps=45))
    gone = weakref.ref(f)
    del f
    assert gone() is None  # freed by its reference count: no cycle, no global entry


def test_a_second_evaluation_converts_nothing_and_multiplies_each_pair_once(monkeypatch):
    f = e21_expansion(48)
    converted, products = [], []
    _counting(monkeypatch, "_raw_coefficient", converted)
    mul = numeric.libmp.mpc_mul_mpf
    monkeypatch.setattr(numeric.libmp, "mpc_mul_mpf", lambda *args: products.append(args) or mul(*args))
    pairs = {(r, c) for (_, r), c in f.coeffs.items()}
    assert (len(f.coeffs), len(pairs)) == (876, 325)
    eval_expansion(f, ORACLE_POINTS[0], CFG)
    assert len(converted) == len(set(f.coeffs.values())) and len(products) == 325
    converted.clear()
    products.clear()
    eval_expansion(f, ORACLE_POINTS[1], CFG)
    assert converted == [] and len(products) == 325


def test_e21_value_builds_each_h_mu_series_once_per_qbound(monkeypatch):
    built = []
    _counting(monkeypatch, "h_mu_series", built)
    numeric._h_mu_series.cache_clear()
    for tau in (1j, complex(0.3, 1.2), complex(-0.2, 1.7)):  # Im tau >= 1: qbound = qmax
        e21_value(tau, 0.1, CFG)
    assert sorted(built) == [(0, CFG.qmax), (1, CFG.qmax)]


def test_slash_identity_and_z_translation():
    with mp.workdps(40):
        f = lambda tau, z: mp.e ** (2j * mp.pi * (tau + 2 * z))
        E = generator("E")
        tau, z = mp.mpc(0.2, 1.3), mp.mpc(0.1, 0.05)
        assert abs(slash(f, E, 2, 1)(tau, z) - f(tau, z)) < 1e-25
        shift = JacobiGroupElement.make(((1, 0), (0, 1)), (0, 1))
        assert abs(slash(f, shift, 2, 1)(tau, z) - f(tau, z)) < 1e-25


def test_cocycle_identity():
    report = check_cocycle(CFG)
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
    assert check_cocycle(CFG)["max_abs_error"] > 1e-3


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


def test_period_quadrature_stability_and_periodicity():
    v1 = period_quadrature(1j, mp.mpc(0.0, 0.0), CFG)
    v2 = period_quadrature(1j, mp.mpc(0.0, 0.0), NumericConfig(quad_nodes=CFG.quad_nodes + 1, dps=40))
    assert abs(v1 - v2) < 1e-9
    # z -> z + 1 leaves both theta components fixed
    P = lambda tau, z: period_quadrature(tau, z, CFG)
    assert abs(P(1j, mp.mpc(0.1, 0.05)) - P(1j, mp.mpc(1.1, 0.05))) < 1e-12


def _counting(monkeypatch, name, calls):
    """Replace numeric.<name> by a wrapper that appends its arguments to calls."""
    fn = getattr(numeric, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(numeric, name, counting)


def test_period_quadrature_reuses_the_ray_factors(monkeypatch):
    sums = []
    _counting(monkeypatch, "_theta_sums", sums)
    monkeypatch.setattr(numeric, "_RAY", {})
    first, second = DEFAULT_POINTS[:2]
    at_point = lambda pt: (mp.mpc(pt.tau), [(mp.mpc(pt.z), (0, 1))])
    called = lambda args: (args[0], [(mp.mpc(z), tuple(mus)) for z, mus in args[1]])
    period_quadrature(first.tau, first.z, CFG)
    # one table per (piece, degree, precision) the walks read, each built once:
    # one theta sum per node, theta_0 and theta_1 at z = 0 on the upper piece
    # and theta_0 at z = 0 and 1/4 on the lower, and the theta pair at (tau, z)
    prec = mp.libmp.dps_to_prec(CFG.dps)
    degrees = {piece: sorted(d for p, d, pr in numeric._RAY if p == piece and pr == prec)
               for piece in ("upper", "lower")}
    assert len(numeric._RAY) == len(degrees["upper"]) + len(degrees["lower"])
    for piece, ds in degrees.items():
        assert ds == list(range(1, len(ds) + 1)) and 1 < len(ds) <= CFG.quad_nodes, piece
    rows = {piece: sum(len(numeric._RAY[piece, d, prec]) for d in ds) for piece, ds in degrees.items()}
    assert rows["upper"] > 100 and rows["lower"] > 100
    assert len(sums) == rows["upper"] + rows["lower"] + 1
    assert called(sums[-1]) == at_point(first)  # read after the integrals
    ray = [[mu for _, mus in args[1] for mu in mus] for args in sums[:-1]]
    assert ray.count([0, 1]) == rows["upper"] and ray.count([0, 0]) == rows["lower"]
    # the second tau needs no quadrature degree beyond the first's, so every
    # ray factor it reads is in a table: only the theta pair at (tau, z) is
    # evaluated
    tables = dict(numeric._RAY)
    seen = len(sums)
    period_quadrature(second.tau, second.z, CFG)
    assert [called(args) for args in sums[seen:]] == [at_point(second)]
    # the tables are shared by every evaluation, in a memo scope or not: a new
    # tau evaluates only its theta pair as well, and builds no table
    seen = len(sums)
    third = DEFAULT_POINTS[2]
    with numeric._memo_scope():
        period_quadrature(third.tau, third.z, CFG)
    assert [called(args) for args in sums[seen:]] == [at_point(third)]
    assert numeric._RAY.keys() == tables.keys()
    assert all(numeric._RAY[key] is table for key, table in tables.items())


def test_ray_factor_memo_keeps_values_exact(monkeypatch):
    with numeric._memo_scope():
        period_quadrature(0.1j, complex(0.3, 0.05), CFG)
        warm = [period_quadrature(pt.tau, pt.z, CFG) for pt in DEFAULT_POINTS]
    for pt, value in zip(DEFAULT_POINTS, warm):
        monkeypatch.setattr(numeric, "_RAY", {})  # a cold process
        assert value == period_quadrature(pt.tau, pt.z, CFG), pt
    # the memos are keyed by precision: a value computed at 30 digits is
    # never read back at 45
    tau, z = mp.mpc(0.2, 0.7), mp.mpc(0.1, 0.1)
    finer = replace(CFG, dps=45)
    with numeric._memo_scope():
        period_quadrature(tau, z, CFG)
        value = period_quadrature(tau, z, finer)
    monkeypatch.setattr(numeric, "_RAY", {})
    assert value == period_quadrature(tau, z, finer)


def test_both_component_integrals_come_from_one_computation(monkeypatch):
    # one walk per piece of the ray gives both mu; a second z at a tau
    # already integrated walks no more in the same memo scope
    walks = []
    _counting(monkeypatch, "_ray_integrals", walks)
    tau = mp.mpc(0.1, 1.2)
    with numeric._memo_scope():
        first = period_quadrature(tau, 0, CFG)
        assert [(piece, t, m) for piece, t, m in walks] == [
            ("upper", tau, CFG.quad_nodes), ("lower", tau, CFG.quad_nodes)]
        second = period_quadrature(tau, 0.3, CFG)
        assert len(walks) == 2
    # in a new scope after a table reset the same pair is computed again,
    # bit for bit
    monkeypatch.setattr(numeric, "_RAY", {})
    with numeric._memo_scope():
        assert (period_quadrature(tau, 0.3, CFG), period_quadrature(tau, 0, CFG)) == (second, first)
    assert len(walks) == 4 and numeric._RAY


@pytest.mark.parametrize("check, images", [
    (check_transformation_law, 3), (check_period_relations, 11),
    (check_extended_relation_readings, 3)])
def test_quadrature_checks_integrate_once_per_image(monkeypatch, check, images):
    # each check is one memo scope: the integrals are computed once per
    # distinct image tau of its points, and the scope is closed after the
    # check, however it ends
    computed = []
    _counting(monkeypatch, "_period_integrals", computed)
    check(CFG)
    assert len(computed) == len(set(computed)) == images
    assert numeric._SUM_MEMO.get() is None

    def failing(tau, degree):
        assert numeric._SUM_MEMO.get() is not None
        raise PrecisionError("stop")

    monkeypatch.setattr(numeric, "_period_integrals", failing)
    with pytest.raises(PrecisionError):
        check(CFG)
    assert numeric._SUM_MEMO.get() is None


def _ray_quad(piece, mu, tau, maxdegree, memo):
    """mp.quad of one ray piece's integrand at the active precision, the
    theta factor read through memo (keyed by piece, mu, precision and node)."""
    p32 = mp.mpf(-1.5)
    calls = []

    def factor(s):
        key = (piece, mu, mp.mp.prec, s)
        if key not in memo:
            memo[key] = (theta_value(mu, 1j * s, 0).real - (1 - mu) if piece == "upper"
                         else theta_value(0, 1j / (4 * s * s), mp.mpf(mu) / 4).real)
        return memo[key]

    def integrand(s):
        calls.append(s)
        shift = 1j * s if piece == "upper" else 1j * s * s
        return (tau + shift) ** p32 * factor(s)

    value = mp.quad(integrand, [1, mp.inf] if piece == "upper" else [0, 1], maxdegree=maxdegree)
    return value, len(calls)


def _eichler_quad(mu, tau, maxdegree):
    """mp.quad of the Eichler integrand of mu at tau at the active precision,
    and the number of integrand calls it made."""
    u, v = mp.re(tau), mp.im(tau)
    calls = []

    def integrand(s):
        calls.append(s)
        theta = theta_value(mu, mp.mpc(-u, v + s), 0)
        return (1j * (2 * v + s)) ** mp.mpf(-1.5) * (theta - 1 if mu == 0 else theta)

    return mp.quad(integrand, [0, mp.inf], maxdegree=maxdegree), len(calls)


@pytest.mark.parametrize("dps, nodes", [(30, 6), (30, 7), (45, 6), (45, 7), (60, 6), (60, 7)])
def test_ray_walk_equals_mp_quad(dps, nodes):
    # mp.quad is the oracle of every `_tanh_sinh` walk, bit for bit: each
    # (piece, mu) integrand of the period ray from Im tau = 0.1 to 10, the
    # Eichler integrand of each mu at Re tau = 0 and Re tau != 0, and the
    # real beta integrand, whose value stays an mpf
    rng = random.Random(dps * 10 + nodes)
    memo = {}
    with mp.workdps(dps):
        taus = [mp.mpc(0, 0.1), mp.mpc(0, 10),
                mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.1, 3))]
        for tau in taus:
            for piece in ("upper", "lower"):
                walked = numeric._ray_integrals(piece, tau, nodes)
                for mu in (0, 1):
                    want, _ = _ray_quad(piece, mu, tau, nodes, memo)
                    assert walked[mu]._mpc_ == want._mpc_, (tau, piece, mu)
        for tau in (mp.mpc(0, 1), mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 3))):
            walked = numeric._eichler_integrals(tau, nodes)
            for mu in (0, 1):
                want, _ = _eichler_quad(mu, tau, nodes)
                assert walked[mu]._mpc_ == want._mpc_, (tau, mu)
        for x in (0, 0.3, rng.uniform(0, 7)):
            arg = mp.mpf(x)
            want = mp.quad(lambda u: u ** mp.mpf(-1.5) * mp.e ** (-arg * u), [1, mp.inf],
                           maxdegree=nodes) / (16 * mp.pi)
            walked = beta_fn_quadrature(x, NumericConfig(quad_nodes=nodes, dps=dps))
            assert type(walked) is mp.mpf and walked._mpf_ == want._mpf_, x


def _recording_walks(monkeypatch):
    """Wrap numeric._tanh_sinh so that each degree of a walk records
    (degree, the components still running) in the returned list."""
    walk, degrees = numeric._tanh_sinh, []

    def recording(interval, maxdegree, count, values):
        def recorded(degree, nodes, running):
            degrees.append((degree, running))
            return values(degree, nodes, running)

        return walk(interval, maxdegree, count, recorded)

    monkeypatch.setattr(numeric, "_tanh_sinh", recording)
    return degrees


def test_ray_walk_stops_each_mu_at_its_own_degree(monkeypatch):
    # at 30 digits and tau = i/10 the upper piece converges at degree 5 for
    # mu = 0 and runs to degree 6 for mu = 1: one walk serves both
    degrees = _recording_walks(monkeypatch)
    with mp.workdps(30):
        tau = mp.mpc(0, 0.1)
        memo = {}
        (q0, n0), (q1, n1) = (_ray_quad("upper", mu, tau, 6, memo) for mu in (0, 1))
        assert n0 < n1  # mp.quad stopped mu = 0 first
        nodes = lambda degree: len(mp.mp._tanh_sinh.get_nodes(1, mp.inf, degree, mp.mp.prec))
        assert n0 == sum(nodes(d) for d in range(1, 6))
        assert n1 == n0 + nodes(6)
        walked = numeric._ray_integrals("upper", tau, 6)
        assert (walked[0]._mpc_, walked[1]._mpc_) == (q0._mpc_, q1._mpc_)
    assert degrees == [(d, (0, 1)) for d in range(1, 6)] + [(6, (1,))]


def test_eichler_walk_stops_each_mu_at_its_own_degree(monkeypatch):
    # at 30 digits and tau = (1 + i)/2 the Eichler integral of mu = 0
    # converges at degree 5 and that of mu = 1 runs to degree 6
    degrees = _recording_walks(monkeypatch)
    with mp.workdps(30):
        tau = mp.mpc(0.5, 0.5)
        (q0, n0), (q1, n1) = (_eichler_quad(mu, tau, 6) for mu in (0, 1))
        nodes = lambda degree: len(mp.mp._tanh_sinh.get_nodes(0, mp.inf, degree, mp.mp.prec))
        assert n0 == sum(nodes(d) for d in range(1, 6))
        assert n1 == n0 + nodes(6)
        walked = numeric._eichler_integrals(tau, 6)
        assert (walked[0]._mpc_, walked[1]._mpc_) == (q0._mpc_, q1._mpc_)
    assert degrees == [(d, (0, 1)) for d in range(1, 6)] + [(6, (1,))]


def test_no_check_calls_mp_quad(monkeypatch):
    # every quadrature is a `_tanh_sinh` walk: no check of the suite calls
    # mp.quad, and the Eichler check walks once per distinct tau for both mu
    # in one memo scope, closed after the check
    def no_quad(*args, **kwargs):
        raise AssertionError("mp.quad called")

    monkeypatch.setattr(mp, "quad", no_quad)
    walks = []
    _counting(monkeypatch, "_tanh_sinh", walks)
    for name, check in CHECKS.items():
        walks.clear()
        report = check.run(CFG, 2 if name == "theorem1" else None)
        assert report[check.key] < check.gate, name
        if name == "eichler":
            assert len(walks) == 3
        assert numeric._SUM_MEMO.get() is None


def test_integer_pairs_round_as_libmp():
    # the integer pairs of `_theta_sums`, `_kernel` and `_tanh_sinh` give the
    # values of the libmp calls they stand for, at both rounding modes:
    # normalize, mpf_add (with its shortcut for far-apart terms), mpf_mul,
    # mpf_div, mpf_sqrt, mpc_mul and the walk's sum of exact products, on
    # operands as wide as exact products and exponents far apart
    rng = random.Random(41)
    pair, raw = numeric._pair, numeric._raw

    def value(prec):
        man = rng.getrandbits(rng.randint(1, 2 * prec)) * rng.choice((1, -1))
        return libmp.from_man_exp(man, rng.randint(-300, 300))

    libmp = mp.libmp
    for _ in range(3000):
        prec, rnd = rng.choice((53, 120, 220)), rng.choice("nd")
        s, t = value(prec), value(prec)
        man, exp = rng.getrandbits(3 * prec) - (1 << (3 * prec - 1)), rng.randint(-99, 99)
        assert raw(numeric._round(man, exp, prec, rnd)) == libmp.from_man_exp(man, exp, prec, rnd)
        assert raw(numeric._add(*pair(s), *pair(t), prec, rnd)) == libmp.mpf_add(s, t, prec, rnd)
        assert raw(numeric._round(pair(s)[0] * pair(t)[0], s[2] + t[2], prec, rnd)) == \
            libmp.mpf_mul(s, t, prec, rnd)
        if t[1] and not t[0]:
            assert raw(numeric._div(*pair(s), *pair(t), prec, rnd)) == libmp.mpf_div(s, t, prec, rnd)
            assert raw(numeric._sqrt_down(*pair(t), prec)) == libmp.mpf_sqrt(t, prec, "d")
        z, w = (value(prec), value(prec)), (value(prec), value(prec))
        product = numeric._cmul((pair(z[0]), pair(z[1])), (pair(w[0]), pair(w[1])), prec, rnd)
        assert tuple(map(raw, product)) == libmp.mpc_mul(z, w, prec, rnd)
        ws = [value(prec) for _ in range(rng.randint(1, 6))]
        fs = [value(prec) if rng.random() < 0.9 else libmp.fzero for _ in ws]
        want = libmp.mpf_sum([libmp.mpf_mul(w, f) for w, f in zip(ws, fs)], prec, rnd)
        assert raw(numeric._fdot(list(map(pair, ws)), list(map(pair, fs)), prec, rnd)) == want
    # the shortcuts are libmp's even where they do not round the exact sum.
    # mpf_add: a wide term 1 unit above a midpoint, less a term 2^top bits
    # below its top, taken as a sticky unit from prec + 5 bits below on
    prec, wide = 53, ((1 << 52 | 12345) << 67) | (1 << 66) | 1
    s = libmp.from_man_exp(wide, 0)
    for top, shortcut in ((11, True), (62, True), (63, False)):
        t = libmp.from_man_exp(-((1 << top + 100) + 1), -101)
        exact = libmp.from_man_exp(wide * 2**101 - (1 << top + 100) - 1, -101, prec, "n")
        assert (libmp.mpf_add(s, t, prec, "n") != exact) is shortcut
        assert raw(numeric._add(*pair(s), *pair(t), prec, "n")) == libmp.mpf_add(s, t, prec, "n")
    # mpf_sum: a product more than 2 prec bits from the running sum, after
    # or before it, is dropped
    one, tiny = libmp.fone, libmp.from_man_exp(-1, -120)
    for fs in ((one, tiny), (tiny, one)):
        want = libmp.mpf_sum([libmp.mpf_mul(one, f) for f in fs], prec, "d")
        assert want == one != libmp.mpf_add(one, tiny, prec, "d")
        assert raw(numeric._fdot([pair(one)] * 2, list(map(pair, fs)), prec, "d")) == want


def _libmp_power_calls(monkeypatch):
    """Wrap mpmath's libmp.mpc_pow_mpf, which the kernel calls only to fall
    back, so that each call appends its arguments to the returned list."""
    power, calls = mp.libmp.mpc_pow_mpf, []

    def counting(*args):
        calls.append(args)
        return power(*args)

    monkeypatch.setattr(mp.libmp, "mpc_pow_mpf", counting)
    return power, calls


@pytest.mark.parametrize("dps", [15, 30, 45, 60])
def test_kernel_equals_the_libmp_power(monkeypatch, dps):
    # the integer kernel gives the tuple of libmp's z^(-3/2) bit for bit on a
    # grid of Re tau < 0, = 0 and > 0 and Im from 1e-2 to 1e34, at the walk
    # precision as well, without falling back
    power, calls = _libmp_power_calls(monkeypatch)
    p32 = mp.mpf(-1.5)._mpf_
    with mp.workdps(dps):
        for prec in (mp.mp.prec, mp.mp.prec + 20):
            for re in ("-3.7", "-0.5", "-1e-9", 0, "1e-9", "0.3", "2.9"):
                for e in range(-2, 35):
                    for im in (mp.mpf(10) ** e, mp.mpf("1.37") * mp.mpf(10) ** e):
                        z = (mp.mpf(re)._mpf_, im._mpf_)
                        assert numeric._kernel(z, prec, "n") == power(z, p32, prec, "n"), (z, prec)
    assert not calls


def test_kernel_falls_back_outside_its_domain(monkeypatch):
    # each case outside the replayed path is libmp's own power, called once:
    # b = 0 on either side of the real axis, b < 0, another rounding mode,
    # an infinite part, and a cube whose exact size reaches 10,000 (at
    # 10,308); just below that size (9,906) the replay still holds
    power, calls = _libmp_power_calls(monkeypatch)
    p32 = mp.mpf(-1.5)._mpf_
    raw = lambda x: mp.mpf(x)._mpf_
    with mp.workdps(30):
        prec = mp.mp.prec
        falling = [((raw("0.3"), raw(0)), "n"), ((raw("-0.3"), raw(0)), "n"),
                   ((raw("0.3"), raw("-1.1")), "n"), ((raw("-0.3"), raw("-1.1")), "n"),
                   ((raw("0.3"), raw("1.1")), "d"), ((raw("-0.3"), raw("1.1")), "f"),
                   ((raw("0.3"), raw("1.1")), "u"), ((raw(mp.inf), raw("1.1")), "n"),
                   ((raw("-1e500"), raw("1e-500")), "n")]
        for z, rnd in falling:
            calls.clear()
            assert numeric._kernel(z, prec, rnd) == power(z, p32, prec, rnd), (z, rnd)
            assert len(calls) == 1, (z, rnd)
        calls.clear()
        z = (raw("-1e480"), raw("1e-480"))
        assert numeric._kernel(z, prec, "n") == power(z, p32, prec, "n")
        assert not calls


def test_no_quadrature_calls_the_libmp_power(monkeypatch):
    # every kernel power of the period and Eichler walks is the integer
    # kernel's own, cold tables included
    def no_power(*args):
        raise AssertionError("mpc_pow_mpf called")

    monkeypatch.setattr(mp.libmp, "mpc_pow_mpf", no_power)
    monkeypatch.setattr(numeric, "_RAY", {})
    for pt in DEFAULT_POINTS:
        period_quadrature(pt.tau, pt.z, CFG)
    check = CHECKS["eichler"]
    assert check.run(CFG, None)[check.key] < check.gate


def test_theta_pair_equals_both_components():
    # one call gives both components: each equals the term-by-term sum as
    # `theta_value` does, and `theta_value` itself bit for bit
    rng = random.Random(11)
    points = [(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 3)),
               complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))) for _ in range(6)]
    with mp.workdps(30):
        points += [(1j * t, 0) for t in (mp.mpf(1), mp.mpf("1.5"), mp.mpf(7))]  # upper ray
        points += [(1j / (4 * u * u), z) for u in (mp.mpf("0.05"), mp.mpf("0.3"), mp.mpf("0.77"),
                                                   mp.mpf(1)) for z in (0, mp.mpf(1) / 4)]  # lower
    for tau, z in points:
        for dps in (30, 45):
            with mp.workdps(dps):
                pair = numeric.theta_pair(tau, z)
                assert len(pair) == 2
                for mu in (0, 1):
                    assert pair[mu]._mpc_ == theta_value(mu, tau, z)._mpc_, (tau, z, mu, dps)
                # so does each (mu, z) of one call with several z, as a lower
                # ray node makes it
                groups = [(w, mus) for w in (z, 0, mp.mpf(1) / 4) for mus in ((0, 1), (0,))]
                flat = [(mu, w) for w, mus in groups for mu in mus]
                for (mu, w), value in zip(flat, numeric._theta_sums(tau, groups), strict=True):
                    assert value._mpc_ == theta_value(mu, tau, w)._mpc_, (tau, w, mu, dps)
        ref = [_theta_term_by_term(mu, tau, z) for mu in (0, 1)]
        with mp.workdps(30):
            pair = numeric.theta_pair(tau, z)
        with mp.workdps(60):
            for mu, (want, size) in enumerate(ref):
                assert abs(pair[mu] - want) < 1e-30 * size, (tau, z, mu)


def _theta_sums_complex(tau, groups):
    """The complex recurrence of `_theta_sums` with no axis branch: every
    term, zeta power and sum an mpc.  The oracle of the axis branch."""
    tau = mp.mpc(tau)
    v = mp.im(tau)
    groups = [(mp.mpc(z), mus) for z, mus in groups]
    rmaxes = [int(2 * (y + mp.sqrt(y * y + v * numeric._kexp(mp.mp.prec))) / v) + 2
              for y in (abs(mp.im(z)) for z, _ in groups)]
    sums = []
    with mp.workdps(mp.mp.dps + numeric._GUARD_DPS):
        q4 = numeric._e(tau / 4)
        q = q4**4
        q2 = q * q
        for (z, mus), rmax in zip(groups, rmaxes):
            zeta = numeric._e(z)
            inv = 1 / zeta
            zeta2, inv2 = zeta * zeta, inv * inv
            for mu in mus:
                term, step, up, down = q4 ** (mu * mu), q ** (mu + 1), zeta**mu, inv**mu
                total = term * (up + down) if mu else term
                for _ in range(mu + 2, rmax + 1, 2):
                    term *= step
                    step *= q2
                    up *= zeta2
                    down *= inv2
                    total += term * (up + down)
                sums.append(total)
    return sums


@pytest.mark.parametrize("dps", [30, 45, 60])
def test_axis_theta_branch_equals_the_complex_recurrence(monkeypatch, dps):
    # every theta sum of a ray row, degrees 1 to 7, takes the axis branch:
    # one exponential e(tau/4) and none for zeta; each equals the complex
    # recurrence bit for bit, and so does the theta pair at (2i, 1/4)
    theta_sums, exps, calls = numeric._theta_sums, [], []
    expjpi = mp.libmp.mpc_expjpi
    monkeypatch.setattr(mp.libmp, "mpc_expjpi", lambda *args: exps.append(args) or expjpi(*args))

    def recording(tau, groups):
        seen = len(exps)
        sums = theta_sums(tau, groups)
        calls.append((tau, groups, sums, len(exps) - seen))
        return sums

    monkeypatch.setattr(numeric, "_theta_sums", recording)
    monkeypatch.setattr(numeric, "_RAY", {})
    with mp.workdps(dps):
        prec = mp.mp.prec
        with mp.workprec(prec + 20):
            for piece, interval in numeric._PIECES.items():
                for degree in range(1, 8):
                    nodes = lambda: mp.mp._tanh_sinh.get_nodes(*interval, degree, prec)
                    calls.clear()
                    numeric._ray_table(piece, degree, prec, nodes)
                    assert len(calls) == len(nodes()), (piece, degree)
                    for tau, groups, sums, taken in calls:
                        assert taken == 1, (piece, degree, tau)
                        want = _theta_sums_complex(tau, groups)
                        assert [v._mpc_ for v in sums] == [v._mpc_ for v in want], (piece, tau)
        calls.clear()
        pair = numeric.theta_pair(DEFAULT_POINTS[2].tau, DEFAULT_POINTS[2].z)
        assert calls[0][3] == 1
        want = _theta_sums_complex(DEFAULT_POINTS[2].tau, [(DEFAULT_POINTS[2].z, (0, 1))])
        assert [v._mpc_ for v in pair] == [v._mpc_ for v in want]


def test_theta_sums_equal_the_complex_recurrence_off_the_axis():
    # off the axis branch the recurrence runs on raw mpc tuples, with the
    # calls of the mpc operators: bit for bit the complex recurrence
    rng = random.Random(29)
    points = [(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 3)),
               complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))) for _ in range(8)]
    points += [(1j, complex(0.1, 0.2)), (2j, 0.3), (complex(0.3, 1.1), 0), (complex(0.3, 1.1), 0.25)]
    for dps in (30, 45):
        with mp.workdps(dps):
            for tau, z in points:
                groups = [(z, (0, 1)), (0, (0,)), (mp.mpf(1) / 4, (1, 0))]
                got = numeric._theta_sums(tau, groups)
                assert [v._mpc_ for v in got] == [v._mpc_ for v in _theta_sums_complex(tau, groups)]


def test_slash_sum_takes_each_beta_once(monkeypatch):
    # the images of a slash sum that share Im tau share their beta
    # arguments: inside the sum's scope each distinct argument is evaluated
    # once, and the sum is bit-identical to its terms evaluated one by one
    # with no memo, which repeat them
    args = []
    _counting(monkeypatch, "beta_fn", args)
    R = numeric._completion_value
    terms = tilde_T(2).sorted_terms()
    with mp.workdps(CFG.dps):
        tau, z = mp.mpc(0.1, 1.1), mp.mpc(0.2, 0.05)
        total = slash_formal_sum(R, tilde_T(2), 2, 1)(tau, z)
        assert len(args) == len(set(args))
        memoized = list(args)
        args.clear()
        one_by_one = pairwise_sum(c * numeric.slash_ring_term(R, e, 2, 1)(tau, z) for e, c in terms)
        assert total._mpc_ == one_by_one._mpc_
        assert set(args) == set(memoized) and len(args) > len(memoized)


def test_slash_sum_computes_each_completion_once_per_image(monkeypatch):
    # the n^2 lattice points of a matrix of tilde_T(2) share its image tau:
    # within one sum each (mu, image tau) is computed once, and the sum is
    # bit-identical to its terms evaluated one by one without the memo
    computed = []
    series = numeric._completion_series

    def counting(mu, tau):
        computed.append((mu, tau))
        return series(mu, tau)

    monkeypatch.setattr(numeric, "_completion_series", counting)
    P = lambda tau, z: period_value(tau, z, CFG)
    terms = tilde_T(2).sorted_terms()
    with mp.workdps(CFG.dps):
        tau, z = mp.mpc(0.1, 1.1), mp.mpc(0.2, 0.05)
        total = slash_formal_sum(P, tilde_T(2), 2, 1)(tau, z)
        # R' at each matrix's image tau and at its T-image, for mu = 0 and 1
        matrices = {e.mat for e, _ in terms}
        assert len(terms) > len(matrices)
        assert len(computed) == len(set(computed)) == 2 * 2 * len(matrices)
        once = len(computed)
        computed.clear()
        one_by_one = pairwise_sum(c * numeric.slash_ring_term(P, e, 2, 1)(tau, z) for e, c in terms)
        assert total == one_by_one
        assert len(computed) > once


def test_slash_sum_memo_is_closed_after_the_sum():
    P = lambda tau, z: period_value(tau, z, CFG)
    assert numeric._SUM_MEMO.get() is None
    slash_formal_sum(P, tilde_T(2), 2, 1)(1j, 0.1)
    assert numeric._SUM_MEMO.get() is None

    def failing(tau, z):
        assert numeric._SUM_MEMO.get() is not None
        raise PrecisionError("stop")

    with pytest.raises(PrecisionError):
        slash_formal_sum(failing, tilde_T(2), 2, 1)(1j, 0.1)
    assert numeric._SUM_MEMO.get() is None


def test_period_memo_is_keyed_by_the_exact_tau():
    # two taus that agree to 28 digits are still two points: inside one memo
    # scope each gets its own integrals, bit for bit
    with mp.workdps(CFG.dps):
        tau = mp.mpc(0.2, 0.7)
        near = tau + mp.mpc(0, "1e-29")
    fresh = period_quadrature(near, 0, CFG)
    with numeric._memo_scope():
        period_quadrature(tau, 0, CFG)
        assert period_quadrature(near, 0, CFG) == fresh


def test_period_value_matches_quadrature():
    # the transfer check cannot see P's normalization, so this comparison
    # with the independent quadrature pins it
    points = [(0.1j, complex(0.3, 0.05)), (complex(0.3, 0.2), complex(0.49, 0.1)),
              (10j, complex(-0.48, 0.02)), (1j, complex(0.1, 0.2)),
              (complex(-0.4, 1.3), complex(0.45, -0.15)), (complex(0.25, 0.5), -0.5),
              (complex(0.1, 3.0), complex(0.2, 0.3)), (complex(-0.2, 0.15), 0.05j)]
    for tau, z in points:
        closed = period_value(tau, z, CFG)
        quad = period_quadrature(tau, z, CFG)
        with mp.workdps(CFG.dps):
            assert abs(closed - quad) < 1e-25 * abs(quad), (tau, z)


def test_a_nan_residual_at_a_later_point_fails_its_check(monkeypatch):
    # P is nan at the second point only; the builtin max kept the first
    # point's 0 there, and the check passed
    second = mp.mpc(DEFAULT_POINTS[1].tau)
    monkeypatch.setattr(numeric, "period_quadrature",
                        lambda tau, z, cfg: mp.mpc(mp.nan) if tau == second else mp.mpc(0))
    check = CHECKS["extended"]
    report = check.run(CFG, None)
    assert isnan(report[check.key]) and not report[check.key] < check.gate


def test_largest_keeps_nan_and_finite_bits():
    nan = float("nan")
    assert isnan(numeric._largest((1e-30, nan))) and isnan(numeric._largest((nan, 1e-30)))
    with mp.workdps(30):
        values = [mp.mpf(1) / 3, mp.mpf(2) / 7, mp.mpf(1) / 7]
        assert numeric._largest(values) == float(max(values))
        # nan at the second point alone (the only one with Re tau != 0)
        residual = lambda tau, z: mp.mpc(mp.nan) if mp.re(tau) else mp.mpc(1)
        assert isnan(numeric._worst(DEFAULT_POINTS, residual))


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


@pytest.mark.parametrize("n", [1, 4])
def test_tildeT_action_off_the_primes(n):
    # the eigenvalue is sigma_1(n), which is p + 1 only at a prime: 1 at
    # n = 1 and 7 at n = 4
    report = check_tildeT_action(n, CFG, points=(EvalPoint(1j, complex(0.1, 0.1)),))
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
