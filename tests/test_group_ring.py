import random
from itertools import chain
from math import gcd, isqrt

import pytest

from jacobi_periods import group_ring
from jacobi_periods.arith import is_square
from jacobi_periods.errors import DomainError, InvalidElementError, ResourceLimitError
from jacobi_periods.group_ring import (
    FormalSum,
    RingBasisElement,
    _estimate_terms,
    _hat_matrices,
    _orbit_matrix_part,
    _tilde_matrix_lists,
    canonicalize,
    check_product_formula,
    check_theorem_congruence,
    decompose_ideal_member,
    embed_scale,
    group_to_ring,
    hecke_hat,
    hecke_hat_V,
    mul_group_left,
    mul_group_right,
    orbit_canonical,
    product_difference,
    reduce_mod_ideal,
    ring_multiply,
    tilde_T,
    tilde_V,
    unit,
)
from jacobi_periods.jacobi_group import generator


# --- independent enumeration oracles -------------------------------------

def _oracle_hat_count(n):
    cnt = 0
    for a in range(1, n * n + 1):
        if (n * n) % a:
            continue
        d = n * n // a
        for b in range(d):
            if is_square(gcd(gcd(a, b), d)):
                cnt += 1
    return cnt * n * n


def _oracle_tilde_T_matrices(n):
    n2 = n * n
    mats = set()
    bound = n2 + 1
    for a in range(1, bound):
        for b in range(-bound, bound):
            for c in range(-bound, bound):
                d4 = n2 + b * c
                if d4 <= 0 or d4 % a or a * bound <= d4:
                    continue
                d = d4 // a
                g = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
                if not is_square(g):
                    continue
                if b < 0 < c and a > c and d > -b:
                    mats.add((a, b, c, d))
                    mats.add((a, -b, -c, d))
                if c == 0 and -d < 2 * b <= d:
                    mats.add((a, b, 0, d))
                if b == 0 and c != 0 and -a < 2 * c <= a:
                    mats.add((a, 0, c, d))
    return mats


def test_hecke_hat_term_counts():
    assert len(hecke_hat(1)) == 1
    assert len(hecke_hat(2)) == 24
    assert len(hecke_hat(3)) == 108
    for n in (1, 2, 3, 4):
        total = sum(c for _, c in hecke_hat(n).items())
        assert total == _oracle_hat_count(n)


def test_hecke_hat_level_one_is_unit():
    assert hecke_hat(1) == unit(1)


def test_tilde_T_term_counts_against_oracle():
    # the paired first sum is empty for n = 2 and has the det-n^2 pairs
    # [2,-1;1,4],[4,-1;1,2] (+ mirrors) for n = 3
    assert len(tilde_T(1)) == 1
    assert sum(c for _, c in tilde_T(2).items()) == 40
    assert sum(c for _, c in tilde_T(3).items()) == 234
    for n in (2, 3):
        got = {e.mat for e, _ in tilde_T(n).items()}
        want = {canonicalize(n, m, 0, 0).mat for m in _oracle_tilde_T_matrices(n)}
        assert got == want


def test_tilde_V_matrices():
    assert len(tilde_V(1)) == 1
    mats2 = sorted(e.mat for e, _ in tilde_V(2).items())
    assert mats2 == sorted(
        [canonicalize(2, m, 0, 0).mat for m in [(1, 0, 0, 2), (1, 1, 0, 2), (2, 0, 0, 1), (2, 0, 1, 1)]]
    )
    # determinant-n storage, zero lattice
    for e, _ in tilde_V(4).items():
        assert e.mat_det == 4 and (e.x2, e.y2) == (0, 0)
    assert len(tilde_V(4)) == 11


def test_hecke_hat_V_is_the_upper_triangular_family():
    for n in range(1, 13):
        f = hecke_hat_V(n)
        want = {(a, b, 0, n // a) for a in range(1, n + 1) if n % a == 0 for b in range(n // a)}
        assert {e.mat: (e.x2, e.y2, c) for e, c in f.items()} == {m: (0, 0, 1) for m in want}
        assert len(f) == sum(d for d in range(1, n + 1) if n % d == 0), n


def test_canonicalize_examples():
    e = canonicalize(2, (2, 1, 0, 2), 1, 0)
    assert canonicalize(2, e.mat, e.x2, e.y2) == e  # idempotent
    neg = canonicalize(2, (-2, -1, 0, -2), 1, 0)
    assert neg == e  # sign rule
    # level 2, X = 5/2: x2 = n*X = 5 stored mod n^2 = 4 -> 1
    assert canonicalize(2, (2, 1, 0, 2), 5, 0).x2 == 1
    with pytest.raises(InvalidElementError):
        canonicalize(2, (1, 0, 0, 3), 0, 0)


def test_level_one_lattice_not_collapsed():
    # the level-1 slice is the honest group ring: I2 is not the unit
    assert group_to_ring(generator("I2")) != unit(1)
    assert group_to_ring(generator("E")) == unit(1)


def test_ring_multiply_unit_and_grading():
    f = hecke_hat(2)
    assert dict(ring_multiply(f, unit(1)).items()) == dict(f.items())
    g = ring_multiply(hecke_hat(2), hecke_hat(3))
    assert g.level == 6
    for e, _ in g.items():
        assert e.mat_det == 36


def test_ring_multiply_bilinearity():
    g = hecke_hat(2)
    S = generator("S")
    lhs = mul_group_left(S, g) - g
    expand = ring_multiply(group_to_ring(S) - unit(1), g)
    assert lhs == expand


def test_ring_multiply_rejects_det_level_mismatch():
    with pytest.raises(DomainError):
        ring_multiply(tilde_V(2), unit(1))


def _random_basis_element(rng, n):
    # random det-n^2 matrix as (upper triangular) * (word in SL2)
    a = rng.choice([d for d in range(1, n * n + 1) if (n * n) % d == 0])
    d = n * n // a
    b = rng.randint(-2 * n, 2 * n)
    e = canonicalize(n, (a, b, 0, d), 0, 0)
    f = FormalSum(n, {e: 1})
    for _ in range(rng.randint(0, 4)):
        f = mul_group_right(f, generator(rng.choice(["S", "T", "I1", "I2"])))
    ((e, _),) = f.items()
    return canonicalize(n, e.mat, rng.randint(0, n * n - 1), rng.randint(0, n * n - 1))


def test_orbit_canonical_invariance():
    from jacobi_periods.jacobi_group import inverse

    rng = random.Random(5)
    for _ in range(500):
        n = rng.choice([1, 2, 3])
        e = _random_basis_element(rng, n)
        key = orbit_canonical(e)
        for name in ("S", "I1", "I2"):
            g = generator(name)
            for h in (g, inverse(g)):
                ((moved, _),) = mul_group_left(h, FormalSum(n, {e: 1})).items()
                assert orbit_canonical(moved) == key, (e, name)
        # sign flip
        flipped = RingBasisElement(level=n, mat=tuple(-v for v in e.mat), x2=e.x2, y2=e.y2)
        assert orbit_canonical(canonicalize(n, flipped.mat, e.x2, e.y2)) == key


def test_orbit_hnf_is_the_row_span():
    # (p, q; 0, s) must generate exactly the row span of A: both HNF rows are
    # integer combinations of A's rows (x = v adj(A) / det is integral), both
    # rows of A reduce to the zero point, and p s = det fixes the index
    rng = random.Random(21)
    for _ in range(400):
        n = rng.randint(1, 8)
        e = _random_basis_element(rng, n)
        a, b, c, d = e.mat
        det = n * n
        mat_key, hnf = _orbit_matrix_part(n, e.mat)
        p, q, s = hnf
        assert p > 0 and 0 <= q < s and p * s == det, (e, hnf)
        for vx, vy in ((p, q), (0, s)):
            assert (vx * d - vy * c) % det == 0 and (vy * a - vx * b) % det == 0, (e, hnf)
        for row in ((a, b), (c, d)):
            assert group_ring._orbit_lattice_point(hnf, *row) == (0, 0), (e, hnf)


def test_orbit_keys_distinguish_levels():
    e2 = canonicalize(2, (2, 0, 0, 2), 0, 0)
    e3 = canonicalize(3, (3, 0, 0, 3), 0, 0)
    assert orbit_canonical(e2) != orbit_canonical(e3)


def test_reduce_mod_ideal_coboundaries():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.choice([2, 3])
        g = FormalSum(n)
        for _ in range(rng.randint(1, 4)):
            g.add_term(_random_basis_element(rng, n), rng.randint(-3, 3))
        for name in ("S", "I1", "I2"):
            h = generator(name)
            d = mul_group_left(h, g) - g
            assert reduce_mod_ideal(d).is_zero


def _flat_orbit_vector(f):
    # per-point oracle of the block-wise reduction: one orbit key per term
    out = {}
    for e, c in f.items():
        k = orbit_canonical(e)
        out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def test_reduce_mod_ideal_matches_per_point_keys():
    from jacobi_periods.jacobi_group import inverse

    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 6)
        f = FormalSum(n)
        for _ in range(rng.randint(1, 6)):
            e = _random_basis_element(rng, n)
            # unreduced lattice parts: kept as given at level 1, reduced above
            r = 3 * n * n
            e = canonicalize(n, e.mat, rng.randint(-r, r), rng.randint(-r, r))
            c = rng.randint(-3, 3)
            f.add_term(e, c)
            # an orbit-mate with the opposite coefficient cancels in the reduction
            h = generator(rng.choice(["S", "I1", "I2"]))
            h = h if rng.random() < 0.5 else inverse(h)
            ((moved, _),) = mul_group_left(h, FormalSum(n, {e: 1})).items()
            f.add_term(moved, -c if rng.random() < 0.7 else rng.randint(-3, 3))
        assert dict(reduce_mod_ideal(f)) == _flat_orbit_vector(f)
    n = 6
    hat, tilde = hecke_hat(n), tilde_T(n)
    diffs = [mul_group_right(hat, generator(nm)) - hat for nm in ("S", "I1", "I2")]
    T = generator("T")
    diffs.append((mul_group_right(hat, T) - hat) - (mul_group_left(T, tilde) - tilde))
    for d in diffs:
        assert dict(reduce_mod_ideal(d)) == _flat_orbit_vector(d)


def _flat_sorted_terms(n, mats, lattice):
    # the pre-block storage: one canonicalized key per (matrix, lattice point)
    terms = {}
    for mat in mats:
        for x, y in lattice:
            e = canonicalize(n, mat, n * x, n * y)
            terms[e] = terms.get(e, 0) + 1
    return sorted((e, c) for e, c in terms.items() if c)


def test_sorted_terms_pin_the_slash_order():
    # numeric.slash_formal_sum sums in sorted_terms() order, so this order
    # keeps the slash values bit-identical
    for n in range(1, 5):
        full = [(x, y) for x in range(n) for y in range(n)]
        cases = [
            (hecke_hat(n), _hat_matrices(n, n * n), full),
            (hecke_hat_V(n), _hat_matrices(n, n), [(0, 0)]),
            (tilde_T(n), chain.from_iterable(_tilde_matrix_lists(n, n * n)), full),
            (tilde_V(n), chain.from_iterable(_tilde_matrix_lists(n, n)), [(0, 0)]),
        ]
        for f, mats, lattice in cases:
            ref = _flat_sorted_terms(n, mats, lattice)
            assert len(f) == len(ref), n
            assert f.sorted_terms() == ref, n


def test_reduce_mod_ideal_unit_not_member():
    assert not reduce_mod_ideal(unit(1)).is_zero
    assert reduce_mod_ideal(FormalSum(2)).is_zero


def test_reduce_hat_times_S_minus_E():
    hat = hecke_hat(2)
    d = mul_group_right(hat, generator("S")) - hat
    assert reduce_mod_ideal(d).is_zero


def _assert_reexpands(f):
    xs, ys, zs = decompose_ideal_member(f)
    E1 = unit(1)
    S, I1, I2 = (group_to_ring(generator(nm)) - E1 for nm in ("S", "I1", "I2"))
    rebuilt = ring_multiply(S, xs) + ring_multiply(I1, ys) + ring_multiply(I2, zs)
    assert rebuilt == f


def test_decompose_ideal_member_reexpands():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        f = FormalSum(n)
        for _ in range(rng.randint(1, 3)):
            g = FormalSum(n)
            for _ in range(rng.randint(1, 3)):
                g.add_term(_random_basis_element(rng, n), rng.randint(-2, 2))
            h = generator(rng.choice(["S", "I1", "I2"]))
            f = f + (mul_group_left(h, g) - g)
        _assert_reexpands(f)
    # the product-formula certificate at (2, 3), k = 2, backed by an explicit
    # witness rather than by the orbit keys alone
    diff = product_difference(2, 3, 2)
    _assert_reexpands(mul_group_left(generator("T"), diff) - diff)


def test_decompose_rejects_non_member():
    with pytest.raises(DomainError):
        decompose_ideal_member(unit(1))


def test_theorem_congruence():
    for n in (1, 2, 3):
        report = check_theorem_congruence(n)
        assert report["ok"], (n, report)


def test_theorem_congruence_resource_limit():
    with pytest.raises(ResourceLimitError):
        check_theorem_congruence(50)


def test_term_budget_refuses_before_enumerating_tilde(monkeypatch):
    # the hat terms alone exceed both budgets at n = 50, so neither guard
    # needs the tilde matrices to refuse
    def boom(*args):
        raise AssertionError("tilde matrices enumerated")

    monkeypatch.setattr(group_ring, "_tilde_matrix_lists", boom)
    with pytest.raises(ResourceLimitError):
        check_theorem_congruence(50)
    with pytest.raises(ResourceLimitError):
        check_product_formula(50, 1, 2)


def test_term_budget_counts_the_guarded_sums():
    for n in range(1, 6):
        assert _estimate_terms(n) == len(hecke_hat(n)) + len(tilde_T(n)), n


def test_hat_b_convention_immaterial_mod_ideal():
    # replacing b by b + d (a left S-shift of one term) does not change the
    # reduction of any difference against the standard hat sum
    hat = hecke_hat(2)
    shifted = FormalSum(2)
    for e, c in hat.items():
        a, b, z, d = e.mat
        shifted.add_term(canonicalize(2, (a, b + d, z, d), e.x2, e.y2), c)
    assert reduce_mod_ideal(hat - shifted).is_zero


def test_product_formula_gcd_one():
    # literal representative products only satisfy the product identity up to
    # the transfer-ambiguity kernel; the report records both facts
    report = check_product_formula(2, 3, 2)
    assert report["defect_in_transfer_ambiguity"]
    report_trivial = check_product_formula(1, 5, 2)
    assert report_trivial["ok"]


def test_transfer_ambiguity_kernel_not_in_ideal():
    # T^2 is a lattice translation, so (T-E)(T+E)y lies in the ideal for every
    # y: tilde(n) + (T+E)y is as valid a transfer element as tilde(n).  For
    # y = unit(n) that shift is not in the ideal, so ideal membership of a
    # difference of transfer elements (the literal `ok` of
    # check_product_formula) depends on the representatives chosen.
    T = group_to_ring(generator("T"))
    for n in (1, 2, 6):
        shift = ring_multiply(T, unit(n)) + unit(n)
        assert reduce_mod_ideal(ring_multiply(T, shift) - shift).is_zero
        assert not reduce_mod_ideal(shift).is_zero


def test_product_formula_square_case_exploratory():
    # decided by computation: at gcd(n, n2) > 1 the naive lower-term recipe
    # misses scaled contributions (e.g. hat(2)^2 = hat(4) + 4*(2I x hat(2))
    # + 4*(4I x half-lattice) + 16*[4I] mod the ideal), so the difference is
    # neither in the ideal nor in the transfer-ambiguity kernel
    report = check_product_formula(2, 2, 2)
    assert not report["ok"]
    assert not report["defect_in_transfer_ambiguity"]


def test_product_difference_refuses_fractional_lower_terms():
    # at k = 1 the lower term d^(2k-3) = 1/2 of tilde(2)^2 is not an integer
    with pytest.raises(DomainError):
        product_difference(2, 2, 1)
    # with gcd 1 there is no lower term, and every coefficient stays an int
    for k in (1, 2):
        diff = product_difference(2, 3, k)
        assert all(type(c) is int for _, c in diff.items())


def test_embed_scale_grading():
    t1 = embed_scale(tilde_T(1), 2)
    assert t1.level == 4
    ((e, _),) = t1.items()
    assert e.mat == (4, 0, 0, 4) and (e.x2, e.y2) == (0, 0)
