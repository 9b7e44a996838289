from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobi_periods.arith import (
    ClassNumberTable,
    divisors,
    hurwitz,
    is_fundamental_discriminant,
    is_square,
    kronecker,
    l_zero_chi,
    sigma,
)
from jacobi_periods.errors import DomainError

# hand-enumerated reduced forms (e.g. H(23): (1,1,6), (2,1,3), (2,-1,3))
KNOWN_H = {
    0: Fraction(-1, 12),
    1: 0,
    2: 0,
    3: Fraction(1, 3),
    4: Fraction(1, 2),
    5: 0,
    6: 0,
    7: 1,
    8: 1,
    11: 1,
    12: Fraction(4, 3),
    15: 2,
    16: Fraction(3, 2),
    19: 1,
    20: 2,
    23: 3,
    24: 2,
    27: Fraction(4, 3),
    28: 2,
    31: 3,
}


def test_hurwitz_known_values():
    for n, h in KNOWN_H.items():
        assert hurwitz(n) == Fraction(h), n


def test_hurwitz_negative_raises():
    with pytest.raises(DomainError):
        hurwitz(-1)


def test_class_number_table_invariants():
    table = ClassNumberTable.build(400)
    assert table.values[0] == Fraction(-1, 12)
    for n in range(1, 401):
        h = table.values[n]
        assert (12 * h).denominator == 1
        if n % 4 in (1, 2):
            assert h == 0
        else:
            assert h > 0


def test_class_numbers_are_ints_except_at_the_weighted_forms():
    # H(N) is a Fraction exactly at N = 0, 3k^2 and 4k^2, where k(x^2+xy+y^2)
    # and k(x^2+y^2) weigh 1/3 and 1/2; every other value is an int
    table = ClassNumberTable.build(5000).values
    weighted = {0} | {m * k * k for k in range(1, 41) for m in (3, 4) if m * k * k <= 5000}
    denominators = set()
    for n in range(5001):
        h = hurwitz(n)
        assert (type(h) is Fraction) == (n in weighted), n
        assert type(table[n]) is type(h) and table[n] == h, n
        denominators.add(h.denominator)
    assert denominators == {1, 2, 3, 12}


def test_hurwitz_is_l_zero_chi_at_fundamental_discriminants():
    # H(|D|) = 2 h(D) / w(D) = L(0, chi_D): a Kronecker sum against the form count
    for d in range(-3, -3001, -1):
        if is_fundamental_discriminant(d):
            assert hurwitz(-d) == l_zero_chi(d), d


def _reduced_form_count(n):
    """H(n) by listing the reduced forms (a, b, c) of discriminant -n one by
    one: |b| <= a <= c, with b >= 0 when |b| = a or a = c; a(x^2+y^2) weighs
    1/2 and a(x^2+xy+y^2) weighs 1/3."""
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a, a + 1):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a or (b < 0 and (-b == a or a == c)):
                continue
            total += Fraction(1, 2) if (b == 0 and a == c) else \
                Fraction(1, 3) if a == b == c else 1
        a += 1
    return total


def test_hurwitz_matches_a_form_by_form_count():
    for n in range(1, 501):
        assert hurwitz(n) == _reduced_form_count(n), n


def test_hecke_relation_on_class_numbers():
    # H(N p^2) + (-N/p) H(N) + p H(N/p^2) = (p+1) H(N), H at non-integers = 0
    for p in (2, 3, 5, 7):
        for n in range(0, 201):
            if n % 4 in (1, 2):
                continue
            lhs = hurwitz(n * p * p) + kronecker(-n, p) * hurwitz(n)
            if n % (p * p) == 0:
                lhs += p * hurwitz(n // (p * p))
            assert lhs == (p + 1) * hurwitz(n), (p, n)


def test_kronecker_known():
    assert kronecker(-3, 2) == -1  # -3 = 5 mod 8
    assert kronecker(-4, 3) == -1
    assert kronecker(5, 5) == 0
    assert kronecker(-7, 3) == -1
    for d in (-3, -4, 5, 12, -20):
        assert kronecker(d, 1) == 1
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(7, 0) == 0


def _legendre(a, p):
    # Euler criterion oracle for odd primes
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_kronecker_matches_euler_criterion():
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for p in odd_primes:
        for d in range(-30, 31):
            assert kronecker(d, p) == _legendre(d, p), (d, p)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, 5, 8, 12, 13]),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
)
def test_kronecker_multiplicative(d, m, n):
    assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


def test_l_zero_chi_values():
    assert l_zero_chi(-4) == Fraction(1, 2)
    assert l_zero_chi(-3) == Fraction(1, 3)
    assert l_zero_chi(-7) == 1
    assert l_zero_chi(-8) == 1
    assert l_zero_chi(-11) == 1


def test_l_zero_chi_domain():
    for bad in (-9, -12, -1, 0, 5, 4):
        with pytest.raises(DomainError):
            l_zero_chi(bad)


def test_fundamental_discriminants():
    fundamentals = {-3, -4, -7, -8, -11, -15, -19, -20, -23, -24}
    for d in range(-25, 0):
        assert is_fundamental_discriminant(d) == (d in fundamentals), d


def test_divisor_utilities():
    assert is_square(1) and not is_square(2)
    assert is_square(0) and is_square(144) and not is_square(-4)
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(1) == [1]
    assert sigma(4, 1) == 7
    assert sigma(6, 0) == 4
    with pytest.raises(DomainError):
        divisors(0)
