"""Number-theoretic kernels: Hurwitz class numbers, Kronecker symbol, L(0, chi_D).

Class numbers are computed by direct enumeration of reduced positive-definite
integral binary quadratic forms, so the package carries no external tables.
H(N) is held as an ``int`` where it is integral and as a ``Fraction`` only at
N = 0, 3k^2 and 4k^2, where the forms equivalent to k(x^2+xy+y^2) and
k(x^2+y^2) weigh 1/3 and 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError

# H(n) for 0 <= n < len(_H), extended in bulk by _extend_class_numbers; the
# residues 1 and 2 mod 4 hold 0
_H: list[int | Fraction] = [Fraction(-1, 12)]


def _extend_class_numbers(nmax: int) -> None:
    """Enumerate reduced forms (a,b,c), |b| <= a <= c, of discriminant >= -nmax.

    A form with 0 < b < a < c is counted twice (both signs of b are reduced).
    Forms equivalent to a(x^2+y^2) weigh 1/2, to a(x^2+xy+y^2) weigh 1/3.
    Weights are counted in integer sixths: for fixed (a, b) the forms with
    c > a have N = 4ac - b^2 in an arithmetic progression of step 4a, so each
    such row is one pass over a slice of the count list.  A count divisible
    by 6 is stored as the int it stands for, any other as a Fraction; no form
    has N = 1 or 2 mod 4, so those count 0.
    """
    if nmax < len(_H):
        return
    sixths = [0] * (nmax + 1)
    a = 1
    while 3 * a * a <= nmax:
        for b in range(a + 1):
            n = 4 * a * a - b * b  # c = a
            if n > nmax:
                continue
            sixths[n] += 3 if b == 0 else 2 if b == a else 6
            row = slice(n + 4 * a, nmax + 1, 4 * a)  # c = a+1, a+2, ...
            w = 12 if 0 < b < a else 6
            sixths[row] = [s + w for s in sixths[row]]
        a += 1
    shared: dict[int, int | Fraction] = {}  # one value object per distinct count
    for s in sixths[len(_H):]:
        if s not in shared:
            shared[s] = Fraction(s, 6) if s % 6 else s // 6
        _H.append(shared[s])


def hurwitz(n: int) -> int | Fraction:
    """Hurwitz class number H(n), with H(0) = -1/12 and H(n) = 0 for n = 1, 2 mod 4;
    an int where it is integral, a Fraction (denominator 2, 3 or 12) only at
    n = 0, 3k^2 and 4k^2."""
    if n < 0:
        raise DomainError(f"H(n) needs n >= 0, got {n}")
    if n >= len(_H):
        _extend_class_numbers(max(n, 2 * len(_H), 256))
    return _H[n]


@dataclass(frozen=True)
class ClassNumberTable:
    """H(N) for 0 <= N <= max, exact: the same int or Fraction as `hurwitz`."""

    max: int
    values: tuple[int | Fraction, ...]

    @classmethod
    def build(cls, nmax: int) -> "ClassNumberTable":
        if nmax < 0:
            raise DomainError(f"table bound must be nonnegative, got {nmax}")
        _extend_class_numbers(nmax)
        return cls(max=nmax, values=tuple(_H[:nmax + 1]))

    def rows(self):
        """(N, numerator, denominator) triples in increasing N; an int value
        has denominator 1."""
        for n, v in enumerate(self.values):
            yield n, v.numerator, v.denominator


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n), extended to all integers n.

    (d/0) is 1 for d = +-1 and 0 otherwise; (d/-1) is the sign character;
    (d/2) follows the mod-8 rule.
    """
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    # factor out twos
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    # Jacobi symbol core by quadratic reciprocity
    d %= n
    while d != 0:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


def is_fundamental_discriminant(d: int) -> bool:
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def require_negative_fundamental(d: int) -> None:
    """Raise `DomainError` unless d is a negative fundamental discriminant."""
    if d >= 0 or not is_fundamental_discriminant(d):
        raise DomainError(f"{d} is not a negative fundamental discriminant")


def l_zero_chi(d: int) -> Fraction:
    """L(0, (d/.)) for a fundamental discriminant d < 0, via the finite sum
    -(1/|d|) * sum_{a=1}^{|d|} (d/a) * a."""
    require_negative_fundamental(d)
    total = sum(kronecker(d, a) * a for a in range(1, -d + 1))
    return Fraction(-total, -d)


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def divisors(n: int) -> list[int]:
    if n < 1:
        raise DomainError("divisors(n) needs n >= 1")
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def sigma(n: int, k: int) -> int:
    """Sum of k-th powers of the positive divisors of n."""
    return sum(d**k for d in divisors(n))


def moebius(n: int) -> int:
    if n < 1:
        raise DomainError("moebius(n) needs n >= 1")
    if n == 1:
        return 1
    m, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            m = -m
        else:
            p += 1
    return -m if n > 1 else m
