"""Exact truncated Fourier expansions for index-one Jacobi forms and the
one-variable q-series attached to them, with the Hecke actions on
coefficients.

Exponents are stored scaled by a positive integer (``n_scaled = scale * n``),
coefficients are exact: an integral one is held as an ``int``, any other as a
``Fraction`` (both have ``numerator`` and ``denominator``).  Every operation
records the largest truncation bound ``qbound`` for which its output is
provably complete given the completeness of its inputs.

An index-1 expansion whose coefficient depends only on D = 4n - r^2 (a
psi-lift, among them E_{2,1}) is held as its table indexed by D; its
(n, r) dict is built only when ``coeffs`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from math import ceil, gcd, isqrt

from .arith import (divisors, hurwitz, is_square, kronecker, l_zero_chi, moebius,
                    require_negative_fundamental, sigma)
from .errors import DomainError


def _num(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact(c) -> int | Fraction:
    """An exact coefficient: an int when it is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = _num(c)
    return c.numerator if c.denominator == 1 else c


def _bound(qbound, least=0) -> Fraction:
    """A truncation bound as a Fraction; one below `least` is rejected."""
    qbound = _num(qbound)
    if qbound < least:
        raise DomainError(f"qbound must be >= {least}, got {qbound}")
    return qbound


def _orders_below(qbound, s: int) -> int:
    """ceil(qbound / s), the number of orders n >= 0 with n s < qbound."""
    return max(0, -(-qbound // s))


class _Expansion:
    """The methods both expansion types share.  A subclass states how its
    keys carry the scaled q-exponent: `_exponent(key)` reads it and
    `_rekey(key, m)` multiplies it by m."""

    def __post_init__(self):
        """Adopts the `coeffs` dict given and normalizes it in place (zero values
        dropped, the others made `_exact`), so no copy of it is held.  One pass
        finds the values that are zero or not an int; only those are touched.
        A scale that is not a positive int, or a negative qbound, is refused."""
        if not isinstance(self.scale, int) or self.scale < 1:
            raise DomainError(f"scale must be a positive int, got {self.scale!r}")
        self.qbound = _bound(self.qbound)
        coeffs = self.coeffs
        for key, c in [(key, c) for key, c in coeffs.items() if type(c) is not int or not c]:
            c = _exact(c)
            if c:
                coeffs[key] = c
            else:
                del coeffs[key]

    def rescaled(self, new_scale: int):
        if new_scale % self.scale:
            raise DomainError("new scale must be a multiple of the old one")
        m = new_scale // self.scale
        return replace(self, scale=new_scale,
                       coeffs={self._rekey(key, m): c for key, c in self.coeffs.items()})

    def _common_scale(self, other):
        """self and other over the lcm of their scales; one already over it is
        not copied."""
        lcm = self.scale // gcd(self.scale, other.scale) * other.scale
        return tuple(h if h.scale == lcm else h.rescaled(lcm) for h in (self, other))

    def __eq__(self, other):
        """Equality of every field, with the terms compared over a common scale."""
        if type(self) is not type(other):
            return NotImplemented
        a, b = self._common_scale(other)
        return all(getattr(a, f.name) == getattr(b, f.name) for f in fields(a))

    def below(self, bound):
        """The terms below q^bound, complete below min(qbound, bound)."""
        bound = _bound(bound)
        top = ceil(bound * self.scale)  # exponent/scale < bound iff exponent < top
        return replace(self, coeffs={key: c for key, c in self.coeffs.items()
                                     if self._exponent(key) < top},
                       qbound=min(self.qbound, bound))

    def _equal_below(self, other, bound) -> bool:
        """Coefficientwise equality below q^bound."""
        bound = _num(bound)
        if bound > min(self.qbound, other.qbound):
            raise DomainError("comparison bound exceeds a completeness bound")
        a, b = self._common_scale(other)
        return a.below(bound).coeffs == b.below(bound).coeffs


@dataclass(eq=False)
class QSeries(_Expansion):
    """Truncated one-variable q-series with rational exponents n_scaled/scale."""

    scale: int
    coeffs: dict[int, int | Fraction] = field(default_factory=dict)
    qbound: Fraction = Fraction(0)

    _exponent = staticmethod(lambda n: n)
    _rekey = staticmethod(lambda n, m: n * m)

    def coeff(self, n_scaled: int) -> int | Fraction:
        return self.coeffs.get(n_scaled, 0)

    def equal_below(self, other: "QSeries", bound) -> bool:
        return self._equal_below(other, bound)

    def to_json_dict(self) -> dict:
        return {
            "scale": self.scale,
            "qbound": _frac_json(self.qbound),
            "terms": [[n, c.numerator, c.denominator] for n, c in sorted(self.coeffs.items())],
        }


@dataclass(eq=False)
class JacobiExpansion(_Expansion):
    """Truncated two-variable expansion sum c(n, r) q^n zeta^r with
    n = n_scaled/scale; complete for n < qbound.

    The table form (`_of_discriminant`) holds an index-1, scale-1 expansion
    with c(n, r) = table[4n - r^2] for n < qbound.  `coeff`, `below`,
    `scaled_by` and `min_discriminant` read the table; the first read of
    `coeffs` builds the (n, r) dict from it, sharing its value objects."""

    weight: Fraction
    index: Fraction
    scale: int
    coeffs: dict[tuple[int, int], int | Fraction] = field(default_factory=dict)
    qbound: Fraction = Fraction(0)

    _exponent = staticmethod(lambda key: key[0])
    _rekey = staticmethod(lambda key, m: (key[0] * m, key[1]))
    _table = None  # the table form's list indexed by D

    def __post_init__(self):
        self.weight, self.index = _num(self.weight), _num(self.index)
        super().__post_init__()

    @classmethod
    def _of_discriminant(cls, weight, table: list, qbound) -> "JacobiExpansion":
        """The table form.  `table` is adopted as given: exact values (zeros
        allowed, and zero at D = 1, 2 mod 4, which no key reaches) for every
        D < 4 ceil(qbound) - 3."""
        f = cls.__new__(cls)
        f.weight, f.index, f.scale, f.qbound = _num(weight), Fraction(1), 1, _bound(qbound)
        f._table = table
        return f

    def __getattr__(self, name):
        """Reached only for an attribute the instance lacks: `coeffs` of the
        table form, built here once."""
        table = self._table
        if name != "coeffs" or table is None:
            raise AttributeError(name)
        coeffs = {}
        for n in range(ceil(self.qbound)):
            top = isqrt(4 * n)
            for r in range(-top, top + 1):
                if c := table[4 * n - r * r]:
                    coeffs[(n, r)] = c
        self.coeffs = coeffs
        return coeffs

    def coeff(self, n_scaled: int, r: int) -> int | Fraction:
        if self._table is None:
            return self.coeffs.get((n_scaled, r), 0)
        D = 4 * n_scaled - r * r
        return self._table[D] if D >= 0 and n_scaled < self.qbound else 0

    def below(self, bound):
        if self._table is None:
            return super().below(bound)
        qbound = min(self.qbound, _bound(bound))
        return self._of_discriminant(self.weight, self._table[:max(4 * ceil(qbound) - 3, 0)],
                                     qbound)

    def scaled_by(self, k) -> "JacobiExpansion":
        k = _exact(k)
        if self._table is not None:
            return self._of_discriminant(self.weight, [_exact(k * c) for c in self._table],
                                         self.qbound)
        return replace(self, coeffs={key: k * c for key, c in self.coeffs.items()} if k else {})

    def __add__(self, other: "JacobiExpansion") -> "JacobiExpansion":
        if self.weight != other.weight or self.index != other.index:
            raise DomainError("weights and indices must match")
        a, b = self._common_scale(other)
        out = dict(a.coeffs)
        for key, c in b.coeffs.items():
            out[key] = out.get(key, 0) + c
        return JacobiExpansion(self.weight, self.index, a.scale, out,
                               min(self.qbound, other.qbound))

    def equal_below(self, other: "JacobiExpansion", bound) -> bool:
        return self._equal_below(other, bound)

    def min_discriminant(self) -> Fraction | None:
        """min over stored terms of 4*index*n - r^2, None when empty; taken
        in integers over the common denominator index.denominator * scale;
        the table form's is its first D with a nonzero value."""
        if self._table is not None:
            return next((Fraction(D) for D, c in enumerate(self._table) if c), None)
        if not self.coeffs:
            return None
        p, q = self.index.numerator, self.index.denominator * self.scale
        return Fraction(min(4 * p * n - q * r * r for n, r in self.coeffs), q)

    def to_json_dict(self) -> dict:
        return {
            "weight": _frac_json(self.weight),
            "index": _frac_json(self.index),
            "scale": self.scale,
            "qbound": _frac_json(self.qbound),
            "terms": [[n, r, c.numerator, c.denominator]
                      for (n, r), c in sorted(self.coeffs.items())],
        }


def _frac_json(x: Fraction):
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


# ---------------------------------------------------------------------------
# Standard series


def theta(mu: int, qbound) -> JacobiExpansion:
    """Index-one theta component: sum over r = mu mod 2 of q^(r^2/4) zeta^r."""
    if mu not in (0, 1):
        raise DomainError("mu must be 0 or 1")
    qbound = _bound(qbound)
    coeffs = {}
    r = mu
    while Fraction(r * r, 4) < qbound:
        coeffs[(r * r, r)] = 1
        if r:
            coeffs[(r * r, -r)] = 1
        r += 2
    return JacobiExpansion(Fraction(1, 2), 1, 4, coeffs, qbound)


def _class_numbers(first: int, step: int, stop: int) -> dict[int, int | Fraction]:
    """{N: H(N)} over range(first, stop, step), the zero values left out; the
    values are `hurwitz`'s own, so integral ones are ints."""
    return {n: h for n in range(first, stop, step) if (h := hurwitz(n))}


def h_mu_series(mu: int, qbound) -> QSeries:
    """Class-number component series sum H(N) q^(N/4) over N = -mu^2 mod 4."""
    if mu not in (0, 1):
        raise DomainError("mu must be 0 or 1")
    qbound = _bound(qbound)
    return QSeries(4, _class_numbers(3 * mu, 4, ceil(4 * qbound)), qbound)


def h32_series(qbound) -> QSeries:
    """sum_{N >= 0} H(N) q^N; equals the two component series in 4*tau."""
    qbound = _bound(qbound)
    return QSeries(1, _class_numbers(0, 1, ceil(qbound)), qbound)


def e2_series(qbound) -> QSeries:
    """Weight-2 Eisenstein series 1 - 24 sum sigma_1(n) q^n."""
    qbound = _bound(qbound)
    coeffs = {n: -24 * sigma(n, 1) if n else 1 for n in range(ceil(qbound))}
    return QSeries(1, coeffs, qbound)


def e21_expansion(qbound) -> JacobiExpansion:
    """The weight-2 index-1 Eisenstein series E_{2,1} = -12 sum H(4n - r^2)
    q^n zeta^r, as the psi-lift of the class-number series (Eichler-Zagier
    section 5).  It is complete below ceil(qbound), the first order n it
    leaves out; its lift reads H(N) for N <= 4 ceil(qbound) - 4.  Every
    coefficient is an integer (H(0) = -1/12 and H(N) lies in Z/6 for N > 0),
    held as an int."""
    return psi_lift(h32_series(max(4 * ceil(_bound(qbound)) - 3, 0)))


def theta_combination(h0: QSeries, h1: QSeries) -> JacobiExpansion:
    """-12 (h0 * theta_0 + h1 * theta_1) as a scale-4 expansion."""
    if h0.scale != 4 or h1.scale != 4:
        raise DomainError("component series must have scale 4")
    bound = min(h0.qbound, h1.qbound)
    coeffs: dict[tuple[int, int], int | Fraction] = {}
    for h, mu in ((h0, 0), (h1, 1)):
        th = theta(mu, bound)
        for ns, c in h.coeffs.items():
            w = -12 * c
            for (ts, r), tcoef in th.coeffs.items():
                key = (ns + ts, r)
                if Fraction(key[0], 4) >= bound:
                    continue
                coeffs[key] = coeffs.get(key, 0) + w * tcoef
    return JacobiExpansion(2, 1, 4, coeffs, bound)


def theta_decomposition_check(qbound) -> bool:
    """Coefficient-wise identity between the class-number expansion and its
    theta decomposition, below qbound."""
    qbound = _bound(qbound, 1)
    combo = theta_combination(h_mu_series(0, qbound), h_mu_series(1, qbound))
    return e21_expansion(qbound).equal_below(combo, qbound)


# ---------------------------------------------------------------------------
# Hecke operators on coefficients


def _require_integral(f: JacobiExpansion, op: str):
    if f.scale != 1:
        raise DomainError(f"{op} needs integer exponents (scale 1), got scale {f.scale}")
    if f.index.denominator != 1:
        raise DomainError(f"{op} needs an integer index")
    if f.weight.denominator != 1:
        raise DomainError(f"{op} needs an integer weight")


def apply_V(f: JacobiExpansion, ell: int) -> JacobiExpansion:
    """Index-raising Hecke action: c'(n, r) = sum over a | gcd(n, r, ell) of
    a^(k-1) c(n*ell/a^2, r/a); index becomes index*ell."""
    _require_integral(f, "apply_V")
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    k = int(f.weight)
    by_n: dict[int, list] = {}
    for (n, r), c in f.coeffs.items():
        by_n.setdefault(n, []).append((r, c))
    q_out = _orders_below(f.qbound, ell)
    coeffs: dict[tuple[int, int], int | Fraction] = {}
    for n in range(q_out):
        for a in divisors(ell if n == 0 else gcd(n, ell)):
            src = n * ell
            if src % (a * a):
                continue
            w = a ** (k - 1) if k >= 1 else Fraction(1, a ** (1 - k))
            for r1, c in by_n.get(src // (a * a), ()):
                key = (n, a * r1)
                coeffs[key] = coeffs.get(key, 0) + w * c
    return JacobiExpansion(f.weight, f.index * ell, 1, coeffs, q_out)


def tj_needed_nmax(n: int, N: int) -> int:
    """Largest input exponent a complete output coefficient at q^N can read."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if N < 0:
        raise DomainError(f"the output order must be >= 0, got {N}")
    return n * n * (N + isqrt(4 * N) * (n - 1) + (n - 1) ** 2)


def _tj_output_bound(n: int, qbound) -> int:
    """The least N >= 0 with tj_needed_nmax(n, N) >= qbound: the output bound
    of T_n on an input known below q^qbound.  tj_needed_nmax is
    nondecreasing in N and at least N, so the least N lies in [0, hi] with
    hi = max(1, ceil(qbound)), found by bisection; hi >= 1 makes the first
    probe refuse n < 1."""
    lo, hi = 0, max(1, ceil(qbound))
    while lo < hi:
        mid = (lo + hi) // 2
        if tj_needed_nmax(n, mid) >= qbound:
            hi = mid
        else:
            lo = mid + 1
    return lo


def apply_T_jacobi(f: JacobiExpansion, n: int) -> JacobiExpansion:
    """Index-preserving Hecke action on an index-1 expansion, by exact
    evaluation of the full geometric character sums.

    For each factorization a*d = n^2 the sum over b mod d with square
    gcd(a, b, d) collapses, via divisors e^2 | gcd(a, d) and a Moebius sieve,
    to integer multiples of divisibility indicators; the lattice sums force
    d | r*n and contribute a factor n.  No irrational intermediary appears.
    The input term (n', r') and x mod n reach the output key
    (n' a/d + r'' x + x^2, r'' + 2x) with r'' = r' n/d.

    Each term of the factorization a*d = n^2 weighs n^(k-4) (n/d)^k n, which
    is a^k / n^3.  The sums accumulate the integer a^k kappa c (for k < 0 the
    integer d^(-k) over n^(3-2k) instead) and divide by the power of n once
    per output key, so integral coefficients stay ints at every weight.

    The action is applied from the output side (pull form).  For each output
    key (N, R) below the output bound, each a*d = n^2 and each x mod n,
    exactly one input key reaches it: r' = (R - 2x) d/n and
    n' = (N - (R - 2x) x - x^2) d/a, when both are integers.  Its coefficient
    is read through `f.coeff`, the only way the input is read, so a dict and
    a table form (`psi_lift`) take the same loop.  The output discriminant is
    a/d times the input one, and `min_discriminant` checks that the input's
    are nonnegative, so the image lies on |R| <= isqrt(4N), the keys visited.
    The cost is (output keys) x tau(n^2) x n lookups plus that check: one
    pass over a dict input, a scan to the first nonzero entry of a table.
    A dict input's terms reach no order N above tj_needed_nmax(n, n_top),
    n_top its largest stored order (with 4n' >= r'^2 the reached N is at most
    n^2 n' + 2n(n-1) sqrt(n') + (n-1)^2), so the loop over N stops there: a
    sparse input with a large bound pays for the output keys it can reach,
    and an empty one for none.  An output sum v with den | v is stored as
    the int v // den, any other as Fraction(v, den).
    """
    _require_integral(f, "apply_T_jacobi")
    if f.index != 1:
        raise DomainError("only index 1 is supported")
    q_out = _tj_output_bound(n, f.qbound)  # refuses n < 1
    k = int(f.weight)
    dmin = f.min_discriminant()
    if dmin is not None and dmin < 0:
        raise DomainError("input support must satisfy 4n - r^2 >= 0")
    den = n ** 3 if k >= 0 else n ** (3 - 2 * k)
    parts = []
    for a in divisors(n * n):
        d = n * n // a
        g = gcd(a, d)
        base = a ** k if k >= 0 else d ** -k  # base / den = a^k / n^3
        # b-sum sieve: partition over the exact gcd eps = gcd(a, b, d), a
        # perfect square dividing g, then a Moebius sieve over t | g/eps;
        # each piece is a full geometric sum of block size d/(eps*t), and
        # counts when the block divides n'
        sieve = []
        for eps in divisors(g):
            if not is_square(eps):
                continue
            for t in divisors(g // eps):
                mt = moebius(t)
                if mt:
                    block = d // (eps * t)
                    sieve.append((block, mt * block))
        parts.append((a, d, base, sieve))
    n_stop = q_out
    if f._table is None:
        n_stop = min(q_out, tj_needed_nmax(n, max(m for m, _ in f.coeffs)) + 1) if f.coeffs else 0
    get = f.coeff
    coeffs: dict[tuple[int, int], int | Fraction] = {}
    for N in range(n_stop):
        top = isqrt(4 * N)
        for R in range(-top, top + 1):
            v = 0
            for a, d, base, sieve in parts:
                acc = 0
                for x in range(n):
                    rnd = R - 2 * x
                    if (rnd * d) % n:
                        continue
                    m = (N - rnd * x - x * x) * d
                    if m % a:
                        continue
                    np_ = m // a
                    c = get(np_, rnd * d // n)
                    if c:
                        acc += sum(kappa for block, kappa in sieve if np_ % block == 0) * c
                v += base * acc
            if v:
                coeffs[(N, R)] = Fraction(v, den) if v % den else v // den
    return JacobiExpansion(f.weight, 1, 1, coeffs, q_out)


def apply_T_half(h: QSeries, p: int) -> QSeries:
    """Half-integral-weight Hecke action on a series supported on
    N = 0, 3 mod 4: c'(N) = c(N p^2) + (-N/p) c(N) + p c(N/p^2)."""
    if h.scale != 1:
        raise DomainError("scale-1 series required")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    for n in h.coeffs:
        if n % 4 in (1, 2):
            raise DomainError("support must lie in N = 0, 3 mod 4")
    q_out = _orders_below(h.qbound, p * p)
    coeffs = {}
    for n in range(q_out):
        if n % 4 in (1, 2):
            continue
        v = h.coeff(n * p * p) + kronecker(-n, p) * h.coeff(n)
        if n % (p * p) == 0:
            v += p * h.coeff(n // (p * p))
        if v:
            coeffs[n] = v
    return QSeries(1, coeffs, q_out)


def apply_T_weight2(e: QSeries, p: int, literal: bool = False) -> QSeries:
    """Weight-2 Hecke action c'(n) = c(pn) + p c(n/p).

    With ``literal=True`` the exponent on the lower term follows the d^(-4)
    normalization instead, c'(n) = p c(n/p) + p^(-2) c(pn), whose constant
    term p + p^(-2) visibly breaks the (p+1)-eigenvalue property."""
    if e.scale != 1:
        raise DomainError("scale-1 series required")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    q_out = _orders_below(e.qbound, p)
    upper = Fraction(1, p * p) if literal else 1
    coeffs = {}
    for n in range(q_out):
        v = upper * e.coeff(n * p)
        if n % p == 0:
            v += p * e.coeff(n // p)
        if v:
            coeffs[n] = v
    return QSeries(1, coeffs, q_out)


# ---------------------------------------------------------------------------
# Lifts and the commuting square


def phi_lift(c: QSeries, disc: int) -> QSeries:
    """Lift to a weight-2-type series: -12 c(0) - (24 / L(0, chi_D)) *
    sum_n sum_{d | n} (D/d) c(n^2 |D| / d^2) q^n, D a fundamental
    discriminant < 0.

    On the class-number series the constant term -12 c(0) equals 1; writing
    it through c(0) rather than as a literal 1 is what makes the lift commute
    with the Hecke actions on both sides of the lifting square."""
    require_negative_fundamental(disc)
    if c.scale != 1:
        raise DomainError("scale-1 series required")
    if any(n < 0 for n in c.coeffs):
        raise DomainError("support must be nonnegative")
    lval = l_zero_chi(disc)
    amp = Fraction(24, 1) / lval
    absd = -disc
    # the orders n >= 0 with n^2 |D| < qbound, i.e. n^2 <= ceil(qbound/|D|) - 1
    below = _orders_below(c.qbound, absd)
    q_out = isqrt(below - 1) + 1 if below else 0
    coeffs = {0: -12 * c.coeff(0)} if q_out and c.coeff(0) else {}
    for n in range(1, q_out):
        acc = 0
        for d in divisors(n):
            acc += kronecker(disc, d) * c.coeff(n * n * absd // (d * d))
        v = -amp * acc
        if v:
            coeffs[n] = v
    return QSeries(1, coeffs, q_out)


def psi_lift(c: QSeries) -> JacobiExpansion:
    """Lift to a weight-2 index-1 expansion: -12 sum_{r^2 <= 4n} c(4n - r^2) q^n zeta^r.

    The lift of the class-number series `h32_series` is E_{2,1}
    (`e21_expansion`).  Its coefficient depends only on D = 4n - r^2, so it
    is returned in the table form of `JacobiExpansion`: the list of
    -12 c(D) over D < 4 qbound - 3, each value formed once.  A coefficient
    read is a table lookup; the (n, r) dict is built only if `coeffs` is
    read, and holds the table's values, so integral ones stay ints."""
    if c.scale != 1:
        raise DomainError("scale-1 series required")
    for n in c.coeffs:
        if n % 4 in (1, 2):
            raise DomainError("support must lie in N = 0, 3 mod 4")
    q_out = _orders_below(c.qbound, 4)
    return JacobiExpansion._of_discriminant(
        2, [_exact(-12 * c.coeff(N)) for N in range(4 * q_out - 3)], q_out)


def diagram_check(p: int, disc: int, qbound: int, literal_weight2: bool = False) -> dict:
    """Exact commutativity of the lift square: the half-integral Hecke action
    followed by either lift agrees with the lift followed by the weight-2
    resp. index-1 Hecke action, below qbound.

    Each lift reads its input only as far as its comparison below q^qbound
    needs: psi of the T_{p^2} image below 4(qbound - 1) + 1, and psi of the
    class-number series below 4 tj_needed_nmax(p, qbound - 1) + 5, the order
    its T_p image below qbound reads.  The class-number series itself is
    built to the largest of those bounds and of the phi side's
    p^2 (qbound - 1)^2 |D| + 1."""
    _bound(qbound, 1)
    require_negative_fundamental(disc)  # before the series is built
    absd = -disc
    need_phi = p * p * (qbound - 1) ** 2 * absd + 1
    need_psi = 4 * ((qbound - 1) * p * p) + 1
    need_tj = 4 * tj_needed_nmax(p, qbound - 1) + 5
    h = h32_series(max(need_phi, need_psi, need_tj))
    th = apply_T_half(h, p)

    lhs_phi = phi_lift(th, disc)
    rhs_phi = apply_T_weight2(phi_lift(h, disc), p, literal=literal_weight2)
    phi_ok = lhs_phi.equal_below(rhs_phi, qbound)

    lhs_psi = psi_lift(th.below(4 * (qbound - 1) + 1))
    rhs_psi = apply_T_jacobi(psi_lift(h.below(need_tj)), p)
    psi_ok = lhs_psi.equal_below(rhs_psi, qbound)
    return {"phi_commutes": phi_ok, "psi_commutes": psi_ok, "ok": phi_ok and psi_ok,
            "p": p, "D": disc, "qbound": qbound}
