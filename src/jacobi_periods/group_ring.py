"""Integer formal sums over the monoid of lattice-decorated rational matrices,
construction of the upper-triangular Hecke sums and their transfer elements,
and certified membership in the right-ideal sum

    (S - E) R + (I1 - E) R + (I2 - E) R

decided by summing coefficients over left orbits of the subgroup generated by
S, I1, I2.

A basis element at level n is [A/n, (X, Y)] with A an integer matrix of
determinant n^2 and lattice entries X, Y in (1/n)Z taken mod nZ; it is stored
as (A, x2, y2) with x2 = nX, y2 = nY reduced mod n^2.  At level 1 the lattice
is kept unreduced: the level-1 slice must be the honest group ring of the
integral Jacobi group (the mod-1 quotient would collapse the translations the
congruence identities depend on).

The transfer elements for the action on period functions use matrices of
determinant n (index-raising type, lattice zero) or n^2 (index-preserving
type, full lattice sum); the determinant is recoverable from the stored
matrix, and only det = level^2 elements participate in orbit reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd

from .arith import divisors, is_square
from .errors import DomainError, InvalidElementError, ResourceLimitError
from .jacobi_group import JacobiGroupElement, generator, inverse

IMat = tuple[int, int, int, int]


def _sign_canonical(a: IMat) -> IMat:
    """Flip the global sign so the first nonzero of (c, d, a, b) is positive."""
    for v in (a[2], a[3], a[0], a[1]):
        if v:
            return a if v > 0 else (-a[0], -a[1], -a[2], -a[3])
    raise InvalidElementError("zero matrix")


@dataclass(frozen=True, order=True)
class RingBasisElement:
    level: int
    mat: IMat
    x2: int
    y2: int

    @property
    def mat_det(self) -> int:
        a, b, c, d = self.mat
        return a * d - b * c


def canonicalize(level: int, mat, x2: int, y2: int) -> RingBasisElement:
    """Normalize raw (A, n*X, n*Y) data: sign-canonical matrix, lattice
    reduced mod level^2 (unreduced at level 1); idempotent."""
    a, b, c, d = (int(v) for v in mat)
    det = a * d - b * c
    n2 = level * level
    if det != n2 and det != level:
        raise InvalidElementError(
            f"determinant {det} does not match level {level} (expected {n2} or {level})"
        )
    if level >= 2:
        x2 %= n2
        y2 %= n2
    return RingBasisElement(level=level, mat=_sign_canonical((a, b, c, d)), x2=x2, y2=y2)


class FormalSum:
    """Finite integer combination of basis elements sharing one level."""

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: dict[RingBasisElement, int] | None = None):
        self.level = level
        self.terms: dict[RingBasisElement, int] = {}
        if terms:
            for k, v in terms.items():
                if k.level != level:
                    raise InvalidElementError("mixed levels in formal sum")
                if v:
                    self.terms[k] = v

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.level == other.level and self.terms == other.terms

    def copy(self) -> "FormalSum":
        return FormalSum(self.level, dict(self.terms))

    def add_term(self, e: RingBasisElement, coeff: int) -> None:
        c = self.terms.get(e, 0) + coeff
        if c:
            self.terms[e] = c
        else:
            self.terms.pop(e, None)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if self.level != other.level:
            raise InvalidElementError("levels differ")
        out = self.copy()
        for e, c in other.terms.items():
            out.add_term(e, c)
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, k: int) -> "FormalSum":
        return FormalSum(self.level, {e: k * c for e, c in self.terms.items()} if k else {})

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"FormalSum(level={self.level}, {len(self.terms)} terms)"


def unit(level: int = 1) -> FormalSum:
    e = canonicalize(level, (level, 0, 0, level), 0, 0)
    return FormalSum(level, {e: 1})


def group_to_ring(g: JacobiGroupElement) -> FormalSum:
    """Embed an integral Jacobi-group element as a level-1 basis element
    (the phase slot is dropped: the ring carries no cocycle)."""
    if not g.is_integral() or g.det != 1:
        raise DomainError("only integral determinant-1 elements embed at level 1")
    mat = tuple(int(v) for v in g.mat)
    e = canonicalize(1, mat, int(g.trans[0]), int(g.trans[1]))
    return FormalSum(1, {e: 1})


def _mul_basis(t1: RingBasisElement, t2: RingBasisElement) -> RingBasisElement:
    a1, b1, c1, d1 = t1.mat
    a2, b2, c2, d2 = t2.mat
    mat = (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )
    # (x2, y2)_out = (x2, y2)_1 * A_2 + N_1 * (x2, y2)_2, the scaled form of
    # (X, Y)_1 * (A_2 / N_2) + (X, Y)_2
    x2 = t1.x2 * a2 + t1.y2 * c2 + t1.level * t2.x2
    y2 = t1.x2 * b2 + t1.y2 * d2 + t1.level * t2.y2
    return canonicalize(t1.level * t2.level, mat, x2, y2)


def ring_multiply(f: FormalSum, g: FormalSum) -> FormalSum:
    """Bilinear extension of the monoid law; level(out) = level(f)*level(g)."""
    for s in (f, g):
        for e in s.terms:
            if e.mat_det != e.level * e.level:
                raise DomainError("ring multiplication needs det = level^2 elements")
    out = FormalSum(f.level * g.level)
    for t1, c1 in f.terms.items():
        for t2, c2 in g.terms.items():
            out.add_term(_mul_basis(t1, t2), c1 * c2)
    return out


def mul_group_right(f: FormalSum, g: JacobiGroupElement) -> FormalSum:
    return ring_multiply(f, group_to_ring(g))


def mul_group_left(g: JacobiGroupElement, f: FormalSum) -> FormalSum:
    return ring_multiply(group_to_ring(g), f)


def embed_scale(f: FormalSum, d: int) -> FormalSum:
    """Embed level m into level m*d^2 keeping the rational matrix and the
    rational lattice fixed: A -> d^2 A, (x2, y2) -> d^2 (x2, y2).  This is the
    unique grading-compatible scalar embedding."""
    eps = FormalSum(d * d, {canonicalize(d * d, (d * d, 0, 0, d * d), 0, 0): 1})
    return ring_multiply(f, eps)


# ---------------------------------------------------------------------------
# Hecke sums and transfer elements


def _square_gcd_ok(*vals: int) -> bool:
    g = 0
    for v in vals:
        g = gcd(g, abs(v))
    return is_square(g)


def _hat_matrices(n: int):
    """The matrices [[a, b], [0, d]] with ad = n^2, b mod d and gcd(a, b, d)
    a perfect square."""
    for a in divisors(n * n):
        d = n * n // a
        for b in range(d):
            if _square_gcd_ok(a, b, d):
                yield (a, b, 0, d)


def _full_lattice_sum(n: int, mats) -> FormalSum:
    """Each matrix at level n with every lattice part in (Z/n)^2."""
    f = FormalSum(n)
    for mat in mats:
        for x in range(n):
            for y in range(n):
                f.add_term(canonicalize(n, mat, n * x, n * y), 1)
    return f


def hecke_hat(n: int) -> FormalSum:
    """Normalization-free index-preserving Hecke sum: all [ [a,b],[0,d] ]/n with
    ad = n^2, gcd(a,b,d) a perfect square, b mod d, lattice over (Z/n)^2."""
    if n < 1:
        raise DomainError("level must be >= 1")
    return _full_lattice_sum(n, _hat_matrices(n))


def _tilde_matrix_lists(n: int, det: int):
    """The three matrix families of a transfer element with determinant `det`:
    paired off-diagonal terms (a>c>0, d>-b>0), the b-boundary sum with
    -d/2 < b <= d/2, and the c-boundary sum with -a/2 < c <= a/2, c != 0.
    The square-gcd filters apply only in the det = n^2 case."""
    filtered = det == n * n
    first: list[IMat] = []
    for a in range(2, det + 1):
        for c in range(1, a):
            for mb in range(1, det):  # mb = -b
                num = det - mb * c  # a*d
                if num < a * (mb + 1):  # d must exceed -b
                    break
                if num % a:
                    continue
                d = num // a
                if filtered and not _square_gcd_ok(a, mb, c, d):
                    continue
                first.append((a, -mb, c, d))
                first.append((a, mb, -c, d))
    second: list[IMat] = []
    third: list[IMat] = []
    for a in divisors(det):
        d = det // a
        for b in range(-(d // 2), d // 2 + 1):
            if -d < 2 * b <= d and (not filtered or _square_gcd_ok(a, b, d)):
                second.append((a, b, 0, d))
        for c in range(-(a // 2), a // 2 + 1):
            if c != 0 and -a < 2 * c <= a and (not filtered or _square_gcd_ok(a, c, d)):
                third.append((a, 0, c, d))
    return first, second, third


def tilde_T(n: int) -> FormalSum:
    """Transfer element for the index-preserving Hecke sum: determinant n^2
    matrices with the square-gcd filters and the full (Z/n)^2 lattice sum."""
    if n < 1:
        raise DomainError("level must be >= 1")
    return _full_lattice_sum(n, chain.from_iterable(_tilde_matrix_lists(n, n * n)))


def tilde_V(n: int) -> FormalSum:
    """Transfer element for the index-raising Hecke sum: determinant-n
    matrices, no gcd filter, lattice parts all zero.  Consumed by the
    numerical checks only (det != level^2 elements do not ring-multiply)."""
    if n < 1:
        raise DomainError("level must be >= 1")
    f = FormalSum(n)
    for fam in _tilde_matrix_lists(n, n):
        for mat in fam:
            f.add_term(canonicalize(n, mat, 0, 0), 1)
    return f


# ---------------------------------------------------------------------------
# Orbit reduction


def _hnf_with_modulus(rows, modulus: int):
    """Row-style HNF (p, q; 0, s) of the subgroup of Z^2 generated by `rows`
    and modulus*Z^2 (modulus 0 means no extra generators)."""
    work = [list(r) for r in rows]
    if modulus:
        work += [[modulus, 0], [0, modulus]]
    while True:
        nz = [r for r in work if r[0]]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[0]))
        r0 = nz[0]
        for r in nz[1:]:
            q = r[0] // r0[0]
            r[0] -= q * r0[0]
            r[1] -= q * r0[1]
    s = 0
    for r in work:
        if r[0] == 0:
            s = gcd(s, r[1])
    piv = [r for r in work if r[0]]
    if piv:
        p, q = piv[0]
        if p < 0:
            p, q = -p, -q
    else:
        p, q = 0, 0
    if s:
        s = abs(s)
        q %= s
    return p, q, s


def orbit_canonical(e: RingBasisElement):
    """Deterministic key of the left orbit of e under the subgroup generated
    by S, I1, I2 (matrices +-S^k A, lattice coset mod the row span of A)."""
    if e.mat_det != e.level * e.level:
        raise DomainError("orbit reduction applies to det = level^2 elements")
    n2 = e.level * e.level
    candidates = []
    for mat in (e.mat, tuple(-v for v in e.mat)):
        a, b, c, d = mat
        if c:
            am = a % abs(c)
            k = (am - a) // c
            candidates.append((a + k * c, b + k * d, c, d))
        else:
            bm = b % abs(d)
            k = (bm - b) // d
            candidates.append((a, b + k * d, c, d))
    mat_key = min(candidates)
    a, b, c, d = e.mat
    p, q, s = _hnf_with_modulus([(a, b), (c, d)], n2 if e.level >= 2 else 0)
    x, y = e.x2, e.y2
    if e.level >= 2:
        x %= n2
        y %= n2
    if p:
        xc = x % p
        y = y - ((x - xc) // p) * q
        x = xc
    yc = y % s if s else y
    return (e.level, mat_key, x, yc)


class OrbitVector(dict):
    """Orbit key -> coefficient sum; empty means ideal membership."""

    @property
    def is_zero(self) -> bool:
        return not self


def reduce_mod_ideal(f: FormalSum) -> OrbitVector:
    out: dict = {}
    for e, c in f.terms.items():
        k = orbit_canonical(e)
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return OrbitVector(out)


def _transporter_word(e: RingBasisElement, e0: RingBasisElement):
    """Exponents (k, lam, mu) with e = S^k I2^lam I1^mu e0 in the sign
    quotient (matrices +-S^k A0, lattice shifted by (lam, mu) A0)."""
    a0, b0, c0, d0 = e0.mat
    k = None
    for sgn in (1, -1):
        a, b, c, d = (sgn * v for v in e.mat)
        if (c, d) != (c0, d0):
            continue
        kk = (a - a0) // c0 if c0 else (b - b0) // d0
        if (a0 + kk * c0, b0 + kk * d0) == (a, b):
            k = kk
            break
    if k is None:
        raise InvalidElementError("matrices are not in one S-orbit")
    # lattice: (lam, mu) A0 = t mod n2 with t the stored difference; the
    # adjugate solve is lift-independent, so no search over lifts is needed
    tx, ty = e.x2 - e0.x2, e.y2 - e0.y2
    det0 = a0 * d0 - b0 * c0
    num_l = tx * d0 - ty * c0
    num_m = ty * a0 - tx * b0
    if num_l % det0 or num_m % det0:
        raise InvalidElementError("lattice parts are not in one orbit coset")
    return k, num_l // det0, num_m // det0


def decompose_ideal_member(f: FormalSum):
    """Constructive witness for an ideal member: FormalSums (x, y, z) with
    f = (S - E) x + (I1 - E) y + (I2 - E) z, built by telescoping each term
    along generator steps to its orbit representative."""
    if not reduce_mod_ideal(f).is_zero:
        raise DomainError("formal sum is not in the ideal")
    level = f.level
    reps: dict = {}
    buckets = {name: FormalSum(level) for name in ("S", "I1", "I2")}
    gens = {name: generator(name) for name in ("S", "I1", "I2")}
    inv_gens = {name: inverse(g) for name, g in gens.items()}

    for e, coeff in f.terms.items():
        e0 = reps.setdefault(orbit_canonical(e), e)
        if e == e0:
            continue
        k, lam, mu = _transporter_word(e, e0)
        word = [("S", k), ("I2", lam), ("I1", mu)]  # e = S^k I2^lam I1^mu e0
        # h1..hr e0 - e0 = sum_i (h_i - 1)(h_{i+1}..h_r e0), with
        # (h^-1 - 1) v = -(h - 1)(h^-1 v) for inverse steps
        tail = FormalSum(level, {e0: coeff})
        for name, expo in reversed(word):
            for _ in range(abs(expo)):
                if expo > 0:
                    for t, cc in tail.terms.items():
                        buckets[name].add_term(t, cc)
                    tail = mul_group_left(gens[name], tail)
                else:
                    tail = mul_group_left(inv_gens[name], tail)
                    for t, cc in tail.terms.items():
                        buckets[name].add_term(t, -cc)
    return buckets["S"], buckets["I1"], buckets["I2"]


# ---------------------------------------------------------------------------
# Theorem-level checks, and their term budgets in `_estimate_terms` units

_CONGRUENCE_TERM_BUDGET = 200_000
_PRODUCT_TERM_BUDGET = 400_000


def _estimate_terms(n: int) -> int:
    n2 = n * n
    matrices = sum(len(fam) for fam in _tilde_matrix_lists(n, n2))
    hat = sum(1 for _ in _hat_matrices(n))
    return (matrices + hat) * n2


def check_theorem_congruence(n: int) -> dict:
    """Exact verification that the hat sum annihilates (S-E), (I1-E), (I2-E)
    and satisfies hat*(T-E) = (T-E)*tilde modulo the ideal."""
    if n < 1:
        raise DomainError("level must be >= 1")
    if _estimate_terms(n) > _CONGRUENCE_TERM_BUDGET:
        raise ResourceLimitError(f"level {n} exceeds the configured term budget")
    hat = hecke_hat(n)
    tilde = tilde_T(n)
    out = {}
    for name in ("S", "I1", "I2"):
        g = generator(name)
        out[f"hat({name}-E)=0"] = reduce_mod_ideal(mul_group_right(hat, g) - hat).is_zero
    T = generator("T")
    lhs = mul_group_right(hat, T) - hat
    rhs = mul_group_left(T, tilde) - tilde
    out["hat(T-E)=(T-E)tilde"] = reduce_mod_ideal(lhs - rhs).is_zero
    out["ok"] = all(v for k, v in out.items() if k != "ok")
    return out


def product_difference(n: int, n2: int, k: int) -> FormalSum:
    """tilde(n)*tilde(n2) - sum_{d | gcd} d^(2k-3) tilde(n*n2/d^2), the lower
    terms embedded at level (n*n2) by `embed_scale`."""
    diff = ring_multiply(tilde_T(n), tilde_T(n2))
    for d in divisors(gcd(n, n2)):
        t = tilde_T(n * n2 // (d * d))
        if d > 1:
            t = embed_scale(t, d)
        diff = diff - t.scale(d ** (2 * k - 3))
    return diff


def check_product_formula(n: int, n2: int, k: int) -> dict:
    """Orbit-sum test of tilde(n)*tilde(n2) = sum_{d | gcd} d^(2k-3) tilde(n*n2/d^2).

    `defect_in_transfer_ambiguity` reports whether (T-E)*difference lies in
    the ideal, which certifies that the difference is invisible to every
    system of period functions: this is the product identity for transfer
    elements, which are only determined up to that kernel.  The boolean `ok`
    reports plain ideal membership of the difference, the literal reading for
    these particular representatives.  It is not a property of the transfer
    elements: (T+E)y lies in the kernel for every y (T^2 is a lattice
    translation), but (T+E)*unit(n*n2) does not lie in the ideal, so adding
    it to tilde(n*n2) leaves a valid transfer element and changes the literal
    reduction."""
    if n < 1 or n2 < 1:
        raise DomainError("levels must be >= 1")
    if _estimate_terms(n) + _estimate_terms(n2) + _estimate_terms(n * n2) > _PRODUCT_TERM_BUDGET:
        raise ResourceLimitError("product exceeds the configured term budget")
    diff = product_difference(n, n2, k)
    vec = reduce_mod_ideal(diff)
    T = generator("T")
    kernel_cert = reduce_mod_ideal(mul_group_left(T, diff) - diff).is_zero
    return {
        "ok": vec.is_zero,
        "residual_orbits": len(vec),
        "defect_in_transfer_ambiguity": kernel_cert,
    }
