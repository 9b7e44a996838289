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
congruence identities depend on).  A formal sum stores its terms by matrix,
{A: {(x2, y2): coeff}}, so sign canonicalization, matrix products and the
matrix half of an orbit key run once per matrix, not once per lattice point.

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
from .jacobi_group import JacobiGroupElement, generator

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


def _checked_matrix(level: int, mat) -> IMat:
    """The sign-canonical form of an integer matrix of determinant level^2
    or level."""
    a, b, c, d = (int(v) for v in mat)
    det = a * d - b * c
    if det != level * level and det != level:
        raise InvalidElementError(
            f"determinant {det} does not match level {level} (expected {level * level} or {level})"
        )
    return _sign_canonical((a, b, c, d))


def canonicalize(level: int, mat, x2: int, y2: int) -> RingBasisElement:
    """Normalize raw (A, n*X, n*Y) data: sign-canonical matrix, lattice
    reduced mod level^2 (unreduced at level 1); idempotent."""
    if level >= 2:
        x2 %= level * level
        y2 %= level * level
    return RingBasisElement(level=level, mat=_checked_matrix(level, mat), x2=x2, y2=y2)


class FormalSum:
    """Finite integer combination of basis elements sharing one level.

    The terms are stored by matrix: `blocks` maps each matrix to its lattice
    points {(x2, y2): coeff}, so the per-matrix work of a product or an orbit
    reduction runs once per block and not once per point.  No block is empty
    and no coefficient is zero; `len` counts the points."""

    __slots__ = ("level", "blocks")

    def __init__(self, level: int, terms: dict[RingBasisElement, int] | None = None):
        self.level = level
        self.blocks: dict[IMat, dict[tuple[int, int], int]] = {}
        if terms:
            for e, c in terms.items():
                if e.level != level:
                    raise InvalidElementError("mixed levels in formal sum")
                self.add_term(e, c)

    def __len__(self):
        return sum(map(len, self.blocks.values()))

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.level == other.level and self.blocks == other.blocks

    def copy(self) -> "FormalSum":
        out = FormalSum(self.level)
        out.blocks = {mat: dict(pts) for mat, pts in self.blocks.items()}
        return out

    def _add_block(self, mat: IMat, pts: dict, k: int = 1) -> None:
        """Add k times the points `pts` ((x2, y2) -> coeff) to the block of `mat`."""
        block = self.blocks.setdefault(mat, {})
        for p, c in pts.items():
            v = block.get(p, 0) + k * c
            if v:
                block[p] = v
            else:
                block.pop(p, None)
        if not block:
            del self.blocks[mat]

    def add_term(self, e: RingBasisElement, coeff: int) -> None:
        self._add_block(e.mat, {(e.x2, e.y2): coeff})

    def items(self):
        """The (basis element, coefficient) pairs, block by block."""
        for mat, pts in self.blocks.items():
            for (x2, y2), c in pts.items():
                yield RingBasisElement(self.level, mat, x2, y2), c

    def _accumulate(self, other: "FormalSum", k: int) -> "FormalSum":
        """Add k times `other` in place and return self."""
        if self.level != other.level:
            raise InvalidElementError("levels differ")
        for mat, pts in other.blocks.items():
            self._add_block(mat, pts, k)
        return self

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return self.copy()._accumulate(other, 1)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self.copy()._accumulate(other, -1)

    def scale(self, k: int) -> "FormalSum":
        out = FormalSum(self.level)
        if k:
            out.blocks = {
                mat: {p: k * c for p, c in pts.items()} for mat, pts in self.blocks.items()
            }
        return out

    def sorted_terms(self):
        """The (basis element, coefficient) pairs in basis-element order."""
        return [
            (RingBasisElement(self.level, mat, x2, y2), c)
            for mat in sorted(self.blocks)
            for (x2, y2), c in sorted(self.blocks[mat].items())
        ]

    def __repr__(self):
        return f"FormalSum(level={self.level}, {len(self)} terms)"


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


def ring_multiply(f: FormalSum, g: FormalSum) -> FormalSum:
    """Bilinear extension of the monoid law; level(out) = level(f)*level(g).
    The matrix product is taken once per pair of blocks, and only the lattice
    map runs per pair of points."""
    for s in (f, g):
        for a, b, c, d in s.blocks:
            if a * d - b * c != s.level * s.level:
                raise DomainError("ring multiplication needs det = level^2 elements")
    n1 = f.level
    out = FormalSum(n1 * g.level)
    modulus = out.level * out.level if out.level >= 2 else 0
    for (a1, b1, c1, d1), pts1 in f.blocks.items():
        for (a2, b2, c2, d2), pts2 in g.blocks.items():
            mat = _sign_canonical(
                (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
            )
            block = out.blocks.setdefault(mat, {})
            # (x2, y2)_out = (x2, y2)_1 * A_2 + N_1 * (x2, y2)_2, the scaled form of
            # (X, Y)_1 * (A_2 / N_2) + (X, Y)_2
            shifts = [(n1 * x2, n1 * y2, k2) for (x2, y2), k2 in pts2.items()]
            for (x1, y1), k1 in pts1.items():
                x0 = x1 * a2 + y1 * c2
                y0 = x1 * b2 + y1 * d2
                for sx, sy, k2 in shifts:
                    p = (x0 + sx, y0 + sy)
                    if modulus:
                        p = (p[0] % modulus, p[1] % modulus)
                    block[p] = block.get(p, 0) + k1 * k2
    # products of distinct pairs may cancel
    out.blocks = {
        mat: nz for mat, pts in out.blocks.items() if (nz := {p: c for p, c in pts.items() if c})
    }
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


def _hat_matrices(n: int, det: int):
    """The matrices [[a, b], [0, d]] with ad = det and b mod d.  As in
    `_tilde_matrix_lists`, the square-gcd filter (gcd(a, b, d) a perfect
    square) applies only in the det = n^2 case."""
    filtered = det == n * n
    for a in divisors(det):
        d = det // a
        for b in range(d):
            if not filtered or _square_gcd_ok(a, b, d):
                yield (a, b, 0, d)


def _lattice_sum(n: int, mats, lattice) -> FormalSum:
    """Each matrix at level n with the lattice parts `lattice`."""
    f = FormalSum(n)
    for mat in mats:
        f._add_block(_checked_matrix(n, mat), lattice)
    return f


def _full_lattice_sum(n: int, mats) -> FormalSum:
    """Each matrix at level n with every lattice part in (Z/n)^2."""
    return _lattice_sum(n, mats, {(n * x, n * y): 1 for x in range(n) for y in range(n)})


def _zero_lattice_sum(n: int, mats) -> FormalSum:
    """Each matrix at level n with lattice part zero."""
    return _lattice_sum(n, mats, {(0, 0): 1})


def hecke_hat(n: int) -> FormalSum:
    """Normalization-free index-preserving Hecke sum: all [ [a,b],[0,d] ]/n with
    ad = n^2, gcd(a,b,d) a perfect square, b mod d, lattice over (Z/n)^2."""
    if n < 1:
        raise DomainError("level must be >= 1")
    return _full_lattice_sum(n, _hat_matrices(n, n * n))


def hecke_hat_V(n: int) -> FormalSum:
    """Index-raising Hecke sum: all [[a, b], [0, d]] with ad = n and b mod d,
    no gcd filter, lattice parts all zero (sigma_1(n) terms).  Consumed by
    the numerical checks only, like `tilde_V`."""
    if n < 1:
        raise DomainError("level must be >= 1")
    return _zero_lattice_sum(n, _hat_matrices(n, n))


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
    return _zero_lattice_sum(n, chain.from_iterable(_tilde_matrix_lists(n, n)))


# ---------------------------------------------------------------------------
# Orbit reduction


def _ext_gcd(a: int, b: int):
    """(g, u, v) with g = gcd(a, b) = u a + v b and g >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def _orbit_matrix_part(level: int, mat: IMat):
    """The per-matrix half of an orbit key: the least S-orbit representative
    of +-mat, and the row-style HNF (p, q; 0, s) of the lattice that the
    orbit quotients the lattice part by, the row span of mat.  That span
    holds level^2 Z^2 (adj(mat) mat = level^2 I), so the reduction mod
    level^2 at level >= 2 needs no extra generators.  In closed form,
    p = gcd(a, c) = u a + v c, s = level^2 / p and q = (u b + v d) mod s."""
    a, b, c, d = mat
    n2 = level * level
    if a * d - b * c != n2:
        raise DomainError("orbit reduction applies to det = level^2 elements")
    p, u, v = _ext_gcd(a, c)
    hnf = (p, (u * b + v * d) % (n2 // p), n2 // p)
    candidates = []
    for a, b, c, d in (mat, tuple(-v for v in mat)):
        if c:
            k = (a % abs(c) - a) // c
            candidates.append((a + k * c, b + k * d, c, d))
        else:
            k = (b % abs(d) - b) // d
            candidates.append((a, b + k * d, c, d))
    return min(candidates), hnf


def _orbit_lattice_point(hnf, x: int, y: int):
    """The per-point half of an orbit key: the representative of (x, y)
    modulo the lattice with HNF `hnf`."""
    p, q, s = hnf
    xc = x % p
    return xc, (y - (x - xc) // p * q) % s


def orbit_canonical(e: RingBasisElement):
    """Deterministic key of the left orbit of e under the subgroup generated
    by S, I1, I2 (matrices +-S^k A, lattice coset mod the row span of A)."""
    mat_key, hnf = _orbit_matrix_part(e.level, e.mat)
    return (e.level, mat_key, *_orbit_lattice_point(hnf, e.x2, e.y2))


class OrbitVector(dict):
    """Orbit key -> coefficient sum; empty means ideal membership."""

    @property
    def is_zero(self) -> bool:
        return not self


def reduce_mod_ideal(f: FormalSum) -> OrbitVector:
    """The orbit vector of f: the sum of its coefficients over each orbit
    key of `orbit_canonical`.  The matrix half of the key is computed once
    per block of f."""
    out: dict = {}
    for mat, pts in f.blocks.items():
        mat_key, hnf = _orbit_matrix_part(f.level, mat)
        for (x, y), c in pts.items():
            k = (f.level, mat_key, *_orbit_lattice_point(hnf, x, y))
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
    along generator runs to its orbit representative.

    A run of h^m on v adds (h^m - 1) v = sum_{0 <= j < m} (h - 1) h^j v, or
    -sum_{m <= j < 0} (h - 1) h^j v for m < 0, to the bucket of h, and the
    terms h^j v are written directly: S^j maps the matrix A to
    (a + jc, b + jd; c, d), I2^j adds j (a, b) to the lattice part and I1^j
    adds j (c, d)."""
    if not reduce_mod_ideal(f).is_zero:
        raise DomainError("formal sum is not in the ideal")
    level = f.level
    modulus = level * level if level >= 2 else 0
    reps: dict = {}
    buckets = {name: FormalSum(level) for name in ("S", "I1", "I2")}
    for e, coeff in f.items():
        e0 = reps.setdefault(orbit_canonical(e), e)
        if e == e0:
            continue
        k, lam, mu = _transporter_word(e, e0)  # e = S^k I2^lam I1^mu e0
        a, b, c, d = e0.mat
        x, y = e0.x2, e0.y2
        for name, m, (dx, dy) in (("I1", mu, (c, d)), ("I2", lam, (a, b))):
            js, sign = (range(m), 1) if m > 0 else (range(m, 0), -1)
            pts: dict = {}
            for j in js:
                p = (x + j * dx, y + j * dy)
                if modulus:
                    p = (p[0] % modulus, p[1] % modulus)
                pts[p] = pts.get(p, 0) + 1
            buckets[name]._add_block(e0.mat, pts, sign * coeff)
            x, y = x + m * dx, y + m * dy
            if modulus:
                x, y = x % modulus, y % modulus
        js, sign = (range(k), 1) if k > 0 else (range(k, 0), -1)
        for j in js:
            buckets["S"]._add_block((a + j * c, b + j * d, c, d), {(x, y): sign * coeff})
    return buckets["S"], buckets["I1"], buckets["I2"]


# ---------------------------------------------------------------------------
# Theorem-level checks, and their term budgets in `_estimate_terms` units

_CONGRUENCE_TERM_BUDGET = 200_000
_PRODUCT_TERM_BUDGET = 400_000


def _hat_terms(n: int) -> int:
    return sum(1 for _ in _hat_matrices(n, n * n)) * n * n


def _estimate_terms(n: int) -> int:
    """The term count len(hecke_hat(n)) + len(tilde_T(n)), without building the sums."""
    return sum(len(fam) for fam in _tilde_matrix_lists(n, n * n)) * n * n + _hat_terms(n)


def _over_budget(levels, budget: int) -> bool:
    """Whether the `_estimate_terms` of `levels` sum past `budget`.  The hat
    terms are a lower bound of that sum and cheap to count, so a level far
    past the budget is refused before any tilde matrix is enumerated."""
    return sum(map(_hat_terms, levels)) > budget or sum(map(_estimate_terms, levels)) > budget


def check_theorem_congruence(n: int) -> dict:
    """Exact verification that the hat sum annihilates (S-E), (I1-E), (I2-E)
    and satisfies hat*(T-E) = (T-E)*tilde modulo the ideal."""
    if n < 1:
        raise DomainError("level must be >= 1")
    if _over_budget((n,), _CONGRUENCE_TERM_BUDGET):
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
    terms embedded at level (n*n2) by `embed_scale`.  A lower term (d > 1)
    with 2k - 3 < 0 has no integer coefficient and raises `DomainError`."""
    g = gcd(n, n2)
    if g > 1 and 2 * k - 3 < 0:
        raise DomainError(f"the lower terms d^(2k-3) are not integers at k = {k} and "
                          f"gcd(n, n2) = {g}")
    diff = ring_multiply(tilde_T(n), tilde_T(n2))
    for d in divisors(g):
        t = tilde_T(n * n2 // (d * d))
        if d > 1:
            t = embed_scale(t, d).scale(d ** (2 * k - 3))
        diff = diff - t
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
    if _over_budget((n, n2, n * n2), _PRODUCT_TERM_BUDGET):
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
