"""Complex-numerical engine: series evaluation with tail control, the
weighted slash action, the nonholomorphic completion integrals, and the
floating verification suite for the period-function identities.

Conventions fixed by computation rather than assumption:

* The automorphy factor is

      j(g; tau, z) = zeta^m (c tau + d)^{-k}
                     exp(2 pi i m (lam^2 tau + 2 lam z + lam mu - c w^2 / (c tau + d)))

  with w = z + lam tau + mu and the matrix normalized by 1/sqrt(det).  The
  quadratic term is taken at the translated w; only with that reading does
  the factor satisfy the cocycle identity against the exact triple-group
  law (phases included), which the test suite checks to 1e-10 and better.

* The period integral for the weight-2 index-1 class-number series is

      P(tau, z) = -(24/pi) * (1+i)/16 * sum_mu I_mu(tau) theta_mu(tau, z),
      I_mu(tau) = int_0^{i inf} (tau + w)^{-3/2} theta_mu(w, 0) dw.

  The -(24/pi) normalization is pinned by the transformation-law identity
  (E|T) - E = P, which holds at working precision with it and fails by that
  exact constant ratio without it.

* P has two evaluators.  The completed function phi = -E/12 + R', with
  R' = 2 sum_mu c_mu(tau) theta_mu(tau, z) and (c_0, c_1) the erfc closed
  form `completion_pair`, is invariant under T (Zagier 1975), so

      P = 12 (R'|T - R')

  in closed form: `period_value`.  The transfer check and the
  index-raising check (`check_tildeT_action`, `check_theorem1`) evaluate
  P this way; they stay non-trivial, because the
  first asks that R' be a Hecke eigenfunction modulo the ideal and the
  second compares against E|V_n from `e21_value`.  `period_quadrature`
  keeps the quadrature of the integral above as the independent oracle of
  the checks that the closed form would make tautologies: about 20 times
  slower than the closed form at a process's first tau, which fills the
  process-wide tables of ray theta factors, and three to four times at
  each further tau.  With
  the closed form the transformation law would reduce to phi|T = phi, the
  four-term relation would telescope to R'|T^4 - R', and the extended
  relation would reduce to the lattice invariance of R'.  A test compares
  the two evaluators at points from Im tau = 0.1 to 10.

Every theta value, at (tau, z) and on the quadrature's ray alike, comes
from the one sum `_theta_sums`, which builds its terms by recurrence from
one e(tau/4) and one e(z) per group of components at that z: `theta_pair`
takes both components at one z, and a lower ray node theta_0 at z = 0 and
1/4.  Every ray node lies on the imaginary axis with z = 0 or 1/4, where
the sum takes its axis branch: the same recurrence on real parts, with no
e(z), bit for bit the complex one.

Every integral (the period integrals of P, the Eichler integrals of the
completion and beta's defining integral) is one tanh-sinh walk
`_tanh_sinh`, which replays `mp.quad`'s summation on mpmath's nodes, and so
its bits, for both mu at once; the callers supply the integrand values.  The
kernel powers (tau + w)^(-3/2) of the period and Eichler integrals come from
one integer function, `_kernel`, with the bits of mpmath's complex power.
The kernel, the walk's sums and the theta recurrences run on integer pairs
that round as libmp does (`_round`, `_add`, `_cmul`), which costs about half
of libmp's tuples.

The floating checks of `verify numeric` and `verify theorem1` are listed
once, in `CHECKS` (runner, report key, pass gate); the command line and the
tests read the gates from there.  Each check states its identity as a
residual function, and `_worst` takes its largest magnitude over the points,
nan if it is nan at any point, so that the check fails.

All evaluations are pure.  One fixed pairwise tree, `pairwise_sum`,
reduces the sums over Hecke terms and the rows of `eval_expansion`, on raw
mpc tuples with the `mpc_add` of the mpc operator, and each row
sum_r c zeta^r is one exact dot product per part (`_fdot`, the bits of
`mp.fdot`), so results are bit-stable for a given configuration.  Index 1
has two theta components, so each tau-only factor (c_mu, h_mu, the period
and the Eichler integrals) is a pair over mu, and no public function takes
a mu; each pair is computed once per exact tau and precision inside a
`_memo_scope`: one per evaluation of a slash sum, and one per
quadrature-backed check; each beta value of the completion series once per
exact argument.

Two memos of series evaluation outlive a scope, and neither changes a
bit.  An expansion keeps its evaluation forms (`_form_of`): the point-free
part of `eval_expansion`, per precision, in a private attribute kept by its
identity, never stale since an expansion cannot change once constructed.
`_h_pair` reads its series from `_h_mu_series`, one instance per
(mu, qbound) among the 16 most recently used, so every h_mu evaluation at
one truncation reuses one form.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable, ClassVar, NamedTuple

import mpmath as mp
from mpmath import libmp

from .arith import sigma
from .errors import DomainError, PrecisionError
from .fourier import JacobiExpansion, QSeries, e21_expansion, h_mu_series
from .group_ring import FormalSum, hecke_hat, hecke_hat_V, tilde_T, tilde_V
from .jacobi_group import JacobiGroupElement, compose, generator, minus_identity_shift, power


@dataclass(frozen=True)
class EvalPoint:
    tau: complex
    z: complex = 0j

    def __post_init__(self):
        _require_point(self.tau, self.z)


def _require_point(tau, z=0):
    """DomainError unless tau and z are finite numbers and tau lies in the
    upper half plane: a string (which mpmath would parse) or another
    non-number would give an error from deep in mpmath, a nan or an infinity
    a nan value beside a finite tail bound, and at Im tau <= 0 neither theta
    nor the completion series converges."""
    if not (isinstance(tau, numbers.Number) and isinstance(z, numbers.Number)):
        raise DomainError(f"tau and z must be numbers, got {tau!r} and {z!r}")
    if not (mp.isfinite(tau) and mp.isfinite(z)):
        raise DomainError("tau and z must be finite")
    if not mp.im(tau) > 0:
        raise DomainError("tau must lie in the upper half plane")


@dataclass(frozen=True)
class NumericConfig:
    quad_nodes: int = 6       # largest degree of the tanh-sinh walk `_tanh_sinh`
    dps: int = 30             # working precision in decimal digits
    # Constants, not fields: the floor of the h_mu truncation, which the order
    # derived from Im tau already covers, and the largest tail bound
    # `eval_expansion` accepts, far above the h_mu bounds at dps 30.
    qmax: ClassVar[int] = 48
    tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        for name in ("quad_nodes", "dps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise DomainError(f"{name} must be an int of at least 1, got {value!r}")


DEFAULT_CONFIG = NumericConfig()

DEFAULT_POINTS = (
    EvalPoint(complex(0.0, 1.0), complex(0.1, 0.2)),
    EvalPoint(complex(0.3, 1.1), 0j),
    EvalPoint(complex(0.0, 2.0), complex(0.25, 0.0)),
)


def _e(x):
    """exp(2 pi i x) by `mp.expjpi`, which is exact where x is a multiple
    of 1/4 (e(1/4) = i)."""
    return mp.expjpi(2 * mp.mpc(x))


def _pairwise(vals, prec, rnd):
    """The fixed pairwise tree on a list of raw mpc tuples, each sum by
    `libmp.mpc_add` at (prec, rnd), the call `mpc.__add__` makes; the raw sum
    (0 for an empty list)."""
    if not vals:
        return libmp.mpc_zero
    add = libmp.mpc_add
    while len(vals) > 1:
        vals = [add(a, b, prec, rnd) for a, b in zip(vals[::2], vals[1::2])] + (
            vals[-1:] if len(vals) % 2 else []
        )
    return vals[0]


def pairwise_sum(values):
    """Summation by a fixed pairwise tree (order-stable reduction), always
    an mpc.  The values are reduced as raw mpc tuples, so for values at the
    working precision the sum has the bits of the same tree on the objects."""
    vals = [v._mpc_ if hasattr(v, "_mpc_") else mp.mpc(v)._mpc_ for v in values]
    return mp.make_mpc(_pairwise(vals, *mp.mp._prec_rounding))


# ---------------------------------------------------------------------------
# Series evaluation


def _tail_bound(m, scale, qbound, tau, z, cmax) -> mp.mpf:
    """Bound on the dropped tail of an expansion of index m (0 for a
    `QSeries`) at (tau, z): with |c(n, r)| <= C (n+1)^2, C = cmax, and
    r^2 <= 4mn, each dropped order is at most T(n) = C (n+1)^2
    (4 sqrt(mn) + 2m + 1) e^(2 pi ((2 sqrt(mn) + m) |Im z| - n Im tau)).
    ln T is concave, so rho(n) = T(n + 1/scale)/T(n) never grows, and the
    tail from n0 = floor(qbound scale)/scale on is at most
    T(n0)/(1 - rho(n0)); if rho(n0) >= 1, T does not fall on [0, n0], the
    tail exceeds T(0) >= 1 and the bound is +inf.

    A proof on h_mu = sum H(N) q^(N/4): a reduced form of discriminant -N
    has a <= A = floor(sqrt(N/3)), one of 2a values of b and c fixed by
    (a, b), so H(N) <= A(A+1) <= N/2 + 1/2 <= (N/4+1)^2 and C = 1 <= cmax.
    Elsewhere C is fitted to the stored coefficients: an estimate."""
    def majorant(n):
        root = 2 * mp.sqrt(m * n)
        return cmax * (n + 1) ** 2 * (2 * root + 2 * m + 1) * mp.e ** (
            2 * mp.pi * ((root + m) * abs(mp.im(z)) - n * mp.im(tau)))

    n0 = mp.mpf(int(qbound * scale)) / scale  # the floor: qbound >= 0
    head = majorant(n0)
    ratio = majorant(n0 + mp.mpf(1) / scale) / head
    return head / (1 - ratio) if ratio < 1 else mp.inf


def _powers(x, lo, hi):
    """{e: x^e for lo <= e <= hi} (lo <= 0 <= hi) by repeated multiplication
    with x and 1/x."""
    table = {0: mp.mpc(1)}
    inv = 1 / x
    for e in range(1, hi + 1):
        table[e] = table[e - 1] * x
    for e in range(-1, lo - 1, -1):
        table[e] = table[e + 1] * inv
    return table


def _raw_coefficient(c, prec, rnd):
    """An exact coefficient as a raw mpf with the bits of mp.mpf(num) / den:
    an int is rounded once by `libmp.from_int`, as mp.mpf(c) / 1 rounds it."""
    if isinstance(c, int):
        return libmp.from_int(c, prec, rnd)
    return (mp.mpf(c.numerator) / c.denominator)._mpf_


class _Form(NamedTuple):
    """The point-free part of an expansion's evaluation at one (prec, rnd):
    one (gap to the previous row, exponents r, coefficients c) per row in
    exponent order, the span of r and the raw tail constant cmax.  A row of
    one term keeps its c as a raw mpf, for one `mpc_mul_mpf`; a longer row
    keeps its c as integer pairs, for `_fdot`."""
    rows: list
    rlo: int
    rhi: int
    cmax: tuple


def _build_form(coeffs, scale, prec, rnd) -> _Form:
    """The `_Form` of {(ns, r): c} at (prec, rnd), each distinct c converted
    once.  A row's tail constant is |top| / (ns/scale + 1)^2, over a float,
    read from its largest exact |c|: rounding once is monotone and
    symmetric, so that converts to the largest rounded |c|.  A `Fraction`
    whose numerator is wider than the precision is rounded twice, which is
    not monotone, so with one of those the rounded values are compared."""
    rows: dict[int, list] = {}
    for (ns, r), c in sorted(coeffs.items()):
        rows.setdefault(ns, []).append((r, c))
    raw = {c: _raw_coefficient(c, prec, rnd) for c in set(coeffs.values())}
    pair = {c: _pair(x) for c, x in raw.items()}
    if all(isinstance(c, int) or c.numerator.bit_length() <= prec for c in raw):
        size = abs
    else:
        size = lambda c: abs(mp.make_mpf(raw[c]))
    layout, cmax, at = [], libmp.fone, 0
    for ns, row in rows.items():
        top = max((c for _, c in row), key=size)
        weighted = libmp.mpf_div(libmp.mpf_abs(raw[top], prec, rnd),
                                 libmp.from_float((ns / scale + 1) ** 2), prec, rnd)
        if libmp.mpf_gt(weighted, cmax):
            cmax = weighted
        cs = raw[row[0][1]] if len(row) == 1 else [pair[c] for _, c in row]
        layout.append((ns - at, [r for r, _ in row], cs))
        at = ns
    rs = [r for _, r in coeffs]
    return _Form(layout, min(rs, default=0), max(rs, default=0), cmax)


def _form_of(f, prec, rnd):
    """(index, `_Form` of f at (prec, rnd)), built once per expansion and
    precision.  The forms live in the private attribute `_evaluation_forms`
    of f, kept by its identity: an expansion cannot change after its
    construction, which checked its fields, so a form is never stale."""
    if isinstance(f, JacobiExpansion):
        m = f.index
    elif isinstance(f, QSeries):
        m = 0
    else:
        raise DomainError("unsupported expansion type")
    forms = f.__dict__.setdefault("_evaluation_forms", {})
    if (prec, rnd) not in forms:
        coeffs = f.coeffs
        if isinstance(f, QSeries):  # the key ns read as (ns, 0)
            coeffs = {(ns, 0): c for ns, c in coeffs.items()}
        forms[prec, rnd] = _build_form(coeffs, f.scale, prec, rnd)
    return m, forms[prec, rnd]


def eval_expansion(f, point: EvalPoint, cfg: NumericConfig = DEFAULT_CONFIG):
    """Evaluate a truncated expansion at (tau, z); returns (value, tail_bound)
    with `_tail_bound`'s bound on the truncation error of the stored partial
    sum, a proof on the h_mu components and an estimate elsewhere.  A bound
    above cfg.tol raises `PrecisionError` (`required_qbound` None if +inf).

    Terms are grouped by scaled q-exponent: each row sum_r c zeta^r reads
    zeta^r from one power table of e(z), and the rows are weighted by integer
    powers of e(tau/scale), so no term costs an exponential.  Every bit is
    that of the same loop on mpmath objects with `mp.fdot` for a row: a row
    is one `_fdot` for its real part and one for its imaginary part, exact
    products and one rounding each, on integer pairs; a row of one term is
    its one product, one `mpc_mul_mpf`, which is the same rounding at lower
    cost (every row of a `QSeries`).  Each distinct gap between rows takes
    its power of e(tau/scale) once, and the rows are reduced by the tree of
    `pairwise_sum`.

    What does not depend on the point (the rows sorted by exponent, each
    distinct coefficient converted at the working precision, and the tail
    constant, `_build_form`) is built once per expansion and precision and
    kept with the expansion (`_form_of`), which a later evaluation reuses:
    an expansion is an immutable value, checked once at its construction."""
    with mp.workdps(cfg.dps):
        prec, rnd = mp.mp._prec_rounding
        m, form = _form_of(f, prec, rnd)
        tau, z = mp.mpc(point.tau), mp.mpc(point.z)
        zeta = {e: v._mpc_ for e, v in _powers(_e(z), form.rlo, form.rhi).items()}
        real = {e: _pair(v[0]) for e, v in zeta.items()}
        imag = {e: _pair(v[1]) for e, v in zeta.items()}
        base = _e(tau / f.scale)._mpc_
        mul, cmul, qpow, parts = libmp.mpc_mul_mpf, libmp.mpc_mul, libmp.mpc_one, []
        steps = {}  # e(tau/scale)^gap, once per gap between rows
        for gap, rs, cs in form.rows:
            if gap not in steps:
                steps[gap] = libmp.mpc_pow_int(base, gap, prec, rnd)
            qpow = cmul(qpow, steps[gap], prec, rnd)
            if len(rs) == 1:  # its one product is its dot product
                row = mul(zeta[rs[0]], cs, prec, rnd)
            else:
                row = (_raw(_fdot(cs, [real[r] for r in rs], prec, rnd)),
                       _raw(_fdot(cs, [imag[r] for r in rs], prec, rnd)))
            parts.append(cmul(qpow, row, prec, rnd))
        value = mp.make_mpc(_pairwise(parts, prec, rnd))
        bound = _tail_bound(m, f.scale, f.qbound, tau, z, mp.make_mpf(form.cmax))
        if bound > cfg.tol:
            extra = float(mp.log(bound / mp.mpf(cfg.tol)) / (2 * mp.pi * mp.im(tau)))
            raise PrecisionError(
                f"tail bound {float(bound):.3g} exceeds tol {cfg.tol}",
                required_qbound=None if mp.isinf(bound) else int(float(f.qbound) + extra + 2),
            )
        return value, bound


# ---------------------------------------------------------------------------
# Slash action


def _normalized(g: JacobiGroupElement):
    """g as a floating triple (matrix / sqrt(det), translation, phase) at the
    active precision."""
    det = g.det
    s = mp.sqrt(mp.mpf(det.numerator) / det.denominator)
    mat = tuple(mp.mpf(v.numerator) / v.denominator / s for v in g.mat)
    trans = tuple(mp.mpf(v.numerator) / v.denominator for v in g.trans)
    return mat, trans, mp.mpf(g.phase.numerator) / g.phase.denominator


def _act(t, k, m, tau, z):
    """(j(t; tau, z), t(tau, z)) for a normalized triple t: the automorphy
    factor at weight k and index m, and the image point."""
    (a, b, c, d), (lam, mu), phase = t
    den = c * tau + d
    w = z + lam * tau + mu
    j = den ** (-k) * _e(m * (lam * lam * tau + 2 * lam * z + lam * mu - c * w * w / den))
    if phase:
        j *= _e(m * phase)
    return j, (a * tau + b) / den, w / den


def slash(fval, g: JacobiGroupElement, k, m):
    """The weighted action: returns (tau, z) -> j(g; tau, z) fval(g(tau, z)).

    Matrices of determinant ell > 0 are divided by sqrt(ell) first; the
    translation and phase slots are used as stored.  Non-integer k uses the
    principal branch of (c tau + d)^(-k)."""
    kf = mp.mpf(k.numerator) / k.denominator if isinstance(k, Fraction) else mp.mpf(k)

    def acted(tau, z):
        j, tau2, z2 = _act(_normalized(g), kf, m, mp.mpc(tau), mp.mpc(z))
        return j * fval(tau2, z2)

    return acted


def slash_ring_term(fval, e, k, m):
    """Slash by a stored ring basis element (integer matrix, scaled lattice)."""
    lam = Fraction(e.x2, e.level)
    mu = Fraction(e.y2, e.level)
    g = JacobiGroupElement.make((e.mat[0:2], e.mat[2:4]), (lam, mu))
    return slash(fval, g, k, m)


# The memo of the open `_memo_scope`, None outside one: the pairs of tau-only
# factors `_completion_series`, `_h_pair`, `_period_integrals` and
# `_eichler_integrals`, keyed by their arguments (the exact tau among them)
# and the precision, and the `beta_fn` values of `_completion_series`.
_SUM_MEMO: ContextVar[dict | None] = ContextVar("_SUM_MEMO", default=None)


@contextmanager
def _memo_scope():
    """A fresh `_SUM_MEMO` for the block, closed on exit, however it exits."""
    token = _SUM_MEMO.set({})
    try:
        yield
    finally:
        _SUM_MEMO.reset(token)


def _per_sum(fn, *args):
    """fn(*args) at the active precision, read from the open scope's memo if
    there is one; a hit is bit-identical to a fresh evaluation."""
    memo = _SUM_MEMO.get()
    if memo is None:
        return fn(*args)
    key = (fn, args, mp.mp.prec)
    if key not in memo:
        memo[key] = fn(*args)
    return memo[key]


def slash_formal_sum(fval, f: FormalSum, k, m):
    """Sum of the slashes over a formal sum's terms, pairwise-reduced; one
    evaluation is one `_memo_scope`, since all lattice points of a matrix
    share its image tau."""
    parts = [(slash_ring_term(fval, e, k, m), c) for e, c in f.sorted_terms()]

    def acted(tau, z):
        with _memo_scope():
            return pairwise_sum(c * fn(tau, z) for fn, c in parts)

    return acted


# ---------------------------------------------------------------------------
# Integer arithmetic with libmp's roundings
#
# The hot loops of `_theta_sums`, `_kernel`, `_tanh_sinh` and the rows of
# `eval_expansion` run on pairs (man, exp) of Python ints, the value
# man 2^exp with man odd or 0, as in a normalized raw mpf.  Each function
# returns, as such a pair, the value of the libmp call it names at
# (prec, rnd), at a fraction of its cost; the exponents and bit lengths it
# reads are those of the normalized tuples, so where libmp's rounding
# depends on them (the shortcuts of `_add` and `_fdot`) it still agrees.


def _pair(x):
    """A finite raw mpf as a pair."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _raw(x):
    """A pair as a raw mpf."""
    man, exp = x
    if not man:
        return libmp.fzero
    return (1, -man, exp, (-man).bit_length()) if man < 0 else (0, man, exp, man.bit_length())


def _round(man, exp, prec, rnd):
    """libmp's normalize: man 2^exp rounded to prec bits, to nearest with
    ties to even (rnd "n", the one mode of an mpmath context) or toward zero
    ("d")."""
    m = abs(man)
    n = m.bit_length() - prec
    if n > 0:
        q = m >> n
        if rnd == "n" and m >> (n - 1) & 1 and (q & 1 or m & ((1 << (n - 1)) - 1)):
            q += 1
        m, exp = q, exp + n
    elif not m:
        return 0, 0
    if not m & 1:
        zeros = (m & -m).bit_length() - 1
        m, exp = m >> zeros, exp + zeros
    return (m if man > 0 else -m), exp


def _add(m1, e1, m2, e2, prec, rnd):
    """mpf_add at (prec, rnd), with its shortcut: a term more than prec + 4
    bits below the other's top and more than 100 exponents below it becomes a
    unit of its sign at the other's exponent - prec - 4."""
    if not (m1 and m2):
        return _round(m1, e1, prec, rnd) if m1 else _round(m2, e2, prec, rnd)
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    if e1 - e2 > 100 and e1 + m1.bit_length() - e2 - m2.bit_length() > prec + 4:
        return _round((m1 << prec + 4) + (1 if m2 > 0 else -1), e1 - prec - 4, prec, rnd)
    return _round((m1 << e1 - e2) + m2, e2, prec, rnd)


def _div(n, ne, d, de, prec, rnd):
    """mpf_div at (prec, rnd) for d > 0: the quotient to prec + 2 bits or
    more, with a sticky bit for a remainder (a floor suffices to round down)."""
    m = -n if n < 0 else n
    shift = max(0, prec + d.bit_length() - m.bit_length() + 3)
    if rnd == "d":
        q = (m << shift) // d
    else:
        q, r = divmod(m << shift, d)
        if r:
            q, shift = (q << 1) | 1, shift + 1
    return _round(-q if n < 0 else q, ne - de - shift, prec, rnd)


def _sqrt_down(man, exp, prec):
    """mpf_sqrt at (prec, "d") for man > 0."""
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(0, 2 * prec - man.bit_length())
    shift += shift & 1
    return _round(math.isqrt(man << shift), (exp - shift) // 2, prec, "d")


def _cmul(z, w, prec, rnd):
    """mpc_mul at (prec, rnd) on pairs of pairs: the exact products and one
    rounded sum per part."""
    (a, ae), (b, be) = z
    (c, ce), (d, de) = w
    return (_add(a * c, ae + ce, -b * d, be + de, prec, rnd),
            _add(a * d, ae + de, b * c, be + ce, prec, rnd))


def _cadd(z, w, prec, rnd):
    """mpc_add at (prec, rnd) on pairs of pairs."""
    return _add(*z[0], *w[0], prec, rnd), _add(*z[1], *w[1], prec, rnd)


def _fdot(ws, fs, prec, rnd):
    """mpf_sum([mpf_mul(w, f) for w, f in zip(ws, fs)], prec, rnd), the real
    dot product of `mp.fdot`: the exact products summed in order, with
    mpf_sum's drop of the smaller of the running sum and a new term once
    they lie more than 2 prec bits apart, and one rounding.  It sums the
    tanh-sinh walk's weighted values and each part of a series row of
    `eval_expansion`."""
    man = exp = 0
    for (wm, we), (fm, fe) in zip(ws, fs):
        xm, xe = wm * fm, we + fe
        if not xm:
            continue
        if xe >= exp:
            if xe - exp > 2 * prec and (not man or xe - exp - man.bit_length() > 2 * prec):
                man, exp = xm, xe
            else:
                man += xm << xe - exp
        elif exp - xe - xm.bit_length() <= 2 * prec:
            man, exp = (man << exp - xe) + xm, xe
        elif not man:
            man, exp = xm, xe
    return _round(man, exp, prec, rnd)


# ---------------------------------------------------------------------------
# Theta, completion terms, and the period integral


# Extra digits for the recurrences of `_theta_sums`, and for R' in
# `period_value`: P is the difference of two values of R', and `beta_fn`'s
# closed form cancels for large arguments.
_GUARD_DPS = 5


@cache
def _kexp(prec: int):
    """(dps + 4) ln(10) / (2 pi) at binary precision prec: theta is truncated
    where e^(-2 pi (r^2 v/4 - |r y|)) drops below 10^-(dps+4)."""
    with mp.workprec(prec):
        return (mp.mp.dps + 4) * mp.log(10) / (2 * mp.pi)


# z = 0 and z = 1/4 as raw mpc values: with Re tau = 0 every theta term there
# is real (`_theta_sums`).
_AXIS_Z = (libmp.mpc_zero, (libmp.from_man_exp(1, -2), libmp.fzero))


def _theta_sums(tau, groups):
    """[theta_mu(tau, z) for (z, mus) in groups for mu in mus]: the
    exponential e(tau/4) and its powers are taken once for all, e(z), its
    powers and the truncation rmax once per group, and each (mu, z) runs its
    own recurrence.  Each step has the bits of the mpc or mpf operator it
    stands for: the powers that start a recurrence are libmp's own calls,
    and the recurrence runs on integer pairs (`_cmul`, `_cadd`).

    On the imaginary axis with every z in {0, 1/4}, as on each row of the
    ray tables, zeta^r + zeta^-r is 2, 0 or -2 exactly and every imaginary
    part an exact 0: there the recurrence runs on the real parts alone, with
    the roundings of `mpf_mul` and `mpf_add`, which the real parts of
    `mpc_mul` and `mpc_add` then take, and at Im z = 0 one rmax and one
    sequence of terms per mu serve every z."""
    tau = mp.mpc(tau)
    groups = [(mp.mpc(z), mus) for z, mus in groups]
    prec, rnd = mp.mp._prec_rounding
    # rmax = int(2 (y + sqrt(y^2 + v k)) / v) + 2 at y = |Im z|, at the
    # caller's precision
    v = tau._mpc_[1]
    vk = libmp.mpf_mul(v, _kexp(prec)._mpf_, prec, rnd)
    rmaxes = []
    for z, _ in groups:
        y = libmp.mpf_abs(z._mpc_[1], prec, rnd)
        root = libmp.mpf_sqrt(libmp.mpf_add(libmp.mpf_mul(y, y, prec, rnd), vk, prec, rnd),
                              prec, rnd)
        reach = libmp.mpf_mul_int(libmp.mpf_add(y, root, prec, rnd), 2, prec, rnd)
        rmaxes.append(libmp.to_int(libmp.mpf_div(reach, v, prec, rnd)) + 2)
    sums = []
    prec = libmp.dps_to_prec(mp.mp.dps + _GUARD_DPS)  # the recurrences' guard digits
    # e(x) as `_e` takes it, expjpi(2x), by the calls of the mpc operators
    e = lambda x: libmp.mpc_expjpi(libmp.mpc_mul_int(x, 2, prec, rnd), prec, rnd)
    q4 = e(libmp.mpc_div_mpf(tau._mpc_, libmp.from_int(4), prec, rnd))
    if tau._mpc_[0] == libmp.fzero and all(z._mpc_ in _AXIS_Z for z, _ in groups):
        q = libmp.mpf_pow_int(q4[0], 4, prec, rnd)
        q2 = _pair(libmp.mpf_mul(q, q, prec, rnd))
        # for each mu the terms r = mu, mu + 2, ..., rmax, each but r = 0
        # doubled for +-r (exactly, as mpf_mul_int does)
        terms = {}
        for mu in {mu for _, mus in groups for mu in mus}:
            term = _pair(libmp.mpf_pow_int(q4[0], mu * mu, prec, rnd))
            step = _pair(libmp.mpf_pow_int(q, mu + 1, prec, rnd))
            terms[mu] = [(term[0], term[1] + (mu > 0))]
            for _ in range(mu + 2, rmaxes[0] + 1, 2):
                term = _round(term[0] * step[0], term[1] + step[1], prec, rnd)
                step = _round(step[0] * q2[0], step[1] + q2[1], prec, rnd)
                terms[mu].append((term[0], term[1] + 1))
        for z, mus in groups:
            # the sign of zeta^r + zeta^-r by r mod 4: zeta = 1 at z = 0,
            # i at z = 1/4, where it is 2, 0, -2, 0
            signs = (1, 1, 1, 1) if z._mpc_ == libmp.mpc_zero else (1, 0, -1, 0)
            for mu in mus:
                total = (0, 0)
                for r, (man, exp) in zip(range(mu, rmaxes[0] + 1, 2), terms[mu]):
                    if signs[r % 4]:  # adding a zero term leaves the bits
                        total = _add(*total, signs[r % 4] * man, exp, prec, rnd)
                sums.append(mp.make_mpc((_raw(total), libmp.fzero)))
        return sums
    pairs = lambda z: (_pair(z[0]), _pair(z[1]))
    q = libmp.mpc_pow_int(q4, 4, prec, rnd)
    q2 = pairs(libmp.mpc_mul(q, q, prec, rnd))
    for (z, mus), rmax in zip(groups, rmaxes):
        zeta = e(z._mpc_)
        inv = libmp.mpc_mpf_div(libmp.fone, zeta, prec, rnd)  # 1 / zeta
        zeta2 = pairs(libmp.mpc_mul(zeta, zeta, prec, rnd))
        inv2 = pairs(libmp.mpc_mul(inv, inv, prec, rnd))
        for mu in mus:
            # q^(r^2/4), q^(r+1), zeta^r and zeta^-r at r = mu
            term, step, up, down = (pairs(libmp.mpc_pow_int(x, n, prec, rnd)) for x, n in (
                (q4, mu * mu), (q, mu + 1), (zeta, mu), (inv, mu)))
            total = _cmul(term, _cadd(up, down, prec, rnd), prec, rnd) if mu else term
            for _ in range(mu + 2, rmax + 1, 2):
                term, step = _cmul(term, step, prec, rnd), _cmul(step, q2, prec, rnd)
                up, down = _cmul(up, zeta2, prec, rnd), _cmul(down, inv2, prec, rnd)
                total = _cadd(total, _cmul(term, _cadd(up, down, prec, rnd), prec, rnd), prec, rnd)
            sums.append(mp.make_mpc((_raw(total[0]), _raw(total[1]))))
    return sums


def theta_pair(tau, z):
    """(theta_0(tau, z), theta_1(tau, z)), theta_mu = sum over r = mu mod 2 of
    q^(r^2/4) zeta^r, truncated where the term magnitude e^(-2 pi (r^2 v/4 -
    |r y|)) is provably below working precision for all remaining r.

    The terms at +-r come from those at +-(r-2) by q^(r^2/4) =
    q^((r-2)^2/4) q^(r-1) and zeta^(+-r) = zeta^(+-(r-2)) zeta^(+-2), so a
    call takes the two exponentials e(tau/4) and e(z) for both components.
    The recurrence runs with `_GUARD_DPS` extra digits, and the sums keep
    them."""
    _require_point(tau, z)
    return tuple(_theta_sums(tau, ((z, (0, 1)),)))


def _tanh_sinh(interval, maxdegree: int, count: int, values):
    """[mp.quad(f_c, interval, maxdegree=maxdegree) for c in range(count)] bit
    for bit, from one walk over mpmath's tanh-sinh nodes.

    values(degree, nodes, running) returns the weights w of the degree's
    nodes as integer pairs and, for each c in running, the column of values
    f_c(x) at them, pairs for a real f and pairs of pairs (re, im) for a
    complex one, evaluated at the walk's precision prec + 20 as `mp.quad`
    evaluates its integrand; nodes() lists the rule's nodes (x, w).  A caller
    that keeps the weights need not call it, and should not: mpmath keeps the
    node list of an interval from its second request on.  The walk only sums,
    as `mp.quad` does: degree by degree h (S_prev / 2h + sum w f(x)), with the
    exact products and single rounding of `fdot` (`_fdot`; an mpf for a real
    f), then `estimate_error` and the stop at eps/8 for each c separately;
    the results are rounded to prec."""
    rule, prec, epsilon = mp.mp._tanh_sinh, mp.mp.prec, mp.eps / 8
    results, running = [[] for _ in range(count)], list(range(count))
    with mp.workprec(prec + 20):
        wprec, rnd = mp.mp._prec_rounding
        for degree in range(1, maxdegree + 1):
            active = tuple(running)
            weights, columns = values(degree, lambda: rule.get_nodes(*interval, degree, prec), active)
            h = mp.mpf(2) ** (-degree)
            for c, column in zip(active, columns, strict=True):
                if isinstance(column[0][0], tuple):  # (re, im) pairs
                    step = mp.make_mpc(tuple(
                        _raw(_fdot(weights, [f[k] for f in column], wprec, rnd)) for k in (0, 1)))
                else:
                    step = mp.make_mpf(_raw(_fdot(weights, column, wprec, rnd)))
                total = results[c][-1] / (h * 2) if results[c] else mp.mp.zero
                total += step
                results[c].append(h * total)
                if degree > 1 and rule.estimate_error(results[c], prec, epsilon) <= epsilon:
                    running.remove(c)
            if not running:
                break
    return [+r[-1] for r in results]  # rounded to prec, as mp.quad returns


def _beta_argument(x):
    """x as an mpf, DomainError unless finite and nonnegative (nan included)."""
    x = mp.mpf(x)
    if not (mp.isfinite(x) and x >= 0):
        raise DomainError("argument must be finite and nonnegative")
    return x


def beta_fn(x):
    """(1/16 pi) int_1^inf u^(-3/2) e^(-xu) du in closed form."""
    x = _beta_argument(x)
    if x == 0:
        return 1 / (8 * mp.pi)
    return (2 * mp.e ** (-x) - 2 * mp.sqrt(mp.pi * x) * mp.erfc(mp.sqrt(x))) / (16 * mp.pi)


def beta_fn_quadrature(x, cfg: NumericConfig = DEFAULT_CONFIG):
    """The defining integral by `_tanh_sinh` (oracle for beta_fn): a real
    integrand, so a real value, bit for bit `mp.quad`'s."""
    x = _beta_argument(x)

    def values(degree, nodes, running):
        nodes = nodes()
        return [_pair(w._mpf_) for _, w in nodes], [
            [_pair((u ** mp.mpf(-1.5) * mp.e ** (-x * u))._mpf_) for u, _ in nodes]]

    with mp.workdps(cfg.dps):
        return _tanh_sinh((1, mp.inf), cfg.quad_nodes, 1, values)[0] / (16 * mp.pi)


def completion_pair(tau):
    """(c_0, c_1), c_mu = v^(-1/2) sum over l = mu mod 2 of beta(pi l^2 v)
    q^(-l^2/4): the nonholomorphic completion attached to the class numbers,
    once per memo scope (`_per_sum`), and each beta value once per exact
    argument in it, so that taus with one Im tau share them."""
    _require_point(tau)
    return _per_sum(_completion_series, mp.mpc(tau))


def _completion_series(tau):
    v = mp.im(tau)
    totals = [mp.mpc(0), mp.mpc(0)]  # c_mu sums the l = mu mod 2
    l = 0
    eps = mp.mpf(10) ** (-mp.mp.dps - 2)
    # beta(pi l^2 v) q^(-l^2/4) decays like e^(-pi l^2 v / 2), which falls
    # with l: the first l > 2 below eps ends the sums of both parities
    while not (l > 2 and mp.e ** (-mp.pi * l * l * v / 2) < eps):
        term = _per_sum(beta_fn, mp.pi * l * l * v) * _e(-l * l / mp.mpf(4) * tau)
        totals[l % 2] += term if l == 0 else 2 * term  # +-l coincide at z = 0
        l += 1
    return tuple(total / mp.sqrt(v) for total in totals)


# The pieces of the ray (0, i inf) in `period_quadrature`: the quadrature
# interval of each.
_PIECES = {"upper": (1, mp.inf), "lower": (0, 1)}

# The node-aligned ray tables of `period_quadrature`, per (piece, degree,
# precision), shared by every evaluation in the process.  They do not depend
# on tau, and the nodes are those of mpmath's tanh-sinh rule, whose own
# process-wide cache keeps them per (degree, precision): this memo grows as
# that one does, with each new precision or degree, and never with new taus.
_RAY: dict = {}

# The kernel exponent -3/2 as a raw mpf, exact at every precision.
_P32 = mp.mpf(-1.5)._mpf_


def _kernel(z, prec, rnd):
    """z^(-3/2) for a raw mpc z = a + i b, bit for bit the tuple that
    `mpc ** mpf` returns at (prec, rnd), on integer pairs.

    It replays mpmath 1.3.0's path, one libmp rounding after another: the
    square root (x, y) of z at prec + 10, rounded down, from |z| (the exact
    squares added at prec + 34, their root at prec + 30), t = |z| + |a| at
    prec + 30, sqrt(t/2) at prec + 10, w = sqrt(2t) at prec + 30 and b/w at
    prec + 10; the exact cube of x + i y, each part rounded down at prec + 4;
    and its reciprocal, with |cube|^2 added at prec + 10, rounded down, and
    each part divided by it at (prec, rnd)."""
    a, b = z
    if rnd != "n" or b[0] or not b[1] or (not a[1] and a != libmp.fzero):
        # libmp's own power outside the replayed domain: a rounding mode
        # other than 'n' (the reciprocal's divisions round at rnd, and
        # `_round` has only 'n' and the inner 'd'), b <= 0 (where the square
        # root takes its real-axis branches or negates its parts), or an
        # infinite or nan part
        return libmp.mpc_pow_mpf(z, _P32, prec, rnd)
    (am, ae), (bm, be) = _pair(a), _pair(b)
    wp = prec + 30
    if am:
        root = _sqrt_down(*_add(am * am, 2 * ae, bm * bm, 2 * be, wp + 4, "d"), wp)
        tm, te = _add(*root, abs(am), ae, wp, "d")
    else:
        tm, te = _round(bm, be, wp, "d")
    # sqrt(2t) = 2 sqrt(t/2), and truncations compose: one root gives both
    wm, we = _sqrt_down(tm, te - 1, wp)
    half = _round(wm, we, prec + 10, "d")
    quot = _div(bm, be, wm, we + 1, prec + 10, "d")
    (xm, xe), (ym, ye) = (quot, half) if am < 0 else (half, quot)
    if 3 * (abs(xe - ye) + max(xm.bit_length(), ym.bit_length())) >= 10000:
        # libmp cubes by exp and log once the exact cube's size reaches 10,000
        return libmp.mpc_pow_mpf(z, _P32, prec, rnd)
    if xe > ye:
        xm, xe = xm << xe - ye, ye
    else:
        ym <<= ye - xe
    x2, y2 = xm * xm, ym * ym
    crm, cre = _round(xm * (x2 - 3 * y2), 3 * xe, prec + 4, "d")
    cim, cie = _round(ym * (3 * x2 - y2), 3 * xe, prec + 4, "d")
    mm, me = _add(crm * crm, 2 * cre, cim * cim, 2 * cie, prec + 10, "d")
    return _raw(_div(crm, cre, mm, me, prec, rnd)), _raw(_div(-cim, cie, mm, me, prec, rnd))


def _ray_table(piece: str, degree: int, prec: int, nodes):
    """One row (s, w, F_0, F_1) of raw mpf values per node (x, w) of the
    piece's tanh-sinh rule at this degree and precision, listed by nodes():
    w is the node's weight, tau + i s the kernel argument and F_mu the real
    theta factor of mu:

    * upper, on [1, inf): s = t = x and F_mu = theta_mu(i t, 0) - (1 - mu),
      theta minus its limit as t -> inf;
    * lower, on [0, 1]: s = u^2 (u = x) and F_mu = theta_0(i/(4u^2), mu/4)
      = (2u^2)^(1/2) theta_mu(i u^2, 0), the theta inversion.

    Every row is one `_theta_sums` call on its axis branch: tau on the
    imaginary axis and z = 0 or 1/4, so the recurrences run on real parts,
    and the lower row's two theta_0 share one sequence of terms.  Built at
    the quadrature's working precision prec + 20 (the active one)."""
    key = (piece, degree, prec)
    if key not in _RAY:
        rows = []
        for x, w in nodes():
            if piece == "upper":
                shift = x
                factors = [theta.real - (1 - mu) for mu, theta in enumerate(theta_pair(1j * x, 0))]
            else:
                shift = x * x
                thetas = _theta_sums(1j / (4 * x * x), ((0, (0,)), (mp.mpf(1) / 4, (0,))))
                factors = [theta.real for theta in thetas]
            rows.append((shift._mpf_, w._mpf_, *(f._mpf_ for f in factors)))
        _RAY[key] = rows
    return _RAY[key]


def _ray_integrals(piece: str, tau, maxdegree: int):
    """[mp.quad(lambda s: (tau + i s)^(-3/2) F_mu(s), piece, maxdegree=
    maxdegree) for mu in (0, 1)] bit for bit, with F_mu the factors of
    `_ray_table` (s = u^2 on the lower piece), from one `_tanh_sinh` walk.
    Each kernel power is taken once per node for both mu, by `_kernel`, with
    the bits of `mpc ** mpf`, and multiplied by F_mu as `mpc * mpf` rounds
    it."""
    prec = mp.mp.prec
    tre, tim = tau._mpc_

    def values(degree, nodes, running):
        wprec, rnd = mp.mp._prec_rounding
        # tau + i s as `mpc_add` forms it: the real part once, the imaginary per node
        re = libmp.mpf_add(tre, libmp.fzero, wprec, rnd)
        rows = _ray_table(piece, degree, prec, nodes)
        columns = [[] for _ in running]
        for row in rows:
            kernel = _kernel((re, libmp.mpf_add(tim, row[0], wprec, rnd)), wprec, rnd)
            (km, ke), (lm, le) = map(_pair, kernel)
            for column, mu in zip(columns, running):
                # the kernel times F_mu as `mpc_mul_mpf` rounds it
                fm, fe = _pair(row[2 + mu])
                column.append((_round(km * fm, ke + fe, wprec, rnd),
                               _round(lm * fm, le + fe, wprec, rnd)))
        return [_pair(row[1]) for row in rows], columns

    return _tanh_sinh(_PIECES[piece], maxdegree, 2, values)


def _period_integrals(tau, degree: int):
    """The component integrals int_0^{i inf} (tau + w)^(-3/2) theta_mu(w, 0) dw
    at tau for mu = 0 and 1, with tanh-sinh rules up to this degree."""
    # theta_mu(i t, 0) tends to 1 - mu as t -> inf; the limit integrates to
    # 2 (tau + i)^(-1/2) in closed form, and theta minus it is exponentially
    # small for t >= 1.  The lower piece is taken via t = u^2 and the theta
    # inversion: the integrand (tau + i u^2)^(-3/2) (2 u^2)^(1/2)
    # theta_mu(i u^2, 0) is smooth on [0, 1], and no tanh-sinh node lies
    # at u = 0.
    upper = _ray_integrals("upper", tau, degree)
    lower = _ray_integrals("lower", tau, degree)
    return [(1 - mu) * 2 / mp.sqrt(tau + 1j) + 1j * upper[mu] + 1j * mp.sqrt(2) * lower[mu]
            for mu in (0, 1)]


def period_quadrature(tau, z, cfg: NumericConfig = DEFAULT_CONFIG):
    """P(tau, z) for the weight-2 index-1 class-number series, via the two
    component integrals along the ray (0, i inf).  Both integrals at a tau are
    computed together, by one `_tanh_sinh` walk per piece of the ray
    (`_ray_integrals`), which takes each kernel power (tau + i t)^(-3/2) once
    for both, and once per tau in a `_memo_scope` (`_per_sum`).  The ray
    theta factors come from the process-wide node-aligned tables `_RAY`, so a
    new tau computes only the kernel powers and the two theta_mu(tau, z).
    Each integral equals `mp.quad`'s bit for bit.

    This quadrature is independent of the completion, so it is the oracle of
    the transformation law, the period relations, the extended relation and
    of `period_value` itself."""
    _require_point(tau, z)
    with mp.workdps(cfg.dps):
        tau, z = mp.mpc(tau), mp.mpc(z)
        integrals = _per_sum(_period_integrals, tau, cfg.quad_nodes)
        total = _theta_decomposition(tau, z, integrals)
        return -(24 / mp.pi) * (1 + 1j) / 16 * total


def _eichler_integrals(tau, degree: int):
    """int_0^inf (i (2v + s))^(-3/2) (theta_mu(-u + i (v + s), 0) - delta_mu0) ds
    at tau = u + i v for mu = 0 and 1, each `mp.quad`'s bit for bit, from one
    `_tanh_sinh` walk: a node takes both theta_mu from one `theta_pair` and
    the kernel power once, by `_kernel`."""
    u, v = mp.re(tau), mp.im(tau)

    def values(degree, nodes, running):
        wprec, rnd = mp.mp._prec_rounding
        weights, kernels, factors = [], [], []
        for s, w in nodes():
            weights.append(_pair(w._mpf_))
            kernels.append(mp.make_mpc(_kernel((libmp.fzero, (2 * v + s)._mpf_), wprec, rnd)))
            theta0, theta1 = theta_pair(mp.mpc(-u, v + s), 0)
            factors.append((theta0 - 1, theta1))
        return weights, [[tuple(map(_pair, (k * f[mu])._mpc_)) for k, f in zip(kernels, factors)]
                         for mu in running]

    return _tanh_sinh((0, mp.inf), degree, 2, values)


def eichler_theta_integrals(tau, cfg: NumericConfig = DEFAULT_CONFIG):
    """(series_side, integral_side), each a pair over mu, of the completion
    identity at tau: `completion_pair` and the ray integral (1+i)/(16 pi)
    int_{-conj(tau)}^{i inf} (t + tau)^(-3/2) theta_mu(t, 0) dt.  The
    integrals of both mu come from `_eichler_integrals`, once per tau in a
    `_memo_scope` (`_per_sum`)."""
    _require_point(tau)
    with mp.workdps(cfg.dps):
        tau = mp.mpc(tau)
        walked = _per_sum(_eichler_integrals, tau, cfg.quad_nodes)
        # theta_0 - 1 leaves the limit 1 of theta_0, which integrates in closed form
        integrals = (2 * (2j * mp.im(tau)) ** mp.mpf(-0.5) + 1j * walked[0], 1j * walked[1])
        return completion_pair(tau), tuple((1 + 1j) / (16 * mp.pi) * x for x in integrals)


# ---------------------------------------------------------------------------
# The completed weight-2 index-1 invariant function


@lru_cache(maxsize=16)
def _h_mu_series(mu: int, qbound: int):
    """h_mu_series(mu, qbound), one instance per (mu, qbound) among the 16
    most recently used, so its evaluation forms serve every tau.  Every
    caller shares the instance, which is safe because it cannot change."""
    return h_mu_series(mu, qbound)


def _h_pair(tau, cfg):
    """(h_0(tau), h_1(tau)), the class-number components, truncated where
    q^Q drops below 10^-(dps+3), and never below cfg.qmax, from the series of
    the memo `_h_mu_series`; its callers take it once per memo scope
    (`_per_sum`)."""
    v = mp.im(tau)
    qbound = max(cfg.qmax, int(mp.ceil((cfg.dps + 3) * mp.log(10) / (2 * mp.pi * v))))
    point = EvalPoint(tau)
    return tuple(eval_expansion(_h_mu_series(mu, qbound), point, cfg)[0] for mu in (0, 1))


def _theta_decomposition(tau, z, pair):
    """F_0 theta_0(tau, z) + F_1 theta_1(tau, z) for the pair (F_0, F_1) of
    tau-only components, with both theta_mu from one `theta_pair`."""
    total = mp.mpc(0)
    for component, theta in zip(pair, theta_pair(tau, z), strict=True):
        total += component * theta
    return total


def e21_value(tau, z, cfg: NumericConfig = DEFAULT_CONFIG):
    """E(tau, z) = -12 sum_mu h_mu(tau) theta_mu(tau, z), the theta
    decomposition of the weight-2 index-1 class-number series (Eichler-Zagier
    section 5; checked coefficientwise by `fourier.theta_decomposition_check`).
    It costs O(Q) one-variable terms plus an adaptive `theta_pair`, with no
    tail in the zeta direction."""
    _require_point(tau, z)
    with mp.workdps(cfg.dps):
        tau, z = mp.mpc(tau), mp.mpc(z)
        return -12 * _theta_decomposition(tau, z, _per_sum(_h_pair, tau, cfg))


def phi_value(tau, z, cfg: NumericConfig = DEFAULT_CONFIG, holomorphic_only=False):
    """F_0 theta_0 + F_1 theta_1 with F_mu the class-number component plus
    twice its nonholomorphic completion term; with holomorphic_only the
    completion is dropped (which destroys the inversion invariance).

    The factor 2 on the completion is forced: with it the inversion defect
    vanishes at working precision, without it exactly half the uncompleted
    defect survives.  The same factor is visible classically: at 4 tau the
    two components must sum to the completed weight-3/2 class-number series,
    whose completion is twice the sum of the two printed component terms."""
    _require_point(tau, z)
    with mp.workdps(cfg.dps):
        tau, z = mp.mpc(tau), mp.mpc(z)
        pair = _per_sum(_h_pair, tau, cfg)
        if not holomorphic_only:
            pair = [h + 2 * c for h, c in zip(pair, completion_pair(tau))]
        return _theta_decomposition(tau, z, pair)


def _completion_value(tau, z):
    """R'(tau, z) = 2 sum_mu c_mu(tau) theta_mu(tau, z), the nonholomorphic
    part of the completed function, with c_mu from `completion_pair`."""
    return _theta_decomposition(tau, z, [2 * c for c in completion_pair(tau)])


def period_value(tau, z, cfg: NumericConfig = DEFAULT_CONFIG):
    """P(tau, z) = 12 (R'|T - R')(tau, z) in closed form.

    The completed function phi = -E/12 + R' is invariant under T, so
    E|T - E = 12 (R'|T - R'), and the transformation law E|T - E = P gives
    P.  R' is evaluated with `_GUARD_DPS` extra digits; the value
    agrees with the quadrature `period_quadrature` at working precision."""
    _require_point(tau, z)
    with mp.workdps(cfg.dps + _GUARD_DPS):
        tau, z = mp.mpc(tau), mp.mpc(z)
        acted = slash(_completion_value, generator("T"), 2, 1)(tau, z)
        return 12 * (acted - _completion_value(tau, z))


# ---------------------------------------------------------------------------
# Verification checks


def _largest(values) -> float:
    """The largest value as a float, or nan if any value is nan: the builtin
    max keeps a nan only in first place, and a dropped nan would pass its
    gate.  Rounding to float is monotone, so finite values keep the bits of
    float(max(values))."""
    values = [float(v) for v in values]
    return math.nan if any(map(math.isnan, values)) else max(values)


def _worst(points, residual) -> float:
    """The largest |residual(tau, z)| over the points (`_largest`)."""
    return _largest(abs(residual(mp.mpc(pt.tau), mp.mpc(pt.z))) for pt in points)


def _defect(F, g, m=1):
    """F|g - F at weight 2 and index m."""
    acted = slash(F, g, 2, m)
    return lambda tau, z: acted(tau, z) - F(tau, z)


def _power_sum(F, g, order):
    """sum_{j < order} F|g^j at weight 2 and index 1, pairwise-reduced."""
    acted = [slash(F, power(g, j), 2, 1) for j in range(order)]
    return lambda tau, z: pairwise_sum(fn(tau, z) for fn in acted)


def check_transformation_law(cfg: NumericConfig = DEFAULT_CONFIG, points=DEFAULT_POINTS) -> dict:
    """| (E|T) - E - P | at the configured points."""
    with mp.workdps(cfg.dps), _memo_scope():
        defect = _defect(lambda tau, z: e21_value(tau, z, cfg), generator("T"))
        P = lambda tau, z: period_quadrature(tau, z, cfg)
        err = _worst(points, lambda tau, z: defect(tau, z) - P(tau, z))
        return {"check": "transformation_law", "max_abs_error": err, "points": len(points)}


def check_period_relations(cfg: NumericConfig = DEFAULT_CONFIG, points=DEFAULT_POINTS) -> dict:
    """|sum_{j<=3} P|T^j| and |sum_{j<=5} P|U^j| at the configured points."""
    with mp.workdps(cfg.dps), _memo_scope():
        P = lambda tau, z: period_quadrature(tau, z, cfg)
        err_T = _worst(points, _power_sum(P, generator("T"), 4))
        err_U = _worst(points, _power_sum(P, generator("U"), 6))
        return {"check": "period_relations", "points": len(points), "max_abs_error_T": err_T,
                "max_abs_error_U": err_U, "max_abs_error": _largest((err_T, err_U))}


def period_relation_negative_control(cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """The four-term sum applied to the constant 1 (not a period function)."""
    with mp.workdps(cfg.dps):
        return _worst(DEFAULT_POINTS[:1], _power_sum(lambda tau, z: mp.mpc(1), generator("T"), 4))


def check_tildeT_action(p: int = 2, cfg: NumericConfig = DEFAULT_CONFIG,
                        points=(EvalPoint(complex(0, 1), complex(0.1, 0.1)),
                                EvalPoint(complex(0, 1.5), 0j))) -> dict:
    """Relative error of p^(-2) P|tilde(p) against sigma_1(p) P at two points,
    for every level p >= 1 (sigma_1(p) = p + 1 at a prime).

    P is the closed form `period_value` = 12 (R'|T - R'), so the check asks
    that the completion R' be an eigenfunction of the transfer element
    modulo the relation ideal.  It cannot see P's normalization (a scaled
    completion passes); `period_value`'s comparison with `period_quadrature`
    pins that."""
    with mp.workdps(cfg.dps):
        P = lambda tau, z: period_value(tau, z, cfg)
        acted = slash_formal_sum(P, tilde_T(p), 2, 1)

        def rel_error(tau, z):
            ref = P(tau, z)
            return abs(acted(tau, z) / p**2 - sigma(p, 1) * ref) / abs(ref)

        return {"check": "transfer_action", "p": p, "points": len(points),
                "max_rel_error": _worst(points, rel_error)}


def check_theorem1(n: int, cfg: NumericConfig = DEFAULT_CONFIG,
                   points=(EvalPoint(complex(0, 1), complex(0.1, 0)),
                           EvalPoint(complex(0, 1.2), complex(0.05, 0)))) -> dict:
    """Index-raising transfer identity: the T-obstruction of E|V_n equals
    n^(k/2-1) (P composed with the dilation (tau, z) -> (tau, sqrt(n) z))
    slashed by tilde_V(n) at index m*n.

    The scaling element acts as the pure point substitution and the transfer
    slash carries the raised index; this reading is pinned numerically (the
    identity holds to working precision with it and fails by O(1) under the
    normalized-matrix or index-m readings).  At k = 2 the n^(k/2-1) prefactor
    is 1, so the k-dependence of the outer power is not testable here.

    The left side is `v_sum_value`, the slash sum of E by `hecke_hat_V(n)`
    evaluated through `e21_value`; P on the right is the closed form
    `period_value`, which reads none of E's class-number coefficients."""
    k = 2
    with mp.workdps(cfg.dps):
        defect = _defect(lambda tau, z: v_sum_value(n, EvalPoint(tau, z), cfg),
                         generator("T"), n)  # index m*n
        rhs = slash_formal_sum(lambda tau, z: period_value(tau, mp.sqrt(n) * z, cfg),
                               tilde_V(n), k, n)
        scale = mp.mpf(n) ** (mp.mpf(k) / 2 - 1)
        err = _worst(points, lambda tau, z: defect(tau, z) - scale * rhs(tau, z))
        return {"check": "index_raising_transfer", "n": n, "max_abs_error": err}


def check_phi_invariance(cfg: NumericConfig = DEFAULT_CONFIG,
                         points=(EvalPoint(complex(0, 1), complex(0.2, 0)),) + DEFAULT_POINTS[1:]
                         ) -> dict:
    """Invariance of the completed function under the inversion element, plus
    the manifest shear/translation invariances and the negative control with
    the completion dropped."""
    with mp.workdps(cfg.dps):
        phi = lambda tau, z: phi_value(tau, z, cfg)
        out = {"check": "completed_invariance"}
        for name in ("T", "S", "I1"):
            out[f"max_abs_error_{name}"] = _worst(points, _defect(phi, generator(name)))
        hol = lambda tau, z: phi_value(tau, z, cfg, holomorphic_only=True)
        out["holomorphic_only_T_defect"] = _worst(points[:1], _defect(hol, generator("T")))
        out["max_abs_error"] = _largest((out["max_abs_error_T"], out["max_abs_error_S"],
                                         out["max_abs_error_I1"]))
        return out


def check_extended_relation_readings(cfg: NumericConfig = DEFAULT_CONFIG, points=DEFAULT_POINTS) -> dict:
    """The extended relation P = P|g is evaluated for both candidate readings
    of the extra element, [-I, (1, 0)] and [I, (1, 0)]; both residuals are
    reported without choosing between them."""
    with mp.workdps(cfg.dps), _memo_scope():
        P = lambda tau, z: period_quadrature(tau, z, cfg)
        out = {"check": "extended_relation_readings"}
        for name, g in (("minus_I_shift", minus_identity_shift()), ("I2", generator("I2"))):
            out[f"max_abs_error_{name}"] = _worst(points, _defect(P, g))
        out["max_abs_error"] = _largest((out["max_abs_error_minus_I_shift"],
                                          out["max_abs_error_I2"]))
        return out


def check_cocycle(cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Cocycle identity j(g1 g2) = j(g1, g2 pt) j(g2, pt) for the factor that
    `slash` applies, on 100 seeded pairs of random integral and normalized
    determinant-ell elements, phases included.

    Elements of determinant ell > 1 compose inside the ambient triple group
    only after the 1/sqrt(ell) normalization, so the composite here is the
    exact composition law `compose` run on normalized floating triples."""
    import random as _random

    trials = 100
    rng = _random.Random(23)
    pts = [(mp.mpc(p.tau), mp.mpc(p.z)) for p in DEFAULT_POINTS]

    def rand_int_element():
        g = generator("E")
        for _ in range(rng.randint(1, 6)):
            g = compose(g, generator(rng.choice(["S", "T", "I1", "I2"])))
        return g

    def rand_det_ell_element():
        ell = rng.choice([1, 2, 3, 4])
        a = rng.choice([d for d in range(1, ell + 1) if ell % d == 0])
        return JacobiGroupElement.make(((a, rng.randint(-2, 2)), (0, ell // a)),
                                       (rng.randint(-2, 2), rng.randint(-2, 2)))

    with mp.workdps(cfg.dps):
        k = mp.mpf(2)
        errors = []
        for _ in range(trials):
            g1, g2 = rand_int_element(), rand_int_element()
            if rng.random() < 0.5:
                g2 = rand_det_ell_element()
            t1, t2 = _normalized(g1), _normalized(g2)
            g12 = compose(JacobiGroupElement(*t1), JacobiGroupElement(*t2))
            t12 = (g12.mat, g12.trans, g12.phase)
            for tau, z in pts:
                j2, tt, zz = _act(t2, k, 1, tau, z)
                lhs = _act(t1, k, 1, tt, zz)[0] * j2
                errors.append(abs(lhs - _act(t12, k, 1, tau, z)[0]))
        return {"check": "cocycle", "max_abs_error": _largest(errors), "trials": trials}


def check_beta(cfg: NumericConfig = DEFAULT_CONFIG, xs=(0.3, 1.0, 2.5)) -> dict:
    """Largest gap between beta's closed form and its quadrature, both at the
    configured precision."""
    with mp.workdps(cfg.dps):
        err = _largest(abs(beta_fn(x) - beta_fn_quadrature(x, cfg)) for x in xs)
        return {"check": "beta", "max_abs_error": err}


def check_eichler_integral(cfg: NumericConfig = DEFAULT_CONFIG,
                           taus=(1j, 2j, complex(0.5, 1.3))) -> dict:
    """Largest gap between the two sides of `eichler_theta_integrals` over
    mu in {0, 1} and the given tau, in one memo scope: one walk per tau."""
    with _memo_scope():
        err = _largest(abs(series - integral) for tau in taus
                       for series, integral in zip(*eichler_theta_integrals(tau, cfg)))
    return {"check": "eichler_integral", "max_abs_error": err}


def hecke_slash_sum_value(n: int, point: EvalPoint, cfg: NumericConfig = DEFAULT_CONFIG):
    """Direct evaluation of the index-preserving Hecke sum on the weight-2
    index-1 expansion: n^(k-4) times the slash of the series by `hecke_hat(n)`
    (the numeric side of the oracle pair)."""
    k = 2
    with mp.workdps(cfg.dps):
        f = lambda tau, z: e21_value(tau, z, cfg)
        acted = slash_formal_sum(f, hecke_hat(n), k, 1)
        return mp.mpf(n) ** (k - 4) * acted(point.tau, point.z)


def v_sum_value(n: int, point: EvalPoint, cfg: NumericConfig = DEFAULT_CONFIG):
    """Direct evaluation of the index-raising Hecke sum on the weight-2
    index-1 series: n^(k-1) sum d^(-k) E((a tau + b)/d, a z) over the
    matrices [[a, b], [0, d]] of `hecke_hat_V(n)` (the numeric side of the
    oracle pair with `fourier.apply_V`)."""
    k = 2
    with mp.workdps(cfg.dps):
        tau, z = mp.mpc(point.tau), mp.mpc(point.z)
        parts = []
        for e, c in hecke_hat_V(n).sorted_terms():
            a, b, _, d = e.mat
            parts.append(c * mp.mpf(d) ** (-k) * e21_value((a * tau + b) / d, a * z, cfg))
        return mp.mpf(n) ** (k - 1) * pairwise_sum(parts)


class Check(NamedTuple):
    """`run(cfg, level)` returns the report, which `passed` judges; `level`
    is the transfer check's level (None: 2) and theorem1's n."""
    run: Callable
    key: str
    gate: float

    def passed(self, report) -> bool:
        """report[key] < gate, the one pass rule: a nan residual fails."""
        return report[self.key] < self.gate


# The floating checks of `verify numeric` (in suite order) and `verify theorem1`.
CHECKS = {
    "translaw": Check(lambda cfg, _: check_transformation_law(cfg), "max_abs_error", 1e-6),
    "relations": Check(lambda cfg, _: check_period_relations(cfg), "max_abs_error", 1e-6),
    "transfer": Check(lambda cfg, p: check_tildeT_action(2 if p is None else p, cfg),
                      "max_rel_error", 1e-4),
    "beta": Check(lambda cfg, _: check_beta(cfg), "max_abs_error", 1e-10),
    "eichler": Check(lambda cfg, _: check_eichler_integral(cfg), "max_abs_error", 1e-8),
    "phi": Check(lambda cfg, _: check_phi_invariance(cfg), "max_abs_error", 1e-6),
    "extended": Check(lambda cfg, _: check_extended_relation_readings(cfg),
                      "max_abs_error", 1e-6),
    "cocycle": Check(lambda cfg, _: check_cocycle(cfg), "max_abs_error", 1e-10),
    "theorem1": Check(lambda cfg, n: check_theorem1(n, cfg), "max_abs_error", 1e-5),
}
