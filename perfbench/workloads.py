"""The benchmark's workloads: seeded inputs, tasks in a fixed order, and the
check and gate that each task's output must pass.

Point generation lives here and only here; the library receives nothing but
`EvalPoint`s.  Every task calls public functions of the package through
their module attribute (`numeric.check_transformation_law`, ...), so the
traced run sees each call at the layer boundary.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

DEFAULT_SEED = 1302
HELD_OUT_SEED = 2189   # kept out of tuning; a claimed gain must also hold here

# The operating region of the numeric tests.
TAU_RE, TAU_IM = (-0.5, 0.5), (1.0, 2.0)
Z_RE, Z_IM = (-0.5, 0.5), (-0.2, 0.2)
# check_theorem1 at the default qmax cannot certify its series tail for
# |Re z| near 1/2 (it raises PrecisionError, e.g. at tau = 0.39+1.84i,
# z = 0.46-0.04i), so its points keep |Re z| <= 1/4; all corners of that
# region pass for n = 2 and 3.
THEOREM1_Z_RE = (-0.25, 0.25)

# The gates the CLI and the acceptance tests apply to the same checks.
GATES = {"translaw": 1e-6, "relations": 1e-6, "transfer": 1e-4, "theorem1": 1e-5,
         "hecke_oracle": 1e-6, "v_oracle": 1e-6}

CLASSNUM_MAX = 50_000
EIGEN_PRIMES, EIGEN_QBOUND = (2, 3, 5), 15
DIAGRAM_PAIRS, DIAGRAM_QBOUND = ((2, -3), (2, -4), (3, -3), (3, -4)), 12
CONGRUENCE_LEVELS = (6, 8, 10)
HECKE_INPUT, V_INPUT, V_LEVELS = 100, 160, (2, 3)

WORKLOADS = {
    "exact": ("classnum", "eigen", "diagram", "groupring"),
    "period": ("translaw", "relations", "transfer", "theorem1"),
    "series": ("hecke_exact", "hecke_slash", "v_exact", "v_direct"),
}
NUMERIC_WORKLOADS = ("period", "series")


@dataclass
class Check:
    """One verified output: exact checks carry only `ok`; numeric checks
    also carry the residual and the gate it must stay below."""

    label: str
    ok: bool
    residual: float | None = None
    gate: float | None = None

    @property
    def margin_decades(self) -> float | None:
        """log10(gate / residual); a zero residual is floored at 1e-300."""
        if self.gate is None:
            return None
        return math.log10(self.gate / max(self.residual, 1e-300))


def gated(label: str, residual, gate: float) -> Check:
    residual = float(residual)
    return Check(label, residual < gate, residual, gate)


@dataclass
class Context:
    """What a task may use: the package modules, the config and the points."""

    jp: object
    numeric: object = None
    cfg: object = None
    points: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)   # values handed from one task to the next


def draw_points(seed: int, task: str, count: int) -> list[tuple[complex, complex]]:
    """`count` (tau, z) pairs on the task's region, from a stream that depends
    only on the seed and the task name.

    Latin hypercube sampling: each coordinate's range is cut into `count`
    equal strata and every stratum holds one point, uniform inside it.  Each
    point is uniform on the region, and every seed's set spans all of it, so
    the cost of a task varies less from seed to seed than with independent
    draws."""
    rng = random.Random(f"{seed}:{task}")
    ranges = (TAU_RE, TAU_IM, THEOREM1_Z_RE if task == "theorem1" else Z_RE, Z_IM)
    columns = []
    for lo, hi in ranges:
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([lo + (hi - lo) * (k + rng.random()) / count for k in strata])
    return [(complex(a, b), complex(c, d)) for a, b, c, d in zip(*columns)]


POINT_COUNTS = {"translaw": 3, "relations": 3, "transfer": 2, "theorem1": 2,
                "hecke_oracle": 1, "v_oracle": 2}


def prepare(workload: str, seed: int) -> Context:
    """Import the layers the workload needs and build its inputs.

    The exact workload never imports `numeric`, so mpmath stays unloaded."""
    import jacobi_periods

    ctx = Context(jp=jacobi_periods)
    if workload not in NUMERIC_WORKLOADS:
        return ctx
    from jacobi_periods import numeric
    import mpmath

    ctx.numeric, ctx.cfg = numeric, numeric.NumericConfig()
    tasks = ("translaw", "relations", "transfer", "theorem1") if workload == "period" \
        else ("hecke_oracle", "v_oracle")
    for task in tasks:
        pts = draw_points(seed, task, POINT_COUNTS[task])
        if task == "v_oracle":
            # mpc coordinates, so the benchmark's own arithmetic on the point
            # adds no rounding to a complex
            ctx.points[task] = [numeric.EvalPoint(mpmath.mpc(t), mpmath.mpc(z)) for t, z in pts]
        else:
            ctx.points[task] = [numeric.EvalPoint(t, z) for t, z in pts]
    return ctx


# -- exact ---------------------------------------------------------------------


def task_classnum(ctx: Context) -> list[Check]:
    """Cold class-number table, checked against H(0), H(3), H(4) and the
    T(p^2) relation H(Np^2) + (-N/p) H(N) + p H(N/p^2) = (p+1) H(N)."""
    arith = ctx.jp.arith
    H = arith.ClassNumberTable.build(CLASSNUM_MAX).values
    checks = [Check("anchors", (H[0], H[3], H[4]) == (Fraction(-1, 12), Fraction(1, 3),
                                                      Fraction(1, 2)))]
    for p in (2, 3, 5, 7):
        ok = True
        for n in range(CLASSNUM_MAX // (p * p) + 1):
            if n % 4 in (1, 2):
                continue
            lhs = H[n * p * p] + arith.kronecker(-n, p) * H[n]
            if n % (p * p) == 0:
                lhs += p * H[n // (p * p)]
            ok = ok and lhs == (p + 1) * H[n]
        checks.append(Check(f"T({p}^2)", ok))
    return checks


def _tj_input_bound(p: int, qbound: int) -> int:
    """The input length `verify eigen` builds for the prime p: one more than
    the largest exponent a complete output coefficient below qbound reads."""
    top = qbound - 1
    return p * p * (top + isqrt(4 * top) * (p - 1) + (p - 1) ** 2) + 1


def task_eigen(ctx: Context) -> list[Check]:
    """`verify eigen` default: E|T_p = (p+1) E exactly below q^15."""
    fourier = ctx.jp.fourier
    checks = []
    for p in EIGEN_PRIMES:
        f = fourier.e21_expansion(_tj_input_bound(p, EIGEN_QBOUND))
        out = fourier.apply_T_jacobi(f, p)
        checks.append(Check(f"p{p}", out.equal_below(f.scaled_by(p + 1), EIGEN_QBOUND)))
    return checks


def task_diagram(ctx: Context) -> list[Check]:
    """`verify diagram` default: the lifting square commutes exactly."""
    return [Check(f"p{p}_D{d}", ctx.jp.fourier.diagram_check(p, d, DIAGRAM_QBOUND)["ok"] is True)
            for p, d in DIAGRAM_PAIRS]


def task_groupring(ctx: Context) -> list[Check]:
    """The congruences for n = 6, 8, 10, and the literal product formula,
    which fails by design while its defect lies in the transfer kernel."""
    group_ring = ctx.jp.group_ring
    checks = [Check(f"n{n}", group_ring.check_theorem_congruence(n)["ok"] is True)
              for n in CONGRUENCE_LEVELS]
    rep = group_ring.check_product_formula(2, 3, 2)
    checks.append(Check("product_2_3", rep["ok"] is False
                        and rep["defect_in_transfer_ambiguity"] is True))
    return checks


# -- period --------------------------------------------------------------------


def task_translaw(ctx: Context) -> list[Check]:
    rep = ctx.numeric.check_transformation_law(ctx.cfg, ctx.points["translaw"])
    return [gated("translaw", rep["max_abs_error"], GATES["translaw"])]


def task_relations(ctx: Context) -> list[Check]:
    rep = ctx.numeric.check_period_relations(ctx.cfg, ctx.points["relations"])
    return [gated("relations", rep["max_abs_error"], GATES["relations"])]


def task_transfer(ctx: Context) -> list[Check]:
    rep = ctx.numeric.check_tildeT_action(2, ctx.cfg, ctx.points["transfer"])
    return [gated("transfer_p2", rep["max_rel_error"], GATES["transfer"])]


def task_theorem1(ctx: Context) -> list[Check]:
    return [gated(f"theorem1_n{n}",
                  ctx.numeric.check_theorem1(n, ctx.cfg, ctx.points["theorem1"])["max_abs_error"],
                  GATES["theorem1"])
            for n in (2, 3)]


# -- series --------------------------------------------------------------------
# Each oracle pair is timed side by side: the exact Fourier side and the
# evaluation side move with different optimisations.


def task_hecke_exact(ctx: Context) -> list[Check]:
    """Exact side of the T_2 pair: apply_T_jacobi, then one series evaluation."""
    fourier, numeric = ctx.jp.fourier, ctx.numeric
    image = fourier.apply_T_jacobi(fourier.e21_expansion(HECKE_INPUT), 2)
    ctx.state["hecke"] = [numeric.eval_expansion(image, pt, ctx.cfg)[0]
                          for pt in ctx.points["hecke_oracle"]]
    return []


def task_hecke_slash(ctx: Context) -> list[Check]:
    """Slash-sum side of the T_2 pair, against the exact side."""
    numeric = ctx.numeric
    exact = ctx.state["hecke"]
    return [gated("hecke_oracle", abs(numeric.hecke_slash_sum_value(2, pt, ctx.cfg) - want),
                  GATES["hecke_oracle"])
            for pt, want in zip(ctx.points["hecke_oracle"], exact)]


def task_v_exact(ctx: Context) -> list[Check]:
    """Exact side of the V_l pairs: apply_V, then large-series evaluations."""
    fourier, numeric = ctx.jp.fourier, ctx.numeric
    source = fourier.e21_expansion(V_INPUT)
    values = {}
    for ell in V_LEVELS:
        image = fourier.apply_V(source, ell)
        for i, pt in enumerate(ctx.points["v_oracle"]):
            values[ell, i] = numeric.eval_expansion(image, pt, ctx.cfg)[0]
    ctx.state["v"] = values
    return []


def task_v_direct(ctx: Context) -> list[Check]:
    """Direct side: l^(k-1) sum_{ad=l, b mod d} d^(-k) E((a tau + b)/d, a z)."""
    import mpmath as mp

    fourier, numeric, cfg = ctx.jp.fourier, ctx.numeric, ctx.cfg
    exact, k = ctx.state["v"], 2
    e21 = fourier.e21_expansion(cfg.qmax)
    checks = []
    with mp.workdps(cfg.dps):
        for ell in V_LEVELS:
            for i, pt in enumerate(ctx.points["v_oracle"]):
                parts = []
                for a in (a for a in range(1, ell + 1) if ell % a == 0):
                    d = ell // a
                    for b in range(d):
                        image = numeric.EvalPoint((a * pt.tau + b) / d, a * pt.z)
                        parts.append(mp.mpf(d) ** -k * numeric.eval_expansion(e21, image, cfg)[0])
                direct = mp.mpf(ell) ** (k - 1) * mp.fsum(parts)
                checks.append(gated(f"v{ell}_pt{i}", abs(direct - exact[ell, i]),
                                    GATES["v_oracle"]))
    return checks


TASKS = {name[len("task_"):]: fn for name, fn in list(globals().items())
         if name.startswith("task_")}


def run_tasks(workload: str, ctx: Context, tracer=None) -> list[dict]:
    """Run the workload's tasks in order; a task fails when it raises or a
    check misses its gate or returns a wrong exact result."""
    results = []
    for name in WORKLOADS[workload]:
        fn = TASKS[name]
        error, checks = None, []
        t0 = time.perf_counter()
        try:
            checks = tracer.run(f"bench.{name}", fn, ctx) if tracer else fn(ctx)
        except Exception as exc:  # a failed task is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        margins = [c.margin_decades for c in checks if c.gate is not None]
        results.append({
            "task": name, "seconds": seconds,
            "ok": error is None and all(c.ok for c in checks), "error": error,
            "checks": [{"label": c.label, "ok": c.ok, "residual": c.residual, "gate": c.gate}
                       for c in checks],
            "margin_decades": min(margins) if margins else None,
        })
    return results
