"""Layer tracing for the traced benchmark run.

The tracer wraps the public functions of each package module (the layers
`arith`, `fourier`, `group_ring`, `jacobi_group`, `numeric`), `mpmath.quad`
as the numeric kernel boundary, and the closures that `numeric.slash` and
`numeric.slash_formal_sum` return.  A wrapper replaces the function under
every name that bound it, in every module of the package, so calls between
layers and inside a layer go through it.  Nothing inside the package is
edited; an untraced run imports this module but installs nothing.

Every wrapped call pushes a frame on one stack.  When it returns, its
duration is added to the caller's child time, and its own time minus its
child time to its layer's self time.  The benchmark's task body is the
root frame of layer `bench`, so the self times of all layers, `bench`
included, add up to the traced task time exactly.  Low-rate calls are
also kept as spans (name, parent, start, end) in memory; high-rate calls
are only counted and timed.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("arith", "fourier", "group_ring", "jacobi_group", "numeric")

# Called often enough that one span per call would cost more than the call.
AGGREGATED = {
    "arith": "*",
    "jacobi_group": "*",
    "group_ring": {"canonicalize", "unit", "group_to_ring"},
    "numeric": {"pairwise_sum", "beta_fn", "slash_ring_term"},
    "fourier": set(),
}

# Public methods wrapped besides the module-level functions: the ones the
# benchmark or another layer calls.
METHODS = {
    "arith": {"ClassNumberTable": ("build",)},
    "fourier": {"JacobiExpansion": ("equal_below", "scaled_by"),
                "QSeries": ("equal_below",)},
    "jacobi_group": {"JacobiGroupElement": ("make",)},
    "numeric": {"PeriodEvaluator": ("__call__", "component_integral")},
}

SERIES_BUILDERS = {"theta", "h_mu_series", "h32_series", "e2_series", "e21_expansion"}
HECKE_OPERATORS = {"apply_V", "apply_T_jacobi", "apply_T_half", "apply_T_weight2"}
SUM_BUILDERS = {"hecke_hat", "tilde_T", "tilde_V", "ring_multiply"}

PER_LAYER = (
    "arith.self_s", "arith.hurwitz_calls", "arith.hurwitz_max_n",
    "fourier.self_s", "fourier.terms_built", "fourier.hecke_terms_in",
    "fourier.hecke_terms_out", "fourier.hecke_yield",
    "group_ring.self_s", "group_ring.sum_terms", "group_ring.reduced_terms",
    "group_ring.orbits_left",
    "jacobi_group.self_s", "jacobi_group.calls",
    "numeric.self_s", "numeric.series_evals", "numeric.series_terms", "numeric.series_s",
    "numeric.series_terms_per_s", "numeric.period_evals", "numeric.period_s",
    "numeric.component_calls", "numeric.component_hit_ratio", "numeric.quad_calls",
    "numeric.quad_s", "numeric.slash_evals", "numeric.theta_evals",
    "numeric.precision_errors",
    "bench.self_s",
)


class Tracer:
    """Spans, counters and per-layer self time of one traced run."""

    def __init__(self):
        self.spans: list = []            # (name, parent index or -1, start, end)
        self.stack = [[0.0, -1]]         # frames: [child seconds, enclosing span index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list = []         # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, *, span=True, observe=None):
        """Return a transparent wrapper of `fn` that books its time to `layer`.

        `observe(tracer, args, kwargs, result, seconds)` runs after a normal
        return and returns the value handed to the caller (the result itself,
        or a wrapped closure)."""
        stack, spans, self_s = self.stack, self.spans, self.self_s
        calls, inclusive, clock = self.calls, self.inclusive_s, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                index = len(spans)
                spans.append(None)
                frame = [0.0, index]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                parent[0] += elapsed
                self_s[layer] += elapsed - frame[0]
                calls[name] += 1
                inclusive[name] += elapsed
                if span:
                    spans[index] = (name, parent[1], t0, t1)
            if observe is not None:
                return observe(self, args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = fn
        traced.traced_layer = layer
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_error(self, exc: BaseException) -> None:
        if type(exc).__name__ == "PrecisionError" and not getattr(exc, "_traced", False):
            self.counts["precision_errors"] += 1
            try:
                exc._traced = True
            except AttributeError:
                pass

    def run(self, name: str, fn, *args):
        """Run `fn(*args)` as a root frame of layer `bench` (one task body)."""
        return self.wrap("bench", name, fn)(*args)

    # -- installing ---------------------------------------------------------

    def install(self, package_name: str = "jacobi_periods") -> "Tracer":
        """Wrap every layer function under every name that bound it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package_name or n.startswith(package_name + "."))]
        for layer in LAYERS:
            module = sys.modules.get(f"{package_name}.{layer}")
            if module is None:
                continue
            aggregated = AGGREGATED[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                span = not (aggregated == "*" or attr in aggregated)
                wrapped = self.wrap(layer, f"{layer}.{attr}", obj, span=span,
                                    observe=_observer(layer, attr))
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is obj:
                            self._patch(mod, bound, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods if cls is not None else ():
                    self._wrap_method(layer, cls, meth, span=aggregated != "*")
        mpmath = sys.modules.get("mpmath")  # the exact workload never imports it
        if mpmath is not None:
            self._patch(mpmath, "quad", self.wrap("numeric", "numeric.quad", mpmath.quad))
        return self

    def _wrap_method(self, layer, cls, meth, span):
        raw = vars(cls).get(meth)
        if raw is None:
            return
        name = f"{layer}.{cls.__name__}.{meth}"
        observe = _observer(layer, f"{cls.__name__}.{meth}")
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(layer, name, raw.__func__, span=span, observe=observe))
        else:
            wrapped = self.wrap(layer, name, raw, span=span, observe=observe)
        self._patch(cls, meth, wrapped)

    def _patch(self, owner, attr, value):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER, from what the run recorded."""
        c, calls, incl = self.counts, self.calls, self.inclusive_s
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS + ("bench",)}
        out["arith.hurwitz_calls"] = calls.get("arith.hurwitz", 0)
        out["arith.hurwitz_max_n"] = c.get("hurwitz_max_n", 0)
        out["fourier.terms_built"] = c.get("terms_built", 0)
        out["fourier.hecke_terms_in"] = c.get("hecke_terms_in", 0)
        out["fourier.hecke_terms_out"] = c.get("hecke_terms_out", 0)
        out["fourier.hecke_yield"] = _ratio(c.get("hecke_terms_out", 0), c.get("hecke_terms_in", 0))
        out["group_ring.sum_terms"] = c.get("sum_terms", 0)
        out["group_ring.reduced_terms"] = c.get("reduced_terms", 0)
        out["group_ring.orbits_left"] = c.get("orbits_left", 0)
        out["jacobi_group.calls"] = sum(v for k, v in calls.items() if k.startswith("jacobi_group."))
        out["numeric.series_evals"] = calls.get("numeric.eval_expansion", 0)
        out["numeric.series_terms"] = c.get("series_terms", 0)
        out["numeric.series_s"] = incl.get("numeric.eval_expansion", 0.0)
        out["numeric.series_terms_per_s"] = _ratio(out["numeric.series_terms"], out["numeric.series_s"])
        out["numeric.period_evals"] = calls.get("numeric.PeriodEvaluator.__call__", 0)
        out["numeric.period_s"] = incl.get("numeric.PeriodEvaluator.__call__", 0.0)
        components = calls.get("numeric.PeriodEvaluator.component_integral", 0)
        out["numeric.component_calls"] = components
        out["numeric.component_hit_ratio"] = _ratio(self._component_hits(), components)
        out["numeric.quad_calls"] = calls.get("numeric.quad", 0)
        out["numeric.quad_s"] = incl.get("numeric.quad", 0.0)
        out["numeric.slash_evals"] = calls.get("numeric.slash.eval", 0)
        out["numeric.theta_evals"] = calls.get("numeric.theta_value", 0)
        out["numeric.precision_errors"] = c.get("precision_errors", 0)
        return {k: out[k] for k in PER_LAYER}

    def _component_hits(self) -> int:
        """Component integrals that made no quadrature call: cache hits."""
        quad_parents = {s[1] for s in self.spans if s is not None and s[0] == "numeric.quad"}
        return sum(1 for i, s in enumerate(self.spans)
                   if s is not None and s[0] == "numeric.PeriodEvaluator.component_integral"
                   and i not in quad_parents)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- counters taken at the layer boundaries ------------------------------------


def _count_hurwitz(tracer, args, kwargs, result, seconds):
    n = args[0] if args else kwargs["n"]
    if n > tracer.counts["hurwitz_max_n"]:
        tracer.counts["hurwitz_max_n"] = n
    return result


def _count_built(tracer, args, kwargs, result, seconds):
    tracer.counts["terms_built"] += len(result.coeffs)
    return result


def _count_hecke(tracer, args, kwargs, result, seconds):
    source = args[0] if args else next(iter(kwargs.values()))
    tracer.counts["hecke_terms_in"] += len(source.coeffs)
    tracer.counts["hecke_terms_out"] += len(result.coeffs)
    return result


def _count_sum(tracer, args, kwargs, result, seconds):
    tracer.counts["sum_terms"] += len(result)
    return result


def _count_reduction(tracer, args, kwargs, result, seconds):
    source = args[0] if args else kwargs["f"]
    tracer.counts["reduced_terms"] += len(source)
    tracer.counts["orbits_left"] += len(result)
    return result


def _count_series(tracer, args, kwargs, result, seconds):
    source = args[0] if args else kwargs["f"]
    tracer.counts["series_terms"] += len(source.coeffs)
    return result


def _wrap_slash_closure(tracer, args, kwargs, result, seconds):
    return tracer.wrap("numeric", "numeric.slash.eval", result)


def _wrap_sum_closure(tracer, args, kwargs, result, seconds):
    return tracer.wrap("numeric", "numeric.slash_formal_sum.eval", result)


def _observer(layer: str, attr: str):
    if layer == "arith" and attr == "hurwitz":
        return _count_hurwitz
    if layer == "fourier" and attr in SERIES_BUILDERS:
        return _count_built
    if layer == "fourier" and attr in HECKE_OPERATORS:
        return _count_hecke
    if layer == "group_ring" and attr in SUM_BUILDERS:
        return _count_sum
    if layer == "group_ring" and attr == "reduce_mod_ideal":
        return _count_reduction
    if layer == "numeric" and attr == "eval_expansion":
        return _count_series
    if layer == "numeric" and attr == "slash":
        return _wrap_slash_closure
    if layer == "numeric" and attr == "slash_formal_sum":
        return _wrap_sum_closure
    return None
