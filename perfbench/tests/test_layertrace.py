"""The traced run's wrappers are transparent, and an untraced run has none.

    python3 -m pytest perfbench/tests
"""

import inspect
import json
import sys

import mpmath
import pytest

import worker
import workloads
from jacobi_periods import arith, fourier, group_ring, jacobi_group, numeric
from jacobi_periods.errors import PrecisionError
from layertrace import LAYERS, PER_LAYER, Tracer


def bindings():
    """Every function the package binds, and mpmath.quad, by where it is bound."""
    out = {("mpmath", "quad"): mpmath.quad}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("jacobi_periods") or mod is None:
            continue
        for attr, value in vars(mod).items():
            if callable(value):
                out[name, attr] = value
            if inspect.isclass(value) and value.__module__ == name:
                for meth, raw in vars(value).items():
                    if callable(raw) or isinstance(raw, classmethod):
                        out[name, attr, meth] = raw
    return out


def test_wrapper_returns_the_same_object():
    tracer = Tracer()
    marker = object()
    traced = tracer.wrap("fourier", "fourier.f", lambda x, *, y: (x, y, marker))
    assert traced(1, y=2) == (1, 2, marker)
    assert tracer.calls["fourier.f"] == 1 and tracer.spans[0][0] == "fourier.f"


def test_wrapper_reraises_the_same_exception_and_counts_it_once():
    tracer = Tracer()
    err = PrecisionError("tail bound")

    def fail():
        raise err

    inner = tracer.wrap("numeric", "numeric.inner", fail)
    outer = tracer.wrap("numeric", "numeric.outer", inner)
    with pytest.raises(PrecisionError) as caught:
        outer()
    assert caught.value is err
    assert tracer.counts["precision_errors"] == 1
    assert len(tracer.spans) == 2 and tracer.stack == [[tracer.stack[0][0], -1]]


def test_installed_wrappers_are_transparent_and_uninstall_restores():
    before = bindings()
    pt = numeric.EvalPoint(complex(0.1, 1.2), complex(0.05, 0.1))
    cfg = numeric.NumericConfig()
    f = fourier.e21_expansion(12)
    want = (arith.hurwitz(1000), f.coeffs, numeric.eval_expansion(f, pt, cfg),
            numeric.slash(lambda t, z: t * z, jacobi_group.generator("T"), 2, 1)(pt.tau, pt.z),
            len(group_ring.tilde_T(2)), fourier.apply_T_jacobi(f, 2).coeffs)
    tracer = Tracer().install()
    try:
        assert numeric.e21_expansion is not before["jacobi_periods.numeric", "e21_expansion"]
        assert fourier.hurwitz is not before["jacobi_periods.fourier", "hurwitz"]
        f = fourier.e21_expansion(12)
        got = (arith.hurwitz(1000), f.coeffs, numeric.eval_expansion(f, pt, cfg),
               numeric.slash(lambda t, z: t * z, jacobi_group.generator("T"), 2, 1)(pt.tau, pt.z),
               len(group_ring.tilde_T(2)), fourier.apply_T_jacobi(f, 2).coeffs)
    finally:
        tracer.uninstall()
    assert got == want
    assert bindings() == before
    m = tracer.metrics()
    assert set(m) == set(PER_LAYER)
    assert m["numeric.series_evals"] == 1 and m["numeric.slash_evals"] == 1
    assert m["arith.hurwitz_max_n"] >= 1000 and m["group_ring.sum_terms"] == want[4]


def test_layer_self_times_add_up_to_the_task_time():
    tracer = Tracer().install()
    try:
        def task():
            f = fourier.e21_expansion(20)
            return numeric.eval_expansion(f, numeric.EvalPoint(1j, 0.1j))

        tracer.run("bench.task", task)
    finally:
        tracer.uninstall()
    root = tracer.spans[0]
    assert root[0] == "bench.task" and root[1] == -1
    total = sum(tracer.self_s[layer] for layer in LAYERS + ("bench",))
    assert total == pytest.approx(root[3] - root[2], rel=1e-9, abs=1e-9)
    assert tracer.self_s["arith"] > 0 and tracer.self_s["numeric"] > 0


def run_worker(monkeypatch, capsys, *flags):
    """worker.main on a one-task probe workload; returns whether the bindings
    the probe saw were the untraced ones, and the worker's JSON output."""
    before = bindings()
    seen = []

    def probe(ctx):
        seen.append(bindings() == before)
        return [workloads.Check("probe", True)]

    monkeypatch.setitem(workloads.TASKS, "probe", probe)
    monkeypatch.setitem(workloads.WORKLOADS, "probe", ("probe",))
    assert worker.main(["--workload", "probe", "--seed", "1", *flags]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["tasks"][0]["ok"] and bindings() == before
    return seen, out


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    seen, out = run_worker(monkeypatch, capsys)
    assert seen == [True] and "layers" not in out


def test_traced_run_is_seen_by_the_probe(monkeypatch, capsys):
    """The control: the same probe does see the wrappers of a traced run."""
    seen, out = run_worker(monkeypatch, capsys, "--trace")
    assert seen == [False] and set(out["layers"]) == set(PER_LAYER)
