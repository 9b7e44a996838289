"""Benchmark of jacobi-periods: one command, every metric by name and unit.

    python3 perfbench/run.py --workload exact|period|series --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source checkout; nothing is installed or built.
Each pass of a workload is a fresh interpreter (worker.py), one at a time,
that starts cold like a command-line user and runs the workload's tasks in
a fixed order.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json as medians over passes; with --trace 1 it makes one untraced
and one traced pass at the same seed and reports the per-layer metrics.  The
last stdout line is the JSON result; the line before it holds the per-task
detail, the residual margins and the machine record.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 7        # set-up-only spawns per run, besides the passes
RUN_LIMIT_S = 170.0      # every child is killed past this, from the run's start

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Start worker.py, wait for it, and return its JSON result with
    `spawned` (the spawn moment on the worker's clock) added."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    spawned = clock()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} passed the time limit and was stopped")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawned"] = spawned
    return result


def source_digest() -> str:
    """Short SHA-256 of the package and the benchmark source, to tell the
    versions that produced two results apart."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "jacobi_periods").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_record(seed: int) -> dict:
    """nproc, Python, mpmath and its backend, dps, seed and source version."""
    sys.path.insert(0, str(SRC))
    import mpmath
    from jacobi_periods.numeric import NumericConfig

    try:  # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "dps": NumericConfig().dps, "seed": seed,
        "git_commit": commit or "unknown", "source_sha256": source_digest(),
    }


def task_table(passes: list[dict]) -> dict:
    """Per task: median seconds, failures, and the smallest margin."""
    table = {}
    for i, first in enumerate(passes[0]["tasks"]):
        runs = [p["tasks"][i] for p in passes]
        margins = [r["margin_decades"] for r in runs if r["margin_decades"] is not None]
        table[first["task"]] = {
            "seconds": statistics.median(r["seconds"] for r in runs),
            "failed": sum(not r["ok"] for r in runs),
            "errors": sorted({r["error"] for r in runs if r["error"]}),
            "margin_decades": min(margins) if margins else None,
            "checks": first["checks"],
        }
    return table


def pass_wall(p: dict) -> float:
    return sum(t["seconds"] for t in p["tasks"])


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    """Untraced run: set-up samples, then passes until `seconds` are used."""
    start = clock()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
    passes, durations = [], []
    while True:
        t0 = clock()
        passes.append(spawn(base, deadline))
        durations.append(clock() - t0)
        if clock() - start + statistics.median(durations) > seconds:
            break
    return {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "setup_s": statistics.median(r["ready"] - r["spawned"] for r in setups + passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, passes


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[dict, list, list]:
    """One untraced pass, then one traced pass, at the same seed and with the
    same code; `trace.overhead_s` is the difference of their wall times."""
    OUT.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]
    untraced = spawn(base, deadline)
    traced = spawn(base + ["--trace", "--spans", str(OUT / f"spans-{workload}-seed{seed}.json")],
                   deadline)
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = pass_wall(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - pass_wall(untraced)
    return metrics, [untraced], [traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="passes are repeated while this budget lasts (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = clock() + RUN_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "jacobi_periods" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no package source under {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    traced: list[dict] = []
    try:
        if args.trace:
            values, passes, traced = measure_traced(args.workload, args.seed, deadline)
        else:
            values, passes = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1

    # Every pass is verified, the traced one too; its times are kept apart.
    tasks = [t for p in passes + traced for t in p["tasks"]]
    failed = sum(not t["ok"] for t in tasks)
    table = task_table(passes)
    margins = [t["margin_decades"] for t in table.values() if t["margin_decades"] is not None]
    detail = {
        "workload": args.workload, "trace": args.trace, "passes": len(passes),
        "tasks": table, "failed_ratio": failed / len(tasks),
        "min_margin_decades": min(margins) if margins else None,
        "machine": machine_record(args.seed),
    }
    if traced:
        detail["traced_tasks"] = task_table(traced)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": values, "passes": passes, "traced": traced},
                   indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(tasks), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
