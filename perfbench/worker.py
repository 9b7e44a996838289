"""One cold run of one workload, in its own interpreter.

Started by run.py with the package's `src` directory on PYTHONPATH.  It
imports the layers, builds the seeded inputs, notes the moment it is ready
for its first task, runs the tasks (traced or not) and prints one JSON
object on its last stdout line.

    python3 perfbench/worker.py --workload period --seed 1302 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads


def peak_rss_mb() -> float:
    """The peak resident set of this process, from VmHWM.

    Not ru_maxrss: on Linux that carries over the peak of the spawning
    process across exec, so it would also measure run.py."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once ready for the first task")
    parser.add_argument("--spans", help="write the traced run's spans to this file")
    args = parser.parse_args(argv)

    ctx = workloads.prepare(args.workload, args.seed)
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time.
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out: dict = {"ready": ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from layertrace import Tracer

            tracer = Tracer().install()
        try:
            out["tasks"] = workloads.run_tasks(args.workload, ctx, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            out["layers"] = tracer.metrics()
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump(tracer.spans, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
