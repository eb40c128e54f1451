"""One round of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
        [--trace 0|1] [--setup-only]

``--spawned`` is the wall-clock time at which the parent started this
process; set-up time runs from it to the first timed call.  Prints one
JSON object: set-up and wall time, peak resident size, operations
attempted and failed with the reasons, the accuracy figures and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import instrument  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ACCURACY_METRICS, WORKLOADS  # noqa: E402


def run_round(workload, seed, spawned, trace, setup_only, workdir):
    tracer = Tracer()
    if trace:
        instrument.install(tracer)
    else:
        instrument.count_rejections(tracer)
    rejected = lambda: tracer.counts["net.adam_rejected"]  # noqa: E731
    shutil.rmtree(workdir, ignore_errors=True)
    work = WORKLOADS[workload](seed, workdir)
    ops = work.ops()
    setup_s = time.time() - spawned
    if setup_only:
        return {"setup_s": setup_s}

    fails = {name: [] for name, _, _ in ops}
    t0 = time.perf_counter()
    for k, (name, span, fn) in enumerate(ops):
        before = rejected()
        try:
            if trace and span is not None:
                tracer.call(span, fn)
            else:
                fn()
        except Exception:
            fails[name].append(traceback.format_exc(limit=3))
            for later, _, _ in ops[k + 1:]:
                fails[later].append(f"not run: {name} raised")
            break
        if rejected() > before:
            fails[name].append(f"{rejected() - before} Adam steps rejected")
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    tracer.uninstall()
    if trace:
        result["layers"] = instrument.per_layer_metrics(tracer)
        tracer.save(workdir.parent / f"spans-{workload}.npz")

    accuracy = dict.fromkeys(ACCURACY_METRICS, 0.0)  # 0: not an output of this workload
    if not any(fails.values()):
        try:
            found, measured = work.check()
            accuracy.update(measured)
        except Exception:
            found = {name: [traceback.format_exc(limit=3)] for name in fails}
        for name, msgs in found.items():
            fails[name] += msgs
    result["accuracy"] = accuracy
    result["attempted"] = len(ops)
    result["failures"] = {name: msgs for name, msgs in fails.items() if msgs}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run_round(args.workload, args.seed, args.spawned, args.trace,
                           args.setup_only, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
