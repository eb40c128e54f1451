"""The repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each round in a fresh process (see
``worker.py``), as many as fit in ``--seconds``; at least one round runs.
With ``--trace 0`` every round is untraced and the end-to-end metrics are
printed.  With ``--trace 1`` rounds alternate untraced and traced; the
per-layer metrics come from the traced rounds and ``trace.overhead_s`` is
the traced minus the untraced wall time.  Set-up is measured in every
untraced round, and in extra set-up-only processes until there are three
samples.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").exists() else None
WORKLOADS = ("ou1d-pipeline", "figure8-mc", "paper-train")
SETUP_SAMPLES = 3
ROUND_TIMEOUT = 150.0
# One BLAS/OpenMP thread: the workloads are single-threaded Python loops
# around small matrices, and one thread keeps the timings steady on a
# shared two-core machine.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class RoundFailed(RuntimeError):
    pass


def spawn(workload, seed, trace, setup_only=False):
    """Run one worker process to its end and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    cmd += ["--spawned", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundFailed(f"{workload} round exceeded {ROUND_TIMEOUT:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise RoundFailed(f"{workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def metric_units():
    units = {}
    for key in ("end_to_end", "per_layer"):
        for m in BENCHMARK[key]:
            units[m["name"]] = m["unit"]
    return units


def run(workload, seed, seconds, trace):
    rounds = []
    t_start = time.perf_counter()
    longest = 0.0
    # Start another round only while it is expected to end within the run.
    while not rounds or time.perf_counter() - t_start + longest <= seconds:
        t_round = time.perf_counter()
        rounds += [spawn(workload, seed, t) for t in ((0, 1) if trace else (0,))]
        longest = max(longest, time.perf_counter() - t_round)
    untraced = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    wall = statistics.median(r["wall_s"] for r in untraced)
    if trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        for name in traced[0]["accuracy"]:
            values[name] = statistics.median(r["accuracy"][name] for r in traced)
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        wanted = [m["name"] for m in BENCHMARK["per_layer"]]
    else:
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, 0, setup_only=True)["setup_s"])
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
        wanted = [m["name"] for m in BENCHMARK["end_to_end"]]
    units = metric_units()
    failures = {}
    for r in rounds:
        for op, msgs in r["failures"].items():
            failures.setdefault(op, []).extend(msgs)
    failed = sum(len(r["failures"]) for r in rounds)
    for op, msgs in failures.items():
        print(f"FAILED {op}: {msgs[0]}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in wanted},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if BENCHMARK is None or not (ROOT / "src" / "deepwkb" / "__init__.py").exists():
        print("perfbench: run from a checkout of the repository "
              "(BENCHMARK.json and src/deepwkb are needed)", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
