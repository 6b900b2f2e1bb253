"""Benchmark entry point for condenseg.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run from the repository root.  Each workload runs in a process of its own
(perfbench/workloads.py) against the sources under src/, with the BLAS
thread count fixed.  With one workload the last line of standard output is
its result: {"correct", "attempted", "failed", "metrics"}.  With --trace 1
the metrics are the per-layer ones and the spans are written under
.perfbench_out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "infer", "cohort")
BLAS_THREADS = 1  # fixed, never above nproc; recorded in every result
TIMEOUT_S = 170


def run_workload(workload, seed, seconds, trace, profile):
    """Run one workload in a child process; returns its parsed result."""
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--profile", profile]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: no result within %d s" % (workload, TIMEOUT_S), file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("%s: exited with code %d" % (workload, proc.returncode), file=sys.stderr)
        return None
    return json.loads(lines[-1])


def describe(workload, result):
    """Human-readable lines: machine, each metric by name with its unit."""
    print("== %s  machine %s" % (workload, json.dumps(result["machine"], sort_keys=True)))
    print("   correct %s  attempted %d  failed %d  rounds %d  quality %s"
          % (result["correct"], result["attempted"], result["failed"], result["rounds"],
             json.dumps(result["quality"], sort_keys=True)))
    for group in ("named", "metrics"):
        for name, m in result[group].items():
            print("   %-40s %14.4f %s" % (name, m["value"], m["unit"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description="condenseg benchmark")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all of them, in turn)")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs, for perfbench/smoke.py")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "condenseg", "__init__.py")):
        print("src/condenseg not found under %s; run from a condenseg checkout" % ROOT,
              file=sys.stderr)
        return 2

    results = {}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        result = run_workload(workload, args.seed, args.seconds, args.trace, args.profile)
        if result is None:
            return 1
        describe(workload, result)
        results[workload] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
