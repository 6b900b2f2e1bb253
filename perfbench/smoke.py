"""Quick self-check of the benchmark (about a minute).

    python3 perfbench/smoke.py

Runs every workload at the "tiny" profile, untraced and traced, and fails
unless each finishes with no failed operation, passes its checks, and
prints exactly the metric names BENCHMARK.json lists.  Last, it runs the
benchmark from a directory holding only BENCHMARK.json and perfbench/,
where it must exit with an error.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--profile", "tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=170)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            before = len(problems)
            if proc.returncode != 0:
                problems.append("%s: exit code %d" % (tag, proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s: correct %s, %d of %d failed" % (
                    tag, result["correct"], result["failed"], result["attempted"]))
            if list(result["metrics"]) != expected[trace]:
                problems.append("%s: metric names differ from BENCHMARK.json: %s" % (
                    tag, sorted(set(result["metrics"]) ^ set(expected[trace]))))
            print("%-18s %s" % (tag, "ok" if len(problems) == before else "FAILED"))

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        if run(bare, "cohort", 0).returncode == 0:
            problems.append("benchmark succeeded without the program's sources")
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))

    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
