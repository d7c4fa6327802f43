#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the root of a graphio checkout.  For every workload, at reduced
size (--small) and one seed, it checks that:

  - two traced runs answer every operation correctly and report every
    exact per-layer count identically (the counts the traced run lists
    in its "exact" diagnostic);
  - an untraced run whose first answer is falsified (--corrupt 0) counts
    exactly that operation as failed and reports correct = false.

Exits non-zero, naming the check, on the first failure.
"""

import json
import subprocess
import sys

WORKLOADS = ["cold-solve", "sweep-portfolio", "serve-mixed", "out-of-core"]
SEED = 7


def run(workload, trace, *extra):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    for w in WORKLOADS:
        runs = [run(w, 1), run(w, 1)]
        for _, res in runs:
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w}: traced run answers correctly ({res['attempted']} attempted)")
        exact = runs[0][0]["diagnostics"]["exact"]
        check(len(exact) > 0, f"{w}: run names its exact counts")
        for name in exact:
            a, b = (res["metrics"][name]["value"] for _, res in runs)
            check(a == b, f"{w}: {name} repeats exactly ({a} vs {b})")
        _, res = run(w, 0, "--corrupt", "0")
        check(res["failed"] == 1 and not res["correct"],
              f"{w}: a corrupted answer counts as one failed operation "
              f"({res['failed']} of {res['attempted']})")


if __name__ == "__main__":
    main()
