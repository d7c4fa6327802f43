#!/usr/bin/env python3
"""Build graphio and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a graphio checkout.  The build goes to .bench_build
(dune's shared cache off); scratch and temporary files go to .bench_tmp
and are removed afterwards; a traced run leaves its spans in
.bench_trace/<workload>.json.  Nothing is written outside the checkout.  The last line of
stdout is the run's JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["cold-solve", "sweep-portfolio", "serve-mixed", "out-of-core"]
BUILD_DIR = ".bench_build"
TMP_DIR = ".bench_tmp"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    """Temporary files of the build and the run stay inside the checkout."""
    tmp = os.path.abspath(os.path.join(TMP_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")


def build():
    for needed in ["dune-project", "lib", "bin", "perfbench/dune"]:
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a graphio checkout")
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled",
        "./perfbench/main.exe", "./bin/graphio.exe",
    ]
    # build output goes to stderr: stdout carries only the result
    if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    exe = build()
    argv = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace] + extra
    # own process group, so a timeout also stops the server it spawned
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("no result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
