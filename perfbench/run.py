#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe with
dune (inside the checkout's _build directory), runs one workload, and
passes the benchmark's output through. The last line of standard output
is the result object {"correct", "attempted", "failed", "metrics"}. Exit
status is 0 only when that line is present and well formed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def commit():
    """HEAD, when the checkout root is itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath("."):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of a Longnail checkout (no dune-project or lib/ here)")

    env = dict(os.environ)
    # the build stays inside the checkout: no shared dune cache
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    # One CPU for the whole run. The serve daemon and its client then hand
    # each request over on the same CPU; woken across the two CPUs of a
    # 2-vCPU host they doubled and scattered the hit latency.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["PERFBENCH_CPU"] = str(cpu)
    env["PERFBENCH_COMMIT"] = commit()

    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the benchmark stop the daemon it started
        proc.terminate()
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        fail("benchmark run timed out")

    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("".join(l + "\n" for l in lines if l.startswith("#")))
        fail("benchmark exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result object has keys %s" % sorted(result))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
