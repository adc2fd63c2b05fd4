#!/usr/bin/env python3
"""Build ashbench from source, then run one workload.

usage: python3 bench/suite/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), under ashbench/; a build that is already up to date
costs about a second. Build output goes to stderr; stdout is ashbench's
own, whose last line is the result object. The trace file and the
workload's report JSON land in the build directory.

Exits nonzero without printing a result when the build fails (for example
when the library sources under src/ are missing) or the run exceeds its
time limit.
"""
import argparse
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout, env):
    """Run a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(map(str, cmd))}", file=sys.stderr)
        return False
    return proc.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = (pathlib.Path.cwd() / target / "ashbench").resolve()
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=str(tmp))

    start = time.monotonic()
    if not (build / "CMakeCache.txt").exists():
        if not run_checked(["cmake", "-S", str(HERE), "-B", str(build),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           BUILD_TIMEOUT_S, env):
            return 1
    left = BUILD_TIMEOUT_S - (time.monotonic() - start)
    if not run_checked(["cmake", "--build", str(build), "-j", "4"],
                       max(left, 1), env):
        return 1

    cmd = [str(build / "ashbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(build),
           "--report", str(build / f"{args.workload}.report.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: ashbench exceeded its time limit", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
