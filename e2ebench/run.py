#!/usr/bin/env python3
"""Run one workload of the SOAR end-to-end benchmark.

    python3 e2ebench/run.py --workload cli-solve --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py pin > e2ebench/pinned_costs.json

Run from the root of a SOAR source tree. The script builds the `soar` binary
and the harness in `e2ebench/harness` from source into `$CARGO_TARGET_DIR`
(default `.bench_build` at the root), then runs the harness, whose last line
of standard output is the JSON result. It exits nonzero without a result when
the directory above `e2ebench` is not a SOAR source tree.
"""

import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Files the benchmark builds and drives; without them there is nothing to run.
REQUIRED = ["Cargo.toml", "Cargo.lock", "src/main.rs", "crates/core/Cargo.toml", "crates/serve/Cargo.toml"]


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"e2ebench: {ROOT} is not a SOAR source tree (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "soar"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "harness", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        status = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if status != 0:
            print(f"e2ebench: {' '.join(cmd)} failed with {status}", file=sys.stderr)
            return status

    work = os.path.join(target, "e2ebench-work", str(os.getpid()))
    harness = [
        os.path.join(target, "release", "soar-e2ebench"),
        "--soar", os.path.join(target, "release", "soar"),
        "--bench-dir", BENCH_DIR,
        "--work-dir", work,
    ] + sys.argv[1:]
    proc = subprocess.Popen(harness, cwd=ROOT, env=env)

    def stop(signum, _frame):
        # Only kill here: the interrupted `proc.wait()` holds the lock a
        # second wait would need. The harness's own children die with it
        # (PR_SET_PDEATHSIG); the `finally` below reaps it.
        proc.kill()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait()
    finally:
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
