#!/usr/bin/env python3
"""Self-tests of the SOAR end-to-end benchmark.

    python3 e2ebench/selftest.py [--seconds S]

Run from the root of a SOAR source tree. Checks, in order:

1. BENCHMARK.json has the keys, names, units and bounds the benchmark
   contract allows.
2. The harness's unit tests (`cargo test`), among them: a tampered pinned
   cost and a forged coloring fail the `soar solve` report check, and a
   tampered served outcome fails the offline replay check.
3. A smoke-length run of every workload, untraced and traced, exits 0 and
   prints as its last line a result with exactly the keys `correct`,
   `attempted`, `failed` and `metrics`; every declared metric is present
   with its declared unit and a finite value, and nothing else is.
4. In a directory holding only BENCHMARK.json and the benchmark's files,
   the command exits nonzero without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"bad workload {w}")
        names.add(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"bad end-to-end metric {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"bad per-layer metric {m}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"bad metric {m}")
    all_names = [m["name"] for m in metrics] + sorted(names)
    if len(set(all_names)) != len(all_names):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower better")
    if not 1 <= spec["run_seconds"] <= 60 or not 2 <= len(spec["workloads"]) <= 8:
        fail("run_seconds or workload count out of range")


def run(command, cwd, args):
    proc = subprocess.run(command + args, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(workload, trace, stdout, declared):
    last = stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: {last}")
    got = result["metrics"]
    if set(got) != set(declared):
        fail(f"{workload} --trace {trace}: metrics {sorted(set(got) ^ set(declared))} differ from BENCHMARK.json")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            fail(f"{workload}: {name} is {m}, declared unit {declared[name]}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{workload}: {name} value {m['value']}")


def main():
    seconds = sys.argv[sys.argv.index("--seconds") + 1] if "--seconds" in sys.argv else "3"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    command = spec["command"]
    print("selftest: BENCHMARK.json ok")

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    manifest = os.path.join(BENCH_DIR, "harness", "Cargo.toml")
    if subprocess.run(["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                      cwd=ROOT, env=env).returncode != 0:
        fail("harness unit tests")
    print("selftest: harness unit tests ok")

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, declared in (("0", e2e), ("1", layers)):
            code, out, err = run(command, ROOT, ["--workload", w["name"], "--seed", "1", "--seconds", seconds, "--trace", trace])
            if code != 0:
                fail(f"{w['name']} --trace {trace} exited {code}:\n{err}")
            check_result(w["name"], trace, out, declared)
            print(f"selftest: {w['name']} --trace {trace} ok")

    bare = os.path.join(env["CARGO_TARGET_DIR"], "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
    code, out, _ = run(command, bare, ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"])
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out.strip():
        fail(f"outside a source tree the command exited {code} with output {out!r}")
    print("selftest: a directory without the program is refused")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
