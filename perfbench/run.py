#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload translate|execute|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds
perfbench/bench.exe with dune (the first build compiles the libraries it
links), runs it, and prints its report; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
with --trace 1 the per_layer list.

CASPER_* variables are removed from the benchmark's environment so the
engine runs with its built-in defaults. The exit code is 0 only when a
result was printed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("translate", "execute", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "dune-project").is_file() or not (root / "lib").is_dir():
        fail(f"{root} is not a source checkout (no dune-project or lib/)")

    env = {k: v for k, v in os.environ.items() if not k.startswith("CASPER_")}
    env["DUNE_CACHE"] = "disabled"  # keep every build output in the checkout

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe"],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        sys.stderr.write(build.stdout[-4000:] + build.stderr[-4000:])
        fail("build failed")

    exe = root / "_build" / "default" / "perfbench" / "bench.exe"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")

    expected = set(result["metrics"])
    spec = root / "BENCHMARK.json"
    if spec.is_file():
        key = "per_layer" if args.trace else "end_to_end"
        expected = {m["name"] for m in json.loads(spec.read_text())[key]}
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or set(result["metrics"]) != expected:
        fail("result line does not match BENCHMARK.json")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
