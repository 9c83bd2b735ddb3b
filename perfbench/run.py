#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe with dune,
times set-up in fresh processes, runs the measured closed loop in one more
process, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end_to_end list of BENCHMARK.json, with --trace 1 the per_layer
list. Exits non-zero, without a result, when the build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")

# setup_s is the median over fresh processes, each of which generates the
# inputs and runs the untimed warm-up op: at least MIN_SETUPS of them, and
# more, up to MAX_SETUPS, while they have taken under SETUP_BUDGET seconds.
# The extra processes stop early if the measured run would no longer fit
# in the deadline with SLACK seconds to spare.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET, SLACK = 5, 9, 30.0, 40.0

# Seconds a run may take once the program is built (the contract allows 180).
DEADLINE = 170

# The library reads these; the benchmark runs at the default job count
# with reporting off.
SCRUBBED_ENV = ("DPMA_JOBS", "DPMA_METRICS", "DPMA_TRACE")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark program in this checkout; exit non-zero on failure.

    Uses dune from PATH, or through opam when only opam is on PATH."""
    dune = ["dune", "build", "--root", ".", "--display", "quiet",
            "./perfbench/main.exe"]
    for cmd in (dune, ["opam", "exec", "--", *dune]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
            break
        except FileNotFoundError:
            continue
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
    else:
        fail("build failed: neither dune nor opam is on PATH")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def invoke(args, deadline, extra=()):
    """Run main.exe once and return the JSON object on its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    t0 = time.time()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload}: run exceeded the deadline")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload}: main.exe exited with code {done.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    build()
    deadline = time.monotonic() + DEADLINE
    setups = []
    if args.trace == 0:
        spent = []  # wall seconds of each set-up process
        while len(setups) < MAX_SETUPS - 1 and (
                len(setups) < MIN_SETUPS - 1 or sum(spent) < SETUP_BUDGET) and (
                not spent or deadline - time.monotonic()
                > args.seconds + SLACK + 2 * max(spent)):
            t = time.monotonic()
            setups.append(invoke(args, deadline, ["--setup-only"])["setup_s"])
            spent.append(time.monotonic() - t)
    result = invoke(args, deadline)
    metrics = result["metrics"]
    if args.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    got = {k: v["unit"] for k, v in metrics.items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json "
             f"{sorted(want.items())}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
