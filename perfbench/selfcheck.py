#!/usr/bin/env python3
"""Determinism self-check of the repository benchmark.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Run from the root of a checkout. For each workload (default: all of
BENCHMARK.json), two short runs with the same seed must generate identical
op inputs and identical output digests on every op both ran, and a run
whose expected values are deliberately corrupted (--corrupt-reference)
must report failed ops. Exits non-zero if any of this does not hold.
"""

import json
import os
import subprocess
import sys

import run

SEED = 7


def main_exe(workload, *extra):
    env = {k: v for k, v in os.environ.items() if k not in run.SCRUBBED_ENV}
    done = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        timeout=300)
    if done.returncode != 0:
        run.fail(f"{workload}: main.exe exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def digests(workload):
    """(op index, variant, input digest, output digest) of each op of a run."""
    _, err = main_exe(workload, "--digests")
    return [tuple(line.split()[i] for i in (2, 4, 6, 8))
            for line in err.splitlines() if line.startswith("digest op ")]


def main():
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    workloads = sys.argv[1:] or names
    run.build()
    ok = True
    for w in workloads:
        first, second = digests(w), digests(w)
        common = min(len(first), len(second))
        same = common > 0 and first[:common] == second[:common]
        corrupted, _ = main_exe(w, "--corrupt-reference")
        caught = corrupted["failed"] > 0 and not corrupted["correct"]
        print(f"{w}: {common} ops with identical inputs and outputs: {same}; "
              f"corrupted reference caught: {caught} "
              f"(failed {corrupted['failed']}/{corrupted['attempted']})")
        ok = ok and same and caught
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
