#!/usr/bin/env python3
"""Wall-clock goal benchmark for the CONMan reproduction.

    python3 perfbench/run.py --workload vpn_churn --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/main.exe with dune, runs the
workload in fresh single-threaded processes and prints, as the last line of
standard output, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end-to-end
metrics, from one untraced process; with --trace 1 they are its
per-layer metrics, from an untraced process (layer counts) and a traced one
(span self times, tracing overhead, path-search size curve), each given
half the seconds. Spans are written to perfbench/out/. Exits non-zero when
the build fails, a process fails or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 80  # per process; a --trace 1 run starts two


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("run from the repository root: the benchmark builds the repository's libraries")
    # the shared dune cache lives outside the checkout: build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def run_mode(mode, args, seconds, extra=()):
    cmd = [EXE, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)] + list(extra)
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run timed out" % mode)
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0 or not lines:
        fail("%s run exited with code %d" % (mode, r.returncode))
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["vpn_churn", "chain_plan", "diamond_heal"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()
    if args.trace:
        half = args.seconds / 2
        timed = run_mode("timed", args, half)
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, "spans-%s-%d.tsv" % (args.workload, args.seed))
        traced = run_mode("traced", args, half, ["--spans", spans])
        values = dict(timed, **traced)
        correct = timed["correct"] == 1 and traced["correct"] == 1
        wanted = spec["per_layer"]
    else:
        timed = run_mode("timed", args, args.seconds)
        values = timed
        correct = timed["correct"] == 1
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    result = {
        "correct": correct,
        "attempted": int(timed["attempted"]),
        "failed": int(timed["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
