#!/usr/bin/env python3
"""Simulator benchmark: builds ricabench from source and runs one workload.

    python3 perfbench/run.py --workload paper-rica --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is built under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The last line
of standard output is one JSON object: with --trace 0 every end-to-end metric
of BENCHMARK.json, with --trace 1 every per-layer metric.  --workload all
runs every workload in its own process and prints one table.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The paper's §III-A cell, spelled out field by field (no preset names, so a
# retuned preset cannot silently redefine a workload).
PAPER_CELL = {
    "protocol": "rica",
    "nodes": 50,
    "field-m": 1000,
    "range-m": 250,
    "speed-kmh": 36,
    "pause-s": 3,
    "mobility": "waypoint",
    "pairs": 10,
    "pkts-per-s": 10,
    "packet-bytes": 512,
    "traffic": "poisson",
}

# shape: how the workload runs; sim-s: simulated seconds per trial (per cell
# on the sweep); fixed_trials: the trials whose results are reported, so
# they depend on the seed only (the sweep reports one grid); timed_trials:
# the first trials of those, which make one timed round (default: all).
# The first round runs every reported trial; later rounds repeat the timed
# ones for the measuring budget.  trace_trials: the trials (sweeps) behind
# the per-layer figures of the traced run, where each trial runs twice.
WORKLOADS = {
    "paper-rica": {
        "shape": "scenario",
        "fields": dict(PAPER_CELL, **{"sim-s": 60}),
        "fixed_trials": 24,
        "trace_trials": 16,
    },
    "dense-urban": {
        "shape": "scenario",
        "fields": dict(PAPER_CELL, **{"nodes": 200, "pairs": 40, "sim-s": 10}),
        "fixed_trials": 10,
        # A trial takes one to two seconds.  Timing half of the trials per
        # round keeps rounds short enough for the budget to hold at least
        # two after the first, even on a slow host.
        "timed_trials": 5,
        "trace_trials": 4,
    },
    "paper-obs": {
        "shape": "scenario",
        "fields": dict(PAPER_CELL, **{"sim-s": 60, "obs": 1}),
        "fixed_trials": 24,
        "trace_trials": 8,
    },
    "fig-sweep": {
        "shape": "sweep",
        # Protocol and speed are the grid's axes; every protocol at every
        # paper_speeds() value runs at each load.
        "fields": dict(PAPER_CELL, **{"sim-s": 30, "loads": "10,20",
                                      "threads": 4}),
        "fixed_trials": 1,
        "trace_trials": 1,
    },
}

# --smoke: every workload at a few simulated seconds, for the self-test.
SMOKE_SIM_S = {"scenario": 5, "sweep": 2}

BINARY_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "scenario.hpp")):
        fail("simulator sources not found next to perfbench/; run from a checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--parallel", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_all(args):
    """Runs every workload in its own process; prints metric, value, unit."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name:12s} failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name:12s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"{name:12s} {metric:34s} {m['value']:14.6g} {m['unit']}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few simulated seconds per trial (self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.workload == "all":
        run_all(args)

    contract = load_contract()
    build_dir = build()
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    wl = WORKLOADS[args.workload]
    fields = dict(wl["fields"])
    fixed = wl["trace_trials" if args.trace else "fixed_trials"]
    if args.smoke:
        fields["sim-s"] = SMOKE_SIM_S[wl["shape"]]
        fixed = 1
    cmd = [os.path.join(build_dir, "ricabench"), "--shape", wl["shape"],
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--fixed-trials", str(fixed),
           "--timed-trials", str(wl.get("timed_trials", fixed)),
           "--work-dir", work_dir]
    for key, value in fields.items():
        cmd += ["--" + key, str(value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ricabench exceeded {BINARY_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"ricabench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("ricabench printed no result")
    raw = json.loads(lines[-1])

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            fail(f"ricabench did not report {m['name']}")
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                              "unit": m["unit"]}
    extra = {k: v for k, v in raw["metrics"].items() if k not in metrics}
    print(f"workload {args.workload}: " + json.dumps(extra))
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
