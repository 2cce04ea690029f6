#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract, then runs every
workload at smoke length, untraced and traced. Each result must have the
output schema, pass every gate (correct, no failed operation, traced run
fresh), and report every metric with its declared unit. Last, a directory
holding only BENCHMARK.json and perfbench/ must make run.py fail without
printing a result. Exits non-zero on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, what):
    if not cond:
        print(f"selftest: FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def check_contract(b):
    check(set(b) == {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60,
          "run_seconds")
    check(2 <= len(b["workloads"]) <= 8, "workload count")
    names = []
    for w in b["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why {w['name']}")
        names.append(w["name"])
    for m in b["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys {m}")
        check(0 < m["bound"] <= 0.25, f"bound {m['name']}")
    for m in b["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys {m}")
    for m in b["end_to_end"] + b["per_layer"]:
        check(UNIT.match(m["unit"]), f"unit {m['unit']}")
        check(m["better"] in ("higher", "lower"), f"better {m['name']}")
        names.append(m["name"])
    check(all(NAME.match(n) for n in names), "name syntax")
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s declared")
    check(setup[0]["bound"] == max(m["bound"] for m in b["end_to_end"]),
          "setup_s has the largest bound")


def run(args, cwd=ROOT, expect_ok=True):
    proc = subprocess.run([sys.executable] + args, cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)
    if expect_ok:
        check(proc.returncode == 0,
              f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def check_result(b, workload, trace, stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    label = f"{workload} --trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    check(result["correct"] is True, f"{label}: correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted")
    check(result["failed"] == 0, f"{label}: failed")
    declared = b["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in declared},
          f"{label}: metric names")
    for m in declared:
        got = result["metrics"][m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
              f"{label}: {m['name']} unit")
        check(isinstance(got["value"], (int, float)), f"{label}: {m['name']}")
        if not trace:
            check(got["value"] > 0, f"{label}: {m['name']} is never 0")
    if trace:
        layers = result["metrics"]
        check(layers["harness.trace_fresh"]["value"] == 1,
              f"{label}: traced run matches the untraced one")
        tiled = sum(layers[k]["value"] for k in (
            "sim.timers_self_s", "channel.s", "mac.send_s", "mac.link_s",
            "routing.self_s", "obs.sink_s"))
        run_s = layers["sim.traced_run_s"]["value"]
        check(abs(tiled - run_s) <= 1e-3 * run_s + 1e-6,
              f"{label}: self times sum to the traced run time")
        obs_bytes = layers["obs.trace_bytes"]["value"]
        check((obs_bytes > 0) == (workload == "paper-obs"),
              f"{label}: obs.trace_bytes only on paper-obs")
    print(f"selftest: ok {label} ({result['attempted']} operations)")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        b = json.load(f)
    check_contract(b)
    for w in b["workloads"]:
        for trace in (0, 1):
            proc = run([RUN, "--workload", w["name"], "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), "--smoke"])
            check_result(b, w["name"], trace, proc.stdout)

    # A directory holding only the benchmark's own files cannot build.
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = os.path.join(ROOT, target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in b["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([os.path.join(bare, "perfbench", "run.py"), "--workload",
                    b["workloads"][0]["name"], "--seed", "1", "--seconds", "1"],
                   cwd=bare, expect_ok=False)
        check(proc.returncode != 0, "bare directory: non-zero exit")
        check(proc.stdout.strip() == "", "bare directory: no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: ok bare directory refuses to run")


if __name__ == "__main__":
    main()
