#!/usr/bin/env python3
"""Tiny-scale self-test of the wall-clock benchmark.

    python3 wallbench/selftest.py

Run from the repository root. Checks, for every workload at tiny scale:
every metric named in BENCHMARK.json is printed with its unit (and every
end-to-end one is above zero), two runs with one seed print the same
digest, and each correctness check fails the run when its output is
deliberately corrupted. Exits non-zero on the first failed check.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def tiny(workload, seed, trace=0, corrupt=None):
    extra = ["--scale", "tiny"]
    if corrupt:
        extra += ["--corrupt", corrupt]
    code, out = run.run_one(workload, seed, 1, trace, extra)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = next((l for l in lines if l.startswith("digest ")), None)
    return code, result, digest


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def expect_metrics(result, declared, workload, positive):
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in declared},
          f"{workload}: exactly the {len(declared)} declared metrics are printed")
    wrong = [m["name"] for m in declared if metrics[m["name"]]["unit"] != m["unit"]]
    check(not wrong, f"{workload}: every metric carries its declared unit {wrong or ''}")
    if positive:
        zero = [m["name"] for m in declared if metrics[m["name"]]["value"] <= 0]
        check(not zero, f"{workload}: every metric is above zero {zero or ''}")


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    check(run.build(), "the benchmark builds")
    for w in spec["workloads"]:
        name = w["name"]
        code, result, digest = tiny(name, 7)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{name}: a clean run is correct")
        expect_metrics(result, spec["end_to_end"], name, positive=True)
        _, _, again = tiny(name, 7)
        check(digest is not None and digest == again, f"{name}: one seed, one digest")
        code, traced, _ = tiny(name, 7, trace=1)
        check(code == 0 and traced["correct"], f"{name}: a traced run is correct")
        expect_metrics(traced, spec["per_layer"], name, positive=False)

    for corrupt in ["confirm", "frames", "journal"]:
        code, result, _ = tiny("vod_cluster", 7, corrupt=corrupt)
        check(code != 0 and result is not None and not result["correct"],
              f"a corrupted {corrupt} output fails the run")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
