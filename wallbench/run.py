#!/usr/bin/env python3
"""Build the wall-clock benchmark and run it, one process per workload.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wallbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root. One workload: the benchmark's output is
passed through, its last line being the JSON result, and the exit code
is the benchmark's. `--workload all` runs every workload untraced and
then traced, each in a process of its own, and prints a table of the
end-to-end metrics with the tracing overhead (traced minus untraced).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["control_estelle", "control_isode", "vod_cluster", "record_rebuild"]
# A run measures for --seconds and may finish the episode it is in.
GRACE_S = 150
BUILD_TIMEOUT_S = 880


def binary_path():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(os.path.abspath(target), "release", "wallbench")


def build():
    """Builds the benchmark; returns False when it does not build."""
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(binary_path())


def run_one(workload, seed, seconds, trace, extra=()):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [
        binary_path(),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        *extra,
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or ""))
        print(f"run.py: {workload} did not finish in time", file=sys.stderr)
        return 124, ""
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_all(seed, seconds):
    failed = False
    rows = []
    for workload in WORKLOADS:
        code, out = run_one(workload, seed, seconds, 0)
        plain = result_of(out) if code == 0 else None
        code_t, out_t = run_one(workload, seed, seconds, 1)
        traced = result_of(out_t) if code_t == 0 else None
        print(out, end="")
        print(out_t, end="")
        if plain is None or traced is None:
            print(f"run.py: {workload} failed (exit {code}, traced exit {code_t})", file=sys.stderr)
            failed = True
            continue
        rows.append((workload, plain["metrics"], traced["metrics"]))
    print()
    print(f"{'workload':<16} {'metric':<18} {'value':>14}  unit")
    for workload, m, t in rows:
        for name, v in m.items():
            print(f"{workload:<16} {name:<18} {v['value']:>14.6g}  {v['unit']}")
        p50, tp50 = m["op_p50_us"]["value"], t["trace.op_p50_us"]["value"]
        rate, trate = m["sim_s_per_wall_s"]["value"], t["trace.sim_s_per_wall_s"]["value"]
        print(f"{workload:<16} {'tracing overhead':<18} op_p50 {100 * (tp50 / p50 - 1):+.1f}%, "
              f"sim_s_per_wall_s {100 * (trate / rate - 1):+.1f}%, "
              f"spans {t['trace.overhead_share']['value'] * 100:.3f}% of wall")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        print("run.py: the benchmark does not build here", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(out, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
