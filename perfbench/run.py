#!/usr/bin/env python3
"""One benchmark run: build the harness if needed, run one workload, print
the result as the last line of stdout.

    python3 perfbench/run.py --workload churn_bulk --seed 1 --seconds 10 --trace 0

Run from the repository root. The harness is built with CMake from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Every run pins PARMATCH_NUM_THREADS=4 and clears
every other PARMATCH_* variable, so the program runs its default
configuration. The oracle self-test runs first; its verdict is part of
`correct`.

The last line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1 (which also writes perfbench-traces/<workload>-seed<n>.json).
Exits non-zero, printing no result, when the build or the harness fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn_bulk", "churn_small", "serve_poisson", "serve_durable")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all-metrics", action="store_true",
                    help="report every metric the harness measured (repeat.py)")
    args = ap.parse_args()
    t_start = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    out = build()
    if out is None:
        log("perfbench: build failed")
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("PARMATCH_")}
    env["PARMATCH_NUM_THREADS"] = "4"

    selftest = subprocess.run([os.path.join(out, "perfbench_oracle_test")], env=env,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    scratch = os.path.join(ROOT, "perfbench-journal-%d" % os.getpid())
    cmd = [os.path.join(out, "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    if args.trace:
        traces = os.path.join(ROOT, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    left = RUN_TIMEOUT_S - (time.monotonic() - t_start)
    try:
        # On timeout, run() kills the harness and waits for it.
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: harness exited %d" % proc.returncode)
        return 1
    res = json.loads(lines[-1])
    if res["error"]:
        log("perfbench: oracle: " + res["error"])
    if selftest.returncode != 0:
        log("perfbench: oracle self-test failed")
    missing = [n for n in wanted if n not in res["metrics"]]
    if missing:
        log("perfbench: harness did not report " + ", ".join(missing))
        return 1
    print(json.dumps({
        "correct": bool(res["correct"]) and selftest.returncode == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"] if args.all_metrics else {n: res["metrics"][n] for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
