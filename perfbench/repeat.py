#!/usr/bin/env python3
"""Repeat benchmark runs and summarise them: the command the bounds in
BENCHMARK.json are set from.

    python3 perfbench/repeat.py --workloads churn_bulk,serve_poisson --runs 10
    python3 perfbench/repeat.py --runs 5 --trace both --json out.json

Runs every chosen workload --runs times, interleaved (run i of every
workload before run i+1 of any), run i with seed --seed0 + i, each through
perfbench/run.py. Prints, per workload and metric, the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound; "steady" means the spread
is below a third of the bound. --trace both adds a traced run after each
untraced one and reports the per-layer medians and the tracing overhead
(traced against untraced upd_per_s and commit_p50_us).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--all-metrics"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="comma-separated; default: those of BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]

    results = {(w, t): [] for w in workloads for t in traces}
    for i in range(args.runs):
        for w in workloads:
            for t in traces:
                r = run_once(w, args.seed0 + i, seconds, t)
                results[(w, t)].append(r)
                print("run %d %s trace=%d correct=%s attempted=%d failed=%d"
                      % (i, w, t, r["correct"], r["attempted"], r["failed"]),
                      file=sys.stderr, flush=True)

    ok = True
    for (w, t), rs in results.items():
        print("\n== %s (trace %d, %d runs, seeds %d..%d)"
              % (w, t, len(rs), args.seed0, args.seed0 + len(rs) - 1))
        shares = {r["failed"] / r["attempted"] for r in rs}
        correct = all(r["correct"] for r in rs)
        ok = ok and correct and len(shares) == 1
        print("correct in every run: %s; failed share(s): %s"
              % (correct, ", ".join("%.6g" % s for s in sorted(shares))))
        print("%-28s %14s %14s %14s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med, q1, q3, spread = summary(vals)
            b = bounds.get(name)
            tag = ""
            if b is not None:
                steady = spread < b / 3
                tag = "%6.0f%% %s" % (b * 100, "steady" if steady else "NOT STEADY")
            print("%-28s %14.6g %14.6g %14.6g %7.1f%% %s" % (name, med, q1, q3, spread * 100, tag))
    if args.trace == "both":
        print("\n== tracing overhead (median traced vs median untraced)")
        for w in workloads:
            un = results[(w, 0)]
            tr = results[(w, 1)]
            u = statistics.median(r["metrics"]["upd_per_s"]["value"] for r in un)
            t = statistics.median(r["metrics"]["trace.upd_per_s"]["value"] for r in tr)
            line = "%-14s upd_per_s %.4g -> %.4g (%+.1f%%)" % (w, u, t, (t / u - 1) * 100)
            if w.startswith("serve"):
                u50 = statistics.median(r["metrics"]["commit_p50_us"]["value"] for r in un)
                t50 = statistics.median(r["metrics"]["trace.commit_p50_us"]["value"] for r in tr)
                line += "; commit_p50_us %.4g -> %.4g (%+.1f%%)" % (u50, t50, (t50 / u50 - 1) * 100)
            print(line)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"%s/trace%d" % k: v for k, v in results.items()}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
