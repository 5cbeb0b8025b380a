#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the command in BENCHMARK.json once per seed on each workload and
reports, for every end-to-end metric, the distance between the first and
third quartile of the values (statistics.quantiles(values, n=4)) as a share
of their median, next to the metric's bound. A spread at or above the bound
fails (setup_s is reported but exempt); below a third of it is steady.

With --save, the values are written to a JSON file; with --against, each
median is compared with the medians of an earlier saved set, and a metric
whose median got worse by more than its bound fails.

Run from the repository root:

    python3 perfbench/steady.py                        # all workloads, seeds 1-10
    python3 perfbench/steady.py --workloads serve-mixed --seeds 5 --first-seed 3
    python3 perfbench/steady.py --save .bench_build/set1.json
    python3 perfbench/steady.py --against .bench_build/set1.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} failed:\n{proc.stderr}")
    return res


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)

    values = {}
    ok = True
    for w in workloads:
        values[w] = {name: [] for name in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(bench, w, seed)
            for name in metrics:
                values[w][name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: attempted {res['attempted']}, failed {res['failed']}", file=sys.stderr)
        print(f"\n{w} ({args.seeds} runs)")
        print(f"  {'metric':18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, m in metrics.items():
            vals = values[w][name]
            med, sp = statistics.median(vals), spread(vals)
            if name == "setup_s":
                verdict = "exempt"
            elif sp >= m["bound"]:
                verdict, ok = "FAIL", False
            elif sp < m["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "within bound"
            line = f"  {name:18} {med:12.6g} {sp:8.3f} {m['bound']:6.2f}  {verdict}"
            if w in before:
                prev = statistics.median(before[w][name])
                change = (med - prev) / prev if m["better"] == "lower" else (prev - med) / prev
                worse = change > m["bound"]
                ok = ok and not worse
                line += f"  vs earlier {prev:.6g}: {'WORSE' if worse else 'ok'} ({change:+.3f})"
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
