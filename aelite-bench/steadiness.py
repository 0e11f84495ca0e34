#!/usr/bin/env python3
"""Steadiness check and baseline for aelite-bench.

Runs the benchmark once per seed on each workload, untraced, and reports
for every end-to-end metric its median, quartiles and spread (the
interquartile distance as a share of the median, from
statistics.quantiles(values, n=4)) next to the metric's bound in
BENCHMARK.json. A metric is steady when its spread is below a third of its
bound (setup_s is exempt from the spread rule).

Run from the repository root:

    python3 aelite-bench/steadiness.py --seeds 1-10
    python3 aelite-bench/steadiness.py --seeds 1-5 --workloads serve_mixed
    python3 aelite-bench/steadiness.py --seeds 1-10 --out aelite-bench/BASELINE.json

With --out the points are written as JSON with a host tag (CPU model,
nproc, Go version, date).
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def host_tag():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "go": go,
        "date": datetime.date.today().isoformat(),
    }


def run_once(workload, seed, seconds):
    cmd = ["bash", "aelite-bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        print(f"  {workload} seed {seed}: {res['failed']} of {res['attempted']} failed", file=sys.stderr)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", default="", help="comma-separated workloads (default: all)")
    ap.add_argument("--out", default="", help="write the points as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    out = {"host": host_tag(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed = 0
        for s in seeds:
            res = run_once(w, s, seconds)
            failed += res["failed"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        out["workloads"][w] = {"failed": failed}
        print(f"{w}: {len(seeds)} runs, {failed} failed operations")
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady = steady and ok
            out["workloads"][w][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": xs,
            }
            print(f"  {m['name']:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.2%}  bound/3 {m['bound'] / 3:6.2%}  {'ok' if ok else 'UNSTEADY'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
