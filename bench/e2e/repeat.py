#!/usr/bin/env python3
"""Runs the end-to-end benchmark K times per workload and reports spread.

    python3 bench/e2e/repeat.py --runs 10 [--workloads serve-hot,analytics]
        [--seed 1] [--fixed-seed] [--seconds 10] [--json out.json]
        [--against earlier.json]

Each round runs every workload once (so host drift hits all of them
alike). Seeds are N, N+1, ... unless --fixed-seed repeats N. For every
(end-to-end metric, workload) it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json: "FAIL" marks a spread above
the bound, "warn" one above a third of it. Use it to set bounds and to
check them. --json writes every run and the summary (the format of
bench/e2e/results/*.json). --against compares the medians with those of
an earlier --json file: "FAIL" also marks a median that moved by more
than the bound. Exits 1 when a run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    host = next((l["host"] for l in lines if "host" in l), None)
    result = lines[-1] if lines and "metrics" in lines[-1] else None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": round(wall, 3), "host": host, "result": result}


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "n": len(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fixed-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--json")
    parser.add_argument("--against")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["summary"]
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, ok = [], True
    for i in range(args.runs):
        seed = args.seed if args.fixed_seed else args.seed + i
        for w in workloads:
            r = run_once(w, seed, args.seconds)
            res = r["result"]
            good = (r["exit"] == 0 and res is not None and res["correct"]
                    and res["failed"] == 0)
            ok = ok and good
            print("run %d %-13s seed %-4d %6.1f s  %s" % (
                i + 1, w, seed, r["wall_s"],
                "ok" if good else "FAILED exit=%d" % r["exit"]),
                file=sys.stderr)
            runs.append(r)

    summary = {}
    print("%-13s %-13s %12s %12s %12s %8s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "shift",
        "bound"))
    for w in workloads:
        summary[w] = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if r["workload"] == w and r["result"]
                      and r["result"]["metrics"][name]["value"] is not None]
            if len(values) < 2:
                continue
            s = summarize(values, bound)
            summary[w][name] = s
            before = earlier.get(w, {}).get(name)
            shift = (s["median"] / before["median"] - 1
                     if before and before["median"] else None)
            flag = ("FAIL" if s["spread"] > bound or
                    (shift is not None and abs(shift) > bound) else
                    "warn" if s["spread"] > bound / 3 else "")
            print("%-13s %-13s %12.6g %12.6g %12.6g %7.1f%% %8s %5.0f%% %s" % (
                w, name, s["median"], s["q1"], s["q3"], 100 * s["spread"],
                "" if shift is None else "%+.1f%%" % (100 * shift),
                100 * bound, flag))
    if args.json:
        host = next((r["host"] for r in runs if r["host"]), None)
        with open(args.json, "w") as f:
            json.dump({"host": host, "seconds": args.seconds, "runs": runs,
                       "summary": summary}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
