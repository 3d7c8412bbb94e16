#!/usr/bin/env python3
"""Summarizes a bench_e2e trace: per-layer self time and per-layer metrics.

    python3 bench/e2e/summarize.py .bench_build/trace-serve-cold-seed1.json

Reads the Chrome trace-event file that `run.py --trace 1` (bench_e2e
--trace FILE) writes. A span's self time is its duration minus the part
of it that its child spans cover. Wire spans (client.request and its
children job_scheduler.queue, query_service.run, engine.*) are shown as
shares of total client latency, so the root's self time is the front:
connection loop, parse, cache probe, envelope and socket transfer. The
in-process spans time one public call each. The per-layer metrics the
run computed are printed last.
"""

import collections
import json
import sys


def union_length(intervals):
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(events):
    """Self time (us) per event index, from the events' parent links."""
    by_span = {e["args"]["span"]: e for e in events}
    children = collections.defaultdict(list)
    for e in events:
        parent = by_span.get(e["args"]["parent"])
        if parent is None:
            continue
        lo = max(e["ts"], parent["ts"])
        hi = min(e["ts"] + e["dur"], parent["ts"] + parent["dur"])
        if hi > lo:
            children[parent["args"]["span"]].append((lo, hi))
    return {e["args"]["span"]: e["dur"] - union_length(
        children.get(e["args"]["span"], [])) for e in events}


def table(title, rows, total):
    print(title)
    print("  %-34s %8s %12s %12s %7s" % ("span", "count", "total ms",
                                          "self ms", "self %"))
    for name, (count, dur, own) in sorted(rows.items(),
                                          key=lambda kv: -kv[1][2]):
        print("  %-34s %8d %12.3f %12.3f %6.1f%%" % (
            name, count, dur / 1e3, own / 1e3,
            100 * own / total if total else 0))


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    own = self_times(events)
    wire = collections.defaultdict(lambda: [0, 0.0, 0.0])
    local = collections.defaultdict(lambda: [0, 0.0, 0.0])
    layers = collections.defaultdict(float)
    for e in events:
        rows = wire if "request" in e["args"] else local
        row = rows[e["name"]]
        row[0] += 1
        row[1] += e["dur"]
        row[2] += own[e["args"]["span"]]
        if rows is wire:
            layers[e["cat"]] += own[e["args"]["span"]]
    meta = trace.get("otherData", {})
    print("workload %s, seed %s, %s s" % (meta.get("workload"),
                                          meta.get("seed"),
                                          meta.get("seconds")))
    latency = sum(e["dur"] for e in events if e["name"] == "client.request")
    table("wire spans (self time as a share of total client latency)",
          wire, latency)
    print("  by layer: " + ", ".join(
        "%s %.1f%%" % (k, 100 * v / latency if latency else 0)
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    table("in-process calls (one span per public call)", local,
          sum(r[2] for r in local.values()))
    print("per-layer metrics")
    for name, m in meta.get("metrics", {}).items():
        value = m["value"]
        shown = "null" if value is None else "%.6g" % value
        print("  %-40s %14s %s" % (name, shown, m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
