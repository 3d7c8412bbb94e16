#!/usr/bin/env python3
"""Perf regression gate over bench JSON reports.

Compares the "gated" block of a fresh benchmark run against the committed
baseline and fails on >10% regressions. Each gated entry is
self-describing:

    "gated": {
      "warp_alloc_ratio": {"value": 310.0, "better": "higher", "timing": false},
      ...
    }

The gated block is a schema, not a suggestion: every entry must carry a
numeric "value", a "better" direction of "higher" or "lower", and a
boolean "timing" flag. A malformed or renamed entry in either report is a
format error (exit 2), not a silent skip — a baseline whose keys drifted
from the bench binary would otherwise gate nothing.

Non-timing metrics (allocation counts, ratios of counts) are deterministic
per build and enforced unconditionally. Timing metrics are noisy on shared
machines, so they are warnings by default and enforced only with --strict
or GRAPHITE_PERF_STRICT=1. When the two reports record different
`hardware_concurrency` values, timing gates are additionally downgraded to
warnings even under --strict — a baseline taken on a different core count
says nothing about timing on this host — while allocation/count gates stay
enforced (they are core-count independent).

Keys present only in the fresh run (a newly added gate whose baseline has
not been regenerated yet) are reported as notes, never failures.

Usage: check_bench_regression.py <committed.json> <fresh.json> [--strict]
       check_bench_regression.py --list-gates <report.json> [...]
       check_bench_regression.py --self-test
Exit status: 0 = within tolerance, 1 = regression, 2 = usage/format error.
"""

import json
import os
import sys

TOLERANCE = 0.10  # Allowed relative regression.


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    gated = report.get("gated")
    if not isinstance(gated, dict):
        print(f"error: {path} has no 'gated' object", file=sys.stderr)
        sys.exit(2)
    for key, entry in gated.items():
        problem = validate_entry(entry)
        if problem:
            print(
                f"error: {path}: gated entry {key!r} {problem}",
                file=sys.stderr,
            )
            sys.exit(2)
    return report


def validate_entry(entry):
    """Returns a problem description for a malformed gated entry, else None."""
    if not isinstance(entry, dict):
        return f"is {type(entry).__name__}, expected an object"
    value = entry.get("value")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return f"has non-numeric 'value' {value!r}"
    better = entry.get("better")
    if better not in ("higher", "lower"):
        return f"has invalid 'better' {better!r} (want 'higher'|'lower')"
    if not isinstance(entry.get("timing"), bool):
        return f"has non-boolean 'timing' {entry.get('timing')!r}"
    return None


def list_gates(paths):
    """--list-gates mode: print every gate key a report defines and exit."""
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        report = load_report(path)
        print(f"{path}:")
        for key, entry in sorted(report["gated"].items()):
            kind = "timing" if entry["timing"] else "count "
            print(
                f"  {kind}  better={entry['better']:<6}  "
                f"{key} = {float(entry['value']):.3f}"
            )
    return 0


def regressed(better, baseline, fresh):
    """True when `fresh` is more than TOLERANCE worse than `baseline`."""
    if better == "higher":
        return fresh < baseline * (1.0 - TOLERANCE)
    # better == "lower" (validated at load time).
    # A zero baseline (e.g. zero allocations in steady state) allows
    # only the absolute slack the tolerance would give a baseline of 1.
    return fresh > baseline * (1.0 + TOLERANCE) + (
        TOLERANCE if baseline == 0 else 0.0
    )


def self_test():
    """Runs the gate as a subprocess over synthetic reports (exit 0/1).

    Registered as the `bench_gate_self_test` ctest entry so the gate's
    contract — schema rejection, timing downgrade on host mismatch,
    unconditional count enforcement — is itself under test without
    needing a benchmark run or a pytest install.
    """
    import subprocess
    import tempfile

    def report(gated, cores=8):
        return {"hardware_concurrency": cores, "gated": gated}

    def entry(value, better="lower", timing=False):
        return {"value": value, "better": better, "timing": timing}

    env = dict(os.environ)
    env.pop("GRAPHITE_PERF_STRICT", None)
    failures = []

    with tempfile.TemporaryDirectory(prefix="bench_gate_st_") as tmp:
        def run(case, base, fresh, extra=None, want=0, grep=None):
            paths = []
            for name, doc in (("base.json", base), ("fresh.json", fresh)):
                path = os.path.join(tmp, case + "_" + name)
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
                paths.append(path)
            cmd = [sys.executable, os.path.abspath(__file__)]
            cmd += (extra or []) + paths
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True
            )
            out = proc.stdout + proc.stderr
            if proc.returncode != want:
                failures.append(
                    f"{case}: exit {proc.returncode}, want {want}\n{out}"
                )
            elif grep and grep not in out:
                failures.append(f"{case}: output missing {grep!r}\n{out}")
            else:
                print(f"  ok  {case}")

        clean = report({"allocs": entry(100.0)})
        run("identical_reports_pass", clean, clean, want=0)
        run(
            "count_regression_fails",
            report({"allocs": entry(100.0)}),
            report({"allocs": entry(150.0)}),
            want=1,
            grep="REGRESSION",
        )
        run(
            "count_within_tolerance_passes",
            report({"allocs": entry(100.0)}),
            report({"allocs": entry(105.0)}),
            want=0,
        )
        run(
            "higher_is_better_regression",
            report({"speedup": entry(10.0, better="higher")}),
            report({"speedup": entry(5.0, better="higher")}),
            want=1,
        )
        run(
            "zero_baseline_gets_absolute_slack",
            report({"allocs": entry(0.0)}),
            report({"allocs": entry(0.05)}),
            want=0,
        )
        run(
            "zero_baseline_still_gates",
            report({"allocs": entry(0.0)}),
            report({"allocs": entry(0.5)}),
            want=1,
        )
        run(
            "timing_regression_is_warning_by_default",
            report({"warp_ms": entry(10.0, timing=True)}),
            report({"warp_ms": entry(20.0, timing=True)}),
            want=0,
            grep="warn",
        )
        run(
            "timing_regression_enforced_under_strict",
            report({"warp_ms": entry(10.0, timing=True)}),
            report({"warp_ms": entry(20.0, timing=True)}),
            extra=["--strict"],
            want=1,
        )
        run(
            "core_mismatch_downgrades_timing_even_strict",
            report({"warp_ms": entry(10.0, timing=True)}, cores=8),
            report({"warp_ms": entry(20.0, timing=True)}, cores=32),
            extra=["--strict"],
            want=0,
            grep="hardware_concurrency",
        )
        run(
            "core_mismatch_still_enforces_counts",
            report({"allocs": entry(100.0)}, cores=8),
            report({"allocs": entry(150.0)}, cores=32),
            want=1,
            grep="REGRESSION",
        )
        run(
            "missing_key_in_fresh_fails",
            report({"allocs": entry(100.0), "spans": entry(5.0)}),
            report({"allocs": entry(100.0)}),
            want=1,
            grep="missing from fresh run",
        )
        run(
            "new_key_in_fresh_is_note",
            report({"allocs": entry(100.0)}),
            report({"allocs": entry(100.0), "spans": entry(5.0)}),
            want=0,
            grep="no baseline yet",
        )
        run(
            "missing_gated_block_is_format_error",
            {"hardware_concurrency": 8},
            clean,
            want=2,
            grep="no 'gated' object",
        )
        run(
            "non_numeric_value_is_format_error",
            report({"allocs": {"value": "fast", "better": "lower",
                               "timing": False}}),
            clean,
            want=2,
            grep="non-numeric",
        )
        run(
            "bad_direction_is_format_error",
            report({"allocs": {"value": 1.0, "better": "sideways",
                               "timing": False}}),
            clean,
            want=2,
            grep="invalid 'better'",
        )
        run(
            "missing_timing_flag_is_format_error",
            report({"allocs": {"value": 1.0, "better": "lower"}}),
            clean,
            want=2,
            grep="non-boolean",
        )
        run(
            "list_gates_prints_schema",
            clean,
            clean,
            extra=["--list-gates"],
            want=0,
            grep="allocs",
        )

    if failures:
        print(f"\nself-test FAILED ({len(failures)} cases):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("self-test: 18 cases ok")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    strict = "--strict" in argv or os.environ.get(
        "GRAPHITE_PERF_STRICT", "0"
    ) not in ("", "0")
    paths = [a for a in argv if not a.startswith("--")]
    if "--list-gates" in argv:
        return list_gates(paths)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    committed_report = load_report(paths[0])
    fresh_report = load_report(paths[1])
    committed = committed_report["gated"]
    fresh = fresh_report["gated"]

    base_cores = committed_report.get("hardware_concurrency")
    fresh_cores = fresh_report.get("hardware_concurrency")
    cores_match = base_cores is not None and base_cores == fresh_cores
    if not cores_match:
        print(
            f"note: hardware_concurrency baseline={base_cores} vs "
            f"fresh={fresh_cores}; timing gates are warnings only "
            "(alloc/count gates still enforced)"
        )

    failures = []
    for key, base in committed.items():
        if key not in fresh:
            failures.append(f"{key}: missing from fresh run")
            continue
        entry = fresh[key]
        base_v = float(base["value"])
        fresh_v = float(entry["value"])
        timing = base["timing"]
        direction = base["better"]
        bad = regressed(direction, base_v, fresh_v)
        # Timing gates require --strict plus a comparable host (same core
        # count); non-timing gates (allocs, counts, call ratios) always
        # enforce.
        enforce = not timing or (strict and cores_match)
        verdict = "OK"
        if bad:
            verdict = "REGRESSION" if enforce else "warn"
        enforced = "" if enforce else " (timing, not enforced)"
        print(
            f"{verdict:>10}  {key}: baseline {base_v:.3f} -> fresh "
            f"{fresh_v:.3f} (better: {direction}){enforced}"
        )
        if bad and enforce:
            failures.append(
                f"{key}: {fresh_v:.3f} vs baseline {base_v:.3f} "
                f"(better: {direction}, tolerance {TOLERANCE:.0%})"
            )
    for key in fresh:
        if key not in committed:
            print(
                f"      note  {key}: new in fresh run (no baseline yet); "
                "regenerate the committed report to gate it"
            )

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
