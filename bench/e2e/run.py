#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 bench/e2e/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Configures bench/e2e as a CMake project of its own in the build directory
($CARGO_TARGET_DIR when set, else .bench_build at the repository root).
That project adds the repository's top-level CMakeLists.txt as a
subproject, so the library and graphite_server build with the
repository's own flags; only they and bench_e2e are built. Build output
goes to stderr; stdout carries only the benchmark's JSON lines, the last
of which is the run's result. --trace 1 prints the per-layer metrics and
writes the span trace next to the binaries as
trace-<workload>-seed<N>.json (read it with bench/e2e/summarize.py).
--workload all runs every workload in turn and ends with one combined
result whose metrics are named <workload>.<metric>.
The exit status is bench_e2e's (the first non-zero one under "all"), or 1
when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("serve-hot", "serve-cold", "ingest-mixed", "analytics")
# A run measures for --seconds and exits well within 180 s; this only
# stops a hung benchmark.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_sha():
    """The commit being measured, when the checkout is a git work tree;
    "+dirty" marks uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(ROOT):
            return "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(out, workload, args, sha, capture):
    """Runs bench_e2e on one workload; returns (exit status, stdout or
    None when not captured)."""
    cmd = [os.path.join(out, "bench_e2e"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--git-sha", sha]
    if args.trace:
        cmd += ["--trace", os.path.join(
            out, "trace-%s-seed%d.json" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("bench/e2e: %s timed out" % workload, file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("bench/e2e: build failed", file=sys.stderr)
        return 1
    sha = git_sha()
    if args.workload != "all":
        return run(out, args.workload, args, sha, capture=False)[0]

    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0,
                           "metrics": {}}
    for workload in WORKLOADS:
        code, stdout = run(out, workload, args, sha, capture=True)
        status = status or code
        lines = (stdout or "").splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if not result or "metrics" not in result:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
