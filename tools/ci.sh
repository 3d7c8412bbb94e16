#!/usr/bin/env bash
# One-command pre-PR gate (ISSUE 9, DESIGN.md §4k).
#
#   tools/ci.sh            # full gate: tier-1 + tsan/asan/ubsan + lint
#   tools/ci.sh --fast     # tier-1 build + tests + lint only
#
# Every stage is also runnable by hand; this script only sequences them:
#   1. default preset: configure, build, ctest (everything but perf),
#      then the differential suites again at a large trial count
#   2. sanitizer presets: tsan, asan, ubsan — each builds its tree and
#      runs its labeled suite (the sanitizer matrices in tests/)
#   3. clang-tidy over src/ using the default tree's compile_commands.json
#      (skipped with a notice when clang-tidy is not installed)
#   4. tools/graphite_lint.py — the repo-invariant linter, plus its
#      self-test and the bench gate's self-test
#
# Any stage failing fails the script (set -e). GRAPHITE_WERROR is ON for
# the default configure so new warnings fail the build here even though
# the knob defaults OFF for plain developer builds.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *)
      echo "usage: tools/ci.sh [--fast]" >&2
      exit 2
      ;;
  esac
done

banner() { printf '\n=== %s ===\n' "$*"; }

banner "tier-1: configure + build (GRAPHITE_WERROR=ON)"
cmake --preset default -DGRAPHITE_WERROR=ON >/dev/null
cmake --build build -j "$(nproc)"

banner "tier-1: ctest (all labels except perf)"
ctest --test-dir build -LE perf --output-on-failure

banner "differential suites at a large trial count"
GRAPHITE_DIFFERENTIAL_TRIALS=200 \
  ctest --test-dir build -L differential --output-on-failure

if [[ "$FAST" -eq 0 ]]; then
  for san in tsan asan ubsan; do
    banner "sanitizer: $san build + labeled suite"
    cmake --preset "$san" >/dev/null
    cmake --build "build-$san" -j "$(nproc)"
    ctest --test-dir "build-$san" -L "$san" --output-on-failure
  done
fi

banner "clang-tidy over src/ (profile: .clang-tidy)"
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is exported by the default configure above.
  git ls-files 'src/*.cc' | xargs clang-tidy -p build --quiet
else
  echo "clang-tidy not installed; skipping (annotations are still"
  echo "compiled by -Wthread-safety when the default build uses clang)"
fi

banner "repo-invariant linter + tool self-tests"
python3 tools/graphite_lint.py --self-test
python3 tools/graphite_lint.py
python3 tools/check_bench_regression.py --self-test

banner "ci.sh: all gates passed"
