#!/usr/bin/env python3
"""graphite_lint: machine-enforced repo invariants the generic tools miss.

The hot-path and protocol rules that PRs 3 and 7 established by
convention, and that clang-tidy/compilers cannot express:

  mutex   Lock only through the annotated graphite::Mutex / MutexLock /
          CondVar (util/mutex.h). Raw std::mutex, std::condition_variable,
          std::lock_guard, std::unique_lock, std::scoped_lock,
          std::shared_mutex — or including <mutex> / <condition_variable>
          / <shared_mutex> — anywhere else defeats Clang's
          -Wthread-safety analysis, which only sees annotated types.

  heap    No heap-allocation expressions (new, malloc/calloc/realloc,
          free, make_unique, make_shared) in the superstep hot path:
          src/icm/, src/vcm/, src/engine/delivery.h,
          src/engine/flat_inbox.h, src/engine/superstep_driver.h (the
          loop all four engines run). Hot-path storage is arena-backed
          (util/arena.h); steady-state supersteps allocate nothing.

  vector  Every std::vector that OWNS storage in a hot-path file (member,
          local, return-by-value — not a reference/pointer parameter)
          must carry a lint:allow(vector: ...) justification naming it
          per-run setup, amortized scratch, or a legacy shim. The arena
          types are the default; unexplained vectors are rejected.

  json    JSON is built by util/json.h's JsonWriter, nowhere else: a
          printf-family call whose format string contains JSON structural
          text ({" / ": / "}) is the PR-3 truncation bug class coming
          back. sprintf (unbounded) is banned outright. util/json.cc
          itself is exempt (it implements the writer).

  simd    No SIMD intrinsics anywhere: no <*intrin.h> includes,
          _mm_*/..._mm512_* calls, or __m128/__m256/__m512 types. The
          kernels are portable scalar code; a wide path would need a
          measured workload that runs it (DESIGN.md §4j).

Suppression: a comment containing `lint:allow(<rule>...)` on the same
line silences that rule for the line — the convention is
`lint:allow(rule: reason)` so the exception documents itself.

Named regions: a few blessed code paths are *by design* outside an
invariant for a span of lines, where per-line lint:allow would be noise
that buries real findings. `lint:region(<name>)` ... `lint:endregion(
<name>)` suppresses that region's registered rules between the markers.
Regions are an explicit allowlist (REGIONS below): each name is bound to
the exact files that may open it and the rules it may suppress — opening
one anywhere else, with an unknown name, unbalanced, or left unclosed is
itself a finding (rule `region`). Current regions:

  ingest-seed   The delta-append warm-seed path (DESIGN.md §4l) in the
                ICM engine: runs once per incremental run, before
                the superstep loop's zero-alloc regime applies.

Usage: graphite_lint.py [--self-test] [--list-rules] [paths...]
       (default paths: src tests bench tools examples, repo-relative)
Exit status: 0 = clean, 1 = findings, 2 = usage/self-test error.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATHS = ["src", "tests", "bench", "tools", "examples"]
CXX_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")

# Files allowed to touch the raw primitives a rule otherwise bans.
MUTEX_HOME = "src/util/mutex.h"
JSON_HOME = "src/util/json.cc"

# The superstep hot path (DESIGN.md §4f/§4k): arena storage only.
HOT_FILES = ("src/engine/delivery.h", "src/engine/flat_inbox.h",
             "src/engine/superstep_driver.h")
HOT_DIRS = ("src/icm/", "src/vcm/")

MUTEX_TOKEN = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b"
)
MUTEX_INCLUDE = re.compile(
    r'#\s*include\s*[<"](?:mutex|condition_variable|shared_mutex)[>"]'
)
HEAP_TOKEN = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\bfree\s*\(|"
    r"\bmake_unique\b|\bmake_shared\b"
)
PRINTF_CALL = re.compile(r"\b(?:sn|f|v|vsn)?printf\s*\(")
SPRINTF_CALL = re.compile(r"\bsprintf\s*\(")
JSON_IN_LITERAL = re.compile(r'\{\\"|\\":|\\"\}|"\{"|"\["')
SIMD_TOKEN = re.compile(r"\b_mm(?:256|512)?_\w+|\b__m(?:128|256|512)[id]?\b")
SIMD_INCLUDE = re.compile(r"#\s*include\s*<\w*intrin\.h>")
ALLOW = re.compile(r"lint:allow\((\w+)")
REGION_OPEN = re.compile(r"lint:region\(([\w-]+)\)")
REGION_CLOSE = re.compile(r"lint:endregion\(([\w-]+)\)")

# Named-region allowlist: region name -> (files that may open it, rules it
# suppresses inside). Everything else about a region marker is a finding.
REGIONS = {
    "ingest-seed": {
        "files": ("src/icm/icm_engine.h",),
        "rules": ("heap", "vector"),
    },
}

RULES = ["mutex", "heap", "vector", "json", "simd", "region"]


def strip_code(text):
    """Returns `text` with comments and string/char literals blanked out
    (newlines kept), so token rules never fire on prose or literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(" " * (j - i - text.count("\n", i, j)))
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
            out.append(quote + quote)
        else:
            out.append(c)
            i += 1
    # Rebuild preserving line structure for the comment branch.
    return "".join(out)


def template_end(code, start):
    """Index just past the `>` matching the `<` at `start`, or -1."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def vector_owns_storage(code_line):
    """True when a std::vector on this (comment/string-stripped) line
    declares owning storage: not a reference, pointer, or a nested
    template argument of some other type."""
    for m in re.finditer(r"std::vector\s*<", code_line):
        end = template_end(code_line, m.end() - 1)
        if end < 0:  # declaration continues on the next line: be strict
            return True
        rest = code_line[end:].lstrip()
        if rest[:1] in ("&", "*", ">", ","):  # ref/ptr/nested-arg: views
            continue
        return True
    return False


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = (
            path, line, rule, message)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def is_hot(rel):
    return rel in HOT_FILES or any(rel.startswith(d) for d in HOT_DIRS)


def lint_file(rel, text):
    findings = []
    code = strip_code(text)
    raw_lines = text.splitlines()
    code_lines = code.splitlines()
    # strip_code preserves line count; pad defensively anyway.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    hot = is_hot(rel)

    open_region = None  # (name, open lineno); regions do not nest.
    for idx, raw in enumerate(raw_lines):
        lineno = idx + 1
        stripped = code_lines[idx]
        allowed = set(ALLOW.findall(raw))
        region_rules = (
            REGIONS[open_region[0]]["rules"] if open_region else ())

        def report(rule, message):
            if rule not in allowed and rule not in region_rules:
                findings.append(Finding(rel, lineno, rule, message))

        opened = REGION_OPEN.search(raw)
        closed = REGION_CLOSE.search(raw)
        if opened:
            name = opened.group(1)
            if name not in REGIONS:
                report("region", f"unknown lint region '{name}' "
                       f"(register it in REGIONS)")
            elif rel not in REGIONS[name]["files"]:
                report("region", f"region '{name}' is not allowlisted for "
                       f"this file")
            elif open_region is not None:
                report("region", f"region '{name}' opened inside "
                       f"'{open_region[0]}' (line {open_region[1]}); "
                       f"regions do not nest")
            else:
                open_region = (name, lineno)
        elif closed:
            name = closed.group(1)
            if open_region is None or open_region[0] != name:
                report("region", f"lint:endregion('{name}') without a "
                       f"matching open region")
            else:
                open_region = None

        if rel != MUTEX_HOME:
            if MUTEX_TOKEN.search(stripped) or MUTEX_INCLUDE.search(raw):
                report(
                    "mutex",
                    "raw std locking primitive; use graphite::Mutex / "
                    "MutexLock / CondVar (util/mutex.h) so Clang's "
                    "thread-safety analysis sees it",
                )
        if hot:
            if HEAP_TOKEN.search(stripped):
                report(
                    "heap",
                    "heap allocation in the superstep hot path; use the "
                    "arena types (util/arena.h)",
                )
            if vector_owns_storage(stripped):
                report(
                    "vector",
                    "owning std::vector in a hot-path file; use "
                    "ArenaVec/SuperstepVec, or justify with "
                    "lint:allow(vector: <why this is setup/amortized>)",
                )
        if SPRINTF_CALL.search(stripped):
            report("json", "sprintf is unbounded; use snprintf or JsonWriter")
        if rel != JSON_HOME and PRINTF_CALL.search(stripped):
            if JSON_IN_LITERAL.search(raw):
                report(
                    "json",
                    "printf-built JSON; emit through util/json.h JsonWriter "
                    "(fixed-size buffers truncate silently)",
                )
        if SIMD_TOKEN.search(stripped) or SIMD_INCLUDE.search(stripped):
            report("simd", "SIMD intrinsics; keep the kernels portable scalar")
    if open_region is not None:
        findings.append(Finding(
            rel, open_region[1], "region",
            f"region '{open_region[0]}' is never closed "
            f"(missing lint:endregion)"))
    return findings


def collect_files(paths):
    files = []
    for p in paths:
        absolute = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        if os.path.isfile(absolute):
            files.append(absolute)
            continue
        for root, _, names in os.walk(absolute):
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(root, name))
    return files


def run_lint(paths):
    findings = []
    for path in collect_files(paths):
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return 2
        findings.extend(lint_file(rel, text))
    for f in findings:
        print(f)
    if findings:
        print(f"\ngraphite_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("graphite_lint: clean")
    return 0


# --- self test -------------------------------------------------------------

SELF_TEST_CASES = [
    # (rule-or-None, file path the snippet pretends to live at, source)
    ("mutex", "src/server/foo.cc", "std::mutex mu;"),
    ("mutex", "src/server/foo.cc", "#include <mutex>"),
    ("mutex", "src/server/foo.cc", "std::lock_guard<std::mutex> l(mu);"),
    (None, "src/server/foo.cc", "// discusses std::mutex in a comment"),
    (None, "src/util/mutex.h", "std::mutex mu_;"),
    (None, "src/server/foo.cc",
     "std::mutex mu;  // lint:allow(mutex: adapter)"),
    ("heap", "src/icm/foo.h", "auto* p = new Thing();"),
    ("heap", "src/engine/flat_inbox.h", "void* p = malloc(64);"),
    ("heap", "src/engine/superstep_driver.h",
     "auto pool = std::make_unique<ThreadPool>(n);"),
    ("vector", "src/engine/superstep_driver.h",
     "std::vector<int64_t> per_chunk;"),
    (None, "src/engine/superstep_driver.h",
     "std::vector<int> row_src_;  // lint:allow(vector: per-run chunk map)"),
    (None, "src/icm/foo.h", "// allocate a new block lazily"),
    (None, "src/server/foo.cc", "auto* p = new Thing();"),  # not hot
    ("vector", "src/icm/foo.h", "std::vector<int> owned;"),
    ("vector", "src/vcm/foo.h", "std::vector<Tuple> Run() {"),
    (None, "src/icm/foo.h", "const std::vector<int>& view,"),
    (None, "src/icm/foo.h", "std::vector<int>* out = nullptr;"),
    (None, "src/icm/foo.h", "std::span<std::vector<Writer>>(wire)"),
    (None, "src/icm/foo.h",
     "std::vector<int> setup;  // lint:allow(vector: per-run setup)"),
    (None, "src/server/foo.cc", "std::vector<int> fine_here;"),
    ("json", "src/server/foo.cc",
     'snprintf(buf, n, "{\\"a\\": %d}", v);'),
    ("json", "bench/foo.cc", 'sprintf(buf, "%d", v);'),
    (None, "bench/foo.cc", 'std::fprintf(stderr, "[run] %s\\n", s);'),
    (None, "src/util/json.cc",
     'std::snprintf(buf, sizeof(buf), "\\u%04x", c);'),
    ("simd", "src/icm/foo.h", "__m256i v = _mm256_set1_epi64x(1);"),
    ("simd", "src/engine/foo.h", "#include <x86intrin.h>"),
    ("simd", "src/util/simd.h", "__m256i v = _mm256_set1_epi64x(1);"),
    # Named regions (delta-append warm-seed path).
    (None, "src/icm/icm_engine.h",
     "// lint:region(ingest-seed)\nstd::vector<int> seeds;\n"
     "// lint:endregion(ingest-seed)"),
    ("vector", "src/icm/icm_engine.h",
     "// lint:region(ingest-seed)\n// lint:endregion(ingest-seed)\n"
     "std::vector<int> after;"),  # region over: rule applies again
    ("region", "src/icm/foo.h",
     "// lint:region(ingest-seed)\nint x;\n"
     "// lint:endregion(ingest-seed)"),  # file not allowlisted
    ("region", "src/icm/icm_engine.h",
     "// lint:region(mystery-zone)\n// lint:endregion(mystery-zone)"),
    ("region", "src/icm/icm_engine.h",
     "// lint:region(ingest-seed)\nint x;"),  # never closed
    ("region", "src/icm/icm_engine.h",
     "// lint:endregion(ingest-seed)"),  # close without open
]


def self_test():
    bad = 0
    for want_rule, rel, source in SELF_TEST_CASES:
        findings = lint_file(rel, source + "\n")
        got = sorted({f.rule for f in findings})
        want = [want_rule] if want_rule else []
        if got != want:
            bad += 1
            print(
                f"self-test FAIL: {rel!r} {source!r}: want {want}, got {got}",
                file=sys.stderr,
            )
    if bad:
        print(f"self-test: {bad} case(s) failed", file=sys.stderr)
        return 2
    print(f"self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main(argv):
    if "--list-rules" in argv:
        print(__doc__)
        return 0
    if "--self-test" in argv:
        return self_test()
    paths = [a for a in argv if not a.startswith("--")]
    return run_lint(paths or DEFAULT_PATHS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
