#!/usr/bin/env python3
"""src_loc: count the code lines of C++ sources.

A code line is one that holds something other than whitespace and
comments: blank lines, `//` comment lines and lines inside or wholly made
of a `/* ... */` block do not count. Prints one `<lines> <path>` row per
.h/.cc file under each given path (default src/) in path order, then the
total.

Usage: python3 tools/src_loc.py [PATH...]
"""

import os
import sys

EXTENSIONS = (".h", ".cc")


def code_lines(text):
    count = 0
    in_block = False
    for line in text.splitlines():
        rest = line.strip()
        code = False
        while rest:
            if in_block:
                end = rest.find("*/")
                if end < 0:
                    rest = ""
                else:
                    in_block = False
                    rest = rest[end + 2:].strip()
            elif rest.startswith("//"):
                rest = ""
            elif rest.startswith("/*"):
                in_block = True
                rest = rest[2:]
            else:
                code = True
                break
        count += code
    return count


def sources(path):
    if os.path.isfile(path):
        yield path
        return
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(EXTENSIONS):
                yield os.path.join(root, name)


def main(argv):
    paths = argv[1:] or ["src"]
    total = 0
    for path in paths:
        if not os.path.exists(path):
            print(f"src_loc: no such path: {path}", file=sys.stderr)
            return 2
        for file in sources(path):
            with open(file, encoding="utf-8", errors="replace") as f:
                n = code_lines(f.read())
            total += n
            print(f"{n:6d} {file}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
