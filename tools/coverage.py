#!/usr/bin/env python3
"""Line coverage of src/ from a --coverage build, after ctest has run.

usage: tools/coverage.py BUILD_DIR

Runs `gcov --json-format` over every .gcda file under BUILD_DIR, merges the
line records of files under src/ (a line counts as covered when any object
file ran it), prints each file's line coverage with its missed lines as
src/<file>:<line> beneath it, then the total, and exits 1 when the total is
below FLOOR.  Raise FLOOR when coverage rises; never
lower it.
"""
import json
import os
import subprocess
import sys

FLOOR = 99.19  # percent of src/ lines run by ctest (gcc 12: 99.193)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src") + os.sep


def main(build_dir):
    # gcov runs inside build_dir, so the .gcda paths must not be relative.
    build_dir = os.path.abspath(build_dir)
    gcdas = [os.path.join(d, f) for d, _, fs in os.walk(build_dir)
             for f in fs if f.endswith(".gcda")]
    if not gcdas:
        sys.exit(f"no .gcda files under {build_dir}: run ctest first")
    lines = {}  # (file, line) -> covered
    for i in range(0, len(gcdas), 64):
        out = subprocess.run(["gcov", "--json-format", "--stdout"] +
                             gcdas[i:i + 64], check=True, text=True,
                             capture_output=True, cwd=build_dir).stdout
        for doc in filter(None, (s.strip() for s in out.splitlines())):
            for f in json.loads(doc)["files"]:
                path = os.path.realpath(f["file"])
                if not path.startswith(SRC):
                    continue
                for ln in f["lines"]:
                    key = (path[len(SRC):], ln["line_number"])
                    lines[key] = lines.get(key, False) or ln["count"] > 0
    per_file = {}
    missed = {}
    for (path, line), hit in sorted(lines.items()):
        run, total = per_file.get(path, (0, 0))
        per_file[path] = (run + hit, total + 1)
        if not hit:
            missed.setdefault(path, []).append(line)
    for path, (run, total) in sorted(per_file.items()):
        print(f"{100.0 * run / total:6.1f}%  {total - run:4d} missed  src/{path}")
        for line in missed.get(path, []):
            print(f"        src/{path}:{line}")
    run = sum(r for r, _ in per_file.values())
    total = sum(t for _, t in per_file.values())
    if total == 0:
        sys.exit(f"gcov found no src/ lines under {build_dir}")
    pct = 100.0 * run / total
    print(f"total: {pct:.3f}% of {total} src/ lines ({total - run} missed); "
          f"floor {FLOOR:.2f}%")
    if pct < FLOOR:
        sys.exit(f"line coverage {pct:.3f}% is below the floor {FLOOR:.2f}%")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
