#!/usr/bin/env python3
"""dynmpi-lint driver.

Usage:
  python3 tools/dynmpi_lint/lint.py --repo . [--format text|json]
      [--list-checks]

Scans src/**/*.{cpp,hpp} of the repo for violations of the Dyn-MPI
determinism and protocol invariants and prints findings as
`path:line:col: CODE: message`, sorted and deterministic.  Exit status:
0 clean, 1 findings, 2 usage/IO error.  Needs only the standard library;
see docs/STATIC_ANALYSIS.md for the check catalogue and suppression syntax.
"""

import argparse
import json
import os
import sys

if __package__ in (None, ""):  # executed as a script
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from dynmpi_lint import source, determinism, tags, exceptions
    import dynmpi_lint as _pkg
else:
    from . import source, determinism, tags, exceptions
    import dynmpi_lint as _pkg


def gather_sources(repo):
    src_root = os.path.join(repo, "src")
    files = []
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith((".cpp", ".hpp")):
                path = os.path.join(dirpath, fn)
                rel = os.path.relpath(path, repo).replace(os.sep, "/")
                files.append(source.load(path, rel))
    return files


def run(repo):
    """Lint the tree; returns the sorted findings."""
    sources = gather_sources(os.path.abspath(repo))
    if not sources:
        raise FileNotFoundError(f"no C++ sources under {repo}/src")
    findings = []
    for sf in sources:
        determinism.check(sf, findings)
        tags.check(sf, findings)
        exceptions.check(sf, findings)
    return sorted(set(findings))


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dynmpi-lint",
        description="Determinism & protocol static analysis for Dyn-MPI")
    ap.add_argument("--repo", default=".", help="repository root")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--list-checks", action="store_true",
                    help="print the check catalogue and exit")
    args = ap.parse_args(argv)

    if args.list_checks:
        print(_pkg.__doc__.strip())
        return 0

    try:
        findings = run(args.repo)
    except FileNotFoundError as e:
        print(f"dynmpi-lint: error: {e}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps([f.__dict__ for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
    if findings:
        print(f"dynmpi-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("dynmpi-lint: clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
