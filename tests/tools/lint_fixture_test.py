#!/usr/bin/env python3
"""Golden-fixture tests for tools/dynmpi_lint (run via ctest: lint.fixtures).

Two miniature repos live under fixtures/:

  * violations/ — one seeded violation per check; this test asserts the
    EXACT finding code and location of every one of them, and that nothing
    else fires (so the suppression syntax and the clean lines are pinned
    too);
  * clean/ — sanctioned versions of the same constructs; must exit 0 with
    zero findings.
"""

import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "dynmpi_lint", "lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# Every finding the violations/ tree must produce: (path, line, code).
EXPECTED_VIOLATIONS = sorted([
    ("src/det_random.cpp", 3, "DET001"),
    ("src/det_wallclock.cpp", 2, "DET002"),   # #include <ctime>
    ("src/det_wallclock.cpp", 4, "DET002"),   # time(nullptr)
    ("src/det_unordered.cpp", 6, "DET003"),
    ("src/tag_raw.cpp", 4, "TAG001"),         # >> 62
    ("src/tag_raw.cpp", 7, "TAG001"),         # wide literal
    ("src/tag_switch.cpp", 5, "TAG002"),
    ("src/exc_dtor.cpp", 8, "EXC001"),
    ("src/exc_repair.cpp", 15, "EXC002"),     # r.recv_wire
    ("src/exc_repair.cpp", 16, "EXC002"),     # r.recv_payload
    ("src/exc_repair.cpp", 17, "EXC002"),     # msg::bcast
    ("src/exc_repair.cpp", 18, "EXC002"),     # dynmpi::msg::allreduce_scalar
])

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+):(?P<col>\d+): "
                        r"(?P<code>[A-Z]{3}\d{3}): (?P<msg>.+)$")


def run_lint(fixture):
    proc = subprocess.run(
        [sys.executable, LINT, "--repo", os.path.join(FIXTURES, fixture)],
        capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.append((m.group("path"), int(m.group("line")),
                             m.group("code")))
        elif line.strip():
            raise AssertionError(f"unparseable output line: {line!r}")
    return proc.returncode, sorted(findings)


class ViolationsFixture(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.returncode, cls.findings = run_lint("violations")

    def test_exit_status_signals_findings(self):
        self.assertEqual(self.returncode, 1)

    def test_exact_findings(self):
        """Every seeded violation fires at its documented code + location,
        and no unexpected finding appears (pins suppressions too)."""
        self.assertEqual(self.findings, EXPECTED_VIOLATIONS)

    def test_every_check_family_is_covered(self):
        codes = {c for _, _, c in self.findings}
        self.assertEqual(codes, {
            "DET001", "DET002", "DET003",
            "TAG001", "TAG002",
            "EXC001", "EXC002",
        })


class CleanFixture(unittest.TestCase):
    def test_clean_tree_is_silent(self):
        returncode, findings = run_lint("clean")
        self.assertEqual(findings, [])
        self.assertEqual(returncode, 0)


class CliBehavior(unittest.TestCase):
    def test_list_checks_mentions_every_code(self):
        proc = subprocess.run([sys.executable, LINT, "--list-checks"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        for code in ("DET001", "DET002", "DET003", "TAG001", "TAG002",
                     "EXC001", "EXC002"):
            self.assertIn(code, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
