#!/usr/bin/env python3
"""tools/check_trace.py against small JSONL fixtures (ctest:
tools.check_trace).

The schema it checks comes from src/support/trace_events.def, so these
pin that the validator really reads it: an event name the .def lacks and
an event missing one of its required args must each be rejected (exit 1),
and a valid one-line trace accepted (exit 0).
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
CHECK = os.path.join(REPO, "tools", "check_trace.py")
FIXTURES = os.path.join(HERE, "fixtures", "trace")


def check(fixture):
    return subprocess.run(
        [sys.executable, CHECK, os.path.join(FIXTURES, fixture)],
        capture_output=True, text=True)


class CheckTrace(unittest.TestCase):
    def test_unknown_event_name_is_rejected(self):
        proc = check("unknown_event.jsonl")
        self.assertEqual(proc.returncode, 1)
        self.assertIn('line 2: unknown event name "runtime.bogus_event"',
                      proc.stderr)

    def test_missing_required_arg_is_rejected(self):
        proc = check("missing_arg.jsonl")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("line 2: \"redist.pack\" missing args: ['messages']",
                      proc.stderr)

    def test_valid_trace_is_accepted(self):
        proc = check("valid.jsonl")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("OK — 1 events", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
