#!/usr/bin/env python3
"""The observability catalog has one source: src/support/trace_events.def.

Run via ctest (tools.catalog).  Checks that

  * the Event and Metrics catalog tables in docs/OBSERVABILITY.md are
    exactly the tables rendered from the .def rows, in .def order (on a
    mismatch the expected table is printed, ready to paste);
  * every id in the .def is used by some src/ file (an adaptation row's
    event and counter count as used when its AdaptationEvent::Kind is);
  * every name is unique and every id is its name in CamelCase.
"""

import glob
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "tools"))

import check_trace  # noqa: E402

DOCS = os.path.join(REPO, "docs", "OBSERVABILITY.md")
ROWS = check_trace.read_catalog()

EVENT_KINDS = {"DYNMPI_INSTANT": "instant", "DYNMPI_SPAN": "span"}
METRIC_KINDS = {"DYNMPI_COUNTER": "counter", "DYNMPI_GAUGE": "gauge",
                "DYNMPI_HISTOGRAM": "histogram"}
ID_ENUMS = {"DYNMPI_INSTANT": "InstantId", "DYNMPI_SPAN": "SpanId",
            "DYNMPI_COUNTER": "CounterId", "DYNMPI_GAUGE": "GaugeId",
            "DYNMPI_HISTOGRAM": "HistogramId", "DYNMPI_ADAPTATION": "Kind"}


def event_table():
    lines = ["| Event | Kind | Rank | Required args | Meaning |",
             "|---|---|---|---|---|"]
    for macro, (_, name, rank, args, meaning) in (
            r for r in ROWS if r[0] in EVENT_KINDS):
        arg_list = ", ".join(f"`{a}`" for a in args.split())
        lines.append(f"| `{name}` | {EVENT_KINDS[macro]} | {rank} | "
                     f"{arg_list} | {meaning} |")
    return lines


def metrics_table():
    lines = ["| Name | Kind | Scope | Meaning |", "|---|---|---|---|"]
    for macro, (_, name, scope, meaning) in (
            r for r in ROWS if r[0] in METRIC_KINDS):
        lines.append(f"| `{name}` | {METRIC_KINDS[macro]} | {scope} | "
                     f"{meaning} |")
    return lines


def docs_table(heading):
    """The first table after `heading` in docs/OBSERVABILITY.md."""
    with open(DOCS, encoding="utf-8") as f:
        lines = f.read().splitlines()
    at = lines.index(heading)
    while not lines[at].startswith("|"):
        at += 1
    table = []
    while at < len(lines) and lines[at].startswith("|"):
        table.append(lines[at])
        at += 1
    return table


def camel(name):
    return "".join(w[:1].upper() + w[1:]
                   for w in re.split(r"[._<>]+", name))


class DocsCatalog(unittest.TestCase):
    def check_table(self, heading, expected):
        actual = docs_table(heading)
        if actual != expected:
            print(f"\nexpected table under '{heading}' in "
                  f"docs/OBSERVABILITY.md:\n" + "\n".join(expected),
                  file=sys.stderr)
        self.assertEqual(actual, expected)

    def test_event_catalog_matches_def(self):
        self.check_table("## Event catalog", event_table())

    def test_metrics_catalog_matches_def(self):
        self.check_table("## Metrics catalog", metrics_table())


class DefRows(unittest.TestCase):
    def test_every_id_is_used(self):
        src = ""
        for path in sorted(glob.glob(os.path.join(REPO, "src", "**", "*.?pp"),
                                     recursive=True)):
            with open(path, encoding="utf-8") as f:
                src += f.read()

        def used(macro, ident):
            return re.search(rf"\b{ID_ENUMS[macro]}::{ident}\b", src)

        via_adaptation = set()
        for macro, fields in ROWS:
            if macro == "DYNMPI_ADAPTATION" and used(macro, fields[0]):
                via_adaptation |= {("DYNMPI_INSTANT", fields[1]),
                                   ("DYNMPI_COUNTER", fields[2])}
        unused = [f"{ID_ENUMS[m]}::{f[0]}" for m, f in ROWS
                  if not used(m, f[0]) and (m, f[0]) not in via_adaptation]
        self.assertEqual(unused, [], "ids no src/ file uses")

    def test_names_are_unique_and_ids_are_camel_case(self):
        named = [f for m, f in ROWS if m != "DYNMPI_ADAPTATION"]
        names = [f[1] for f in named]
        self.assertEqual(len(names), len(set(names)), "duplicate names")
        for ident, name, *_ in named:
            self.assertEqual(ident, camel(name), name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
