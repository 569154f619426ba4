#!/usr/bin/env python3
"""Schema validator for Dyn-MPI JSONL traces (docs/OBSERVABILITY.md).

Usage:  check_trace.py TRACE.jsonl [--require-adaptation]

Checks, line by line:
  * every line parses as a JSON object;
  * required keys "t" (number), "rank" (int), "ev" (string), "args"
    (object) are present and typed; "dur", when present, is a positive
    number;
  * "t" is non-decreasing over the file (traces export sorted by sim time);
  * the event name is in src/support/trace_events.def and carries the
    required args listed there (the schema is closed: unknown names are an
    error).

With --require-adaptation the trace must additionally contain the full
Monitor -> Grace -> redistribute -> PostGrace story:
runtime.load_change, runtime.grace_enter, runtime.redistributed,
runtime.post_grace_enter and runtime.post_grace_exit, in that order of
first appearance.

Exit status: 0 valid, 1 invalid, 2 usage/IO error.
"""
import json
import os
import re
import sys

# The one definition of every event and metric (docs/OBSERVABILITY.md).
CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src", "support", "trace_events.def")

_TOKEN_RE = re.compile(
    r'"(?P<lit>(?:[^"\\]|\\.)*)"|(?P<word>\w+)|(?P<punct>\S)')


def read_catalog(path=CATALOG):
    """The rows of trace_events.def in file order, as (macro, fields) pairs,
    e.g. ("DYNMPI_SPAN", ["RedistPlan", "redist.plan", ...]).  Comment and
    preprocessor lines are skipped; adjacent string literals join, as in C.
    """
    with open(path, encoding="utf-8") as f:
        text = "\n".join(line for line in f.read().splitlines()
                         if not line.lstrip().startswith(("//", "#")))
    rows, macro, fields, field = [], None, [], None
    for m in _TOKEN_RE.finditer(text):
        if macro is None:
            macro = m["word"]
        elif m["punct"] in (",", ")"):
            fields.append(field)
            field = None
            if m["punct"] == ")":
                rows.append((macro, fields))
                macro, fields = None, []
        elif m["punct"] is None:
            field = m["word"] or (field or "") + m["lit"]
    return rows


def required_args(path=CATALOG):
    """Closed schema: event name -> args that must be present.  Events may
    carry more args than listed (e.g. redist.apply's per-array rows.<name>
    keys)."""
    return {fields[1]: set(fields[3].split())
            for macro, fields in read_catalog(path)
            if macro in ("DYNMPI_INSTANT", "DYNMPI_SPAN")}


ADAPTATION_STORY = [
    "runtime.load_change",
    "runtime.grace_enter",
    "runtime.redistributed",
    "runtime.post_grace_enter",
    "runtime.post_grace_exit",
]


def fail(lineno, msg):
    print(f"check_trace: line {lineno}: {msg}", file=sys.stderr)
    return False


def check_line(lineno, line, schema):
    try:
        ev = json.loads(line)
    except json.JSONDecodeError as e:
        return None, fail(lineno, f"not valid JSON: {e}")
    if not isinstance(ev, dict):
        return None, fail(lineno, "line is not a JSON object")

    ok = True
    t = ev.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        ok = fail(lineno, f'"t" must be a number, got {t!r}')
    rank = ev.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool):
        ok = fail(lineno, f'"rank" must be an integer, got {rank!r}')
    name = ev.get("ev")
    if not isinstance(name, str):
        ok = fail(lineno, f'"ev" must be a string, got {name!r}')
    args = ev.get("args")
    if not isinstance(args, dict):
        ok = fail(lineno, f'"args" must be an object, got {args!r}')
    if "dur" in ev:
        dur = ev["dur"]
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                or dur <= 0:
            ok = fail(lineno, f'"dur" must be a positive number, got {dur!r}')
    extra = set(ev) - {"t", "rank", "ev", "dur", "args"}
    if extra:
        ok = fail(lineno, f"unexpected top-level keys: {sorted(extra)}")

    if isinstance(name, str) and isinstance(args, dict):
        required = schema.get(name)
        if required is None:
            ok = fail(lineno, f'unknown event name "{name}"')
        else:
            missing = required - set(args)
            if missing:
                ok = fail(lineno,
                          f'"{name}" missing args: {sorted(missing)}')
    return ev, ok


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = set(argv[1:]) - set(args)
    if len(args) != 1 or flags - {"--require-adaptation"}:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(args[0], encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"check_trace: {e}", file=sys.stderr)
        return 2

    schema = required_args()
    ok = True
    prev_t = None
    first_seen = {}
    n_events = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        ev, line_ok = check_line(lineno, line, schema)
        ok &= line_ok
        if ev is None:
            continue
        n_events += 1
        t = ev.get("t")
        if isinstance(t, (int, float)) and not isinstance(t, bool):
            if prev_t is not None and t < prev_t:
                ok = fail(lineno,
                          f'"t" decreased: {t} after {prev_t}')
            prev_t = t
        name = ev.get("ev")
        if isinstance(name, str) and name not in first_seen:
            first_seen[name] = lineno

    if n_events == 0:
        ok = fail(0, "trace contains no events")

    if "--require-adaptation" in flags:
        order = []
        for name in ADAPTATION_STORY:
            if name not in first_seen:
                ok = fail(0, f'adaptation story incomplete: no "{name}"')
            else:
                order.append(first_seen[name])
        if order == sorted(order) and len(order) == len(ADAPTATION_STORY):
            pass
        elif len(order) == len(ADAPTATION_STORY):
            ok = fail(0, "adaptation story events out of order: "
                      f"{list(zip(ADAPTATION_STORY, order))}")

    if ok:
        print(f"check_trace: OK — {n_events} events, "
              f"{len(first_seen)} distinct types")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
