"""EXC checks: protocol calls that can throw NodeCrashed / PeerFailure /
EpochRevoked must never run where unwinding is fatal or recovery is already
in flight.

  EXC001  throwing protocol call inside a destructor (destructors are
          implicitly noexcept; a peer failure there is std::terminate)
  EXC002  throwing protocol call inside a function marked
          `// dynmpi-lint: repair-critical` (the crash-repair path must
          stay local and total — a nested PeerFailure would strand the
          left-merge half-applied on some ranks)
"""

import re

from . import Finding

# msg::Rank / msg::Machine entry points (and the collective helpers built on
# them) that can surface NodeCrashed / PeerFailure / EpochRevoked.
_COLLECTIVES = (
    "bcast|bcast_payload|reduce|allreduce|allreduce_scalar|barrier|gather"
    "|allgather|allgather_scalar")
_THROWING = ("send_wire|recv_wire|recv_payload|send|recv|sync_revocations|"
             + _COLLECTIVES)
_MEMBER_CALL = re.compile(r"(?:\.|->)\s*(" + _THROWING + r")\s*[(<]")
# Bare, or qualified as `msg::` / `dynmpi::msg::` (how src/ writes them).
_FREE_COLLECTIVE = re.compile(
    r"(?<![\w.>:])(?:(?:dynmpi\s*::\s*)?msg\s*::\s*)?(" + _COLLECTIVES
    + r")\s*[(<]")

# `Class::~Class(...) {` out of line, or `~Class() ... {` inline.
_DTOR_OUT = re.compile(r"\b(\w+)\s*::\s*~\s*\1\s*\([^)]*\)[^{};]*\{")
_DTOR_IN = re.compile(r"(?<![:\w])~\s*\w+\s*\(\s*\)[^{};]*\{")


def check(sf, findings):
    for open_line, open_col in _destructor_bodies(sf):
        _scan_body(sf, open_line, open_col, "EXC001",
                   "destructors are noexcept — a protocol failure here is "
                   "std::terminate; drain or detach instead", findings)
    for open_line, open_col in _repair_bodies(sf):
        _scan_body(sf, open_line, open_col, "EXC002",
                   "this function is marked repair-critical — the repair "
                   "path must not re-enter throwing protocol calls",
                   findings)


def _destructor_bodies(sf):
    for i, text in enumerate(sf.code_lines, start=1):
        for rex in (_DTOR_OUT, _DTOR_IN):
            for m in rex.finditer(text):
                brace = text.index("{", m.start())
                yield (i, brace)


def _repair_bodies(sf):
    for marker in sf.repair_markers:
        pos = _function_open_brace(sf, marker)
        if pos is not None:
            yield pos


def _function_open_brace(sf, marker_line):
    """First `{` after the marker that follows a `)` (the function body)."""
    seen_paren = False
    for ln in range(marker_line, min(marker_line + 12, len(sf.code_lines)) + 1):
        row = sf.code_lines[ln - 1]
        for c, ch in enumerate(row):
            if ch == ")":
                seen_paren = True
            elif ch == "{" and seen_paren:
                return (ln, c)
            elif ch == ";" and seen_paren:
                return None  # declaration only; nothing to scan
    return None


def _scan_body(sf, open_line, open_col, code, why, findings):
    for ln, text in sf.body_lines(open_line, open_col):
        if sf.suppressed(ln, "protocol-throw"):
            continue
        for m in _MEMBER_CALL.finditer(text):
            findings.append(Finding(
                sf.rel, ln, m.start(1) + 1, code,
                f"call to throwing protocol method `{m.group(1)}` — {why}"))
        for m in _FREE_COLLECTIVE.finditer(text):
            findings.append(Finding(
                sf.rel, ln, m.start(1) + 1, code,
                f"call to throwing collective `{m.group(1)}` — {why}"))
