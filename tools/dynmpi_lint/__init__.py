"""dynmpi-lint: domain static analysis for the Dyn-MPI reproduction.

Enforces the determinism and protocol invariants that the runtime's
byte-identical-trace guarantees rest on (docs/STATIC_ANALYSIS.md holds the
full catalogue):

  DET001  banned randomness source (only support/rng.hpp is sanctioned)
  DET002  banned wall-clock / calendar-time source (only sim/time.hpp)
  DET003  unordered container without an `ok(unordered-lookup)` suppression
  TAG001  raw tag-space arithmetic / wide literal outside mpisim/tags.hpp
  TAG002  TagSpace switch that is not exhaustive and has no default
  EXC001  throwing protocol call inside a destructor
  EXC002  throwing protocol call inside a `repair-critical` function

Suppressions are line-scoped comments understood by every check:

    // dynmpi-lint: ok(<token>)      same line or the line directly above

with tokens: randomness, wall-clock, unordered-lookup, raw-tag,
tag-switch, protocol-throw.  `// dynmpi-lint: repair-critical`
marks the function that follows as repair-critical (EXC002 scope).
"""

from dataclasses import dataclass, field

__version__ = "1.0"


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, ordered for deterministic output."""

    path: str  # repo-relative, posix separators
    line: int  # 1-based
    col: int   # 1-based
    code: str  # e.g. "DET003"
    message: str = field(compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code}: {self.message}"
