"""Lexical model of one C++ source file.

A single character-level pass splits the file into two synchronized views:

  * ``code_lines``   — line-by-line code with comments blanked and string /
    char literal *contents* blanked (the quotes survive, so token-level
    regexes never fire inside prose);
  * ``suppressions`` — ``dynmpi-lint: ok(token)`` comment tokens per line,
    plus the lines carrying a ``dynmpi-lint: repair-critical`` marker.

The pass understands //-comments, /* */ comments, char literals, ordinary
string literals with escapes, and basic R"( ... )" raw strings — everything
the src/ tree actually uses.
"""

import re

_SUPPRESS_RE = re.compile(r"dynmpi-lint:\s*ok\(([a-z-]+)\)")
_REPAIR_RE = re.compile(r"dynmpi-lint:\s*repair-critical")


class SourceFile:
    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel  # repo-relative posix path
        self.code_lines = []
        self.suppressions = {}   # line -> set of tokens
        self.repair_markers = [] # lines with a repair-critical marker
        self._scan(text)

    # -- suppression helpers -------------------------------------------------

    def suppressed(self, line, token):
        """True if `token` is suppressed on `line` (same or previous line)."""
        for ln in (line, line - 1):
            if token in self.suppressions.get(ln, ()):
                return True
        return False

    def _note_comment(self, text, start_line):
        for m in _SUPPRESS_RE.finditer(text):
            ln = start_line + text.count("\n", 0, m.start())
            self.suppressions.setdefault(ln, set()).add(m.group(1))
        for m in _REPAIR_RE.finditer(text):
            ln = start_line + text.count("\n", 0, m.start())
            self.repair_markers.append(ln)

    # -- the scanner ---------------------------------------------------------

    def _scan(self, text):
        code = []      # code characters of the current line
        line = 1
        col = 0        # 0-based within the current line
        i = 0
        n = len(text)

        def newline():
            nonlocal line, col
            self.code_lines.append("".join(code))
            code.clear()
            line += 1
            col = 0

        while i < n:
            c = text[i]
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "\n":
                newline()
                i += 1
                continue
            if c == "/" and nxt == "/":
                end = text.find("\n", i)
                end = n if end < 0 else end
                self._note_comment(text[i:end], line)
                col += end - i
                i = end
                continue
            if c == "/" and nxt == "*":
                end = text.find("*/", i + 2)
                end = n if end < 0 else end + 2
                self._note_comment(text[i:end], line)
                # blank the comment but keep line structure
                for ch in text[i:end]:
                    if ch == "\n":
                        newline()
                    else:
                        code.append(" ")
                        col += 1
                i = end
                continue
            if c == "R" and nxt == '"':
                # raw string R"delim( ... )delim"
                m = re.match(r'R"([^()\s]*)\(', text[i:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    end = text.find(closer, i + m.end())
                    end = n if end < 0 else end + len(closer)
                    code.append('"')
                    code.append('"')
                    for ch in text[i:end]:
                        if ch == "\n":
                            newline()
                        else:
                            col += 1
                    i = end
                    continue
            if c == '"' or c == "'":
                quote = c
                j = i + 1
                while j < n and text[j] != quote:
                    if text[j] == "\\" and j + 1 < n:
                        j += 2
                    elif text[j] == "\n":
                        break  # unterminated on this line; bail out
                    else:
                        j += 1
                code.append(quote)
                code.append(quote)
                span = (j + 1 if j < n and text[j] == quote else j) - i
                col += span
                i += span
                continue
            code.append(c)
            col += 1
            i += 1
        self.code_lines.append("".join(code))

    # -- structural helpers used by the brace-matching checks ---------------

    def find_matching_brace(self, line, col):
        """Given the position of a '{' in code_lines (1-based line, 0-based
        col), return the (line, col) of its matching '}' or None."""
        depth = 0
        ln = line
        c = col
        while ln <= len(self.code_lines):
            row = self.code_lines[ln - 1]
            while c < len(row):
                ch = row[c]
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0:
                        return (ln, c)
                c += 1
            ln += 1
            c = 0
        return None

    def body_lines(self, open_line, open_col):
        """Yield (line, text) for every code line inside the brace opened at
        (open_line, open_col), clipped to the body extent."""
        end = self.find_matching_brace(open_line, open_col)
        if end is None:
            end = (len(self.code_lines), 0)
        end_line, _ = end
        for ln in range(open_line, end_line + 1):
            yield ln, self.code_lines[ln - 1]


def load(path, rel):
    with open(path, encoding="utf-8") as f:
        return SourceFile(path, rel, f.read())
