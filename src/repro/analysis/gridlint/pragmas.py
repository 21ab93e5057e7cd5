"""``# gridlint: disable=...`` pragma parsing.

Two scopes:

* line pragma — a trailing comment on the offending line::

      t0 = time.time()  # gridlint: disable=GL001 -- CLI stopwatch, not sim

  suppresses the listed codes (comma-separated, or ``all``) for that
  physical line only.  Everything after the code list is a free-form
  justification; gridlint requires one in this codebase by convention.

* file pragma — anywhere in the file, on a line of its own::

      # gridlint: disable-file=GL002 -- this module IS the seeded RNG

  suppresses the listed codes for the whole file.

Line pragmas cover multi-line statements: a pragma on the first
physical line of a multi-line call/expression also suppresses findings
the AST reports on its continuation lines (the engine expands spans via
:meth:`PragmaMap.expand_multiline` after parsing).  For compound
statements (``if``/``def``/...), the pragma covers the header up to
the first body statement, never the body itself.
"""

from __future__ import annotations

import ast
import re

__all__ = ["PragmaMap", "parse_pragmas"]

_PRAGMA_RE = re.compile(
    r"#\s*gridlint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>all|GL\d{3}(?:\s*,\s*GL\d{3})*)",
)


class PragmaMap:
    """Suppression lookup: (line, code) -> suppressed?"""

    def __init__(self) -> None:
        self.file_codes: set[str] = set()
        self.file_all = False
        self.line_codes: dict[int, set[str]] = {}
        self.line_all: set[int] = set()

    def suppresses(self, line: int, code: str) -> bool:
        if self.file_all or code in self.file_codes:
            return True
        if line in self.line_all:
            return True
        return code in self.line_codes.get(line, ())

    def expand_multiline(self, tree: ast.Module) -> None:
        """Extend line pragmas across their statement's physical span.

        A pragma sits on the *first* line of a statement; findings on a
        multi-line call/expression may be reported on any continuation
        line.  Simple statements expand over their whole span; compound
        statements (which own a ``body``) expand only over their header
        — up to the line before their first body statement — so a
        pragma on a ``def`` line never silences the function body.
        """
        if not (self.line_all or self.line_codes):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            start = node.lineno
            if start not in self.line_all and \
                    start not in self.line_codes:
                continue
            end = node.end_lineno or start
            body = getattr(node, "body", None)
            if isinstance(body, list) and body:
                end = min(end, body[0].lineno - 1)
            for line in range(start + 1, end + 1):
                if start in self.line_all:
                    self.line_all.add(line)
                if start in self.line_codes:
                    self.line_codes.setdefault(line, set()).update(
                        self.line_codes[start]
                    )


def parse_pragmas(source_lines: list[str]) -> PragmaMap:
    """Scan raw source lines for gridlint pragmas."""
    pragmas = PragmaMap()
    for lineno, text in enumerate(source_lines, start=1):
        if "gridlint" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        codes = match.group("codes")
        file_scope = match.group("scope") == "disable-file"
        if codes == "all":
            if file_scope:
                pragmas.file_all = True
            else:
                pragmas.line_all.add(lineno)
            continue
        parsed = {c.strip() for c in codes.split(",")}
        if file_scope:
            pragmas.file_codes |= parsed
        else:
            pragmas.line_codes.setdefault(lineno, set()).update(parsed)
    return pragmas
