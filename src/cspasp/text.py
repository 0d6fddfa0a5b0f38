"""The lexer and token cursor that both text formats are read with.

Instances (``csp.parse_instance``) and ground programs
(``program.parse_ground``) put one statement on each line that holds a
token, and share one token set.  They differ only in the character that
starts a comment: ``#`` in instances, ``%`` in programs.
"""

from __future__ import annotations

import re

NAME = re.compile(r"[A-Za-z_]\w*\Z")
INT = re.compile(r"-?\d+\Z")

# the line boundaries of str.splitlines
_EOL = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _lexer(comment: str) -> re.Pattern:
    """Each match is optional in-line blanks followed by a line break, a
    comment, a token, or a bad character.  ``re`` caches the compiled
    pattern."""
    return re.compile(
        rf"[^\S{_EOL}]*(?:(?P<eol>\r\n|[{_EOL}])|{re.escape(comment)}[^{_EOL}]*"
        rf"|(?P<tok>:-|[{{}}(),;.:]|-?\d+|[A-Za-z_]\w*)|(?P<bad>\S))"
    )


class Tokens:
    """The token stream of a whole text, lexed in one pass.

    ``None`` ends each statement.  Columns count from the start of the
    line.  Lexing stops at the first character that starts no token; its
    error is raised once the statements before it have been read (see
    ``statements``), so an earlier line's error comes first.
    """

    def __init__(self, text: str, comment: str):
        toks: list[str | None] = []
        cols: list[int] = []
        self.linenos: list[int] = []  # of each statement
        self.bad: str | None = None  # error for the first bad character
        lineno, line_start, first, end = 1, 0, None, 0
        for m in _lexer(comment).finditer(text + "\n"):  # the last statement ends too
            kind = m.lastgroup
            if kind is None:
                continue  # a comment
            if kind == "eol":
                if first is not None:
                    toks.append(None)
                    cols.append(end - line_start + 1)
                    self.linenos.append(lineno)
                    first = None
                lineno += 1
                line_start = m.end()
                continue
            pos, end = m.span(kind)
            if first is None:
                first = len(toks)
            if kind == "bad":
                self.bad = (
                    f"line {lineno}, col {pos - line_start + 1}: "
                    f"unexpected character {m.group(kind)!r}"
                )
                del toks[first:], cols[first:]
                break
            toks.append(m.group(kind))
            cols.append(pos - line_start + 1)
        self.toks = toks
        self.cols = cols
        self.i = 0
        self.lineno = 0

    def statements(self):
        """Yield each statement's line number with the cursor on its first
        token; once the caller is done with it, check that it read the
        statement to its end."""
        for lineno in self.linenos:
            self.lineno = lineno
            yield lineno
            self.done()
        if self.bad:
            raise ValueError(self.bad)

    def peek(self) -> str | None:
        return self.toks[self.i]

    def next(self) -> str:
        tok = self.toks[self.i]
        if tok is None:
            raise self.error("unexpected end of line")
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok = self.peek()
        if tok != want:
            raise ValueError(
                f"line {self.lineno}, col {self.cols[self.i]}: expected {want!r}, found {tok!r}"
            )
        self.i += 1

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ValueError(f"line {self.lineno}, col {self.cols[self.i]}: trailing {tok!r}")
        self.i += 1

    def error(self, message: str) -> ValueError:
        """``message`` placed on the statement's line."""
        return ValueError(f"line {self.lineno}: {message}")

    def error_at_last(self, message: str) -> ValueError:
        """``message`` placed at the token read last."""
        return ValueError(f"line {self.lineno}, col {self.cols[self.i - 1]}: {message}")

    def build(self, ctor, *args):
        """``ctor(*args)``, with the ValueError it may raise placed on the
        statement's line."""
        try:
            return ctor(*args)
        except ValueError as exc:
            raise self.error(str(exc)) from exc
