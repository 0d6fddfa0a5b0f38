"""The lexer and token cursor that both text formats are read with.

Instances (``csp.parse_instance``) and ground programs
(``program.parse_ground``) put one statement on each line that holds a
token.  They share punctuation, integer and name tokens and differ in two
things: the character that starts a comment (``#`` in instances, ``%`` in
programs), and that in a program a ground atom ``name`` or
``name(arg, ..., arg)`` is one token, with blanks allowed between its
parts.  A name followed by a ``(`` that opens no well-formed argument list
is the token ``name(``, which no atom matches.
"""

from __future__ import annotations

import re
from typing import NamedTuple

NAME = re.compile(r"[A-Za-z_]\w*\Z")
INT = re.compile(r"-?\d+\Z")

_NAME = r"[A-Za-z_]\w*"
_ARG = rf"(?:-?\d+|{_NAME})"
_ATOM = rf"{_NAME}(?:\s*\((?:\s*{_ARG}(?:\s*,\s*{_ARG})*\s*\))?)?"


class Lexer(NamedTuple):
    """A format's comment character and its pattern of tokens in a line
    (blanks, then a token or, at a character that starts none, the empty
    string)."""

    comment: str
    tokens: re.Pattern


def _lexer(comment: str, name: str) -> Lexer:
    return Lexer(comment, re.compile(rf"\s*(:-|[{{}}(),;.:]|-?\d+|{name}|(?=\S))"))


INSTANCE = _lexer("#", _NAME)
GROUND = _lexer("%", _ATOM)


class Tokens:
    """A token cursor over a text, lexed one line at a time.

    The lines are those of ``str.splitlines``.  ``None`` ends each
    statement.  Columns count from the start of the line and are found
    only for an error.  A character that starts no token raises its error
    when lexing reaches its line, so the statements before it have been
    read and an earlier line's error comes first.
    """

    def __init__(self, text: str, lexer: Lexer):
        self.text = text
        self.lexer = lexer
        self.line = ""
        self.toks: list[str | None] = []
        self.i = 0
        self.lineno = 0

    def statements(self):
        """Yield each statement's line number with the cursor on its first
        token; once the caller is done with it, check that it read the
        statement to its end."""
        comment, tokens = self.lexer
        for lineno, line in enumerate(self.text.splitlines(), 1):
            line = line.partition(comment)[0]
            toks = tokens.findall(line)
            if not toks:
                continue
            self.line, self.toks, self.i, self.lineno = line, toks, 0, lineno
            if "" in toks:
                self.i = toks.index("")
                raise self.error_here(f"unexpected character {line[self._col(self.i) - 1]!r}")
            toks.append(None)
            yield lineno
            self.done()

    def _col(self, i: int) -> int:
        """Token ``i``'s column; the end of the statement's is just past
        its last token."""
        found = list(self.lexer.tokens.finditer(self.line))
        return (found[i].start(1) if i < len(found) else found[-1].end(1)) + 1

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
            raise self.error_here(f"expected {want!r}, found {tok!r}")
        self.i += 1

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error_here(f"trailing {tok!r}")
        self.i += 1

    def error(self, message: str) -> ValueError:
        """``message`` placed on the statement's line."""
        return ValueError(f"line {self.lineno}: {message}")

    def error_here(self, message: str) -> ValueError:
        """``message`` placed at the next token."""
        return ValueError(f"line {self.lineno}, col {self._col(self.i)}: {message}")

    def error_at_last(self, message: str) -> ValueError:
        """``message`` placed at the token read last."""
        return ValueError(f"line {self.lineno}, col {self._col(self.i - 1)}: {message}")

    def build(self, ctor, *args):
        """``ctor(*args)``, with the ValueError it may raise placed on the
        statement's line."""
        try:
            return ctor(*args)
        except ValueError as exc:
            raise self.error(str(exc)) from exc
