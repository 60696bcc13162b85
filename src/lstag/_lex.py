"""Tokenizer shared by the bracketed tree format and the grammar file format.

Fast path: `lex` splits the text at newlines and scans each line with one
compiled alternation of every token pattern, one match per token, run of
blanks or comment.  A token's column is its offset in its line plus one,
counted in characters; the EOF token after a trailing comment keeps the
comment's column.  Error path: where a match does not start where the last
one ended, no token starts there, and `_error_at` classifies that one
offset as an unexpected character, a bad escape or an unterminated string.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Iterator, NamedTuple

from .errors import ParseError
from .gorn import GornAddress

# The alternatives start with disjoint characters, so their order only
# affects speed: the most frequent come first.
_TOKEN_RE = re.compile(
    r"""(?P<NAME>[A-Za-z_][A-Za-z0-9_']*)
    |(?P<SKIP>[ \t\r]+)
    |(?P<PUNCT><-|->|[(){}\[\]:~,!*@])
    |(?P<STRING>"(?:[^"\\]|\\["\\])*")
    |(?P<ADDR>ε|\d+(?:\.\d+)*)
    |(?P<COMMENT>\#.*)""",
    re.VERBOSE,
)
_STRING_PREFIX_RE = re.compile(r'"(?:[^"\\]|\\["\\])*')
_ESCAPE_RE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: str  # NAME, ADDR, STRING, PUNCT, EOF
    text: str
    line: int
    column: int


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    make = tuple.__new__  # Token(...) without the Python-level __new__ frame
    for line, row in enumerate(text.split("\n"), 1):
        end = 0
        for m in _TOKEN_RE.finditer(row):
            start = m.start()
            if start != end:
                raise _error_at(row, end, line)
            kind = m.lastgroup
            end = m.end()
            if kind == "SKIP":
                continue
            if kind == "STRING":
                body = row[start + 1 : end - 1]
                if "\\" in body:
                    body = _ESCAPE_RE.sub(r"\1", body)
                append(make(Token, ("STRING", body, line, start + 1)))
            elif kind == "COMMENT":
                end = start  # so EOF after a trailing comment takes the comment's column
            else:
                append(make(Token, (kind, m[0], line, start + 1)))
        if end < len(row) and row[end] != "#":
            raise _error_at(row, end, line)
    append(Token("EOF", "", line, end + 1))
    return tokens


def _error_at(row: str, pos: int, line: int) -> ParseError:
    """The error for the text at offset `pos` of a line, where no token starts."""
    if row[pos] != '"':
        return ParseError(f"unexpected character {row[pos]!r}", line, pos + 1)
    if row.startswith("\\", _STRING_PREFIX_RE.match(row, pos).end()):
        return ParseError("invalid escape in string literal", line, pos + 1)
    return ParseError("unterminated string literal", line, pos + 1)


class Cursor:
    """Single-lookahead reader over a token list that ends in EOF.

    `expect` and `accept` are never asked for EOF, so the cursor never
    moves past it.  The tree parser reads `tokens` and `pos` directly.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text if text is not None else kind
            raise ParseError(f"expected {wanted!r}, found {tok.text or tok.kind!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def address(self) -> GornAddress:
        """Read an ADDR token; a malformed address is a parse error at that token."""
        tok = self.expect("ADDR")
        try:
            return GornAddress.parse(tok.text)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(message, tok.line, tok.column)


def script_lines(text: str) -> Iterator[tuple[int, Cursor]]:
    """Lex a line-oriented script once; yield (line number, cursor) per non-empty line.

    Each cursor ends in an EOF token just past its line's last token, so a
    token-level error reports the script's own line and column.
    """
    for lineno, group in groupby(lex(text)[:-1], key=lambda tok: tok.line):
        *tokens, last = group
        yield lineno, Cursor([*tokens, last, Token("EOF", "", lineno, last.column + len(last.text))])
