"""Tokenizer shared by the bracketed tree format, the grammar file format and derivation scripts.

`lex` is one `findall` of one pattern, whose one group is the token after
the blanks, newlines and comments before it.  A token is its text as
written (a STRING keeps its quotes), read by kind off its first character;
any character no token starts with is a one-character stray token, and the
EOF's text is ''.  Positions are worked out only for an error: `Cursor`
scans the text once more with the same pattern and keeps every token's
offset.  The EOF after a trailing comment takes the comment's column.
`read_script` lexes each line of a script once and reads its root, for
both script readers.
"""

from __future__ import annotations

import re
import string
from typing import TYPE_CHECKING

from .errors import ParseError
from .gorn import GornAddress

if TYPE_CHECKING:
    from .trees import Interior, TreeNode

PUNCT = "(){}[]:~,!*@"
NAME_START = frozenset(string.ascii_letters + "_")

_STRING_PREFIX = r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*'
# The alternatives start with disjoint characters, so their order only
# affects speed: the most frequent come first.  The prefix is greedy and the
# group matches wherever it stops, so the pattern never backtracks.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"  # blanks, newlines and comments
    r"([A-Za-z_][A-Za-z0-9_']*"  # NAME
    r"|<-|->|[" + re.escape(PUNCT) + "]"  # PUNCT
    r"|" + _STRING_PREFIX + '"'  # STRING
    r"|ε|\d+(?:\.\d+)*"  # ADDR
    r"|."  # any other character: a stray token
    r"|\Z)"  # EOF
)
_STRING_PREFIX_RE = re.compile(_STRING_PREFIX)
_ESCAPE_RE = re.compile(r"\\(.)")


def lex(text: str, line: int = 1) -> list[str]:
    """The token texts of `text`, which starts on line `line`, and the EOF text ''; a stray token is an error."""
    texts = _TOKEN_RE.findall(text)
    if len(texts) > 1 and not texts[-2]:
        texts.pop()  # blanks or a comment end the text: an empty match at \Z follows the one over them
    strays = [t for t in set(texts) if len(t) == 1 and t not in PUNCT and token_kind(t) not in ("NAME", "ADDR")]
    if not strays:
        return texts
    cur, index = Cursor(text, texts, line), min(map(texts.index, strays))
    if texts[index] != '"':
        raise cur.error(f"unexpected character {texts[index]!r}", index)
    if text.startswith("\\", _STRING_PREFIX_RE.match(text, cur.offset(index)).end()):
        raise cur.error("invalid escape in string literal", index)
    raise cur.error("unterminated string literal", index)


def token_kind(text: str) -> str:
    """NAME, ADDR, STRING, PUNCT or EOF, read off a token text's first character."""
    first = text[:1]
    if first in NAME_START:
        return "NAME"
    if first == "ε" or first.isdecimal():
        return "ADDR"
    if first == '"':
        return "STRING"
    return "PUNCT" if first else "EOF"


def string_value(text: str) -> str:
    """A STRING token's value: what its quotes enclose, unescaped."""
    body = text[1:-1]
    return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body


class Cursor:
    """Single-lookahead reader over the token texts of `source` (from line `line`), which end in EOF.

    `accept` and `expect` compare texts, `name` and `address` read a NAME and
    an ADDR (each distinct address is parsed once per cursor), and none moves
    past EOF.  The tree parser reads `texts` and `pos` directly, and builds
    each distinct leaf node and interior kind once per cursor: `leaves` maps
    a leaf's written form (`NP!`, `S*`, `NP`, `"x"`) to its node, `interiors`
    a symbol to its `Interior` kind.  Both live as long as the cursor, so no
    node is shared across documents.  The first error built scans `source`
    for the token offsets, which the cursor keeps.
    """

    def __init__(self, source: str, texts: list[str], line: int = 1):
        self.source = source
        self.texts = texts
        self.line = line
        self.pos = 0
        self.leaves: dict[str, TreeNode] = {}
        self.interiors: dict[str, Interior] = {}
        self._addresses: dict[str, GornAddress] = {}
        self._offsets: list[int] | None = None

    def peek(self) -> str:
        return self.texts[self.pos]

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self._expected(text)
        self.pos += 1

    def name(self) -> str:
        text = self.texts[self.pos]
        if text[:1] not in NAME_START:
            raise self._expected("NAME")
        self.pos += 1
        return text

    def address(self) -> GornAddress:
        """Read an ADDR token; a malformed address is a parse error at that token."""
        text = self.texts[self.pos]
        addr = self._addresses.get(text)
        if addr is None:
            if token_kind(text) != "ADDR":
                raise self._expected("ADDR")
            try:
                addr = self._addresses[text] = GornAddress.parse(text)
            except ValueError as exc:
                raise self.error(str(exc)) from None
        self.pos += 1
        return addr

    def _expected(self, wanted: str) -> ParseError:
        text = self.texts[self.pos]
        shown = (string_value(text) if text[:1] == '"' else text) or token_kind(text)
        return self.error(f"expected {wanted!r}, found {shown!r}")

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A parse error at token `index`, by default the next one."""
        return ParseError(message, *self.where(self.pos if index is None else index))

    def where(self, index: int) -> tuple[int, int]:
        """The line and column of token `index`."""
        at = self.offset(index)
        return self.line + self.source.count("\n", 0, at), at - self.source.rfind("\n", 0, at)

    def offset(self, index: int) -> int:
        """Where token `index` starts in `source`."""
        if self._offsets is None:
            offsets = [m.start(1) for m in _TOKEN_RE.finditer(self.source)]
            eof = len(self.texts) - 1
            end = offsets[eof - 1] + len(self.texts[eof - 1]) if eof else 0
            offsets[eof:] = [self._eof_offset(end)]
            self._offsets = offsets
        return self._offsets[index]

    def _eof_offset(self, end: int) -> int:
        """Where EOF is, given where the last token ends: at a comment on the last line, else at the end."""
        comment = self.source.find("#", max(end, self.source.rfind("\n") + 1))
        return comment if comment >= 0 else len(self.source)


class LineCursor(Cursor):
    """A script line's cursor, whose EOF is just past the line's last token."""

    def end(self) -> None:
        """The line ends here: a token left on it is a parse error."""
        if self.texts[self.pos]:
            raise self.error("trailing input on script line")

    def _eof_offset(self, end: int) -> int:
        return end


def read_script(text: str) -> tuple[str, list[tuple[int, LineCursor]]]:
    """A derivation script's root, and a (line number, cursor) per line with tokens after a `root` line.

    Every line is lexed first, so a lexical error precedes any step.  A first
    line `root NAME` is read to its end and consumed; any other first line is
    left unread, and the script is rooted at the first name on it, as a TAG
    script that starts with an edge is.  An lspair step first is an error.
    """
    rows = [(lineno, row, lex(row, lineno)) for lineno, row in enumerate(text.split("\n"), 1)]
    lines = [(lineno, LineCursor(row, texts, lineno)) for lineno, row, texts in rows if len(texts) > 1]
    if not lines:
        raise ParseError("empty derivation script")
    lineno, cur = lines[0]
    if cur.accept("root"):
        root = cur.name()
        cur.end()
        return root, lines[1:]
    root = cur.name()
    if root in ("adjoin", "substitute") and token_kind(cur.peek()) == "NAME":  # an lspair step
        raise ParseError("script needs a root declaration first", lineno)
    cur.pos = 0
    return root, lines
