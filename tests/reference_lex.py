"""Reference tokenizer and tree parser: the character-at-a-time front end.

This is `lstag._lex` as it was before the lexer became one compiled
alternation: `lex` steps through the text one character per loop
iteration and tries each token pattern in turn.  `parse_tree_tokens` is the
tree parser of that time, which reads through `Cursor` calls, lists
(kind, child count, site) rows in preorder and builds the nodes from them
with `_from_preorder`.  `parse_grammar` is the grammar file parser of the
time before token texts, which read `Token` fields through the same
`Cursor`.  The library's `lex`, `parse_tree_tokens` and `parse_grammar`
must agree with these on every token, tree, document, cursor position and
`ParseError` message, line and column, except that the library also
locates the two whole-tree errors (a non-interior root, a second foot),
which these raise without a line.  `test_front_end.py` checks that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence

from lstag.errors import ParseError
from lstag.gorn import ROOT_TEXT, GornAddress
from lstag.grammarfile import GrammarDocument
from lstag.restrictions import Correspondence
from lstag.sharing import LstagPair
from lstag.stag import Link, StagPair
from lstag.trees import Foot, Interior, NodeKind, SubstitutionSlot, SyntaxTree, Terminal, TreeNode

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_ADDR_RE = re.compile(r"\d+(?:\.\d+)*")
_TWO_CHAR = ("<-", "->")
_ONE_CHAR = "(){}[]:~,!*@"


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, ADDR, STRING, PUNCT, EOF
    text: str
    line: int
    column: int


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i : i + 2] in _TWO_CHAR:
            tokens.append(Token("PUNCT", text[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n:
                c = text[j]
                if c == "\\":
                    if j + 1 >= n or text[j + 1] not in ('"', "\\"):
                        raise ParseError("invalid escape in string literal", line, col)
                    out.append(text[j + 1])
                    j += 2
                    continue
                if c == '"':
                    break
                if c == "\n":
                    raise ParseError("unterminated string literal", line, col)
                out.append(c)
                j += 1
            else:
                raise ParseError("unterminated string literal", line, col)
            tokens.append(Token("STRING", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch == ROOT_TEXT:
            tokens.append(Token("ADDR", ROOT_TEXT, line, col))
            i += 1
            col += 1
            continue
        m = _ADDR_RE.match(text, i)
        if m:
            tokens.append(Token("ADDR", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(Token("NAME", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class Cursor:
    """Single-lookahead reader over a token list."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text if text is not None else kind
            raise ParseError(f"expected {wanted!r}, found {tok.text or tok.kind!r}", tok.line, tok.column)
        return self.next()

    def address(self) -> GornAddress:
        """Read an ADDR token; a malformed address is a parse error at that token."""
        tok = self.expect("ADDR")
        try:
            return GornAddress.parse(tok.text)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)


def script_lines(text: str) -> Iterator[tuple[int, Cursor]]:
    """Lex a line-oriented script once; yield (line number, cursor) per non-empty line.

    Each cursor ends in an EOF token just past its line's last token, so a
    token-level error reports the script's own line and column.
    """
    for lineno, group in groupby(lex(text)[:-1], key=lambda tok: tok.line):
        *tokens, last = group
        yield lineno, Cursor([*tokens, last, Token("EOF", "", lineno, last.column + len(last.text))])


def _from_preorder(rows: Sequence[Sequence]) -> TreeNode:
    """Build the nodes listed as (kind, child count, site) rows in preorder.

    In reverse preorder a node's children are built before it, the first
    child last.
    """
    done: list[TreeNode] = []
    for kind, count, site in reversed(rows):
        kids = tuple(reversed(done[len(done) - count:]))
        del done[len(done) - count:]
        done.append(TreeNode(kind, kids, site))
    return done[0]


def parse_tree_tokens(cur: Cursor) -> SyntaxTree:
    rows: list[list] = []  # [kind, child count, site] per node, in preorder
    open_rows: list[list] = []  # interior nodes whose ')' is still to come
    while True:
        tok = cur.peek()
        if tok.kind not in ("STRING", "NAME"):
            raise cur.error("expected a node symbol or quoted terminal")
        cur.next()
        if tok.kind == "STRING":
            kind: NodeKind = Terminal(tok.text)
        elif cur.accept("PUNCT", "!"):
            kind = SubstitutionSlot(tok.text)
        elif cur.accept("PUNCT", "*"):
            kind = Foot(tok.text)
        else:
            kind = Interior(tok.text)
        if open_rows:
            open_rows[-1][1] += 1
        rows.append([kind, 0, None])
        if isinstance(kind, Interior) and cur.accept("PUNCT", "("):
            if cur.accept("PUNCT", ")"):
                raise ParseError("empty child list", tok.line, tok.column)
            open_rows.append(rows[-1])
        else:
            while open_rows and cur.accept("PUNCT", ")"):
                open_rows.pop()
            if not open_rows:
                break
        if cur.peek().kind == "EOF":
            raise cur.error("unterminated tree, expected ')'")
    if not isinstance(rows[0][0], Interior):
        raise ParseError("root node must be an interior node")
    if sum(isinstance(kind, Foot) for kind, _, _ in rows) > 1:
        raise ParseError("tree has more than one foot node")
    return SyntaxTree(_from_preorder(rows))


def _parse_address_pairs(cur: Cursor, sep: str, bare: bool = False) -> list[tuple[GornAddress, GornAddress]]:
    """`[a <sep> b, ...]`; with `bare`, a lone `a` stands for `a <sep> a`."""
    cur.expect("PUNCT", "[")
    pairs: list[tuple[GornAddress, GornAddress]] = []
    while not cur.accept("PUNCT", "]"):
        first = cur.address()
        if bare and not cur.accept("PUNCT", sep):
            pairs.append((first, first))
        else:
            if not bare:
                cur.expect("PUNCT", sep)
            pairs.append((first, cur.address()))
        if not cur.accept("PUNCT", ","):
            cur.expect("PUNCT", "]")
            break
    return pairs


def _parse_links(cur: Cursor, bare: bool = False) -> list[Link]:
    return [Link(left, right) for left, right in _parse_address_pairs(cur, "~", bare)]


def _parse_correspond_list(cur: Cursor) -> Correspondence:
    open_tok = cur.peek()
    pairs = _parse_address_pairs(cur, "->")
    try:
        return Correspondence(tuple(pairs))
    except ValueError as exc:
        raise ParseError(str(exc), open_tok.line, open_tok.column) from None


def parse_grammar(cur: Cursor) -> GrammarDocument:
    """The document `cur` reads from its start to its EOF."""
    trees: list[tuple[str, SyntaxTree]] = []
    stag_pairs: list[StagPair] = []
    lstag_pairs: list[LstagPair] = []
    correspondences: list[tuple[str, Correspondence]] = []
    seen: set[str] = set()

    def declare(name: str, tok: Token) -> None:
        if name in seen:
            raise ParseError(f"duplicate declaration of {name!r}", tok.line, tok.column)
        seen.add(name)

    while cur.peek().kind != "EOF":
        keyword = cur.expect("NAME")
        if keyword.text == "tree":
            name_tok = cur.expect("NAME")
            declare(name_tok.text, name_tok)
            cur.expect("PUNCT", ":")
            trees.append((name_tok.text, parse_tree_tokens(cur)))
        elif keyword.text in ("pair", "lspair"):
            name_tok = cur.expect("NAME")
            declare(name_tok.text, name_tok)
            cur.expect("PUNCT", "{")
            cur.expect("NAME", "left")
            cur.expect("PUNCT", ":")
            left = parse_tree_tokens(cur)
            cur.expect("NAME", "right")
            cur.expect("PUNCT", ":")
            right = parse_tree_tokens(cur)
            if keyword.text == "pair":
                cur.expect("NAME", "links")
                cur.expect("PUNCT", ":")
                links = _parse_links(cur)
                cur.expect("PUNCT", "}")
                try:
                    stag_pairs.append(StagPair(name_tok.text, left, right, tuple(links)))
                except ValueError as exc:
                    raise ParseError(str(exc), name_tok.line, name_tok.column) from None
            else:
                cur.expect("NAME", "delta")
                cur.expect("PUNCT", ":")
                delta = _parse_links(cur)
                cur.expect("NAME", "phi")
                cur.expect("PUNCT", ":")
                phi = _parse_links(cur, bare=True)
                if cur.accept("NAME", "correspond"):
                    cur.expect("PUNCT", ":")
                    correspondences.append((name_tok.text, _parse_correspond_list(cur)))
                cur.expect("PUNCT", "}")
                lstag_pairs.append(LstagPair(name_tok.text, left, right, tuple(delta), tuple(phi)))
        else:
            raise ParseError(
                f"expected 'tree', 'pair' or 'lspair', found {keyword.text!r}",
                keyword.line,
                keyword.column,
            )
    return GrammarDocument(
        tuple(trees), tuple(stag_pairs), tuple(lstag_pairs), tuple(correspondences)
    )
