"""The plain-text grammar file format.

A document is a sequence of declarations:

    tree cooked: S(NP! VP(V("cooked") NP!))
    pair swap { left: <tree> right: <tree> links: [1~1, 2.2~2.2] }
    lspair cooks { left: <tree> right: <tree> delta: [1~1] phi: [2.2] }

Phi entries are single right-tree addresses (reflexivity implied); the
full `a~b` form is accepted so that broken files can still be loaded and
reported.  An lspair may also carry `correspond: [lAddr -> rAddr, ...]`.
The printer emits a canonical form; parse(print(doc)) == doc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._lex import Cursor, Token, lex
from .errors import ClassMismatch, Diagnostic, ParseError
from .gorn import GornAddress
from .restrictions import Correspondence, check_left_contiguity, check_lexical_contiguity
from .sharing import LstagGrammar, LstagPair, validate_pair
from .stag import Link, StagGrammar, StagPair
from .tag import TagGrammar
from .trees import SyntaxTree, classify, format_tree, parse_tree_tokens


@dataclass(frozen=True)
class GrammarDocument:
    trees: tuple[tuple[str, SyntaxTree], ...] = ()
    stag_pairs: tuple[StagPair, ...] = ()
    lstag_pairs: tuple[LstagPair, ...] = ()
    correspondences: tuple[tuple[str, Correspondence], ...] = ()

    @cached_property
    def correspondence_map(self) -> dict[str, Correspondence]:
        return dict(self.correspondences)

    def names(self) -> list[str]:
        return (
            [n for n, _ in self.trees]
            + [p.name for p in self.stag_pairs]
            + [p.name for p in self.lstag_pairs]
        )

    def tag_grammar(self) -> TagGrammar:
        return TagGrammar.from_trees(dict(self.trees))

    def stag_grammar(self) -> StagGrammar:
        return StagGrammar(tuple((p.name, p) for p in self.stag_pairs))

    def lstag_grammar(self, usable: set[str] | None = None) -> LstagGrammar:
        pairs = self.lstag_pairs
        if usable is not None:
            pairs = tuple(p for p in pairs if p.name in usable)
        return LstagGrammar(tuple((p.name, p) for p in pairs))


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


def parse_grammar(text: str) -> GrammarDocument:
    cur = Cursor(lex(text))
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


def _format_links(links: tuple[Link, ...]) -> str:
    return "[" + ", ".join(str(l) for l in links) + "]"


def _format_phi(links: tuple[Link, ...]) -> str:
    parts = [str(l.left) if l.is_reflexive else str(l) for l in links]
    return "[" + ", ".join(parts) + "]"


def format_grammar(doc: GrammarDocument) -> str:
    lines: list[str] = []
    for name, tree in doc.trees:
        lines.append(f"tree {name}: {format_tree(tree)}")
    for p in doc.stag_pairs:
        lines.append(
            f"pair {p.name} {{ left: {format_tree(p.left_tree)} right: {format_tree(p.right_tree)} "
            f"links: {_format_links(p.links)} }}"
        )
    for p in doc.lstag_pairs:
        corr = doc.correspondence_map.get(p.name)
        corr_text = ""
        if corr is not None:
            inner = ", ".join(f"{l} -> {r}" for l, r in corr.pairs)
            corr_text = f" correspond: [{inner}]"
        lines.append(
            f"lspair {p.name} {{ left: {format_tree(p.left_tree)} right: {format_tree(p.right_tree)} "
            f"delta: {_format_links(p.delta)} phi: {_format_phi(p.phi)}{corr_text} }}"
        )
    return "\n".join(lines) + "\n"


def read_source(path: str) -> str:
    """The text of a grammar or script file without a leading byte-order mark; not UTF-8 is a parse error."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8 ({exc.reason})") from None


def load_grammar(path: str) -> GrammarDocument:
    return parse_grammar(read_source(path))


def validate_document(doc: GrammarDocument, restrictions: bool = True) -> list[Diagnostic]:
    """Structural validation plus, by default, the coordination restrictions."""
    diags: list[Diagnostic] = []
    # (where, message prefix, tree, lspair whose links to check after this tree)
    checks = [(name, "", tree, None) for name, tree in doc.trees]
    for p in (*doc.stag_pairs, *doc.lstag_pairs):
        lspair = p if isinstance(p, LstagPair) else None
        checks += [
            (p.name, "left tree: ", p.left_tree, None),
            (p.name, "right tree: ", p.right_tree, lspair),
        ]
    for where, prefix, tree, lspair in checks:
        try:
            classify(tree)
        except ClassMismatch as exc:
            diags.append(Diagnostic("ClassMismatch", f"{prefix}{exc}", where))
        if lspair is not None:
            diags.extend(validate_pair(lspair))
    if restrictions:
        diags.extend(restriction_diagnostics(doc))
    return diags


def restriction_diagnostics(doc: GrammarDocument) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for p in doc.lstag_pairs:
        # Only link-bearing pairs can take part in coordination, so only they
        # are held to the contiguity requirement.
        if p.delta or p.phi:
            for d in check_lexical_contiguity(p.left_tree):
                diags.append(Diagnostic(d.code, d.message, p.name))
        corr = doc.correspondence_map.get(p.name)
        if corr is not None:
            diags.extend(check_left_contiguity(p, corr))
    return diags


def usable_lstag_names(doc: GrammarDocument, restrictions: bool = True) -> set[str]:
    """Pairs that pass validation (and the restrictions, when enabled)."""
    flagged = {d.where for d in validate_document(doc, restrictions=restrictions)}
    return {p.name for p in doc.lstag_pairs if p.name not in flagged}
