"""The tokenizer, the tree parser and the grammar parser against the character-at-a-time reference.

`reference_lex.py` holds the front end as it was before `lex` became one
compiled alternation and `parse_tree_tokens` read tokens by index.  On any
text the two lexers give the same tokens or the same `ParseError`, on any
token list the two tree parsers give the same tree and cursor position or
the same `ParseError`, and on any grammar text the two grammar parsers give
the same document or the same `ParseError`.  Trees are compared node by
node, on what `==` leaves out too, so sharing parsed leaves shows nowhere.  The one allowed difference is
that the library locates a non-interior root at its token and a second foot
at the foot's token, where the reference gave no line.
"""

import pathlib
import sys

import reference_lex as ref
from hypothesis import example, given, settings, strategies as st

from lstag import GornAddress, ParseError, parse_grammar, parse_tree
from lstag._lex import Cursor, lex, string_value, token_kind
from lstag.trees import Foot, Interior, SubstitutionSlot, Terminal, TreeNode, parse_tree_tokens


def outcome(fn, *args):
    """`("ok", value)`, or `("error", message, line, column)` for a ParseError."""
    try:
        return ("ok", fn(*args))
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column)


# --- the lexer ---------------------------------------------------------------

# Grammar and script fragments, blanks, comments, every escape case and the
# characters on either side of a token boundary.
_PIECES = st.sampled_from([
    "tree", "lspair", "pair", "S", "NP", "V'", "_x1", "a_b", "left:", " ", "  ", "\t", "\r", "\n", "\r\n",
    "(", ")", "{", "}", "[", "]", ":", "~", ",", "!", "*", "@", "<-", "->", "-", "<", ">",
    "1", "1.", "2.2", "10.3.1", ".", "0", "ε", "١", "٢.٣", "²",
    '"a"', '"', '"a\\"b"', '"a\\\\"', '\\"', "\\\\", '"x\\q"', '"x\\', '"x\n"', '"ε é"',
    "#", "# note", "# note\n", "#(", "$", "é", ";", "\f", " ",
])


@st.composite
def _texts(draw):
    """Fragments run together, with up to two arbitrary characters spliced in."""
    text = "".join(draw(st.lists(_PIECES, max_size=24)))
    for junk in draw(st.lists(st.characters(), max_size=draw(st.integers(0, 2)))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + junk + text[at:]
    return text


def tokens_of(fn, text):
    """(kind, text, line, column) per token; a STRING's text is its value, as the reference gives it."""
    if fn is ref.lex:
        return [(t.kind, t.text, t.line, t.column) for t in fn(text)]
    cur = Cursor(text, fn(text))
    return [
        (token_kind(t), string_value(t) if token_kind(t) == "STRING" else t, *cur.where(i))
        for i, t in enumerate(cur.texts)
    ]


@settings(max_examples=400, deadline=None)
@given(text=_texts())
@example(text="tree x: S # trailing comment")
@example(text='a "b\\"c" # x\n  ε 1.2 <- d ->')
@example(text="")
def test_lex_matches_the_reference(text):
    assert outcome(tokens_of, lex, text) == outcome(tokens_of, ref.lex, text)


def test_eof_after_a_trailing_comment_keeps_the_comment_column():
    assert tokens_of(lex, "a  # note")[-1] == ("EOF", "", 1, 4)
    assert tokens_of(lex, "a\n# note\n")[-1] == ("EOF", "", 3, 1)


def test_lex_errors_give_line_and_column_in_characters():
    for text, message, column in [
        ('ε "x\\q"', "invalid escape in string literal", 3),
        ('εε "ab', "unterminated string literal", 4),
        ('"ab\n"', "unterminated string literal", 1),
        ("a - b", "unexpected character '-'", 3),
        ("1.", "unexpected character '.'", 2),
    ]:
        assert outcome(lex, text) == ("error", message, 1, column)


# --- the tree parser ---------------------------------------------------------

_SYMBOLS = st.sampled_from(["S", "NP", "VP", "V", "N"])


def _trees(max_leaves=12):
    """Source tokens of a well-formed tree; its leaves may be slots, feet or terminals."""
    leaf = st.one_of(
        _SYMBOLS.map(lambda s: [s]),
        _SYMBOLS.map(lambda s: [s, "!"]),
        _SYMBOLS.map(lambda s: [s, "*"]),
        st.sampled_from(['"a"', '"b c"', '"("']).map(lambda s: [s]),
    )
    return st.recursive(
        leaf,
        lambda kids: st.tuples(_SYMBOLS, st.lists(kids, min_size=1, max_size=3)).map(
            lambda p: [p[0], "("] + [t for kid in p[1] for t in kid] + [")"]
        ),
        max_leaves=max_leaves,
    )


_TREE_JUNK = st.sampled_from(["(", ")", "!", "*", "S", '"t"', ":", "~", "1", "tree"])


@st.composite
def _tree_token_texts(draw):
    """A tree's tokens with a few deletions, insertions and swaps, then what follows it."""
    toks = list(draw(_trees()))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["delete", "insert", "swap"]))
        at = draw(st.integers(0, len(toks)))
        if op == "insert":
            toks.insert(at, draw(_TREE_JUNK))
        elif toks and at < len(toks):
            if op == "delete":
                del toks[at]
            else:
                other = draw(st.integers(0, len(toks) - 1))
                toks[at], toks[other] = toks[other], toks[at]
    tail = draw(st.sampled_from(["", ")", "right: S", "NP!", "("]))
    newline = draw(st.sampled_from([" ", "\n  "]))
    return "tree x: " + newline.join(toks) + " " + tail


def node_rows(tree):
    """Each node's (kind, child count, slots, foot, site, adjoined) in preorder: what tree `==` leaves out too."""
    return tuple((n.kind, len(n.children), n.slots, n.foot, n.site, n.adjoined) for n in tree.nodes())


def _parsed(parse, cursor):
    tree = parse(cursor)
    return node_rows(tree), cursor.pos


def _foot_tokens(tokens, start, stop):
    return [t for t, nxt in zip(tokens[start:stop], tokens[start + 1:stop + 1])
            if t.kind == "NAME" and nxt.kind == "PUNCT" and nxt.text == "*"]


@settings(max_examples=100, deadline=None)
@given(text=_tree_token_texts())
@example(text="tree x: NP!")
@example(text='tree x: S(A* VP("a" B*))')
@example(text='tree x: S(NP! NP "NP" VP(NP* NP!) NP)')
def test_parse_tree_tokens_matches_the_reference(text):
    new_cur, ref_cur = Cursor(text, lex(text)), ref.Cursor(ref.lex(text))
    new_cur.pos = ref_cur.pos = 3  # just past `tree x :`
    got = outcome(_parsed, parse_tree_tokens, new_cur)
    want = outcome(_parsed, ref.parse_tree_tokens, ref_cur)
    if want[:2] == ("error", "root node must be an interior node"):
        root = ref_cur.tokens[3]
        want = want[:2] + (root.line, root.column)
    elif want[:2] == ("error", "tree has more than one foot node"):
        second = _foot_tokens(ref_cur.tokens, 3, ref_cur.pos)[1]
        want = want[:2] + (second.line, second.column)
    assert got == want


# --- the grammar parser ------------------------------------------------------

_WHOLE_TREE_ERRORS = ("root node must be an interior node", "tree has more than one foot node")


def _reference_grammar(text):
    """The reference grammar parser, with the library's locations for the two whole-tree errors."""
    cur = ref.Cursor(ref.lex(text))
    try:
        return ref.parse_grammar(cur)
    except ParseError as exc:
        if exc.message not in _WHOLE_TREE_ERRORS:
            raise
        # The failing tree ends at the cursor and starts just past the last `:` before it.
        start = 1 + max(i for i, t in enumerate(cur.tokens[:cur.pos]) if (t.kind, t.text) == ("PUNCT", ":"))
        tok = cur.tokens[start] if exc.message == _WHOLE_TREE_ERRORS[0] else _foot_tokens(cur.tokens, start, cur.pos)[1]
        raise ParseError(exc.message, tok.line, tok.column) from None


_NAMES = st.sampled_from(["a", "b", "c"])
_ADDRS = st.sampled_from(["ε", "1", "2", "1.1", "2.1", "0"])


@st.composite
def _declarations(draw):
    """The source tokens of one tree, pair or lspair declaration; names and links need not fit."""

    def addresses(sep, bare=False):
        out = ["["]
        for k in range(draw(st.integers(0, 3))):
            first = draw(_ADDRS)
            out += ([","] if k else []) + ([first] if bare and draw(st.booleans()) else [first, sep, draw(_ADDRS)])
        return out + ["]"]

    keyword = draw(st.sampled_from(["tree", "pair", "lspair"]))
    toks = [keyword, draw(_NAMES)]
    if keyword == "tree":
        return toks + [":"] + draw(_trees(6))
    toks += ["{", "left", ":"] + draw(_trees(6)) + ["right", ":"] + draw(_trees(6))
    if keyword == "pair":
        return toks + ["links", ":"] + addresses("~") + ["}"]
    toks += ["delta", ":"] + addresses("~") + ["phi", ":"] + addresses("~", bare=True)
    if draw(st.booleans()):
        toks += ["correspond", ":"] + addresses("->")
    return toks + ["}"]


_FIXTURE_TOKENS = [
    lex(path.read_text(encoding="utf-8"))[:-1]
    for path in sorted((pathlib.Path(__file__).resolve().parent.parent / "fixtures").glob("*.*tag"))
]
_GRAMMAR_JUNK = st.sampled_from([
    "tree", "lspair", "a", "left", "links", "phi", "correspond", ":", "{", "}", "[", "]", ",", "~", "->",
    "1", "0", "ε", "(", ")", "S", '"t"', "!", "*",
])


@st.composite
def _grammar_texts(draw):
    """Random declarations or a fixture, with up to three token deletions, insertions or swaps and stray characters."""
    if draw(st.booleans()):
        toks = [t for decl in draw(st.lists(_declarations(), max_size=3)) for t in decl]
    else:
        toks = list(draw(st.sampled_from(_FIXTURE_TOKENS)))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["delete", "insert", "swap"]))
        at = draw(st.integers(0, len(toks)))
        if op == "insert":
            toks.insert(at, draw(_GRAMMAR_JUNK))
        elif toks and at < len(toks):
            if op == "delete":
                del toks[at]
            else:
                other = draw(st.integers(0, len(toks) - 1))
                toks[at], toks[other] = toks[other], toks[at]
    text = draw(st.sampled_from([" ", "\n", " \n  "])).join(toks) + draw(st.sampled_from(["", "\n", "  # end"]))
    for junk in draw(st.lists(st.sampled_from("$\"<-é\f"), max_size=draw(st.integers(0, 2)))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + junk + text[at:]
    return text


@settings(max_examples=100, deadline=None)
@given(text=_grammar_texts())
@example(text="tree a: S\ntree b: NP\n  pair a { left: S right: S links: [] }")
@example(text="tree a: S\n  twig b: S")
@example(text="pair a { left: S(A!) right: S(B!)\n links: [1~1, 2~1] }")
@example(text="lspair a { left: S(A!) right: S(B!) delta: [] phi: []\n correspond: [1 -> 1, ε -> 1] }")
@example(text="lspair a { left: S(A!) right: S(B* C*) delta: [] phi: [] }")
@example(text='tree a: S(A! "x\\"y")  # end')
@example(text="tree a: S(A B(C")
@example(text="tree a: S(A B())")
def test_parse_grammar_matches_the_reference(text):
    assert outcome(_with_nodes, parse_grammar, text) == outcome(_with_nodes, _reference_grammar, text)


def document_trees(doc):
    pairs = (*doc.stag_pairs, *doc.lstag_pairs)
    return [t for _, t in doc.trees] + [t for p in pairs for t in (p.left_tree, p.right_tree)]


def _with_nodes(parse, text):
    doc = parse(text)
    return doc, [node_rows(tree) for tree in document_trees(doc)]


_REPEATED_LEAVES = (
    'lspair h { left: S(NP! VP(V("x") NP!)) right: S(NP! VP(V("x") NP!)) delta: [1~1] phi: [] }\n'
    'tree m: N(A("x") N*)\n'
    'tree c: S(NP "NP" NP! N* VP(V("x\\"y") NP))\n'
)


def test_each_cursor_builds_each_distinct_leaf_once(monkeypatch):
    distinct = [SubstitutionSlot("NP"), Terminal("x"), Foot("N"), Interior("NP"), Terminal("NP"), Terminal('x"y')]
    leaves, interiors = [], []
    node_init, interior_init = TreeNode.__init__, Interior.__init__

    def count_node(node, kind, children=(), *rest):
        if not children:
            leaves.append(kind)
        node_init(node, kind, children, *rest)

    monkeypatch.setattr(TreeNode, "__init__", count_node)
    count_interior = lambda kind, symbol: interiors.append(symbol) or interior_init(kind, symbol)
    monkeypatch.setattr(Interior, "__init__", count_interior)
    for _ in range(2):
        leaves.clear()
        interiors.clear()
        doc = parse_grammar(_REPEATED_LEAVES)
        assert leaves == distinct
        assert interiors == ["S", "VP", "V", "N", "A", "NP"]
        left, right = doc.lstag_pairs[0].left_tree, doc.lstag_pairs[0].right_tree
        assert left.node(GornAddress.parse("1")) is right.node(GornAddress.parse("2.2"))
        assert left.node(GornAddress.parse("2.1.1")) is doc.trees[0][1].node(GornAddress.parse("1.1"))


def test_two_parses_share_no_node():
    docs = [parse_grammar(_REPEATED_LEAVES) for _ in range(2)]
    first, second = ({id(n) for tree in document_trees(doc) for n in tree.nodes()} for doc in docs)
    assert not first & second
    assert docs[0] == docs[1]


def test_each_cursor_parses_each_distinct_address_once(monkeypatch):
    calls = []
    parse = GornAddress.parse
    monkeypatch.setattr(GornAddress, "parse", classmethod(lambda cls, text: calls.append(text) or parse(text)))
    text = "lspair p { left: S(A! B!) right: S(A! B!) delta: [1~1, 2~2] phi: [1, 2.1] correspond: [1 -> 1] }"
    for _ in range(2):
        calls.clear()
        parse_grammar(text)
        assert sorted(calls) == ["1", "2", "2.1"]


def test_a_1200_level_tree_parses_without_recursion():
    text = "S(" * 1200 + 'NP! "x"' + ")" * 1200
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        tree = parse_tree(text)
    finally:
        sys.setrecursionlimit(limit)
    assert len(tree) == 1202
