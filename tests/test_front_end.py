"""The tokenizer and the tree parser against the character-at-a-time reference.

`reference_lex.py` holds the front end as it was before `lex` became one
compiled alternation and `parse_tree_tokens` read tokens by index.  On any
text the two lexers give the same tokens or the same `ParseError`, and on
any token list the two tree parsers give the same tree and cursor position
or the same `ParseError`.  The one allowed difference is that the library
locates a non-interior root at its token and a second foot at the foot's
token, where the reference gave no line.
"""

import sys

import reference_lex as ref
from hypothesis import example, given, settings, strategies as st

from lstag import ParseError, parse_tree
from lstag._lex import Cursor, lex
from lstag.trees import parse_tree_tokens


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
    return [(t.kind, t.text, t.line, t.column) for t in fn(text)]


@settings(max_examples=400, deadline=None)
@given(text=_texts())
@example(text="tree x: S # trailing comment")
@example(text='a "b\\"c" # x\n  ε 1.2 <- d ->')
@example(text="")
def test_lex_matches_the_reference(text):
    assert outcome(tokens_of, lex, text) == outcome(tokens_of, ref.lex, text)


def test_eof_after_a_trailing_comment_keeps_the_comment_column():
    assert lex("a  # note")[-1] == ("EOF", "", 1, 4)
    assert lex("a\n# note\n")[-1] == ("EOF", "", 3, 1)


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


def _parsed(parse, cursor):
    tree = parse(cursor)
    return tree, cursor.pos


def _foot_tokens(tokens, start, stop):
    return [t for t, nxt in zip(tokens[start:stop], tokens[start + 1:stop + 1])
            if t.kind == "NAME" and nxt.kind == "PUNCT" and nxt.text == "*"]


@settings(max_examples=100, deadline=None)
@given(text=_tree_token_texts())
@example(text="tree x: NP!")
@example(text='tree x: S(A* VP("a" B*))')
def test_parse_tree_tokens_matches_the_reference(text):
    new_cur, ref_cur = Cursor(lex(text)), ref.Cursor(ref.lex(text))
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


def test_a_1200_level_tree_parses_without_recursion():
    text = "S(" * 1200 + 'NP! "x"' + ")" * 1200
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        tree = parse_tree(text)
    finally:
        sys.setrecursionlimit(limit)
    assert len(tree) == 1202
