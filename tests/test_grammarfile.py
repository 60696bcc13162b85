import pytest

from lstag import (
    Diagnostic,
    GornAddress,
    Link,
    ParseError,
    format_grammar,
    load_grammar,
    parse_grammar,
    usable_lstag_names,
    validate_document,
)

A = GornAddress.parse

FIXTURE_NAMES = [
    "cooked.tag",
    "cooks_eats.lstag",
    "degenerate.lstag",
    "topicalization.lstag",
    "excised.lstag",
    "translation.stag",
]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trips(fixtures_dir, name):
    doc = load_grammar(str(fixtures_dir / name))
    assert parse_grammar(format_grammar(doc)) == doc


def test_parse_simple_document():
    doc = parse_grammar(
        """
        # a grammar
        tree john: NP("John")
        lspair cooks { left: S(NP! VP(V("cooks") NP!)) right: S(NP! VP(V("cooks") NP!))
                       delta: [1~1, 2.2~2.2] phi: [] }
        """
    )
    assert [n for n, _ in doc.trees] == ["john"]
    pair = doc.lstag_pairs[0]
    assert pair.delta == (Link(A("1"), A("1")), Link(A("2.2"), A("2.2")))
    assert pair.phi == ()


def test_phi_entries_are_reflexive_addresses():
    doc = parse_grammar(
        'lspair b { left: V(V* V("eats")) right: S(NP! VP(V("eats") NP!) S*) delta: [] phi: [1, 2.2] }'
    )
    assert doc.lstag_pairs[0].phi == (Link(A("1"), A("1")), Link(A("2.2"), A("2.2")))


def test_non_reflexive_phi_loads_but_fails_validation():
    doc = parse_grammar(
        'lspair b { left: NP("x") right: S(NP! VP(V("y"))) delta: [] phi: [1~2] }'
    )
    codes = [d.code for d in validate_document(doc)]
    assert "NotReflexive" in codes


def test_correspond_block_round_trips():
    text = (
        'lspair g { left: S(NP! V("likes")) right: S(NP! S(NP! VP(V("likes")))) '
        "delta: [1~1] phi: [] correspond: [ε -> ε, 1 -> 1, 2 -> 2.2.1] }"
    )
    doc = parse_grammar(text)
    assert parse_grammar(format_grammar(doc)) == doc
    assert doc.correspondence_map["g"].pairs[2] == (A("2"), A("2.2.1"))


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_grammar("tree a: S(\ntree b NP(\"x\")")
    assert exc.value.line == 2


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_grammar('tree a: S("x")\ntree a: S("y")')


def test_unknown_keyword_rejected():
    with pytest.raises(ParseError):
        parse_grammar('grammar a: S("x")')


def test_dangling_stag_link_is_a_parse_time_value_error():
    with pytest.raises(ParseError):
        parse_grammar('pair p { left: NP("x") right: NP("y") links: [5~1] }')


def test_foot_symbol_mismatch_is_a_validation_diagnostic():
    doc = parse_grammar('tree odd: S(A("x") NP*)')
    codes = [d.code for d in validate_document(doc)]
    assert codes == ["ClassMismatch"]


def test_restriction_diagnostics_gate_usability(fixtures_dir):
    doc = load_grammar(str(fixtures_dir / "topicalization.lstag"))
    assert usable_lstag_names(doc, restrictions=True) == {"and_almonds_hates", "john"}
    assert usable_lstag_names(doc, restrictions=False) == {
        "peanuts_likes",
        "and_almonds_hates",
        "john",
    }


def test_unlinked_pair_may_be_lexically_discontiguous():
    # only link-bearing pairs can coordinate, so only they are checked
    doc = parse_grammar(
        'lspair odd { left: S(X("a") NP! Y("b")) right: S(X("a") NP! Y("b")) delta: [] phi: [] }'
    )
    assert validate_document(doc) == []


def test_validation_clean_fixture(fixtures_dir):
    doc = load_grammar(str(fixtures_dir / "cooks_eats.lstag"))
    assert validate_document(doc) == []


_MISMATCH = (
    "left site 1 is SubstitutionSlot(symbol='NP') while right site 2 is Interior(symbol='VP'); "
    "both sides must substitute or both must adjoin"
)


def test_a_link_whose_ends_take_different_operations_is_an_operation_mismatch():
    doc = parse_grammar(
        'lspair h { left: S(NP! VP(V("x") NP!)) right: S(NP! VP(V("x") NP!)) delta: [1~2, 2.2~2.2, 9~1] phi: [] }\n'
        'pair p { left: S(NP! VP(V("x") NP!)) right: S(NP! VP(V("x") NP!)) links: [1~2, ε~ε, 2.1.1~2.1.1] }\n'
        'lspair n { left: NP(N("n")) right: NP(N("n")) delta: [] phi: [] }\n'
    )
    assert validate_document(doc) == [
        Diagnostic("OperationMismatch", f"link 1~2: {_MISMATCH}", "p"),
        Diagnostic(
            "OperationMismatch",
            "link 2.1.1~2.1.1: left site 2.1.1 is Terminal(token='x') while right site 2.1.1 is Terminal(token='x'); "
            "both sides must substitute or both must adjoin",
            "p",
        ),
        Diagnostic("AddressNotFound", "delta endpoint 9 missing from left tree", "h"),
        Diagnostic("OperationMismatch", f"delta link 1~2: {_MISMATCH}", "h"),
    ]
    assert usable_lstag_names(doc) == {"n"}
