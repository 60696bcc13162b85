import pytest

from lstag import (
    DerivationTree,
    GornAddress,
    Link,
    LinkNotFound,
    OperationMismatch,
    StagPair,
    SymbolMismatch,
    TagGrammar,
    parse_tree,
    replay,
    stag_compose,
    yield_string,
)

A = GornAddress.parse


def pair(name, left, right, links=()):
    return StagPair(name, parse_tree(left), parse_tree(right), tuple(links))


COOKED = pair(
    "cooked",
    'S(NP! VP(V("cooked") NP!))',
    'S(NP! VP(V("gekocht") NP!))',
    [Link(A("1"), A("1")), Link(A("2.2"), A("2.2"))],
)
JOHN = pair("john", 'NP("John")', 'NP("Johann")')
BEANS = pair("beans", 'NP(N("beans"))', 'NP(N("Bohnen"))')
DRIED = pair("dried", 'N(A("dried") N*)', 'N(A("getrocknete") N*)')


def test_endpoints_must_resolve():
    with pytest.raises(ValueError):
        pair("bad", 'NP("x")', 'NP("y")', [Link(A("9"), A("1"))])
    with pytest.raises(ValueError, match="link endpoint 9 missing from right tree of 'bad'"):
        pair("bad", 'NP("x")', 'NP("y")', [Link(A("1"), A("9"))])


def test_link_count_arithmetic():
    result = stag_compose(COOKED, 0, JOHN)
    assert len(result.links) == len(COOKED.links) + len(JOHN.links) - 1


def test_substitution_through_first_member():
    result = stag_compose(COOKED, 0, JOHN)
    assert result.left_tree.node_at(A("1")) == parse_tree('NP("John")').node_at(GornAddress(()))
    assert yield_string(result.left_tree, partial=True) == "John cooked ⟨NP↓⟩"
    assert yield_string(result.right_tree, partial=True) == "Johann gekocht ⟨NP↓⟩"
    assert result.links == (Link(A("2.2"), A("2.2")),)


def test_consumed_member_never_reappears():
    result = stag_compose(COOKED, 0, JOHN)
    assert Link(A("1"), A("1")) not in result.links


def test_guest_links_are_inherited_with_embedding():
    guest = pair(
        "mod",
        'NP(D! N("beans"))',
        'NP(D! N("Bohnen"))',
        [Link(A("1"), A("1"))],
    )
    result = stag_compose(COOKED, 1, guest)
    assert result.links == (Link(A("1"), A("1")), Link(A("2.2.1"), A("2.2.1")))


def test_adjunction_member_rebases_links_below_site():
    host = pair(
        "host",
        'S(NP! VP(V("cooked") NP!))',
        'S(NP! VP(V("gekocht") NP!))',
        [Link(A("2"), A("2")), Link(A("2.2"), A("2.2"))],
    )
    aux = pair("vmod", 'VP(AdvP("quickly") VP*)', 'VP(AdvP("schnell") VP*)')
    result = stag_compose(host, 0, aux)
    # the VP subtree moved under the auxiliary's foot at address 2
    assert result.links == (Link(A("2.2.2"), A("2.2.2")),)
    assert yield_string(result.left_tree, partial=True) == (
        "⟨NP↓⟩ quickly cooked ⟨NP↓⟩"
    )


def test_member_index_out_of_range():
    with pytest.raises(LinkNotFound):
        stag_compose(COOKED, 5, JOHN)


def test_mixed_operation_kinds_rejected():
    host = pair(
        "host",
        'S(NP! VP(V("cooked") NP!))',
        'S(NP! VP(V("gekocht") NP!))',
        [Link(A("1"), A("2"))],  # slot on the left, interior on the right
    )
    with pytest.raises(OperationMismatch) as info:
        stag_compose(host, 0, JOHN)
    assert str(info.value) == (
        "left site 1 is SubstitutionSlot(symbol='NP') while right site 2 is Interior(symbol='VP'); "
        "both sides must substitute or both must adjoin"
    )


def test_symbol_mismatch_propagates():
    wrong = pair("wrong", 'VP("x")', 'VP("y")')
    with pytest.raises(SymbolMismatch):
        stag_compose(COOKED, 0, wrong)


def test_projection_coherence_with_plain_replay():
    # A full synchronous derivation must project, on each side, to exactly
    # the tree a plain replay of that side's grammar builds.
    step1 = stag_compose(COOKED, 0, JOHN)
    step2 = stag_compose(step1, 0, BEANS)
    left_grammar = TagGrammar.from_trees(
        {"cooked": COOKED.left_tree, "john": JOHN.left_tree, "beans": BEANS.left_tree}
    )
    right_grammar = TagGrammar.from_trees(
        {"cooked": COOKED.right_tree, "john": JOHN.right_tree, "beans": BEANS.right_tree}
    )
    derivation = DerivationTree(
        "cooked",
        ((A("1"), DerivationTree("john")), (A("2.2"), DerivationTree("beans"))),
    )
    assert step2.left_tree == replay(left_grammar, derivation)
    assert step2.right_tree == replay(right_grammar, derivation)
