import pytest

from lstag import (
    Correspondence,
    Diagnostic,
    GornAddress,
    Link,
    LstagPair,
    check_left_contiguity,
    check_lexical_contiguity,
    parse_tree,
)

A = GornAddress.parse


def corr(*pairs):
    return Correspondence(tuple((A(l), A(r)) for l, r in pairs))


GAPPED = LstagPair(
    "likes_gapped",
    parse_tree('S(NP! V("likes"))'),
    parse_tree('S(NP! S(NP! VP(V("likes"))))'),
    delta=(Link(A("1"), A("1")),),
)


def test_excised_segment_is_reported():
    c = corr(("ε", "ε"), ("1", "1"), ("2", "2.2.1"))
    diags = check_left_contiguity(GAPPED, c)
    assert [d.code for d in diags] == ["Discontiguous"]
    assert "2, 2.2" in diags[0].message


def test_identity_correspondence_is_contiguous():
    pair = LstagPair("same", GAPPED.right_tree, GAPPED.right_tree)
    full = corr(*[(str(a), str(a)) for a in GAPPED.right_tree.addresses()])
    assert check_left_contiguity(pair, full) == []


def test_full_subtree_image_is_contiguous():
    image = [a for a in GAPPED.right_tree.addresses() if A("2").is_prefix_of(a)]
    pair = LstagPair("sub", GAPPED.right_tree, GAPPED.right_tree)
    c = Correspondence(tuple((a, a) for a in image))
    assert check_left_contiguity(pair, c) == []


def test_unresolved_correspondence_endpoints():
    diags = check_left_contiguity(GAPPED, corr(("9", "ε")))
    assert [d.code for d in diags] == ["AddressNotFound"]


def test_a_missing_correspondence_target_is_reported():
    assert check_left_contiguity(GAPPED, corr(("1", "9"))) == [
        Diagnostic("AddressNotFound", "correspondence target 9 missing from right tree", "likes_gapped")
    ]


def test_correspondence_must_be_injective():
    with pytest.raises(ValueError):
        corr(("1", "1"), ("2", "1"))
    with pytest.raises(ValueError):
        corr(("1", "1"), ("1", "2"))


def test_path_check_is_symmetric_in_the_pair():
    tree = parse_tree('S(A("x") B("y"))')
    pair = LstagPair("t", tree, tree)
    for image in (("1", "2"), ("2", "1")):
        c = Correspondence(tuple((A(a), A(a)) for a in image))
        diags = check_left_contiguity(pair, c)
        assert [d.code for d in diags] == ["Discontiguous"]


# --- lexical contiguity -------------------------------------------------------


def test_topicalized_anchor_string_is_discontiguous():
    tree = parse_tree('S(NP(N("peanuts")) S(NP! VP(V("likes"))))')
    diags = check_lexical_contiguity(tree)
    assert [d.code for d in diags] == ["LexicallyDiscontiguous"]
    assert "2.1" in diags[0].message


def test_single_terminal_is_contiguous():
    assert check_lexical_contiguity(parse_tree('NP("John")')) == []


def test_transitive_tree_is_contiguous():
    assert check_lexical_contiguity(parse_tree('S(NP! VP(V("likes") NP!))')) == []


def test_edge_slots_do_not_break_contiguity():
    assert check_lexical_contiguity(parse_tree('S(NP! VP(V("cooks") CC("and")))')) == []


def test_foot_between_anchors_breaks_contiguity():
    tree = parse_tree('S(X("a") S* Y("b"))')
    assert [d.code for d in check_lexical_contiguity(tree)] == ["LexicallyDiscontiguous"]


def test_every_open_position_between_the_anchors_is_named_in_order():
    tree = parse_tree('S(NP! V("a") NP! V("b") NP(D! N("c")) X S* NP!)')
    assert check_lexical_contiguity(tree) == [
        Diagnostic("LexicallyDiscontiguous", "lexical string is interrupted by open positions at 3, 5.1")
    ]


def test_foot_before_anchors_is_fine():
    tree = parse_tree('S(S* CC("and") S(NP(N("almonds")) VP(V("hates"))))')
    assert check_lexical_contiguity(tree) == []


def test_contiguity_is_stable_under_outside_substitution():
    from lstag import substitute

    tree = parse_tree('S(NP! VP(V("likes") NP!))')
    filled = substitute(tree, A("1"), parse_tree('NP("John")'))
    assert check_lexical_contiguity(tree) == []
    assert check_lexical_contiguity(filled) == []
