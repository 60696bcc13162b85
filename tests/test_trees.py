import copy
import pathlib
import pickle
import random
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings, strategies as st

from helpers_trees import first_foot_row, node_table, random_auxiliary, random_tree, reference_owned_by
from lstag import (
    AddressNotFound,
    ClassMismatch,
    DerivedStructure,
    Foot,
    GornAddress,
    IncompleteTree,
    Interior,
    NotASlot,
    NotInterior,
    ParseError,
    SiteRef,
    SubstitutionSlot,
    SymbolMismatch,
    SyntaxTree,
    Terminal,
    TreeClass,
    adjoin,
    classify,
    format_tree,
    parse_tree,
    rebase_address,
    substitute,
    yield_string,
    yield_tokens,
)
from lstag.gorn import ROOT
from lstag.grammarfile import load_grammar
from lstag.render import tree_to_dot
from lstag.trees import TreeNode, splice

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

A = GornAddress.parse

COOKED = parse_tree('S(NP! VP(V("cooked") NP!))')
JOHN = parse_tree('NP("John")')
BEANS = parse_tree('NP(N("beans"))')
DRIED = parse_tree('N(A("dried") N*)')


# --- construction invariants ---------------------------------------------------


def test_a_tree_needs_a_root():
    with pytest.raises(ValueError, match="tree has no root node"):
        SyntaxTree.from_nodes({})


def test_root_must_be_interior():
    with pytest.raises(ValueError):
        SyntaxTree.from_nodes({ROOT: Terminal("x")})


def test_address_set_must_be_prefix_closed():
    with pytest.raises(ValueError):
        SyntaxTree.from_nodes({ROOT: Interior("S"), A("1.1"): Terminal("x")})


def test_siblings_must_be_contiguous():
    with pytest.raises(ValueError):
        SyntaxTree.from_nodes({ROOT: Interior("S"), A("2"): Terminal("x")})


def test_leaf_kinds_cannot_have_children():
    with pytest.raises(ValueError):
        SyntaxTree.from_nodes(
            {ROOT: Interior("S"), A("1"): SubstitutionSlot("NP"), A("1.1"): Terminal("x")}
        )


def test_at_most_one_foot():
    with pytest.raises(ValueError):
        SyntaxTree.from_nodes(
            {ROOT: Interior("S"), A("1"): Foot("S"), A("2"): Foot("S")}
        )


def test_classification():
    assert classify(COOKED) is TreeClass.INITIAL
    assert classify(DRIED) is TreeClass.AUXILIARY
    mismatched = SyntaxTree.from_nodes({ROOT: Interior("S"), A("1"): Foot("NP")})
    with pytest.raises(ClassMismatch):
        classify(mismatched)


# --- node_at -------------------------------------------------------------------


def test_node_at_object_slot():
    assert COOKED.node_at(A("2.2")) == SubstitutionSlot("NP")


def test_node_at_root():
    assert COOKED.node_at(ROOT) == Interior("S")


def test_node_at_anchor_sits_under_head():
    assert COOKED.node_at(A("2.1")) == Interior("V")
    assert COOKED.node_at(A("2.1.1")) == Terminal("cooked")


def test_node_at_absent_address():
    with pytest.raises(AddressNotFound):
        COOKED.node_at(A("3"))


# --- substitution ---------------------------------------------------------------


def test_substitute_both_arguments():
    step1 = substitute(COOKED, A("1"), JOHN)
    step2 = substitute(step1, A("2.2"), BEANS)
    assert yield_string(step2) == "John cooked beans"


def test_single_token_filler_grows_yield_by_one():
    before = yield_tokens(COOKED, partial=True)
    after = yield_tokens(substitute(COOKED, A("1"), JOHN), partial=True)
    assert len(after) == len(before)
    assert after.count("John") == 1
    assert sum(1 for t in after if t.startswith("⟨")) == sum(
        1 for t in before if t.startswith("⟨")
    ) - 1


def test_substitute_at_absent_address():
    with pytest.raises(AddressNotFound):
        substitute(COOKED, A("3"), JOHN)


def test_substitute_requires_slot():
    with pytest.raises(NotASlot):
        substitute(COOKED, A("2"), JOHN)


def test_substitute_requires_matching_symbol():
    s_filler = parse_tree('S("x")')
    with pytest.raises(SymbolMismatch):
        substitute(COOKED, A("1"), s_filler)


def test_substitute_rejects_auxiliary_filler():
    aux = parse_tree('NP(A("x") NP*)')
    with pytest.raises(ClassMismatch):
        substitute(COOKED, A("1"), aux)


def test_substitution_is_local():
    result = substitute(COOKED, A("2.2"), BEANS)
    for addr, kind in COOKED.items():
        if addr == A("2.2"):
            continue
        assert result.node_at(addr) == kind


def test_disjoint_substitutions_commute():
    one = substitute(substitute(COOKED, A("1"), JOHN), A("2.2"), BEANS)
    two = substitute(substitute(COOKED, A("2.2"), BEANS), A("1"), JOHN)
    assert one == two


# --- adjunction ----------------------------------------------------------------


def test_adjoin_modifier_into_noun():
    result = adjoin(BEANS, A("1"), DRIED)
    assert yield_string(result) == "dried beans"


def test_identity_auxiliary_preserves_yield():
    identity = SyntaxTree.from_nodes({ROOT: Interior("NP"), A("1"): Foot("NP")})
    result = adjoin(BEANS, ROOT, identity)
    assert yield_tokens(result) == yield_tokens(BEANS)


def test_adjoin_rebase_of_node_below_site():
    # target has a node at 1.2 below the adjunction site 1; aux foot sits at 2
    target = parse_tree('S(A("x" B("y")))')
    aux = parse_tree('A(A("w") A*)')
    result = adjoin(target, A("1"), aux)
    assert result.node_at(A("1.2.2")) == target.node_at(A("1.2"))


def test_adjoin_requires_interior():
    with pytest.raises(NotInterior):
        adjoin(COOKED, A("1"), DRIED)


def test_adjoin_requires_matching_symbol():
    with pytest.raises(SymbolMismatch):
        adjoin(BEANS, ROOT, DRIED)  # NP root, N auxiliary


def test_adjoin_rejects_initial_tree():
    with pytest.raises(ClassMismatch):
        adjoin(BEANS, A("1"), parse_tree('N("nuts")'))


def test_adjoin_node_count():
    result = adjoin(BEANS, A("1"), DRIED)
    assert len(result) == len(BEANS) + len(DRIED) - 1


# --- rebase_address -------------------------------------------------------------


def test_rebase_disjoint_path_unchanged():
    assert rebase_address(A("2.2"), A("1"), A("2")) == A("2.2")


def test_rebase_site_itself():
    assert rebase_address(A("1"), A("1"), A("2")) == A("1.2")


def test_rebase_below_site_through_foot():
    assert rebase_address(A("1.1"), A("1"), A("2.1")) == A("1.2.1.1")


def test_rebase_exhaustive_against_adjoin_map():
    # Every address of depth <= 3 in an adjunction host must land exactly
    # where the composed tree actually put its node.
    target = parse_tree('S(A(B("x") "y") "z")')
    aux = parse_tree('A(A* "w")')
    site = A("1")
    foot = aux.foot_address
    result = adjoin(target, site, aux)
    for addr, kind in target.items():
        assert result.node_at(rebase_address(addr, site, foot)) == kind


# --- yields ---------------------------------------------------------------------


def test_strict_yield_rejects_open_positions():
    with pytest.raises(IncompleteTree):
        yield_tokens(COOKED)
    with pytest.raises(IncompleteTree):
        yield_tokens(DRIED)


def test_strict_yield_names_where_an_open_position_sits_now():
    # Adjoining at the root moves COOKED's slots from 1 and 2.2 to 2.1 and 2.2.2;
    # the slot's site still names its elementary address, 1.
    often = splice(COOKED.owned_by("cooked").row_at(ROOT), parse_tree('S(ADV("often") S*)').owned_by("often"))
    assert often.node(A("2.1")).site == SiteRef("cooked", A("1"))
    with pytest.raises(IncompleteTree, match=r"^substitution slot remains at 2\.1$"):
        yield_tokens(often)
    # DRIED's foot moves from 2 to 2.2 under a second modifier.
    fresh = splice(DRIED.owned_by("dried").row_at(ROOT), parse_tree('N(A("fresh") N*)').owned_by("fresh"))
    with pytest.raises(IncompleteTree, match=r"^foot node remains at 2\.2$"):
        yield_tokens(fresh)


def test_strict_yield_names_the_first_place_of_a_shared_node():
    # Unstamped fillers are shared, so one slot node sits at both 1.1 and 3.1.
    filler = parse_tree('NP(D! N("x"))')
    twice = substitute(substitute(parse_tree('S(NP! V("v") NP!)'), A("3"), filler), A("1"), filler)
    assert twice.node(A("1.1")) is twice.node(A("3.1"))
    with pytest.raises(IncompleteTree, match=r"^substitution slot remains at 1\.1$"):
        yield_tokens(twice)


def test_partial_yield_renders_slots():
    assert yield_string(COOKED, partial=True) == "⟨NP↓⟩ cooked ⟨NP↓⟩"


def test_single_anchor_yield():
    assert yield_tokens(JOHN) == ("John",)


# --- bracketed text format -------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        'S(NP! VP(V("cooked") NP!))',
        'NP("John")',
        'N(A("dried") N*)',
        'S(NP! VP(V("likes")))',
        'S(X("a \\"quoted\\" token" Y))',
    ],
)
def test_format_parse_round_trip(text):
    assert format_tree(parse_tree(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_tree("S(")
    with pytest.raises(ParseError):
        parse_tree("S() ")
    with pytest.raises(ParseError):
        parse_tree('S("x") trailing')
    with pytest.raises(ParseError):
        parse_tree('"just a terminal"')


def test_parse_accepts_flexible_whitespace():
    assert parse_tree('S( NP!   VP( V( "cooked" )  NP! ) )') == COOKED


def test_equality_compares_kinds_and_shape_but_not_sites():
    owned = COOKED.owned_by("cooked")
    assert owned.node(A("2.1")).site.addr == A("2.1") and COOKED.node(A("2.1")).site is None
    assert owned == COOKED and hash(owned) == hash(COOKED)
    for text in ('VP(NP! VP(V("cooked") NP!))', 'S(NP! VP(V("cooked")) NP!)', 'S(NP! VP(V("cooked") NP*))'):
        assert parse_tree(text) != COOKED
    assert COOKED != format_tree(COOKED)


@pytest.mark.parametrize("owners", [("cooked", "other"), ("other", "cooked")])
def test_stamping_one_tree_under_two_owners(owners):
    source = parse_tree('S(NP! VP(V("cooked") NP!))')
    copies = [(owner, source.owned_by(owner)) for owner in owners]
    for owner, copy in copies:
        assert [n.site for n in copy.nodes()] == [SiteRef(owner, a) for a in source.addresses()]
        assert copy == source
    assert all(n.site is None for n in source.nodes())


def fixture_trees() -> list[SyntaxTree]:
    """Every tree of every shipped grammar fixture, both sides of each pair."""
    trees = []
    for path in sorted(FIXTURES.glob("*.*")):
        doc = load_grammar(str(path))
        trees += [tree for _, tree in doc.trees]
        trees += [t for p in (*doc.stag_pairs, *doc.lstag_pairs) for t in (p.left_tree, p.right_tree)]
    return trees


def test_owned_by_matches_the_reference_stamp_on_every_fixture_tree():
    """Node for node: kind, child count, site, slots, foot and mark, under two owners in turn.

    The stamped tree comes with its foot row, the one a walk of its rows finds first.
    """
    trees = fixture_trees()
    assert len(trees) > 20 and any(t.foot_row is not None for t in trees)
    for tree in trees:
        for owner in ("a", "b/1.2:c"):
            stamped = tree.owned_by(owner)
            assert node_table(stamped) == node_table(reference_owned_by(tree, owner))
            assert vars(stamped)["foot_row"] == first_foot_row(stamped)


@given(st.integers(0, 2**48), st.booleans())
@settings(max_examples=300, deadline=None)
def test_owned_by_matches_the_reference_stamp(seed, derived):
    """Random trees, with a foot or without, parsed or composed: a composed tree carries sites and marks to replace."""
    rng = random.Random(seed)
    tree = random_tree(rng, max_depth=4, foot_symbol=rng.choice([None, "S", "A"]))
    if derived:
        rows = [r for r in tree.owned_by("host").rows() if isinstance(r[2].kind, Interior)]
        row = rng.choice(rows)
        tree = splice(row, random_auxiliary(rng, root_symbol=row[2].kind.symbol).owned_by("guest"))
    for owner in ("x", "y"):
        stamped = tree.owned_by(owner)
        assert node_table(stamped) == node_table(reference_owned_by(tree, owner))
        assert vars(stamped)["foot_row"] == first_foot_row(stamped)
        assert stamped == tree and stamped.foot_address == tree.foot_address


def test_addresses_and_sites_hash_compare_print_and_pickle_as_dataclass_values():
    """Each hashes once, to the dataclass hash's value, and compares, prints, lists its fields and pickles as one."""
    parts = [(), (1,), (2, 1), (1, 2, 3, 4)]
    for p in parts:
        assert hash(GornAddress(p)) == hash((p,)) == hash(GornAddress.parse(str(GornAddress(p))))
        assert hash(SiteRef("x", GornAddress(p))) == hash(("x", GornAddress(p)))
    assert [GornAddress(p) == GornAddress(q) for p in parts for q in parts] == [p == q for p in parts for q in parts]
    assert GornAddress((1, 2)) != GornAddress((1, 3)) and SiteRef("x", A("1")) != SiteRef("y", A("1"))
    assert SiteRef("x", A("1")) != SiteRef("x", A("2")) and SiteRef("x", A("1")) == SiteRef("x", GornAddress((1,)))
    assert (GornAddress((1,)) == (1,)) is False and (SiteRef("x", ROOT) == ("x", ROOT)) is False
    assert GornAddress((1,)) != (1,) and SiteRef("x", ROOT) != ("x", ROOT)
    assert repr(SiteRef("x", A("2.1"))) == "SiteRef(owner='x', addr=GornAddress('2.1'))"
    assert str(SiteRef("x", A("2.1"))) == "x@2.1" and str(SiteRef("x", ROOT)) == "x@ε"
    assert [f.name for f in fields(GornAddress)] == ["parts"]
    assert [f.name for f in fields(SiteRef)] == ["owner", "addr"]
    values = [ROOT, A("2.1"), SiteRef("x", ROOT), SiteRef("y/1:z", A("1.2.3"))]
    for value in values:
        str(value)  # an address keeps the text it printed; a copy must not depend on it
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and hash(back) == hash(value) and str(back) == str(value) and repr(back) == repr(value)
        for back in (copy.copy(value), copy.deepcopy(value)):
            assert back == value and hash(back) == hash(value)
    with pytest.raises(FrozenInstanceError):
        A("1").parts = (2,)


# --- deep trees: addresses are built only where a caller reads one ------------------


def test_a_deep_tree_builds_one_address_per_address_read(monkeypatch):
    """On a 2,000-deep chain, `by_site` and `locate` build no address and `left_address` builds one."""
    depth = 2000
    node = TreeNode(SubstitutionSlot("X"), (), SiteRef("n", ROOT))
    for i in range(depth):
        node = TreeNode(Interior("X"), (node,), SiteRef(f"n{i}", ROOT))
    tree = SyntaxTree(node)
    structure = DerivedStructure("n", tree, tree, (), (), ())
    deepest = GornAddress((1,) * depth)
    built = []
    of = GornAddress._of.__func__
    monkeypatch.setattr(GornAddress, "_of", classmethod(lambda cls, parts: built.append(parts) or of(cls, parts)))
    assert len(tree.by_site) == depth + 1 and built == []
    assert tree.locate(SiteRef("n", ROOT))[2].kind == SubstitutionSlot("X") and built == []
    assert structure.left_address(SiteRef("n", ROOT)) == deepest and len(built) == 1
    monkeypatch.undo()
    assert format_tree(tree) == "X(" * depth + "X!" + ")" * depth
    assert tree_to_dot(tree).count("\n") == 2 + 2 * depth + 1
    assert yield_tokens(tree, partial=True) == ("⟨X↓⟩",)


def test_repr_spells_the_tree():
    assert repr(parse_tree('S(NP! VP(V("x")))')) == """SyntaxTree('S(NP! VP(V("x")))')"""
