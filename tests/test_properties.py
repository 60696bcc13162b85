"""Property tests for the composition laws and link bookkeeping."""

import itertools
import pathlib
import random
from functools import cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from lstag import (
    DerivationTree,
    DuplicateAdjunction,
    EnumerationBudget,
    Foot,
    GornAddress,
    IncompleteTree,
    Interior,
    Link,
    LstagError,
    LstagPair,
    SharedLinkGroup,
    SiteRef,
    StagPair,
    SubstitutionSlot,
    SyntaxTree,
    TagGrammar,
    Terminal,
    TreeClass,
    adjoin,
    check_lexical_contiguity,
    enumerate_derivations,
    format_derivation_script,
    format_tree,
    link_share,
    load_grammar,
    lstag_compose,
    parse_derivation_script,
    parse_tree,
    rebase_address,
    replay,
    shared_substitute,
    stag_compose,
    structure_from_pair,
    substitute,
    usable_lstag_names,
    validate_derivation,
    yield_tokens,
)
from lstag import engine
from lstag.sharing import check_step, closes, step_record
from lstag.tag import derivation_to_json_obj, derivation_tree
from lstag.trees import TreeNode, adjoin_with_maps, fill_slot, row_address, splice, substitute_with_maps

import reference_trees
import reference_validate

from helpers_trees import (
    SYMBOLS,
    check_structure,
    derivation_from_json_obj,
    first_foot_row,
    group_addresses,
    image_connected_oracle,
    pair_grammar,
    interior_addresses,
    parent_addresses,
    replay_lstag_records,
    random_auxiliary,
    random_initial,
    random_tree,
    slot_addresses,
    splice_yield_oracle,
)


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def rng_from(data) -> random.Random:
    return random.Random(data.draw(st.integers(0, 2**48)))


# --- adjunction wraps the detached yield ----------------------------------------


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_adjunction_yield_matches_splice_oracle(data):
    rng = rng_from(data)
    target = random_tree(rng)
    sites = interior_addresses(target)
    site = sites[data.draw(st.integers(0, len(sites) - 1))]
    aux = random_auxiliary(rng, target.node_at(site).symbol)
    result = adjoin(target, site, aux)
    assert list(yield_tokens(result, partial=True)) == splice_yield_oracle(target, site, aux)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_adjunction_node_map_is_a_bijection(data):
    rng = rng_from(data)
    target = random_tree(rng)
    sites = interior_addresses(target)
    site = sites[data.draw(st.integers(0, len(sites) - 1))]
    aux = random_auxiliary(rng, target.node_at(site).symbol)
    res = adjoin_with_maps(target, site, aux)
    ref = reference_trees.adjoin_with_maps(target, site, aux)
    assert len(res.tree) == len(target) + len(aux) - 1
    images = [moved_to for _, moved_to in ref.host_moved]
    images += [placed_at for _, placed_at in ref.guest_placed]
    assert len(set(images)) == len(images) == len(res.tree)
    for old, new in ref.host_moved:
        assert res.host_map(old) == new
        assert res.tree.node_at(new) == target.node_at(old)
    for orig, new in ref.guest_placed:
        assert res.tree.node_at(new) == aux.node_at(orig)


# --- composition needs no re-check -------------------------------------------------


def compositions(data, rng):
    """A random tree, the site and auxiliary of one adjunction into it, and
    the results of that adjunction and (when the tree has a slot) of one
    substitution."""
    target = random_tree(rng)
    sites = interior_addresses(target)
    site = sites[data.draw(st.integers(0, len(sites) - 1))]
    aux = random_auxiliary(rng, target.node_at(site).symbol)
    results = [adjoin_with_maps(target, site, aux)]
    slots = slot_addresses(target)
    if slots:
        slot = slots[data.draw(st.integers(0, len(slots) - 1))]
        results.append(substitute_with_maps(target, slot, random_initial(rng, target.node_at(slot).symbol)))
    return target, site, aux, results


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_composed_trees_pass_the_checked_constructor(data):
    _, _, _, results = compositions(data, rng_from(data))
    for res in results:
        assert SyntaxTree.from_nodes(dict(res.tree.items())) == res.tree


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_composition_matches_the_flat_table_reference(data):
    """Path copying builds the reference's table, host map and provenance.

    A chain of one to four random compositions starts from a random tree
    owned by `root`; after each step the result's entries, its host map on
    every host address and every node's `SiteRef` must equal what the
    flat-table reference and its provenance table give.
    """
    rng = rng_from(data)
    tree = random_tree(rng).owned_by("root")
    prov = dict(reference_trees.initial_prov(tree, "root"))
    for step in range(data.draw(st.integers(1, 4))):
        guest_id = f"g{step}"
        slots = slot_addresses(tree)
        if slots and data.draw(st.booleans()):
            site = slots[data.draw(st.integers(0, len(slots) - 1))]
            guest = random_initial(rng, tree.node_at(site).symbol)
            res = substitute_with_maps(tree, site, guest.owned_by(guest_id))
            ref = reference_trees.substitute_with_maps(tree, site, guest)
            unstamped = substitute_with_maps(tree, site, guest)
        else:
            sites = interior_addresses(tree)
            site = sites[data.draw(st.integers(0, len(sites) - 1))]
            guest = random_auxiliary(rng, tree.node_at(site).symbol)
            res = adjoin_with_maps(tree, site, guest.owned_by(guest_id))
            ref = reference_trees.adjoin_with_maps(tree, site, guest)
            unstamped = adjoin_with_maps(tree, site, guest)
        assert res.tree.items() == ref.tree.items() == unstamped.tree.items()
        for a in tree.addresses():
            assert res.host_map(a) == ref.host_map(a)
        prov = dict(reference_trees.updated_prov(prov, ref.host_moved, ref.guest_placed, guest_id))
        assert [(a, node.site) for a, node in zip(res.tree.addresses(), res.tree.nodes())] == sorted(prov.items())
        tree = res.tree


# --- trusted addresses and the one-pass frontier ------------------------------------


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_frontier_matches_a_recursive_reference(data):
    def leaves(node, parts=()):
        if not node.children:
            return [GornAddress(parts)]
        return [a for k, kid in enumerate(node.children, 1) for a in leaves(kid, parts + (k,))]

    target, _, aux, results = compositions(data, rng_from(data))
    for tree in [target, aux] + [res.tree for res in results]:
        assert tree.frontier == tuple(leaves(tree.root))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_derived_addresses_equal_checked_ones(data):
    rng = rng_from(data)
    target, site, aux, results = compositions(data, rng)
    trees = [target, aux] + [res.tree for res in results]
    derived = []
    for tree in trees:
        addrs = tree.addresses()
        for a in addrs:
            derived.append(a.child(rng.randint(1, 4)))
            derived.append(a.extend(rng.choice(addrs)))
            derived.append(a.suffix_after(GornAddress(a.parts[: rng.randint(0, len(a))])))
            if a.parts:
                derived.append(a.parent)
    derived += [rebase_address(a, site, aux.foot_address) for a in target.addresses()]
    for res in results:
        derived += [res.host_map(a) for a in target.addresses()]
        derived += res.tree.addresses()
    for a in derived:
        checked = GornAddress(a.parts)
        assert type(a.parts) is tuple
        assert checked == a and hash(checked) == hash(a)


@given(
    parts=st.lists(st.integers(1, 9), max_size=3).map(tuple),
    bad=st.one_of(st.integers(max_value=0), st.booleans(), st.sampled_from([1.0, "1", None])),
)
def test_invalid_components_are_still_rejected(parts, bad):
    with pytest.raises(ValueError):
        GornAddress(parts + (bad,))
    with pytest.raises(ValueError):
        GornAddress(parts).child(bad)


# --- node-only traversals ------------------------------------------------------------


def walk_shape(tree):
    return tuple((row[2].kind, len(row[2].children)) for row in tree.rows())


def walk_yield(tree):
    """The partial yield and the first open leaf's message, read off the rows walk."""
    out, first_open = [], None
    for row in tree.rows():
        a, n = row_address(row), row[2]
        kind = n.kind
        if n.children or isinstance(kind, Interior):
            continue
        if isinstance(kind, Terminal):
            out.append(kind.token)
            continue
        is_slot = isinstance(kind, SubstitutionSlot)
        out.append(f"⟨{kind.symbol}{'↓' if is_slot else '*'}⟩")
        if first_open is None:
            first_open = f"{'substitution slot' if is_slot else 'foot node'} remains at {a}"
    return tuple(out), first_open


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_node_only_traversals_agree_with_the_address_walk(data):
    """Size, equality, hashing and yields read the same tree as `rows()` does."""
    target, _, aux, results = compositions(data, rng_from(data))
    trees = [target, aux] + [res.tree for res in results]
    trees += [t.owned_by("x") for t in trees]
    for t in trees:
        assert len(t) == sum(1 for _ in t.rows())
        assert hash(t) == hash(walk_shape(t))
        assert t == parse_tree(format_tree(t))
        tokens, first_open = walk_yield(t)
        assert yield_tokens(t, partial=True) == tokens
        if first_open is None:
            assert yield_tokens(t) == tokens
        else:
            with pytest.raises(IncompleteTree) as raised:
                yield_tokens(t)
            assert str(raised.value) == first_open
    for t in trees:
        for u in trees:
            assert (t == u) == (walk_shape(t) == walk_shape(u))


# --- the foot index ----------------------------------------------------------------


def assert_foot_index_agrees(tree) -> None:
    """Below every node, `foot_row` and `foot_address` name the first foot `rows()` meets."""
    for node in tree.nodes():
        sub = SyntaxTree(node)
        want = first_foot_row(sub)
        assert sub.foot_row == want
        assert sub.foot_address == (None if want is None else row_address(want))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_the_foot_index_finds_the_first_foot_of_composed_trees(data):
    """Random trees and every tree of a random chain of `fill_slot` and `splice` steps, stamped or not."""
    rng = rng_from(data)
    trees = [random_initial(rng), random_auxiliary(rng), random_auxiliary(rng, max_depth=4)]
    for step in range(data.draw(st.integers(0, 8))):
        row = rng.choice(list(rng.choice(trees).rows()))
        kind, guest_id = row[2].kind, rng.choice([None, f"g{step}"])
        if isinstance(kind, SubstitutionSlot):
            fits = [t for t in trees if first_foot_row(t) is None and t.root_symbol == kind.symbol]
            guest = rng.choice(fits) if fits and rng.random() < 0.5 else random_initial(rng, kind.symbol)
            trees.append(fill_slot(row, guest if guest_id is None else guest.owned_by(guest_id)))
        elif isinstance(kind, Interior):
            fits = [t for t in trees if first_foot_row(t) is not None and t.root_symbol == kind.symbol]
            guest = rng.choice(fits) if fits and rng.random() < 0.5 else random_auxiliary(rng, kind.symbol)
            trees.append(splice(row, guest if guest_id is None else guest.owned_by(guest_id)))
    for tree in trees:
        assert_foot_index_agrees(tree)


def test_the_foot_index_finds_the_first_of_two_feet():
    """A tree built without checks may hold two feet, or one subtree twice; the first in preorder is the foot."""
    below = TreeNode(Interior("A"), (TreeNode(Terminal("a")), TreeNode(Interior("B"), (TreeNode(Foot("S")),))))
    two_feet = SyntaxTree(TreeNode(Interior("S"), (TreeNode(Terminal("x")), below, TreeNode(Foot("S")))))
    shared = SyntaxTree(TreeNode(Interior("S"), (below, below)))
    assert two_feet.foot_address == GornAddress.parse("2.2.1")
    assert shared.foot_address == GornAddress.parse("1.2.1")
    for tree in (two_feet, shared):
        assert_foot_index_agrees(tree)


# --- substitution locality and commutation ---------------------------------------


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_substitution_changes_nothing_outside_the_slot(data):
    rng = rng_from(data)
    target = random_tree(rng)
    slots = slot_addresses(target)
    if not slots:
        return
    slot = slots[data.draw(st.integers(0, len(slots) - 1))]
    filler = random_initial(rng, target.node_at(slot).symbol, allow_slots=False)
    result = substitute(target, slot, filler)
    for addr, kind in target.items():
        if addr != slot:
            assert result.node_at(addr) == kind
    for addr, kind in filler.items():
        assert result.node_at(slot.extend(addr)) == kind


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_substitutions_at_disjoint_slots_commute(data):
    rng = rng_from(data)
    target = random_tree(rng)
    slots = slot_addresses(target)
    if len(slots) < 2:
        return
    a, b = rng.sample(slots, 2)
    fa = random_initial(rng, target.node_at(a).symbol, allow_slots=False)
    fb = random_initial(rng, target.node_at(b).symbol, allow_slots=False)
    assert substitute(substitute(target, a, fa), b, fb) == substitute(
        substitute(target, b, fb), a, fa
    )


# --- replay order-insensitivity ---------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_replay_ignores_edge_presentation_order(data):
    rng = rng_from(data)
    root = random_tree(rng)
    entries = {"root": root}
    edges = []
    for i, slot in enumerate(slot_addresses(root)):
        name = f"fill{i}"
        entries[name] = random_initial(rng, root.node_at(slot).symbol, allow_slots=False)
        edges.append((slot, DerivationTree(name)))
    interiors = interior_addresses(root)
    for i, site in enumerate(rng.sample(interiors, min(2, len(interiors)))):
        name = f"mod{i}"
        entries[name] = random_auxiliary(rng, root.node_at(site).symbol)
        edges.append((site, DerivationTree(name)))
    grammar = TagGrammar.from_trees(entries)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    forward = replay(grammar, DerivationTree("root", tuple(edges)))
    permuted = replay(grammar, DerivationTree("root", tuple(shuffled)))
    assert forward == permuted == reference_trees.replay(grammar, DerivationTree("root", tuple(edges)))


_COOKED = load_grammar(str(FIXTURES / "cooked.tag")).tag_grammar()
_NAMES = tuple(name for name, _ in _COOKED.entries) + ("nope",)
# Every address of a cooked.tag tree, plus two that none of them has.
_ADDRESSES = sorted(
    {a for _, e in _COOKED.entries for a in e.tree.addresses()} | {GornAddress((3,)), GornAddress((2, 2, 1))}
)


def _sites(tree: SyntaxTree) -> list[tuple[GornAddress, tuple[str, ...]]]:
    """Each address of `tree` that some cooked.tag tree composes at, with the names that do."""
    out = []
    for addr, kind in tree.items():
        want = {SubstitutionSlot: TreeClass.INITIAL, Interior: TreeClass.AUXILIARY}.get(type(kind))
        fits = tuple(n for n, e in _COOKED.entries if e.tree_class is want and e.tree.root_symbol == kind.symbol)
        if fits:
            out.append((addr, fits))
    return out


_SITES = {name: _sites(entry.tree) for name, entry in _COOKED.entries}


@st.composite
def cooked_derivations(draw, depth=3, name=None):
    """Derivation trees over cooked.tag names and one unknown name.

    Four edges in five fit their parent's site when one exists; the rest
    have any address and any child, so both valid and invalid derivations
    come up often.
    """
    name = name or draw(st.sampled_from(_NAMES))
    if depth == 0:
        return DerivationTree(name)
    edges = {}
    for _ in range(draw(st.integers(0, 2))):
        sites = _SITES.get(name)
        if sites and draw(st.integers(0, 4)):
            addr, fits = draw(st.sampled_from(sites))
            child = draw(cooked_derivations(depth - 1, draw(st.sampled_from(fits))))
        else:
            addr, child = draw(st.sampled_from(_ADDRESSES)), draw(cooked_derivations(depth - 1))
        edges[addr] = child
    return DerivationTree(name, tuple(edges.items()))


@given(cooked_derivations())
@settings(max_examples=200, deadline=None)
def test_replay_fails_exactly_when_validate_derivation_reports(d):
    diags = validate_derivation(_COOKED, d)
    try:
        derived = replay(_COOKED, d)
    except LstagError as exc:
        assert diags, f"replay raised {exc!r} on a derivation with no diagnostics"
        assert type(exc).__name__ == diags[0].code
        assert diags[0].message in str(exc)
    else:
        assert diags == []
        assert derived == reference_trees.replay(_COOKED, d)


@given(cooked_derivations())
@settings(max_examples=200, deadline=None)
def test_validate_derivation_matches_the_eager_path_reference(d):
    def triples(diags):
        return [(x.code, x.message, x.where) for x in diags]

    assert triples(validate_derivation(_COOKED, d)) == triples(reference_validate.validate_derivation(_COOKED, d))


# Edge addresses that nest: 2 and 1 against 2.1, and the root.
_NESTING_ADDRESSES = [GornAddress(p) for p in [(), (1,), (2,), (2, 1), (1, 2), (2, 1, 1)]]


# --- replay against the bottom-up graft oracle, node by node -------------------------


def node_marks(tree: SyntaxTree) -> list[tuple]:
    """Each node's (kind, child count, adjoined, slots, foot, site) in preorder."""
    return [(n.kind, len(n.children), n.adjoined, n.slots, n.foot, n.site) for n in tree.nodes()]


# cooked.tag with each tree stamped with its own name, so every node's site names its elementary tree.
_COOKED_OWNED = TagGrammar.from_trees({name: entry.tree.owned_by(name) for name, entry in _COOKED.entries})


@given(cooked_derivations())
@settings(max_examples=80, deadline=None)
def test_replay_builds_the_nodes_bottom_up_grafts_build(d):
    if validate_derivation(_COOKED_OWNED, d):
        return
    assert node_marks(replay(_COOKED_OWNED, d)) == node_marks(reference_trees.graft_replay(_COOKED_OWNED, d))


# Each tree has an interior node or a slot at every nesting address; `m` and `n` have their feet below 1, so
# edges nest below hosts, along the path to a foot and at the roots of adjoined trees.
_NESTED = TagGrammar.from_trees(
    {
        name: parse_tree(text).owned_by(name)
        for name, text in {
            "a": 'X(X(X! X!) X(X(X("a")) X!))',
            "b": 'X(X(X("b") X(X("b"))) X(X(X!)))',
            "m": 'X(X(X* X("m")) X(X(X("m"))))',
            "n": 'X(X(X("n") X(X*)) X(X(X("n"))))',
        }.items()
    }
)


@st.composite
def nesting_derivations(draw, depth=3, name=None):
    """Valid derivations over `_NESTED` whose edge addresses are drawn from `_NESTING_ADDRESSES`."""
    name = name or draw(st.sampled_from("abmn"))
    tree = _NESTED.get(name).tree
    edges = []
    for addr in draw(st.lists(st.sampled_from(_NESTING_ADDRESSES), unique=True, max_size=3 if depth else 0)):
        child = draw(st.sampled_from("ab" if isinstance(tree.node_at(addr), SubstitutionSlot) else "mn"))
        edges.append((addr, draw(nesting_derivations(depth - 1, child))))
    return DerivationTree(name, tuple(edges))


@given(nesting_derivations())
@settings(max_examples=60, deadline=None)
def test_replay_builds_the_nodes_bottom_up_grafts_build_at_nesting_addresses(d):
    derived = replay(_NESTED, d)
    assert node_marks(derived) == node_marks(reference_trees.graft_replay(_NESTED, d))
    assert derived == reference_trees.replay(_NESTED, d)


@st.composite
def distinct_name_derivations(draw, depth=3):
    """Derivation trees whose node names are all distinct, as a script needs to name its parents."""
    names = itertools.count()

    def node(depth):
        name = f"t{next(names)}"
        addrs = draw(st.lists(st.sampled_from(_NESTING_ADDRESSES), unique=True, max_size=2 if depth else 0))
        return DerivationTree(name, tuple((a, node(depth - 1)) for a in addrs))

    return node(depth)


@given(distinct_name_derivations())
@settings(max_examples=150, deadline=None)
def test_derivation_scripts_and_json_round_trip(d):
    assert parse_derivation_script(format_derivation_script(d)) == d
    assert derivation_from_json_obj(derivation_to_json_obj(d)) == d


@st.composite
def derivation_tables(draw):
    """(root, labels, children) tables as `derivation_tree` reads them.

    Node 0 is the root and every other node hangs under an earlier one.  A
    parent's edges come in node order, so their addresses are often out of
    order, and they are drawn from six, so they often repeat.
    """
    n = draw(st.integers(1, 10))
    labels = [draw(st.sampled_from("abc")) for _ in range(n)]
    children: dict[int, list[tuple[GornAddress, int]]] = {}
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        children.setdefault(parent, []).append((draw(st.sampled_from(_NESTING_ADDRESSES)), node))
    return 0, labels, children


def checked_derivation_tree(root, labels, children) -> DerivationTree:
    """The tree of a table built node by node through `DerivationTree(...)`, leaves first in the same order."""
    order = [root]
    for node in order:
        order.extend(child for _, child in children.get(node, ()))
    built = {}
    for node in reversed(order):
        built[node] = DerivationTree(labels[node], tuple((a, built[c]) for a, c in children.get(node, ())))
    return built[root]


@given(derivation_tables())
@settings(max_examples=300, deadline=None)
def test_the_trusted_builder_agrees_with_the_checked_constructor(table):
    def outcome(build):
        try:
            return build(*table)
        except ValueError as exc:
            return f"ValueError: {exc}"

    assert outcome(derivation_tree) == outcome(checked_derivation_tree)


# --- synchronous link bookkeeping --------------------------------------------------


def random_stag_composition(rng: random.Random):
    """A host pair, a legal member index, and a guest built to fit it."""
    left = random_tree(rng)
    right = random_tree(rng)
    candidates = []
    for ls in slot_addresses(left):
        for rs in slot_addresses(right):
            candidates.append((ls, rs, "substitution"))
    for li in interior_addresses(left):
        for ri in interior_addresses(right):
            candidates.append((li, ri, "adjunction"))
    if not candidates:
        return None
    la, ra, op = rng.choice(candidates)
    extra = [
        Link(rng.choice(left.addresses()), rng.choice(right.addresses()))
        for _ in range(rng.randint(0, 3))
    ]
    member = rng.randint(0, len(extra))
    links = extra[:member] + [Link(la, ra)] + extra[member:]
    host = StagPair("host", left, right, tuple(links))
    if op == "substitution":
        guest_left = random_initial(rng, left.node_at(la).symbol, allow_slots=False)
        guest_right = random_initial(rng, right.node_at(ra).symbol, allow_slots=False)
    else:
        guest_left = random_auxiliary(rng, left.node_at(la).symbol)
        guest_right = random_auxiliary(rng, right.node_at(ra).symbol)
    guest_links = tuple(
        Link(rng.choice(guest_left.addresses()), rng.choice(guest_right.addresses()))
        for _ in range(rng.randint(0, 2))
    )
    guest = StagPair("guest", guest_left, guest_right, guest_links)
    return host, member, guest


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_stag_link_count_conservation(data):
    rng = rng_from(data)
    case = random_stag_composition(rng)
    if case is None:
        return
    host, member, guest = case
    result = stag_compose(host, member, guest)
    assert len(result.links) == len(host.links) + len(guest.links) - 1
    for link in result.links:
        assert result.left_tree.has_address(link.left)
        assert result.right_tree.has_address(link.right)


def random_lstag_composition(rng: random.Random):
    """A host with singleton groups and an auxiliary guest with phi links."""
    symbol = rng.choice(SYMBOLS)
    left = random_tree(rng, root_symbol=symbol)
    right = random_tree(rng, root_symbol=symbol)
    delta = tuple(
        Link(a, b)
        for a, b in zip(slot_addresses(left), slot_addresses(right))
    )
    host = LstagPair("host", left, right, delta=delta)
    la = rng.choice(interior_addresses(left))
    ra = rng.choice(interior_addresses(right))
    guest_left = random_auxiliary(rng, left.node_at(la).symbol)
    guest_right = random_auxiliary(rng, right.node_at(ra).symbol)
    phi_count = rng.randint(0, len(delta))
    phi_pool = list(guest_right.addresses())
    phi = tuple(Link(a, a) for a in rng.sample(phi_pool, min(phi_count, len(phi_pool))))
    guest = LstagPair("guest", guest_left, guest_right, phi=phi)
    return host, la, ra, guest


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_phi_links_are_exhausted_by_composition(data):
    rng = rng_from(data)
    host, la, ra, guest = random_lstag_composition(rng)
    structure = lstag_compose(host, la, ra, guest)
    before = structure_from_pair(host)
    # The random phi links may name any guest node, not only slots.
    grammar = pair_grammar(host, guest)
    check_structure(before, grammar, linked_slots=False)
    check_structure(structure, grammar, linked_slots=False)
    arity_before = sum(len(g.right_sites) for g in before.live_links)
    arity_after = sum(len(g.right_sites) for g in structure.live_links)
    assert arity_after - arity_before == len(guest.phi)
    assert len(structure.live_links) == len(before.live_links) + len(guest.delta)
    for left, rights in group_addresses(structure):
        assert structure.left_tree.has_address(left)
        for addr in rights:
            assert structure.right_spine.has_address(addr)


def mixed_links(rng: random.Random, left: SyntaxTree, right: SyntaxTree, count: int) -> tuple[Link, ...]:
    """`count` links, most between two slots when both trees have one, the rest between any two nodes."""
    lefts, rights = slot_addresses(left), slot_addresses(right)
    links = []
    for _ in range(count):
        if lefts and rights and rng.random() < 0.7:
            links.append(Link(rng.choice(lefts), rng.choice(rights)))
        else:
            links.append(Link(rng.choice(left.addresses()), rng.choice(right.addresses())))
    return tuple(links)


def coordinator(s, symbol: str) -> SyntaxTree:
    """`symbol(K1! ... Kn! symbol*)`: a slot like each live group's first right node that is a slot."""
    firsts = (s.right_spine.node_at(rights[0]) for _, rights in group_addresses(s))
    kinds = [k for k in firsts if isinstance(k, SubstitutionSlot)] + [Foot(symbol)]
    nodes = {GornAddress(()): Interior(symbol)}
    nodes.update((GornAddress((i,)), kind) for i, kind in enumerate(kinds, 1))
    return SyntaxTree.from_nodes(nodes)


def random_phi(rng: random.Random, s, guest_right: SyntaxTree) -> tuple[Link, ...]:
    """Phi links for a guest of `s`, sometimes one more than `s` has live groups.

    The i-th link mostly ends at a guest slot of the same kind as the i-th
    group's first right node, as in a coordination grammar, so that the
    extended groups can be filled; otherwise it ends at any guest node.
    """
    firsts = [s.right_spine.node_at(rights[0]) for _, rights in group_addresses(s)]
    phi = []
    for i in range(rng.randint(0, len(firsts) + 1)):
        fitting = [a for a in slot_addresses(guest_right) if i < len(firsts) and guest_right.node_at(a) == firsts[i]]
        addr = rng.choice(fitting if fitting and rng.random() < 0.8 else guest_right.addresses())
        phi.append(Link(addr, addr))
    return tuple(phi)


def chain_host(rng: random.Random) -> LstagPair:
    """A random initial pair with slots on both sides and one to three random delta links."""
    left, right = random_tree(rng), random_tree(rng)
    while not (slot_addresses(left) and slot_addresses(right)):
        left, right = random_tree(rng), random_tree(rng)
    return LstagPair("host", left, right, delta=mixed_links(rng, left, right, rng.randint(1, 3)))


def draw_step(data, rng: random.Random, s, step: int):
    """A random next step of a chain from `s`, or None when the drawn kind of step has no site.

    An adjunction or a substitution at random sites, or a shared substitution
    at a random live group.  Returns the guest, the step as a call of
    `lstag_compose` or `shared_substitute`, and where it composes:
    ("fill", group index, left address, right addresses) or
    ("compose", left address, right address).  Guests carry random delta and
    phi links, which may end at a foot or at any other node, and sometimes
    one phi link more than the host has groups; most auxiliaries are built
    to share the host's slots, so that shared substitutions and later
    adjunctions above their fragments happen.
    """
    move = data.draw(st.sampled_from(["adjoin", "adjoin", "substitute", "fill", "fill"]))
    if move == "fill":
        if not s.live_links:
            return None
        groups = group_addresses(s)
        shared = [i for i, (_, rights) in enumerate(groups) if len(rights) > 1]
        index = data.draw(st.sampled_from(shared or range(len(groups))))
        la, ras = groups[index]
        kinds = (s.left_tree.node_at(la), s.right_spine.node_at(ras[0]))
        if not all(isinstance(k, SubstitutionSlot) for k in kinds):
            return None
        guest = LstagPair(f"g{step}", *(random_initial(rng, k.symbol) for k in kinds))
        return guest, partial(shared_substitute, s, s.live_links[index], guest), ("fill", index, la, ras)
    kind, make = (SubstitutionSlot, random_initial) if move == "substitute" else (Interior, random_auxiliary)
    lefts = [a for a, k in s.left_tree.items() if isinstance(k, kind)]
    rights = [a for a, k in s.right_spine.items() if isinstance(k, kind)]
    if not (lefts and rights):
        return None
    la, ra = data.draw(st.sampled_from(lefts)), data.draw(st.sampled_from(rights))
    guest_left = make(rng, s.left_tree.node_at(la).symbol)
    guest_right = make(rng, s.right_spine.node_at(ra).symbol)
    if move == "adjoin" and rng.random() < 0.7:
        guest_right = coordinator(s, s.right_spine.node_at(ra).symbol)
    guest = LstagPair(
        f"g{step}",
        guest_left,
        guest_right,
        delta=mixed_links(rng, guest_left, guest_right, rng.randint(0, 2)),
        phi=random_phi(rng, s, guest_right),
    )
    return guest, partial(lstag_compose, s, la, ra, guest), ("compose", la, ra)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_link_groups_and_fragment_parents_match_the_rebasing_reference(data):
    """Site-named link groups and fragment parents resolve to rebased addresses.

    A chain of one to four random steps (see `draw_step`) starts from a host
    with random delta links.  After every step each live group and fragment
    parent resolves, in order, to the addresses that
    `reference_trees.LinkBook` keeps by rebasing, and where the book's
    checks fail a composition fails with the same error.
    """
    rng = rng_from(data)
    host = chain_host(rng)
    pairs = [host]
    s, book = structure_from_pair(host), reference_trees.book_of(host)
    for step in range(data.draw(st.integers(1, 4))):
        drawn = draw_step(data, rng, s, step)
        if drawn is None:
            continue
        guest, library, sites = drawn
        if sites[0] == "fill":
            _, index, la, ras = sites
            # The book models the checks of a composition, not those of a shared substitution.
            modeled = len(ras) == 1
            if modeled:
                reference = partial(reference_trees.book_after_compose, book, s.left_tree, la, ras[0], guest)
            else:
                reference = partial(reference_trees.book_after_shared, book, index)
        else:
            _, la, ra = sites
            reference = partial(reference_trees.book_after_compose, book, s.left_tree, la, ra, guest)
            modeled = True
        try:
            s_next = library()
        except LstagError as exc:
            # Nor does it model the one-adjunction-per-node rule.
            if modeled and not isinstance(exc, DuplicateAdjunction):
                with pytest.raises(type(exc)):
                    reference()
            continue
        s, book = s_next, reference()
        pairs.append(guest)
        assert group_addresses(s) == list(book.groups)
        assert [parent_addresses(s, f) for f in s.fragments] == list(book.parents)
        check_structure(s, pair_grammar(*pairs), linked_slots=False)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_link_share_follows_list_order(data):
    rng = rng_from(data)
    k = rng.randint(1, 5)
    j = rng.randint(0, k)
    groups = [
        SharedLinkGroup(SiteRef("h", GornAddress((i + 1,))), (SiteRef("h", GornAddress((i + 1,))),))
        for i in range(k)
    ]
    phi = [Link(GornAddress((i + 1, 1)), GornAddress((i + 1, 1))) for i in range(j)]
    rng.shuffle(phi)
    out = link_share(groups, phi, site=lambda a: SiteRef("g", a))
    for i, group in enumerate(out):
        if i < len(phi):
            assert group.right_sites[-1] == SiteRef("g", phi[i].right)
            assert group.right_sites[:-1] == groups[i].right_sites
            assert group.left_site == groups[i].left_site
        else:
            assert group is groups[i]


# --- check before composing ------------------------------------------------------------


def assert_split_agrees(s, guest, record_of, check, compose) -> None:
    """The check raises exactly what the composition raises; once it passes, `closes` is the result's completeness."""
    try:
        build = check(record := record_of())
    except LstagError as exc:
        with pytest.raises(LstagError) as raised:
            compose()
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    built = compose()
    assert built.is_complete == closes(s, guest, record.operation, record.right_sites)
    assert build() == built


def assert_checks_agree(s, guests) -> None:
    """Every guest at every pair of sites and at every live group of `s`, checked and composed."""
    for guest in guests:
        for la in s.left_tree.addresses():
            for ra in s.right_spine.addresses():
                left, right = s.left_tree.row_at(la), s.right_spine.row_at(ra)
                assert_split_agrees(
                    s,
                    guest,
                    partial(step_record, left, (right,), guest.name),
                    lambda record: check_step({}, s, record, guest, left, (right,)),
                    partial(lstag_compose, s, la, ra, guest),
                )
        for group in s.live_links:
            sites = lambda: (s.left_tree.locate(group.left_site), tuple(map(s.right_spine.locate, group.right_sites)))
            assert_split_agrees(
                s,
                guest,
                lambda: step_record(*sites(), guest.name),
                lambda record: check_step({}, s, record, guest, *sites()),
                partial(shared_substitute, s, group, guest),
            )


@cache
def enumerated_items():
    """(grammar, item) for every item of the ungated fixture grammars at three operations."""
    out = []
    for fixture in ("cooks_eats.lstag", "degenerate.lstag", "excised.lstag", "topicalization.lstag"):
        doc = load_grammar(str(FIXTURES / fixture))
        grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=False))
        out.extend((grammar, item) for item in enumerate_derivations(grammar, EnumerationBudget(3)).items)
    return out


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_checks_agree_with_compositions_on_enumerated_prefixes(data):
    grammar, item = data.draw(st.sampled_from(enumerated_items()))
    records = item.records[: data.draw(st.integers(0, len(item.records)))]
    host = replay_lstag_records(grammar, item.root, records)
    assert_checks_agree(host, [pair for _, pair in grammar.pairs])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_checks_agree_with_compositions_on_random_chains(data):
    """Hosts from the random chains of `draw_step`; the guests are every pair drawn on the way."""
    rng = rng_from(data)
    host = chain_host(rng)
    s, guests = structure_from_pair(host), [host]
    for step in range(data.draw(st.integers(0, 4))):
        drawn = draw_step(data, rng, s, step)
        if drawn is None:
            continue
        guests.append(drawn[0])
        try:
            s = drawn[1]()
        except LstagError:
            pass
    assert_checks_agree(s, guests)


def history_adjoined(history) -> frozenset[SiteRef]:
    """The elementary nodes that host an adjunction, read off the derivation records alone."""
    return frozenset(r.left_site for r in history if r.operation == "adjunction")


def assert_tag_moves_agree(grammar, table, paths, state) -> None:
    """The TAG moves are the compositions that succeed at nodes free to take them, with exact completeness flags.

    The marked nodes are exactly the adjunction records' left sites.  The
    slot walk keeps one row per slot (no two slots share a site), every
    move sits at a row the slot walk or the adjunction-site walk returned,
    and its order key starts with that row's address text, as `row_address`
    prints it.
    """
    adjoined = history_adjoined(state.history)
    marked = [node.site for node in state.tree.nodes() if node.adjoined]
    assert len(marked) == len(adjoined) and set(marked) == adjoined
    slot_rows = engine._slot_rows(state.tree)
    assert len(slot_rows) == state.tree.root.slots
    walked = {(row[2].site, "substitution") for row in slot_rows.values()}
    for _, _, node in engine._adjunction_sites(state.tree, grammar.guests["adjunction"]):
        walked.add((node.site, "adjunction"))
    rows = {row[2].site: row for row in state.tree.rows()}
    yielded = {}
    for key, record, completes, build, _ in engine._tag_moves(grammar.guests, table, paths, state):
        assert (record.left_site, record.operation) in walked
        assert key[0] == str(row_address(rows[record.left_site]))
        built = build()
        assert built.is_complete == completes
        yielded[key] = built.tree
    expected = {}
    for addr, node in zip(state.tree.addresses(), state.tree.nodes()):
        if isinstance(node.kind, Interior) and node.site in adjoined:
            continue
        compose = substitute_with_maps if isinstance(node.kind, SubstitutionSlot) else adjoin_with_maps
        for name, entry in grammar.entries:
            tree = entry.tree
            try:
                expected[(str(addr), name)] = compose(state.tree, addr, tree).tree
            except LstagError:
                pass
    assert yielded == expected


@given(st.data())
@settings(max_examples=90, deadline=None)
def test_tag_move_checks_agree_with_compositions(data):
    """Some grammars have no auxiliary, so their moves make no adjunction-site walk."""
    rng = rng_from(data)
    trees = {f"i{k}": random_initial(rng) for k in range(3)}
    trees.update((f"a{k}", random_auxiliary(rng)) for k in range(data.draw(st.sampled_from([0, 2]))))
    grammar = TagGrammar.from_trees(trees)
    table, paths = {}, {"i0": ()}  # one site table and one path table for the run, as one enumeration keeps
    state = engine._TagState("i0", trees["i0"].owned_by("i0"), (), DerivationTree("i0"))
    for _ in range(data.draw(st.integers(0, 3))):
        assert_tag_moves_agree(grammar, table, paths, state)
        moves = list(engine._tag_moves(grammar.guests, table, paths, state))
        if not moves:
            break
        *_, build, _ = data.draw(st.sampled_from(moves))
        state = build()
    assert_tag_moves_agree(grammar, table, paths, state)


# --- contiguity ---------------------------------------------------------------------


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_filling_the_only_open_slot_preserves_contiguity(data):
    rng = rng_from(data)
    target = random_tree(rng)
    slots = slot_addresses(target)
    if len(slots) != 1 or target.foot_address is not None:
        return
    if check_lexical_contiguity(target):
        return
    filler = random_initial(rng, target.node_at(slots[0]).symbol, allow_slots=False)
    assert check_lexical_contiguity(substitute(target, slots[0], filler)) == []


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_left_contiguity_agrees_with_connectivity_oracle(data):
    rng = rng_from(data)
    tree = random_tree(rng, max_depth=2)
    if len(tree) > 12:
        return
    addrs = list(tree.addresses())
    size = rng.randint(1, len(addrs))
    image = set(rng.sample(addrs, size))
    from lstag import Correspondence, LstagPair, check_left_contiguity

    pair = LstagPair("t", tree, tree)
    c = Correspondence(tuple((a, a) for a in sorted(image)))
    diags = check_left_contiguity(pair, c)
    assert (diags == []) == image_connected_oracle(tree, image)
    missing = pairwise_excised_segment(image)
    segment = ", ".join(str(a) for a in sorted(missing))
    message = f"left element corresponds to discontinuous parts of the right element; excised segment at {segment}"
    assert [d.message for d in diags] == ([message] if missing else [])


def pairwise_excised_segment(image: set[GornAddress]) -> set[GornAddress]:
    """The nodes on the dominance path between some two image nodes, through
    their least common ancestor, that are not in the image."""
    path: set[GornAddress] = set()
    for a, b in itertools.combinations(sorted(image), 2):
        common = 0
        for x, y in zip(a.parts, b.parts):
            if x != y:
                break
            common += 1
        path |= {GornAddress(a.parts[:k]) for k in range(common, len(a.parts) + 1)}
        path |= {GornAddress(b.parts[:k]) for k in range(common, len(b.parts) + 1)}
    return path - image
