import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lstag import (
    CardinalityViolation,
    ClassMismatch,
    DerivationRecord,
    Diagnostic,
    DuplicateAdjunction,
    GornAddress,
    GroupNotLive,
    InconsistentHistory,
    Link,
    LstagGrammar,
    LstagPair,
    NotASlot,
    OperationMismatch,
    SharedLinkGroup,
    SiteRef,
    SymbolMismatch,
    UnsupportedGuestLinks,
    derivation_projections,
    format_derivation_script,
    link_share,
    lstag_compose,
    parse_tree,
    shared_substitute,
    structure_from_pair,
    validate_pair,
)

from lstag.sharing import check_step, closes, left_projection, step_record

from helpers_trees import check_structure, graph_to_derivation_tree, group_addresses, pair_grammar, parent_addresses

A = GornAddress.parse
E = GornAddress(())


def lk(left, right=None):
    return Link(A(left), A(right if right is not None else left))


def site(owner, addr):
    return SiteRef(owner, A(addr))


def group(owner, left, *rights):
    return SharedLinkGroup(site(owner, left), tuple(site(owner, r) for r in rights))


GAMMA = LstagPair(
    "cooks",
    parse_tree('S(NP! VP(V("cooks") NP!))'),
    parse_tree('S(NP! VP(V("cooks") NP!))'),
    delta=(lk("1"), lk("2.2")),
)
BETA = LstagPair(
    "and_eats",
    parse_tree('V(V* CC("and") V("eats"))'),
    parse_tree('S(NP! VP(V("eats") NP!) S*)'),
    phi=(lk("1"), lk("2.2")),
)
JOHN = LstagPair("john", parse_tree('NP("John")'), parse_tree('NP("John")'))
BEANS = LstagPair("beans", parse_tree('NP("beans")'), parse_tree('NP("beans")'))


def coordinated():
    return lstag_compose(GAMMA, A("2.1"), E, BETA)


# --- pair validation -------------------------------------------------------------


def test_validate_clean_pairs():
    assert validate_pair(GAMMA) == []
    assert validate_pair(BETA) == []


def test_validate_flags_non_reflexive_phi():
    broken = LstagPair("x", GAMMA.left_tree, GAMMA.right_tree, phi=(Link(A("1"), A("2.2")),))
    assert [d.code for d in validate_pair(broken)] == ["NotReflexive"]


def test_validate_flags_shared_link_in_both_sets():
    broken = LstagPair("x", GAMMA.left_tree, GAMMA.right_tree, delta=(lk("1"),), phi=(lk("1"),))
    assert "NotDisjoint" in [d.code for d in validate_pair(broken)]


def test_validate_flags_dangling_endpoints():
    broken = LstagPair("x", GAMMA.left_tree, GAMMA.right_tree, delta=(Link(A("9"), A("1")),))
    assert [d.code for d in validate_pair(broken)] == ["AddressNotFound"]


def test_validate_flags_a_dangling_phi_endpoint():
    broken = LstagPair("x", BETA.left_tree, BETA.right_tree, phi=(lk("1"), lk("9")))
    assert validate_pair(broken) == [Diagnostic("AddressNotFound", "phi endpoint 9 missing from right tree", "x")]


def test_validate_flags_a_phi_endpoint_that_hosts_no_operation():
    """A phi link at a terminal or a foot is reported; one at a slot or an interior node is not."""
    at_terminal = LstagPair("x", BETA.left_tree, BETA.right_tree, phi=(lk("1"), lk("2.1.1")))
    at_foot = LstagPair("y", BETA.left_tree, BETA.right_tree, phi=(lk("3"),))
    at_interior = LstagPair("z", BETA.left_tree, BETA.right_tree, phi=(lk("2"),))
    assert validate_pair(at_terminal) == [
        Diagnostic("OperationMismatch", "phi endpoint 2.1.1 is Terminal(token='eats'), which hosts no operation", "x")
    ]
    assert validate_pair(at_foot) == [
        Diagnostic("OperationMismatch", "phi endpoint 3 is Foot(symbol='S'), which hosts no operation", "y")
    ]
    assert validate_pair(at_interior) == []


def test_validate_flags_trees_of_different_classes():
    mixed = LstagPair("m", BETA.left_tree, JOHN.right_tree)
    assert validate_pair(mixed) == [
        Diagnostic("ClassMismatch", "left tree is auxiliary but right tree is initial", "m")
    ]
    # A tree that does not classify is reported once, by the document's validation, not again here.
    odd = LstagPair("odd", parse_tree('S(A("x") NP*)'), JOHN.right_tree)
    assert validate_pair(odd) == []


# --- link_share ------------------------------------------------------------------


HOST_GROUPS = (group("h", "1", "1"), group("h", "2.2", "2.2"))


def guest_site(addr):
    return SiteRef("g", addr)


def test_link_share_pairs_by_position():
    groups = link_share(HOST_GROUPS, [lk("1"), lk("2.2")], site=guest_site)
    assert groups == (
        SharedLinkGroup(site("h", "1"), (site("h", "1"), site("g", "1"))),
        SharedLinkGroup(site("h", "2.2"), (site("h", "2.2"), site("g", "2.2"))),
    )


def test_link_share_empty_phi_passes_groups_through():
    assert link_share(HOST_GROUPS, [], site=guest_site) == HOST_GROUPS


def test_link_share_cardinality_violation():
    with pytest.raises(CardinalityViolation):
        link_share(HOST_GROUPS[:1], [lk("1"), lk("2.2")], site=guest_site)


def test_link_share_order_sensitivity():
    straight = link_share(HOST_GROUPS, [lk("1"), lk("2.2")], site=guest_site)
    swapped = link_share(HOST_GROUPS, [lk("2.2"), lk("1")], site=guest_site)
    assert straight != swapped
    assert swapped[0].right_sites == (site("h", "1"), site("g", "2.2"))


# --- lstag_compose ----------------------------------------------------------------


def test_coordination_composition_shapes_and_groups():
    s = coordinated()
    assert " ".join(s.left_yield(partial=True)) == (
        "⟨NP↓⟩ cooks and eats ⟨NP↓⟩"
    )
    assert group_addresses(s) == [
        (A("1"), (A("3.1"), A("1"))),
        (A("2.2"), (A("3.2.2"), A("2.2"))),
    ]
    # The groups name elementary nodes: the host's own slots, then the guest's.
    assert s.live_links == (
        SharedLinkGroup(site("cooks", "1"), (site("cooks", "1"), site("cooks/2.1:and_eats", "1"))),
        SharedLinkGroup(site("cooks", "2.2"), (site("cooks", "2.2"), site("cooks/2.1:and_eats", "2.2"))),
    )


def test_phi_is_exhausted_in_one_operation():
    s = coordinated()
    before = structure_from_pair(GAMMA)
    grown = sum(len(g.right_sites) for g in s.live_links) - sum(
        len(g.right_sites) for g in before.live_links
    )
    assert grown == len(BETA.phi)


def test_compose_records_provenance_sites():
    s = coordinated()
    record = s.history[0]
    assert record.operation == "adjunction"
    assert str(record.left_site) == "cooks@2.1"
    assert [str(r) for r in record.right_sites] == ["cooks@ε"]


def test_linkless_guest_behaves_like_plain_synchronized_step():
    s = lstag_compose(GAMMA, A("1"), A("1"), JOHN)
    assert " ".join(s.left_yield(partial=True)) == "John cooks ⟨NP↓⟩"
    assert group_addresses(s) == [(A("2.2"), (A("2.2"),))]


def test_compose_rebases_host_group_below_right_site():
    # adjoining at the right root moves both right endpoints through the foot
    s = coordinated()
    for _, rights in group_addresses(s):
        assert rights[0].parts[0] == 3


def test_guest_delta_joins_as_singleton_groups():
    guest = LstagPair(
        "modnp",
        parse_tree('NP(D! N("beans"))'),
        parse_tree('NP(D! N("beans"))'),
        delta=(lk("1"),),
    )
    s = lstag_compose(GAMMA, A("2.2"), A("2.2"), guest)
    assert (A("2.2.1"), (A("2.2.1"),)) in group_addresses(s)


def test_compose_mixed_site_kinds_rejected():
    with pytest.raises(OperationMismatch):
        lstag_compose(GAMMA, A("1"), E, BETA)


def test_auxiliary_pair_cannot_root_a_derivation():
    with pytest.raises(ClassMismatch):
        structure_from_pair(BETA)
    with pytest.raises(ClassMismatch):
        lstag_compose(BETA, A("1"), A("1"), JOHN)


def test_compose_substitution_cannot_orphan_a_shared_group():
    s = coordinated()
    with pytest.raises(GroupNotLive):
        lstag_compose(s, A("1"), A("3.1"), JOHN)


def test_second_adjunction_at_same_elementary_node_rejected():
    s = coordinated()
    # after the first step the original V head sits at 2.1.1 and the original
    # right root at 3; both already host an adjunction, and the left is checked first
    with pytest.raises(DuplicateAdjunction) as left:
        lstag_compose(s, A("2.1.1"), A("3"), BETA)
    assert str(left.value) == "left node cooks@2.1 already hosts an adjunction"
    # the fresh auxiliary root at 2.1 is free on the left, so the right is reported
    with pytest.raises(DuplicateAdjunction) as right:
        lstag_compose(s, A("2.1"), A("3"), BETA)
    assert str(right.value) == "right node cooks@ε already hosts an adjunction"


def test_readjunction_at_the_fresh_auxiliary_root_is_allowed():
    s = coordinated()
    s = lstag_compose(s, A("2.1"), E, BETA)
    assert " ".join(s.left_yield(partial=True)) == (
        "⟨NP↓⟩ cooks and eats and eats ⟨NP↓⟩"
    )


def test_cardinality_checked_against_live_groups():
    poor = LstagPair(
        "poor",
        parse_tree('S(NP! VP(V("naps")))'),
        parse_tree('S(NP! VP(V("naps")))'),
        delta=(lk("1"),),
    )
    rich_guest = LstagPair(
        "greedy",
        parse_tree('V(V* V("snores"))'),
        parse_tree('S(NP! VP(V("snores") NP!) S*)'),
        phi=(lk("1"), lk("2.2")),
    )
    with pytest.raises(CardinalityViolation):
        lstag_compose(poor, A("2.1"), E, rich_guest)


# --- shared substitution -----------------------------------------------------------


def test_shared_substitution_gives_in_degree_two():
    s = coordinated()
    s = shared_substitute(s, s.live_links[0], JOHN)
    (frag,) = [f for f in s.fragments if f.name == "john"]
    assert len(frag.parents) == 2
    assert parent_addresses(s, frag) == (A("3.1"), A("1"))
    assert s.history[-1].operation == "shared-substitution"


def test_substitution_at_a_fragment_parent_is_rejected():
    s = coordinated()
    s = shared_substitute(s, s.live_links[0], JOHN)
    # The right slot at 1 now holds the shared john fragment.
    with pytest.raises(NotASlot):
        lstag_compose(s, A("2.2"), A("1"), BEANS)


def test_later_adjunction_moves_shared_fragment_parents():
    s = coordinated()
    s = shared_substitute(s, s.live_links[0], JOHN)
    today = LstagPair("today", parse_tree('V(V* ADV("today"))'), parse_tree('S(S* ADV("today"))'))
    s = lstag_compose(s, A("2.1.3"), E, today)
    (john,) = [f for f in s.fragments if f.name == "john"]
    assert parent_addresses(s, john) == (A("1.3.1"), A("1.1"))
    check_structure(s, pair_grammar(GAMMA, BETA, JOHN, today))


def test_singleton_group_is_ordinary_substitution():
    s = structure_from_pair(GAMMA)
    s = shared_substitute(s, s.live_links[0], JOHN)
    assert s.fragments == ()
    assert s.history[-1].operation == "substitution"
    assert s.right_spine.node_at(A("1.1")).token == "John"


def test_full_coordination_sentence():
    s = coordinated()
    s = shared_substitute(s, s.live_links[0], JOHN)
    s = shared_substitute(s, s.live_links[0], BEANS)
    assert s.live_links == ()
    assert " ".join(s.left_yield()) == "John cooks and eats beans"
    assert s.is_complete


OPEN_NP = LstagPair("open", parse_tree('NP("x")'), parse_tree('NP(D! N("x"))'))


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("guest, complete", [(JOHN, True), (OPEN_NP, False)])
def test_closes_says_whether_filling_the_last_group_completes(shared, guest, complete):
    # The last group is john's: shared after coordination, a single site without it.
    if shared:
        s = shared_substitute(coordinated(), coordinated().live_links[1], BEANS)
    else:
        s = structure_from_pair(GAMMA)
        s = shared_substitute(s, s.live_links[1], BEANS)
    (last,) = s.live_links
    assert len(last.right_sites) == (2 if shared else 1)
    left, rights = s.left_tree.locate(last.left_site), tuple(s.right_spine.locate(x) for x in last.right_sites)
    record = step_record(left, rights, guest.name)
    assert closes(s, guest, record.operation, record.right_sites) is complete
    assert check_step({}, s, record, guest, left, rights)().is_complete is complete
    assert shared_substitute(s, last, guest).is_complete is complete


def test_closes_counts_the_open_slots_of_earlier_fragments():
    s = shared_substitute(coordinated(), coordinated().live_links[0], OPEN_NP)
    s = shared_substitute(s, s.live_links[0], BEANS)
    today = LstagPair("today", parse_tree('V(V* ADV("today"))'), parse_tree('S(S* ADV("today"))'))
    left, right = s.left_tree.row_at(A("2.1.3")), s.right_spine.row_at(E)
    record = step_record(left, (right,), today.name)
    assert closes(s, today, record.operation, record.right_sites) is False
    assert not check_step({}, s, record, today, left, (right,))().is_complete
    assert not lstag_compose(s, A("2.1.3"), E, today).is_complete


def test_shared_substitute_requires_live_group():
    s = coordinated()
    dead = group("cooks", "1", "9")
    with pytest.raises(GroupNotLive):
        shared_substitute(s, dead, JOHN)


def test_a_one_site_group_of_two_interior_nodes_is_filled_by_adjunction():
    tree = parse_tree('S(NP("x") VP(V("x")))')
    host = LstagPair("host", tree, tree, delta=(lk("2"),))
    vp = LstagPair("vp", parse_tree('VP(VP* ADV("y"))'), parse_tree('VP(VP* ADV("y"))'))
    s = structure_from_pair(host)
    with pytest.raises(ClassMismatch, match="only auxiliary trees adjoin"):
        shared_substitute(s, s.live_links[0], JOHN)
    s = shared_substitute(s, s.live_links[0], vp)
    assert [r.to_line() for r in s.history] == ["adjunction host/2:vp right=[host@2]"]
    assert " ".join(s.left_yield()) == "x x y"


def test_check_step_appends_the_record_it_is_given():
    tree = parse_tree('S(NP("x") VP(V("x")))')
    s = structure_from_pair(LstagPair("host", tree, tree, delta=(lk("2"),)))
    vp = LstagPair("vp", parse_tree('VP(VP* ADV("y"))'), parse_tree('VP(VP* ADV("y"))'))
    (group,) = s.live_links
    left, rights = s.left_tree.locate(group.left_site), (s.right_spine.locate(group.right_sites[0]),)
    record = step_record(left, rights, vp.name)
    appended = check_step({}, s, record, vp, left, rights)().history[-1]
    assert appended is record
    assert record.operation == "adjunction"


def test_shared_substitute_checks_every_right_slot():
    s = coordinated()
    vp_guest = LstagPair("bad", parse_tree('NP("x")'), parse_tree('VP("x")'))
    with pytest.raises(SymbolMismatch):
        shared_substitute(s, s.live_links[0], vp_guest)


def test_shared_substitute_rejects_interior_left_endpoint():
    host = LstagPair(
        "host",
        parse_tree('S(NP! VP(V("cooks") NP!))'),
        parse_tree('S(NP! VP(V("cooks") NP!))'),
        delta=(Link(A("2"), A("1")), Link(A("2.2"), A("2.2"))),
    )
    s = lstag_compose(host, A("2.1"), E, BETA)
    assert s.left_address(s.live_links[0].left_site) == A("2")
    with pytest.raises(NotASlot):
        shared_substitute(s, s.live_links[0], JOHN)


def test_shared_substitute_rejects_an_auxiliary_right_tree():
    s = coordinated()
    aux_right = LstagPair("aux_right", parse_tree('NP("x")'), parse_tree('NP(A("y") NP*)'))
    with pytest.raises(ClassMismatch, match="^shared substitution requires initial guest trees$"):
        shared_substitute(s, s.live_links[0], aux_right)


def test_shared_guest_with_links_is_rejected():
    s = coordinated()
    linked = LstagPair(
        "linked", parse_tree('NP(D! N("x"))'), parse_tree('NP(D! N("x"))'), delta=(lk("1"),)
    )
    with pytest.raises(UnsupportedGuestLinks):
        shared_substitute(s, s.live_links[0], linked)


def test_iterated_coordination_grows_one_group():
    frolics = LstagPair(
        "frolics",
        parse_tree('S(NP! VP(V("frolics")))'),
        parse_tree('S(NP! VP(V("frolics")))'),
        delta=(lk("1"),),
    )
    sings = LstagPair(
        "and_sings",
        parse_tree('V(V* CC("and") V("sings"))'),
        parse_tree('S(NP! VP(V("sings")) S*)'),
        phi=(lk("1"),),
    )
    plays = LstagPair(
        "and_plays",
        parse_tree('V(V* CC("and") V("plays"))'),
        parse_tree('S(NP! VP(V("plays")) S*)'),
        phi=(lk("1"),),
    )
    kiki = LstagPair("kiki", parse_tree('NP("Kiki")'), parse_tree('NP("Kiki")'))
    s = lstag_compose(frolics, A("2.1"), E, sings)
    s = lstag_compose(s, A("2.1"), E, plays)
    assert len(s.live_links) == 1
    assert len(s.live_links[0].right_sites) == 3
    s = shared_substitute(s, s.live_links[0], kiki)
    (kiki_fragment,) = [f for f in s.fragments if f.name == "kiki"]
    assert len(kiki_fragment.parents) == 3
    assert " ".join(s.left_yield()) == "Kiki frolics and sings and plays"
    assert s.is_complete


# --- projections -------------------------------------------------------------------


def full_structure():
    s = coordinated()
    s = shared_substitute(s, s.live_links[0], JOHN)
    return shared_substitute(s, s.live_links[0], BEANS)


def test_left_projection_is_a_tree():
    left, right = full_structure().projections()
    assert left.root == "cooks"
    assert [(str(a), c.root) for a, c in left.edges] == [
        ("1", "john"),
        ("2.1", "and_eats"),
        ("2.2", "beans"),
    ]


def test_right_projection_is_a_dag_not_a_tree():
    _, right = full_structure().projections()
    assert right.is_dag()
    assert not right.is_tree()
    (john_id,) = [i for i, label in right.nodes if label == "john"]
    (beans_id,) = [i for i, label in right.nodes if label == "beans"]
    assert right.in_degree(john_id) == 2
    assert right.in_degree(beans_id) == 2


def test_unshared_derivation_projects_to_a_tree_on_the_right():
    s = structure_from_pair(GAMMA)
    s = shared_substitute(s, s.live_links[0], JOHN)
    s = shared_substitute(s, s.live_links[0], BEANS)
    _, right = s.projections()
    assert right.is_tree()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LstagGrammar((("cooks", GAMMA), ("cooks", GAMMA))), "duplicate pair names"),
        (lambda: SharedLinkGroup(site("cooks", "1"), ()), "a shared link group needs at least one right site"),
    ],
    ids=["repeated-pair-name", "group-without-right-sites"],
)
def test_a_grammar_or_link_group_that_cannot_be_built_is_a_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_projections_reject_duplicate_guests():
    s = full_structure()
    with pytest.raises(InconsistentHistory):
        derivation_projections(s.history + (s.history[-1],), s.root)


def test_projections_reject_unknown_hosts():
    s = full_structure()
    with pytest.raises(InconsistentHistory):
        derivation_projections(s.history[1:], s.root)


def test_both_projections_check_a_history_with_one_message_each():
    def record(guest_id, left_host, right_hosts=()):
        right_sites = tuple(SiteRef(h, E) for h in right_hosts)
        return DerivationRecord("adjunction", "aux", guest_id, SiteRef(left_host, E), right_sites)

    histories = {
        "guest 'g' attached twice": [record("g", "cooks"), record("g", "cooks")],
        "unknown left host 'x'": [record("g", "x", ["cooks"])],
        "unknown right host 'x'": [record("g", "cooks", ["x"])],
    }
    for message, records in histories.items():
        for project in (derivation_projections, left_projection):
            with pytest.raises(InconsistentHistory) as info:
                project(records, "cooks")
            assert str(info.value) == message


def test_projections_of_a_deep_history():
    # A chain of adjunctions, each at the root of the guest before it: the
    # projections are 3,000 levels deep.
    records, host = [], "cooks"
    for k in range(3000):
        records.append(DerivationRecord("adjunction", "aux", f"g{k}", SiteRef(host, E), (SiteRef(host, E),)))
        host = f"g{k}"
    left, right = derivation_projections(records, "cooks")
    assert right.is_tree()
    assert format_derivation_script(graph_to_derivation_tree(right)) == format_derivation_script(left)
    node, depth = left, 0
    while node.edges:
        ((addr, node),) = node.edges
        assert addr == E and node.root == "aux"
        depth += 1
    assert depth == 3000


def test_a_record_spells_its_line_once():
    """`to_line` gives the formatted line, the same text on every call; the kept line changes no comparison."""
    shared = DerivationRecord("shared-substitution", "john", "cooks/1:john", SiteRef("cooks", A("1")),
                              (SiteRef("cooks", A("1")), SiteRef("and_eats/2:x", A("2.2"))))
    plain = DerivationRecord("substitution", "john", "cooks/1:john", SiteRef("cooks", A("1")), ())
    lines = {
        shared: "shared-substitution cooks/1:john right=[cooks@1, and_eats/2:x@2.2]",
        plain: "substitution cooks/1:john",
    }
    for record, line in lines.items():
        fresh = DerivationRecord(record.operation, record.guest, record.guest_id, record.left_site, record.right_sites)
        assert record.to_line() == line and record.to_line() is record.to_line()
        assert record == fresh and hash(record) == hash(fresh) and repr(record) == repr(fresh)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and "_line" not in vars(back) and back.to_line() == line


_PICKLE_RECORD = """
import pickle, sys
from lstag import DerivationRecord, GornAddress, SiteRef
record = DerivationRecord("adjunction", "aux", "cooks/2:aux", SiteRef("cooks", GornAddress((2,))),
                          (SiteRef("cooks", GornAddress((2, 1))),))
if sys.argv[1] == "dump":
    record.to_line()
    sys.stdout.buffer.write(pickle.dumps(record))
else:
    back = pickle.loads(sys.stdin.buffer.read())
    print(back == record, back in {record}, hash(back) == hash(record), "_line" in vars(back))
"""


def test_a_pickled_record_hashes_under_the_hash_seed_it_is_loaded_in():
    """Pickled under one hash seed and loaded under another, a record is found in a set of fresh records."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(seed, mode, data):
        argv = [sys.executable, "-c", _PICKLE_RECORD, mode]
        done = subprocess.run(argv, input=data, env=dict(env, PYTHONHASHSEED=seed), capture_output=True, check=True)
        return done.stdout

    assert run("2", "load", run("1", "dump", b"")).decode().split() == ["True", "True", "True", "False"]
