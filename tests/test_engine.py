import json
import pathlib
import random
from collections import Counter
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers_trees import (
    SYMBOLS,
    check_structure,
    free_adjunction_keys,
    lstag_script,
    pair_grammar,
    random_auxiliary,
    random_initial,
    random_lstag_grammar,
    replay_lstag_records,
)
from reference_search import reference_enumerate

from lstag import (
    DerivationTree,
    EnumerationBudget,
    GornAddress,
    LstagError,
    LstagGrammar,
    LstagPair,
    OperationMismatch,
    SyntaxTree,
    TagGrammar,
    derivation_projections,
    enumerate_derivations,
    language_sample,
    load_grammar,
    parse_grammar,
    parse_tree,
    replay,
    shared_substitute,
    structure_from_pair,
    usable_lstag_names,
    yield_tokens,
)
from lstag import engine
from lstag._lex import read_script
from lstag.cli import run_lstag_script
from lstag.sharing import check_step, step_record
from lstag.trees import Interior, SubstitutionSlot, row_address

A = GornAddress.parse


def items_as_obj(result):
    return [
        {"root": it.root, "yield": it.yield_text, "records": list(it.record_lines())}
        for it in result.items
    ]


@pytest.fixture
def checked_states(monkeypatch):
    """Check the `DerivedStructure` invariants on every state the LSTAG search makes.

    A root is checked when it is expanded and every other state when it is
    built, so a state built at the budget and never expanded is checked too;
    a built state must also be complete exactly when its check said so.
    The adjunction moves of every state must be those `free_adjunction_keys`
    works out from its history.  Returns the list of checked states, which
    grows as the search runs.
    """
    checked = []
    grammar = {}
    moves = engine._lstag_moves

    def check(s):
        check_structure(s, grammar["pairs"])
        checked.append(s)

    def checked_moves(initial, auxiliary, stamps, s):
        grammar["pairs"] = pair_grammar(*(p for _, p in initial + auxiliary))
        if not s.history:
            check(s)
        yielded = list(moves(initial, auxiliary, stamps, s))
        assert {key for key, _, _ in yielded if key[0] == 1} == free_adjunction_keys(s, auxiliary)
        return iter(yielded)

    def checking(check_move):
        def checked_move(*args):
            complete, build = check_move(*args)

            def checked_build():
                s = build()
                assert s.is_complete == complete
                check(s)
                return s

            return complete, checked_build

        return checked_move

    monkeypatch.setattr(engine, "_lstag_moves", checked_moves)
    monkeypatch.setattr(engine, "check_step", checking(engine.check_step))
    return checked


@pytest.fixture
def tag_grammar(fixtures_dir):
    return load_grammar(str(fixtures_dir / "cooked.tag")).tag_grammar()


@pytest.fixture
def lstag_grammar(fixtures_dir):
    return load_grammar(str(fixtures_dir / "cooks_eats.lstag")).lstag_grammar()


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        EnumerationBudget(0)
    with pytest.raises(ValueError):
        EnumerationBudget(2, 0)


def test_enumeration_takes_a_tag_or_lstag_grammar_only():
    with pytest.raises(TypeError):
        enumerate_derivations(object(), EnumerationBudget(2))


def test_a_pair_whose_tree_does_not_classify_is_never_composed(lstag_grammar):
    tree = parse_tree('VP(NP* V("sleeps"))')  # its foot's symbol is not the root's
    with_bad = LstagGrammar(lstag_grammar.pairs + (("bad", LstagPair("bad", tree, tree)),))
    expected = items_as_obj(enumerate_derivations(lstag_grammar, EnumerationBudget(3)))
    assert expected and items_as_obj(enumerate_derivations(with_bad, EnumerationBudget(3))) == expected


def test_single_slot_free_tree_enumerates_to_itself():
    grammar = TagGrammar.from_trees({"hi": parse_tree('NP("hi")')})
    result = enumerate_derivations(grammar, EnumerationBudget(2))
    assert len(result.items) == 1
    assert result.items[0].yield_text == "hi"
    assert not result.truncated


def test_empty_grammar_enumerates_to_nothing():
    result = enumerate_derivations(TagGrammar(()), EnumerationBudget(2))
    assert result.items == ()
    assert language_sample(TagGrammar(()), EnumerationBudget(2)) == []


def test_tag_enumeration_matches_committed_list(tag_grammar, golden_dir):
    result = enumerate_derivations(tag_grammar, EnumerationBudget(3))
    with open(golden_dir / "enum_cooked_ops3.json", encoding="utf-8") as fh:
        expected = json.load(fh)["items"]
    assert items_as_obj(result) == expected


def test_lstag_enumeration_matches_committed_list(lstag_grammar, golden_dir, checked_states):
    result = enumerate_derivations(lstag_grammar, EnumerationBudget(4))
    with open(golden_dir / "enum_cooks_eats_ops4.json", encoding="utf-8") as fh:
        expected = json.load(fh)["items"]
    assert items_as_obj(result) == expected
    assert len(checked_states) > 1


def test_ungated_topicalization_matches_committed_list(fixtures_dir, golden_dir, checked_states):
    doc = load_grammar(str(fixtures_dir / "topicalization.lstag"))
    grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=False))
    result = enumerate_derivations(grammar, EnumerationBudget(3))
    with open(golden_dir / "enum_topicalization_open_ops3.json", encoding="utf-8") as fh:
        expected = json.load(fh)["items"]
    assert items_as_obj(result) == expected


def test_tag_yields_include_the_expected_sentences(tag_grammar):
    sample = language_sample(tag_grammar, EnumerationBudget(3))
    assert "John cooked beans" in sample
    assert "John cooked dried beans" in sample


def test_lstag_yields_include_coordination(lstag_grammar):
    sample = language_sample(lstag_grammar, EnumerationBudget(4))
    assert "John cooks beans" in sample
    assert "John cooks and eats beans" in sample


@pytest.mark.parametrize(
    "fixture, ops",
    [("cooks_eats.lstag", 5), ("topicalization.lstag", 3), ("degenerate.lstag", 4), ("excised.lstag", 4)],
)
@pytest.mark.parametrize("gated", [True, False], ids=["gated", "ungated"])
def test_the_right_projection_holds_each_left_instance_once(fixtures_dir, fixture, ops, gated):
    """The right graph has the left derivation tree's instances, and a guest one parent per right site."""
    doc = load_grammar(str(fixtures_dir / fixture))
    grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=gated))
    for item in enumerate_derivations(grammar, EnumerationBudget(ops)).items:
        right, labels, stack = item.right_derivation, [], [item.left_derivation]
        while stack:
            node = stack.pop()
            labels.append(node.root)
            stack.extend(child for _, child in node.edges)
        assert Counter(labels) == Counter(label for _, label in right.nodes), item.record_lines()
        for record in item.records:
            assert right.in_degree(record.guest_id) == len(record.right_sites), record


def assert_items_replay_as_scripts(grammar, items, linked_slots: bool = True) -> None:
    """Each item's `lstag_script` derives its history, yield and both projections, and a sound structure."""
    for item in items:
        script = lstag_script(grammar, item.root, item.records)
        structure = run_lstag_script(grammar, *read_script(script))
        assert structure.history == item.records, script
        assert structure.left_yield() == item.left_yield, script
        assert structure.projections() == (item.left_derivation, item.right_derivation), script
        check_structure(structure, grammar, linked_slots)


@pytest.mark.parametrize(
    "fixture, ops",
    [
        ("cooks_eats.lstag", 4),
        ("cooks_eats.lstag", 5),
        ("topicalization.lstag", 3),
        ("degenerate.lstag", 4),
        ("excised.lstag", 3),
    ],
)
@pytest.mark.parametrize("gated", [True, False], ids=["gated", "ungated"])
def test_every_fixture_item_replays_as_a_derive_script(fixtures_dir, fixture, ops, gated):
    doc = load_grammar(str(fixtures_dir / fixture))
    grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=gated))
    assert_items_replay_as_scripts(grammar, enumerate_derivations(grammar, EnumerationBudget(ops)).items)


def test_every_item_of_random_grammars_replays_as_a_derive_script():
    # Random links may join a slot to an interior node, so groups need not tie slots.
    for seed in range(15):
        grammar = random_lstag_grammar(random.Random(seed))
        items = enumerate_derivations(grammar, EnumerationBudget(3)).items
        assert_items_replay_as_scripts(grammar, items, linked_slots=False)


def test_monotonicity_in_the_operation_budget(tag_grammar, lstag_grammar, checked_states):
    for grammar in (tag_grammar, lstag_grammar):
        previous = set()
        for ops in range(1, 5):
            result = enumerate_derivations(grammar, EnumerationBudget(ops))
            current = {(it.root, it.record_lines()) for it in result.items}
            assert previous <= current
            previous = current


def test_determinism(lstag_grammar):
    budget = EnumerationBudget(3)
    first = enumerate_derivations(lstag_grammar, budget)
    second = enumerate_derivations(lstag_grammar, budget)
    assert items_as_obj(first) == items_as_obj(second)
    assert first.truncated == second.truncated


def test_every_tag_item_replays_to_its_yield(tag_grammar):
    result = enumerate_derivations(tag_grammar, EnumerationBudget(3))
    for item in result.items:
        derived = replay(tag_grammar, item.left_derivation)
        assert yield_tokens(derived) == item.left_yield


# A modifier chain: m0 and m1 adjoin at any X, so they stack up on the X of n, and vm adjoins at the VP.
MODIFIER_CHAIN = TagGrammar.from_trees(
    {
        "v": parse_tree('S(NP! VP(V("v") NP!))'),
        "n": parse_tree('NP(X("n"))'),
        "o": parse_tree('NP(N("o"))'),
        "m0": parse_tree('X(A("a0") X*)'),
        "m1": parse_tree('X(A("a1") X*)'),
        "vm": parse_tree('VP(ADV("very") VP*)'),
    }
)


def checked_copy(d):
    """`d` rebuilt node by node through the checked `DerivationTree` constructor, its edges reversed first."""
    return DerivationTree(d.root, tuple((a, checked_copy(c)) for a, c in reversed(d.edges)))


@pytest.mark.parametrize("which", ["cooked", "chain"])
def test_tag_items_carry_the_left_projection_alone(tag_grammar, which):
    grammar = tag_grammar if which == "cooked" else MODIFIER_CHAIN
    for ops in range(1, 6):
        result = enumerate_derivations(grammar, EnumerationBudget(ops))
        assert result.items
        for item in result.items:
            assert item.right_derivation is None
            left, right = derivation_projections(item.records, item.root)
            assert item.left_derivation == left == checked_copy(left)
            assert right.edges == () and len(right.nodes) == len(item.records) + 1


def test_a_tag_enumeration_builds_one_record_per_site_and_guest(tag_grammar):
    """One enumeration's records of a (site, guest) pair are one object; the next enumeration builds its own."""
    first = enumerate_derivations(tag_grammar, EnumerationBudget(4))
    records = [record for item in first.items for record in item.records]
    built = {}
    for record in records:
        assert built.setdefault((record.left_site, record.guest), record) is record
    assert len(built) < len(records)  # some (site, guest) pair recurs, or this proves nothing
    second = enumerate_derivations(tag_grammar, EnumerationBudget(4))
    assert second == first
    assert {id(record) for item in second.items for record in item.records}.isdisjoint(map(id, records))


def test_a_tag_enumeration_stamps_each_guest_instance_once(tag_grammar, monkeypatch):
    """No (tree, owner) pair is stamped twice in one enumeration, and the next enumeration stamps afresh."""
    stamps = []
    owned_by = SyntaxTree.owned_by
    monkeypatch.setattr(
        SyntaxTree, "owned_by", lambda tree, owner: stamps.append((id(tree), owner)) or owned_by(tree, owner)
    )
    first = enumerate_derivations(tag_grammar, EnumerationBudget(4))
    once = list(stamps)
    assert once and len(set(once)) == len(once)
    stamps.clear()
    assert enumerate_derivations(tag_grammar, EnumerationBudget(4)) == first
    assert stamps == once


def test_a_tag_enumeration_builds_at_the_rows_its_moves_found(tag_grammar, monkeypatch):
    """No plain-TAG build walks back down from the root to the site its move already found."""
    walks = []
    row_at = SyntaxTree.row_at
    monkeypatch.setattr(SyntaxTree, "row_at", lambda tree, addr: walks.append(addr) or row_at(tree, addr))
    result = enumerate_derivations(tag_grammar, EnumerationBudget(4))
    assert any(item.records for item in result.items)  # some move was built, or this proves nothing
    assert walks == []


def test_lstag_records_replay_to_consistent_structures(lstag_grammar):
    result = enumerate_derivations(lstag_grammar, EnumerationBudget(4))
    for item in result.items:
        structure = replay_lstag_records(lstag_grammar, item.root, item.records)
        assert structure.is_complete
        assert structure.left_yield() == item.left_yield
        assert structure.projections() == (item.left_derivation, item.right_derivation)


def test_lstag_items_project_consistently(lstag_grammar):
    result = enumerate_derivations(lstag_grammar, EnumerationBudget(4))
    for item in result.items:
        assert item.right_derivation is not None
        assert item.right_derivation.is_dag()
        shared = [r for r in item.records if r.operation == "shared-substitution"]
        assert item.right_derivation.is_tree() == (not shared)


def test_truncation_flag(tag_grammar):
    assert enumerate_derivations(tag_grammar, EnumerationBudget(1)).truncated
    assert enumerate_derivations(tag_grammar, EnumerationBudget(2, 3)).truncated


@pytest.mark.parametrize(
    "fixture, ops, max_structures, expected",
    [("cooks_eats.lstag", ops, 10000, (True, n)) for ops, n in zip(range(1, 5), (2, 6, 10, 18))]
    + [("cooks_eats.lstag", ops, 7, (True, 2)) for ops in range(1, 5)]
    + [("topicalization.lstag", ops, 10000, (False, 1)) for ops in range(1, 5)],
)
def test_lstag_truncation_and_item_count(fixtures_dir, fixture, ops, max_structures, expected, checked_states):
    doc = load_grammar(str(fixtures_dir / fixture))
    grammar = doc.lstag_grammar(usable_lstag_names(doc))
    result = enumerate_derivations(grammar, EnumerationBudget(ops, max_structures))
    assert (result.truncated, len(result.items)) == expected


def test_structure_cap_is_deterministic(tag_grammar):
    first = enumerate_derivations(tag_grammar, EnumerationBudget(3, 5))
    second = enumerate_derivations(tag_grammar, EnumerationBudget(3, 5))
    assert items_as_obj(first) == items_as_obj(second)
    assert first.truncated


def test_restrictions_block_the_ungrammatical_coordination(fixtures_dir, checked_states):
    doc = load_grammar(str(fixtures_dir / "topicalization.lstag"))
    gated = doc.lstag_grammar(usable_lstag_names(doc, restrictions=True))
    sample = language_sample(gated, EnumerationBudget(3))
    assert "peanuts john likes and almonds hates" not in sample
    open_grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=False))
    open_sample = language_sample(open_grammar, EnumerationBudget(3))
    assert "peanuts john likes and almonds hates" in open_sample


_FIXTURE_GRAMMARS = [
    (fixture, gated, ops)
    for fixture, gates in (
        ("cooked.tag", (None,)),
        ("translation.stag", (None,)),
        ("cooks_eats.lstag", (True, False)),
        ("degenerate.lstag", (True, False)),
        ("excised.lstag", (True, False)),
        ("topicalization.lstag", (True, False)),
    )
    for gated in gates
    for ops in range(1, 6 if fixture == "cooked.tag" else 5)
]


@pytest.mark.parametrize("max_structures", [3, 7, 40, 10000])
@pytest.mark.parametrize("fixture, gated, ops", _FIXTURE_GRAMMARS)
def test_search_matches_the_build_then_dedupe_reference(fixtures_dir, fixture, gated, ops, max_structures, checked_states):
    doc = load_grammar(str(fixtures_dir / fixture))
    if doc.lstag_pairs:
        grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=gated))
    else:
        grammar = doc.tag_grammar()
    budget = EnumerationBudget(ops, max_structures)
    # Items compare by root, records, yield and both projections.
    assert enumerate_derivations(grammar, budget) == reference_enumerate(grammar, budget)


@given(st.data())
@settings(max_examples=45, deadline=None)
def test_tag_search_matches_the_reference_on_random_grammars(data):
    """Capped and uncapped TAG searches take their moves in the reference's order.

    Every root symbol has several guests: the slot-free fillers cover each
    symbol and repeat one, and three auxiliaries share two root symbols, so
    an auxiliary's root can take another auxiliary (the chains stack).  Some
    grammars have no auxiliary, so their moves make no adjunction-site walk.
    """
    rng = random.Random(data.draw(st.integers(0, 2**48)))
    auxiliaries = data.draw(st.sampled_from([0, 3]))
    trees = {"i0": random_initial(rng, "S", max_depth=2)}
    fillers = SYMBOLS + (rng.choice(SYMBOLS),)
    trees.update((f"f{k}", random_initial(rng, s, allow_slots=False, max_depth=2)) for k, s in enumerate(fillers))
    trees.update((f"a{k}", random_auxiliary(rng, rng.choice("SA"), max_depth=2)) for k in range(auxiliaries))
    grammar = TagGrammar.from_trees(trees)
    budget = EnumerationBudget(data.draw(st.integers(1, 3)), data.draw(st.sampled_from([3, 7, 40, 10000])))
    assert enumerate_derivations(grammar, budget) == reference_enumerate(grammar, budget)


_COOKS = 'lspair cooks { left: S(NP! VP(V("cooks") NP!)) right: S(NP! VP(V("cooks") NP!)) delta: [%s] phi: [] }'
_AND_EATS = (
    'lspair and_eats { left: V(V* CC("and") V("eats")) right: S(NP! VP(V("eats") NP!) S*) '
    "delta: [] phi: [1, 2.2] }"
)
_JOHN = 'lspair john { left: NP("John") right: NP("John") delta: [] phi: [] }'


@pytest.mark.parametrize(
    "delta, ops, truncated",
    [
        # and_eats spends two phi links but cooks offers one link group, used
        # up by john: at the budget every adjunction fails to compose, so
        # nothing is cut off.
        ("1~1", 1, False),
        ("1~1", 2, False),
        # Unvalidated links: once and_eats shares them, the groups 9~2.2 and
        # 2.2~9 name nodes that do not exist, so no move may fill them.
        ("1~1, 9~2.2, 2.2~9", 3, True),
    ],
)
def test_moves_that_fail_to_compose_match_the_reference(delta, ops, truncated):
    grammar = parse_grammar("\n".join([_COOKS % delta, _AND_EATS, _JOHN]) + "\n").lstag_grammar()
    budget = EnumerationBudget(ops)
    result = enumerate_derivations(grammar, budget)
    assert result.truncated is truncated
    assert result == reference_enumerate(grammar, budget)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lstag_search_matches_the_reference_on_random_grammars(data):
    """Capped and uncapped searches over `random_lstag_grammar` grammars take their moves in the reference's order."""
    rng = random.Random(data.draw(st.integers(0, 2**48)))
    grammar = random_lstag_grammar(rng)
    budget = EnumerationBudget(data.draw(st.integers(1, 3)), data.draw(st.sampled_from([3, 7, 40, 10000])))
    assert enumerate_derivations(grammar, budget) == reference_enumerate(grammar, budget)


_SLOT_TO_INTERIOR = 'lspair host { left: S(NP! VP(V("x"))) right: S(NP! VP(V("x"))) delta: [1~2] phi: [] }'


def test_a_group_joining_a_slot_to_an_interior_node_takes_no_guest():
    grammar = parse_grammar("\n".join([_SLOT_TO_INTERIOR, _JOHN]) + "\n").lstag_grammar()
    s = structure_from_pair(grammar.get("host"))
    with pytest.raises(OperationMismatch) as raised:
        shared_substitute(s, s.live_links[0], grammar.get("john"))
    assert str(raised.value) == (
        "left site 1 is SubstitutionSlot(symbol='NP') while right site 2 is Interior(symbol='VP'); "
        "both sides must substitute or both must adjoin"
    )
    for ops in (1, 2):
        result = enumerate_derivations(grammar, EnumerationBudget(ops))
        assert result.truncated is False
        assert [(item.root, item.records) for item in result.items] == [("john", ())]
        assert result == reference_enumerate(grammar, EnumerationBudget(ops))


@pytest.mark.parametrize(
    "fixture, gated, items", [("topicalization.lstag", False, 180), ("cooks_eats.lstag", True, 18)]
)
def test_incomplete_states_at_the_budget_are_built_only_to_decide_truncation(
    fixtures_dir, monkeypatch, fixture, gated, items
):
    """A child at the operation budget is built only if it is complete or `truncated` is undecided.

    Every incomplete child at the budget that is built must then have its
    moves probed, and none may be built once a probe found a legal move.
    """
    ops = 4
    events = []  # ("check", host, passed), ("build", state) and ("moves", state), in call order

    def logging(check_move):
        def logged(stamps, host, *args):
            try:
                complete, build = check_move(stamps, host, *args)
            except LstagError:
                events.append(("check", host, False))
                raise
            events.append(("check", host, True))

            def logged_build():
                s = build()
                events.append(("build", s))
                return s

            return complete, logged_build

        return logged

    monkeypatch.setattr(engine, "check_step", logging(engine.check_step))
    moves = engine._lstag_moves

    def logged_moves(initial, auxiliary, stamps, s):
        events.append(("moves", s))
        return moves(initial, auxiliary, stamps, s)

    monkeypatch.setattr(engine, "_lstag_moves", logged_moves)

    doc = load_grammar(str(fixtures_dir / fixture))
    grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=gated))
    result = enumerate_derivations(grammar, EnumerationBudget(ops))
    assert (result.truncated, len(result.items)) == (True, items)

    at_budget = lambda e: len(e[1].history) == ops
    decided = next(i for i, e in enumerate(events) if e[0] == "check" and e[2] and at_budget(e))
    built = [i for i, e in enumerate(events) if e[0] == "build" and at_budget(e)]
    wasted = [i for i in built if not events[i][1].is_complete]
    probed = {id(e[1]) for e in events if e[0] == "moves" and at_budget(e)}
    assert len(built) - len(wasted) == sum(1 for it in result.items if len(it.records) == ops)
    assert all(i < decided for i in wasted)
    assert all(id(events[i][1]) in probed for i in wasted)


_LSTAG_FIXTURES = sorted(path.name for path in pathlib.Path(__file__).resolve().parent.parent.glob("fixtures/*.lstag"))


@pytest.fixture
def rejected_moves(monkeypatch):
    """Run every move `_lstag_moves` yields through its check, also one the search skips as seen.

    Returns the list of (order key, error class name) of the moves whose
    check raised, which grows as the search runs.
    """
    rejected = []
    moves = engine._lstag_moves

    def checked_moves(initial, auxiliary, stamps, s):
        yielded = list(moves(initial, auxiliary, stamps, s))
        for key, _, check in yielded:
            try:
                check()
            except LstagError as exc:
                rejected.append((key, type(exc).__name__))
        return iter(yielded)

    monkeypatch.setattr(engine, "_lstag_moves", checked_moves)
    return rejected


@pytest.mark.parametrize("ops", [2, 3, 4])
@pytest.mark.parametrize("gated", [True, False], ids=["gated", "ungated"])
@pytest.mark.parametrize("fixture", _LSTAG_FIXTURES)
def test_every_lstag_move_on_the_fixtures_passes_its_check(fixtures_dir, fixture, gated, ops, rejected_moves):
    doc = load_grammar(str(fixtures_dir / fixture))
    grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=gated))
    enumerate_derivations(grammar, EnumerationBudget(ops))
    assert rejected_moves == []


def test_ungated_topicalization_checks_only_moves_that_pass(fixtures_dir, monkeypatch):
    """Every check of the search passes, budget probes included: counted by record operation or error class."""
    counts = Counter()

    def counted(stamps, hs, record, *args):
        try:
            checked = check_step(stamps, hs, record, *args)
        except LstagError as exc:
            counts[type(exc).__name__] += 1
            raise
        counts[record.operation] += 1
        return checked

    monkeypatch.setattr(engine, "check_step", counted)
    doc = load_grammar(str(fixtures_dir / "topicalization.lstag"))
    grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=False))
    result = enumerate_derivations(grammar, EnumerationBudget(4))
    assert (result.truncated, len(result.items)) == (True, 180)
    assert counts == {"adjunction": 1434, "shared-substitution": 179, "substitution": 1}


@pytest.mark.parametrize("fixture, gated", [("topicalization.lstag", False), ("cooks_eats.lstag", True)])
def test_an_lstag_enumeration_stamps_each_guest_instance_once(fixtures_dir, monkeypatch, fixture, gated):
    """No (tree, owner) pair is stamped twice in one enumeration, and the next enumeration stamps afresh."""
    doc = load_grammar(str(fixtures_dir / fixture))
    grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=gated))
    stamps = []
    owned_by = SyntaxTree.owned_by
    monkeypatch.setattr(
        SyntaxTree, "owned_by", lambda tree, owner: stamps.append((id(tree), owner)) or owned_by(tree, owner)
    )
    first = enumerate_derivations(grammar, EnumerationBudget(4))
    once = list(stamps)
    assert any(":" in owner for _, owner in once)  # some guest instance was stamped, or this proves nothing
    assert len(set(once)) == len(once)
    stamps.clear()
    assert enumerate_derivations(grammar, EnumerationBudget(4)) == first
    assert stamps == once


@pytest.mark.parametrize("fixture", ["cooks_eats.lstag", "degenerate.lstag", "topicalization.lstag"])
def test_an_lstag_enumeration_reads_by_site_zero_times(fixtures_dir, monkeypatch, fixture):
    """Link-sharing moves walk to the nodes they use, so no state builds a whole-tree site table."""
    reads = []
    by_site = SyntaxTree.by_site.func
    monkeypatch.setattr(SyntaxTree, "by_site", property(lambda tree: reads.append(tree) or by_site(tree)))
    result = enumerate_derivations(load_grammar(str(fixtures_dir / fixture)).lstag_grammar(), EnumerationBudget(4))
    assert any(item.records for item in result.items)  # some move was built, or this proves nothing
    assert reads == []


# What the fixtures lack: a link group joining two interior nodes, which no
# initial guest fills (h's 2~2, between its two slot groups); initial guests
# that spend one phi link (m) or two (m2); and one that carries a delta link
# (d), which a single slot takes but a shared group does not.
_FITTING = """\
lspair h { left: S(NP! VP(V("x") NP!)) right: S(NP! VP(V("x") NP!)) delta: [1~1, 2~2, 2.2~2.2] phi: [] }
lspair vp { left: VP(V("y")) right: VP(V("y")) delta: [] phi: [] }
lspair m { left: NP(N("m")) right: NP(N("m") NP!) delta: [] phi: [2] }
lspair m2 { left: NP(N("m")) right: NP(N("m") NP! NP!) delta: [] phi: [2, 3] }
lspair d { left: NP(N("d") NP!) right: NP(N("d") NP!) delta: [2~2] phi: [] }
lspair n { left: NP(N("n")) right: NP(N("n")) delta: [] phi: [] }
"""


@pytest.mark.parametrize("ops", [1, 2, 3])
def test_initial_guests_meet_only_the_groups_they_fit(ops, rejected_moves):
    """No offered move fails on a grammar where every fit rule leaves moves out, and none that passes is left out."""
    doc = parse_grammar(_FITTING)
    assert usable_lstag_names(doc) == {p.name for p in doc.lstag_pairs}
    grammar = doc.lstag_grammar()
    budget = EnumerationBudget(ops)
    result = enumerate_derivations(grammar, budget)
    assert rejected_moves == []
    assert result == reference_enumerate(grammar, budget)


def every_lstag_move(initial, auxiliary, s):
    """The moves `_lstag_moves` would offer without its fit rules, as (order key, check).

    Every initial pair goes at every live group whose sites name nodes, and
    every auxiliary at every left and right pair of interior nodes of its
    root symbols that no adjunction has marked.
    """
    for gi, group in enumerate(s.live_links):
        left = s.left_tree.by_site.get(group.left_site)
        rights = tuple(map(s.right_spine.by_site.get, group.right_sites))
        if left is None or None in rights:
            continue
        for name, pair in initial:
            yield (0, gi, name), partial(check_step, {}, s, step_record(left, rights, name), pair, left, rights)
    left_sites, right_sites = (
        [(str(row_address(r)), r) for r in tree.rows() if isinstance(r[2].kind, Interior) and not r[2].adjoined]
        for tree in (s.left_tree, s.right_spine)
    )
    for name, pair in auxiliary:
        roots = (pair.left_tree.root_symbol, pair.right_tree.root_symbol)
        for left_text, left in left_sites:
            for right_text, right in right_sites:
                if (left[2].kind.symbol, right[2].kind.symbol) == roots:
                    check = partial(check_step, {}, s, step_record(left, (right,), name), pair, left, (right,))
                    yield (1, left_text, right_text, name), check


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_the_fit_rules_leave_out_only_moves_that_fail(data):
    """At every state of a random grammar's search the offered moves are some of all moves, and as many pass."""
    rng = random.Random(data.draw(st.integers(0, 2**48)))
    grammar = random_lstag_grammar(rng)
    moves = engine._lstag_moves

    def compared(initial, auxiliary, stamps, s):
        offered = list(moves(initial, auxiliary, stamps, s))
        every = list(every_lstag_move(initial, auxiliary, s))
        assert {key for key, _, _ in offered} <= {key for key, _ in every}
        passing = {key for key, check in every if engine._passes(check)}
        assert {key for key, _, check in offered if engine._passes(check)} == passing
        return iter(offered)

    with mock.patch.object(engine, "_lstag_moves", compared):
        enumerate_derivations(grammar, EnumerationBudget(data.draw(st.integers(1, 3)), 200))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_the_move_walks_find_what_the_whole_tree_walks_find(data):
    """At every state of a random link-sharing grammar's search, each move walk agrees with a walk of every row.

    The two walks serve both move generators; this checks them on the
    link-sharing trees, and `assert_tag_moves_agree` in `test_properties.py`
    on plain-TAG trees.  The slot walk finds every slot's row by its site, as
    `by_site` does, so it finds the rows of every live group whose left site
    is a slot; the adjunction-site walk finds what a filter over every row of
    `rows()` finds.
    """
    rng = random.Random(data.draw(st.integers(0, 2**48)))
    grammar = random_lstag_grammar(rng)
    moves = engine._lstag_moves
    aux = [pair for _, pair in grammar.pairs if pair.left_tree.foot_row is not None]
    symbol_sets = [set(), set(SYMBOLS), {p.left_tree.root_symbol for p in aux}, {p.right_tree.root_symbol for p in aux}]

    def compared(initial, auxiliary, stamps, s):
        for tree in (s.left_tree, s.right_spine):
            slots = {site: row for site, row in tree.by_site.items() if isinstance(row[2].kind, SubstitutionSlot)}
            assert engine._slot_rows(tree) == slots
            for symbols in symbol_sets:
                kinds = {Interior(symbol) for symbol in symbols}
                every = [r for r in tree.rows() if r[2].kind in kinds and not r[2].adjoined]
                assert engine._adjunction_sites(tree, symbols) == [(str(row_address(r)), r, r[2]) for r in every]
        lefts, rights = engine._slot_rows(s.left_tree), engine._slot_rows(s.right_spine)
        for group in s.live_links:
            left = s.left_tree.by_site.get(group.left_site)
            if left is not None and isinstance(left[2].kind, SubstitutionSlot):
                assert lefts[group.left_site] == left
                for site in group.right_sites:
                    row = s.right_spine.by_site.get(site)
                    assert rights.get(site) == (row if row and isinstance(row[2].kind, SubstitutionSlot) else None)
        return moves(initial, auxiliary, stamps, s)

    with mock.patch.object(engine, "_lstag_moves", compared):
        enumerate_derivations(grammar, EnumerationBudget(data.draw(st.integers(1, 3)), 200))
