import json
import random
from collections import Counter

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
    OperationMismatch,
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
from lstag.cli import run_lstag_script

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

    def checked_moves(initial, auxiliary, s):
        grammar["pairs"] = pair_grammar(*(p for _, p in initial + auxiliary))
        if not s.history:
            check(s)
        yielded = list(moves(initial, auxiliary, s))
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
        assert Counter(labels) == Counter(right.labels.values()), item.record_lines()
        for record in item.records:
            assert right.in_degree(record.guest_id) == len(record.right_sites), record


def assert_items_replay_as_scripts(grammar, items, linked_slots: bool = True) -> None:
    """Each item's `lstag_script` derives its history, yield and both projections, and a sound structure."""
    for item in items:
        script = lstag_script(grammar, item.root, item.records)
        structure = run_lstag_script(grammar, script)
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
@settings(max_examples=30, deadline=None)
def test_tag_search_matches_the_reference_on_random_grammars(data):
    """Capped and uncapped TAG searches take their moves in the reference's order.

    Every root symbol has several guests: the slot-free fillers cover each
    symbol and repeat one, and three auxiliaries share two root symbols, so
    an auxiliary's root can take another auxiliary (the chains stack).
    """
    rng = random.Random(data.draw(st.integers(0, 2**48)))
    trees = {"i0": random_initial(rng, "S", max_depth=2)}
    fillers = SYMBOLS + (rng.choice(SYMBOLS),)
    trees.update((f"f{k}", random_initial(rng, s, allow_slots=False, max_depth=2)) for k, s in enumerate(fillers))
    trees.update((f"a{k}", random_auxiliary(rng, rng.choice("SA"), max_depth=2)) for k in range(3))
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
        def logged(*args):
            try:
                complete, build = check_move(*args)
            except LstagError:
                events.append(("check", args[0], False))
                raise
            events.append(("check", args[0], True))

            def logged_build():
                s = build()
                events.append(("build", s))
                return s

            return complete, logged_build

        return logged

    monkeypatch.setattr(engine, "check_step", logging(engine.check_step))
    moves = engine._lstag_moves

    def logged_moves(initial, auxiliary, s):
        events.append(("moves", s))
        return moves(initial, auxiliary, s)

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
