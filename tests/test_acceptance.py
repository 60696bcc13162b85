"""End-to-end acceptance checks over the shipped fixtures and golden files.

Each test prints one PASS line; a failed assertion leaves the line unprinted
and surfaces through pytest.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random

from lstag import (
    DerivationTree,
    EnumerationBudget,
    GornAddress,
    TagGrammar,
    check_left_contiguity,
    check_lexical_contiguity,
    enumerate_derivations,
    language_sample,
    load_grammar,
    parse_grammar,
    format_grammar,
    replay,
    stag_compose,
    lstag_compose,
    usable_lstag_names,
    yield_string,
    yield_tokens,
)
from lstag.cli import run_lstag_script
from lstag.render import structure_to_json_obj, to_json_text
from lstag.trees import adjoin_with_maps, rebase_address

import reference_trees
from helpers_trees import (
    group_addresses,
    interior_addresses,
    random_auxiliary,
    random_tree,
    replay_lstag_records,
    splice_yield_oracle,
)
from test_properties import random_lstag_composition, random_stag_composition

A = GornAddress.parse


def test_full_derivation_of_the_modified_transitive_sentence(fixtures_dir):
    grammar = load_grammar(str(fixtures_dir / "cooked.tag")).tag_grammar()
    derivation = DerivationTree(
        "cooked",
        (
            (A("1"), DerivationTree("john")),
            (A("2.2"), DerivationTree("beans", ((A("1"), DerivationTree("dried")),))),
        ),
    )
    derived = replay(grammar, derivation)
    assert yield_string(derived) == "John cooked dried beans"
    print("PASS: derivation replay yields exactly 'John cooked dried beans'")


def test_coordination_golden_structure(fixtures_dir, golden_dir):
    doc = load_grammar(str(fixtures_dir / "cooks_eats.lstag"))
    script = (fixtures_dir / "scripts" / "cooks_eats.script").read_text(encoding="utf-8")
    structure = run_lstag_script(doc.lstag_grammar(), script)
    assert " ".join(structure.left_yield()) == "John cooks and eats beans"
    assert structure.fragment_named("john").in_degree == 2
    assert structure.fragment_named("beans").in_degree == 2
    _, right = structure.projections()
    assert right.is_dag() and not right.is_tree()
    produced = to_json_text(structure_to_json_obj(structure))
    expected = (golden_dir / "cooks_eats_structure.json").read_text(encoding="utf-8")
    assert produced == expected
    print("PASS: shared-argument coordination matches the committed golden structure")


def test_link_bookkeeping_laws_hold_over_randomized_compositions():
    rng = random.Random(20240817)
    checked = 0
    while checked < 1000:
        case = random_stag_composition(rng)
        if case is None:
            continue
        host, member, guest = case
        result = stag_compose(host, member, guest)
        assert len(result.links) == len(host.links) + len(guest.links) - 1
        checked += 1
    exhausted = 0
    while exhausted < 1000:
        host, la, ra, guest = random_lstag_composition(rng)
        structure = lstag_compose(host, la, ra, guest)
        groups = group_addresses(structure)
        assert sum(len(rights) for _, rights in groups) == len(host.delta) + len(guest.phi)
        assert len(groups) == len(host.delta)
        exhausted += 1
    print("PASS: link-count conservation and phi exhaustion held over 1000 compositions each")


def test_restriction_checks_block_the_ungrammatical_fixtures(fixtures_dir):
    excised = load_grammar(str(fixtures_dir / "excised.lstag"))
    pair = excised.lstag_pairs[0]
    corr = excised.correspondence_map[pair.name]
    codes = [d.code for d in check_left_contiguity(pair, corr)]
    assert codes == ["Discontiguous"]

    topical = load_grammar(str(fixtures_dir / "topicalization.lstag"))
    host = next(p for p in topical.lstag_pairs if p.name == "peanuts_likes")
    codes = [d.code for d in check_lexical_contiguity(host.left_tree)]
    assert codes == ["LexicallyDiscontiguous"]

    gated = topical.lstag_grammar(usable_lstag_names(topical, restrictions=True))
    sample = language_sample(gated, EnumerationBudget(3))
    assert "peanuts john likes and almonds hates" not in sample

    ungated_names = usable_lstag_names(topical, restrictions=False)
    assert "peanuts_likes" in ungated_names
    assert "likes_gapped" in usable_lstag_names(excised, restrictions=False)
    open_sample = language_sample(
        topical.lstag_grammar(ungated_names), EnumerationBudget(3)
    )
    assert "peanuts john likes and almonds hates" in open_sample
    print("PASS: contiguity restrictions are the sole blockers of the bad coordination")


def test_adjunction_wrapping_oracle_over_a_generated_corpus():
    rng = random.Random(908172)
    targets = []
    while len(targets) < 120:
        tree = random_tree(rng, max_depth=2)
        if len(tree) <= 8:
            targets.append(tree)
    checked = 0
    for target in targets:
        for site in interior_addresses(target):
            aux = None
            for _ in range(10):
                candidate = random_auxiliary(rng, target.node_at(site).symbol)
                if len(candidate) <= 8:
                    aux = candidate
                    break
            if aux is None:
                continue
            res = adjoin_with_maps(target, site, aux)
            assert list(yield_tokens(res.tree, partial=True)) == splice_yield_oracle(
                target, site, aux
            )
            foot = aux.foot_address
            for addr, kind in target.items():
                assert res.tree.node_at(rebase_address(addr, site, foot)) == kind
            moved = dict(reference_trees.adjoin_with_maps(target, site, aux).host_moved)
            for addr in target.addresses():
                assert moved[addr] == rebase_address(addr, site, foot) == res.host_map(addr)
            checked += 1
    assert checked >= 200
    print(f"PASS: yield wrapping and address rebasing agreed on {checked} adjunctions")


def test_unshared_grammar_reduces_to_two_plain_replays(fixtures_dir):
    doc = load_grammar(str(fixtures_dir / "degenerate.lstag"))
    grammar = doc.lstag_grammar()
    assert all(not p.phi for p in doc.lstag_pairs)
    left_grammar = TagGrammar.from_trees({p.name: p.left_tree for p in doc.lstag_pairs})
    right_grammar = TagGrammar.from_trees({p.name: p.right_tree for p in doc.lstag_pairs})
    result = enumerate_derivations(grammar, EnumerationBudget(3))
    assert result.items
    for item in result.items:
        assert item.right_derivation is not None and item.right_derivation.is_tree()
        structure = replay_lstag_records(grammar, item.root, item.records)
        assert structure.fragments == ()
        assert structure.left_tree == replay(left_grammar, item.left_derivation)
        assert structure.right_spine == replay(
            right_grammar, item.right_derivation.to_derivation_tree()
        )
    print(f"PASS: {len(result.items)} unshared derivations equal independent plain replays")


def test_enumeration_matches_the_committed_lists(fixtures_dir, golden_dir):
    tag = load_grammar(str(fixtures_dir / "cooked.tag")).tag_grammar()
    produced = enumerate_derivations(tag, EnumerationBudget(3))
    got = [
        {"root": i.root, "yield": i.yield_text, "records": list(i.record_lines())}
        for i in produced.items
    ]
    expected = json.loads((golden_dir / "enum_cooked_ops3.json").read_text(encoding="utf-8"))
    assert got == expected["items"]

    ls = load_grammar(str(fixtures_dir / "cooks_eats.lstag")).lstag_grammar()
    produced = enumerate_derivations(ls, EnumerationBudget(4))
    got = [
        {"root": i.root, "yield": i.yield_text, "records": list(i.record_lines())}
        for i in produced.items
    ]
    expected = json.loads(
        (golden_dir / "enum_cooks_eats_ops4.json").read_text(encoding="utf-8")
    )
    assert got == expected["items"]
    print("PASS: enumerations equal the committed hand-checked derivation lists")


def test_format_round_trips_and_golden_dot_outputs(fixtures_dir, golden_dir, capsys):
    fixtures = [
        "cooked.tag",
        "cooks_eats.lstag",
        "degenerate.lstag",
        "topicalization.lstag",
        "excised.lstag",
        "translation.stag",
    ]
    for name in fixtures:
        doc = load_grammar(str(fixtures_dir / name))
        assert parse_grammar(format_grammar(doc)) == doc

    from lstag.cli import main

    code = main(
        [
            "derive",
            str(fixtures_dir / "cooks_eats.lstag"),
            str(fixtures_dir / "scripts" / "cooks_eats.script"),
            "--format",
            "dot",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == (golden_dir / "cooks_eats_derive.dot").read_text(encoding="utf-8")

    code = main(
        [
            "derive",
            str(fixtures_dir / "cooked.tag"),
            str(fixtures_dir / "scripts" / "cooked_dried.script"),
            "--format",
            "dot",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == (golden_dir / "cooked_dried_derive.dot").read_text(encoding="utf-8")
    print("PASS: every shipped fixture round-trips and DOT output is byte-identical")
