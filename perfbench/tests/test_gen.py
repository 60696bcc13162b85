"""Hand-checked expectations of the benchmark's input families at tiny sizes.

Run with `python3 -m pytest perfbench/tests -q`.  These tests need no lstag:
they check the generator's models against results worked out by hand.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import gen  # noqa: E402


def test_words_are_distinct_fixed_length_and_seeded():
    a = gen.words(random.Random(7), 50)
    assert len(set(a)) == 50
    assert all(len(w) == 4 and w.isalpha() and w.islower() for w in a)
    assert a == gen.words(random.Random(7), 50)
    assert a != gen.words(random.Random(8), 50)


def test_coordination_one_verb():
    c = gen.Coordination("cooks", ("eats",), ("John",), ("beans",))
    assert c.yields(3) == {"John", "beans", "John cooks beans", "John cooks and eats beans"}
    assert c.sentences_by_verbs(3) == {0: 1, 1: 1}
    # Two auxiliaries: the second goes above or inside the first (2 orders).
    assert c.sentences_by_verbs(4) == {0: 1, 1: 1, 2: 2}


def test_coordination_two_verbs_two_nouns_per_slot():
    c = gen.Coordination("cooks", ("eats", "sells"), ("John", "beans"), ("John", "beans"), ("NP", "NP"))
    sentences = {y for y in c.yields(3) if " " in y}
    assert sentences == {
        f"{s} cooks{tail} {o}"
        for s in ("John", "beans")
        for o in ("John", "beans")
        for tail in ("", " and eats", " and sells")
    }
    assert {y for y in c.yields(3) if " " not in y} == {"John", "beans"}
    assert c.sentences_by_verbs(4) == {0: 4, 1: 8, 2: 2 * 4 * 4}


def test_coordination_text_and_script():
    c = gen.Coordination("cooks", ("eats",), ("John",), ("beans",))
    assert c.text().splitlines() == [
        'lspair cooks { left: S(NS! VP(V("cooks") NO!)) right: S(NS! VP(V("cooks") NO!)) '
        "delta: [1~1, 2.2~2.2] phi: [] }",
        'lspair and_eats { left: V(V* CC("and") V("eats")) right: S(NS! VP(V("eats") NO!) S*) '
        "delta: [] phi: [1, 2.2] }",
        'lspair john { left: NS("John") right: NS("John") delta: [] phi: [] }',
        'lspair beans { left: NO("beans") right: NO("beans") delta: [] phi: [] }',
    ]
    assert c.script(("eats", "eats"), "John", "beans") == (
        "root cooks\nadjoin and_eats at 2.1 ~ ε\nadjoin and_eats at 2.1 ~ ε\n"
        "substitute john at 1\nsubstitute beans at 2.2\n"
    )
    assert c.sentence("John", ("eats", "eats"), "beans") == "John cooks and eats and eats beans"


def test_chain_prefixes():
    c = gen.Chain("v", ("n", "m"), ("a", "b"))
    assert c.prefixes(0) == [()]
    assert c.prefixes(1) == [("a",)]
    assert sorted(c.prefixes(2)) == [("a", "a"), ("b", "a")]
    assert sorted(c.prefixes(3)) == [("a", "a", "a"), ("a", "b", "a"), ("b", "a", "a"), ("b", "b", "a")]
    # A level-3 modifier never directly precedes a level-1 one.
    assert ("c", "a") not in gen.Chain("v", ("n", "m"), ("a", "b", "c")).prefixes(2)


def test_chain_yields_and_script():
    c = gen.Chain("v", ("n", "m"), ("a",))
    assert c.yields(2) == {
        "n", "m", "a n", "a m", "a a n", "a a m",
        "n v n", "n v m", "m v n", "m v m",
    }
    assert c.yields(3) - c.yields(2) == {
        "a a a n", "a a a m", "a n v n", "a n v m", "a m v n", "a m v m",
        "n v a n", "n v a m", "m v a n", "m v a m",
    }
    script, sentence = gen.Chain("v", ("n", "m"), ("a", "b", "c")).script(2)
    assert script == "root v\nv @ 1 <- n\nv @ 2.2 <- m\nn @ 1 <- mod_a\nmod_a @ 1 <- mod_b\n"
    assert sentence == "b a n v m"


def test_subst_only_yields():
    s = gen.SubstOnly("v", (("x", "y"), ("z",)))
    assert s.yields() == {"x z v x z", "x z v y z", "y z v x z", "y z v y z", "x z", "y z", "z"}
    assert "tree l2_z: C2(W(\"z\"))" in s.text().splitlines()


def test_big_grammar_plants_each_code_and_keeps_sizes_seed_free():
    a = gen.big_grammar(random.Random(1), 12, 2)
    b = gen.big_grammar(random.Random(2), 12, 2)
    assert sorted(code for code, _ in a.diagnostics) == sorted(gen.PLANTED_CODES * 2)
    assert len(a.text) == len(b.text) and a.text != b.text
    lines = a.text.splitlines()
    assert len(lines) == len(a.trees) + len(a.pairs) + len(a.lspairs)
    kinds = [line.split()[0] for line in lines]
    assert kinds == sorted(kinds, key=["tree", "pair", "lspair"].index)
    names = [line.split()[1].rstrip(":") for line in lines]
    assert len(set(names)) == len(names)
    assert {where for _, where in a.diagnostics} <= {n for n, _, _ in a.lspairs}
