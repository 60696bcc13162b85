import json

from hypothesis import given, settings, strategies as st

from lstag import (
    DerivationTree,
    GornAddress,
    Link,
    LstagPair,
    lstag_compose,
    parse_tree,
    shared_substitute,
)
from lstag.render import (
    derivation_graph_to_dot,
    derivation_tree_to_dot,
    to_json_text,
    tree_to_dot,
)

A = GornAddress.parse


def test_tree_dot_contains_markers_and_terminals():
    out = tree_to_dot(parse_tree('S(NP! VP(V("cooked") NP*))'), name="t")
    assert '"n_1" [label="NP↓" shape=plaintext];' in out
    assert '"n_2_2" [label="NP*" shape=plaintext];' in out
    assert '"n_2_1_1" [label="cooked" shape=box];' in out
    assert '"n" -> "n_1";' in out


def test_tree_dot_escapes_quotes():
    out = tree_to_dot(parse_tree('S(X("say \\"hi\\""))'))
    assert 'label="say \\"hi\\""' in out


def test_derivation_tree_dot_labels_edges_with_addresses():
    d = DerivationTree(
        "cooked",
        ((A("1"), DerivationTree("john")), (A("2.2"), DerivationTree("beans"))),
    )
    out = derivation_tree_to_dot(d)
    assert '"d" -> "d_1" [label="1"];' in out
    assert '"d" -> "d_2_2" [label="2.2"];' in out


def full_coordination():
    gamma = LstagPair(
        "cooks",
        parse_tree('S(NP! VP(V("cooks") NP!))'),
        parse_tree('S(NP! VP(V("cooks") NP!))'),
        delta=(Link(A("1"), A("1")), Link(A("2.2"), A("2.2"))),
    )
    beta = LstagPair(
        "and_eats",
        parse_tree('V(V* CC("and") V("eats"))'),
        parse_tree('S(NP! VP(V("eats") NP!) S*)'),
        phi=(Link(A("1"), A("1")), Link(A("2.2"), A("2.2"))),
    )
    john = LstagPair("john", parse_tree('NP("John")'), parse_tree('NP("John")'))
    s = lstag_compose(gamma, A("2.1"), GornAddress(()), beta)
    return shared_substitute(s, s.live_links[0], john)


def test_derivation_graph_dot_draws_shared_guest_once():
    _, right = full_coordination().projections()
    out = derivation_graph_to_dot(right)
    assert out.count('"cooks/1:john" [label="john"') == 1
    assert out.count('-> "cooks/1:john"') == 2


def test_json_text_is_stable_and_unicode():
    text = to_json_text({"addr": "ε", "b": 1})
    assert text == '{\n  "addr": "ε",\n  "b": 1\n}\n'


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
@settings(max_examples=60, deadline=None)
def test_json_text_matches_json_dumps(value):
    assert to_json_text(value) == json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def test_json_text_nests_deeper_than_the_recursion_limit():
    value: list = []
    for _ in range(1500):
        value = [value, {"k": 1}]
    text = to_json_text(value)
    assert text.count("[") == 1501 and text.count('"k": 1') == 1500


def test_derivation_dot_of_a_deep_derivation():
    d = DerivationTree("leaf")
    for k in range(1500):
        d = DerivationTree(f"m{k}", ((A("1"), d),))
    lines = derivation_tree_to_dot(d).splitlines()
    assert len(lines) == 2 + 1501 + 1500
    assert lines[1] == '  "d" [label="m1499" shape=plaintext];'
    assert lines[2] == '  "d" -> "d_1" [label="1"];'
    assert lines[-2] == '  "d' + "_1" * 1500 + '" [label="leaf" shape=plaintext];'
