import json
import re

from hypothesis import given, settings, strategies as st

from lstag import (
    DerivationTree,
    GornAddress,
    Link,
    LstagPair,
    load_grammar,
    lstag_compose,
    parse_grammar,
    parse_tree,
    shared_substitute,
    usable_lstag_names,
)
from lstag._lex import read_script
from lstag.cli import run_lstag_script
from lstag.render import (
    derivation_graph_to_dot,
    derivation_tree_to_dot,
    derived_tree_with_derivation_to_dot,
    grammar_to_dot,
    structure_to_dot,
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


# --- every DOT writer declares each node id once ------------------------------------

_DOT_STRING = r'"((?:[^"\\]|\\.)*)"'
_DOT_NODE = re.compile(rf"\s*{_DOT_STRING} \[label={_DOT_STRING} shape=(?:box|plaintext)\];")
_DOT_EDGE = re.compile(rf"\s*{_DOT_STRING} -> {_DOT_STRING}(?: \[.*\])?;")
_DOT_FRAME = re.compile(rf'digraph \S+ \{{|\s*subgraph cluster_\w+ \{{|\s*label={_DOT_STRING};|\s*\}}')


def dot_nodes(text: str) -> list[tuple[str, str]]:
    """The (id, label) node declarations of a DOT document, in order.

    Asserts that every line is a node, an edge or a frame line, that no id
    is declared twice, and that every edge joins declared ids.
    """
    nodes, edges = [], []
    for line in text.splitlines():
        if m := _DOT_NODE.fullmatch(line):
            nodes.append(m.groups())
        elif m := _DOT_EDGE.fullmatch(line):
            edges.append(m.groups())
        else:
            assert _DOT_FRAME.fullmatch(line), line
    ids = [node_id for node_id, _ in nodes]
    assert len(set(ids)) == len(ids), sorted(i for i in ids if ids.count(i) > 1)
    assert {end for edge in edges for end in edge} <= set(ids)
    return nodes


def preorder_names(d: DerivationTree) -> list[str]:
    names, stack = [], [d]
    while stack:
        node = stack.pop()
        names.append(node.root)
        stack.extend(child for _, child in reversed(node.edges))
    return names


# Names that look like ids, and edge addresses that spell each other's ids
# (child 1 of child 2 and child 2.1 are both `d_2_1` before deduplication).
_DERIVATION_NAMES = st.sampled_from(["d", "d_1", "dl", "x"])
_DERIVATIONS = st.recursive(
    st.builds(DerivationTree, _DERIVATION_NAMES),
    lambda kids: st.builds(
        lambda name, edges: DerivationTree(name, tuple(edges.items())),
        _DERIVATION_NAMES,
        st.dictionaries(st.sampled_from(["1", "2", "1.1", "2.1", "2.1.1"]).map(A), kids, max_size=3),
    ),
    max_leaves=12,
)


@given(_DERIVATIONS)
@settings(max_examples=150, deadline=None)
def test_derivation_dot_declares_each_node_once(d):
    assert [label for _, label in dot_nodes(derivation_tree_to_dot(d))] == preorder_names(d)
    nodes = dot_nodes(derived_tree_with_derivation_to_dot(parse_tree('S("a")'), d))
    assert [label for node_id, label in nodes if node_id.startswith("d")] == preorder_names(d)


def test_structure_dot_labels_a_pair_named_d(fixtures_dir):
    text = (fixtures_dir / "cooks_eats.lstag").read_text(encoding="utf-8").replace("lspair john", "lspair d")
    doc = parse_grammar(text)
    script = (fixtures_dir / "scripts" / "cooks_eats.script").read_text(encoding="utf-8")
    script = script.replace("substitute john", "substitute d")
    s = run_lstag_script(doc.lstag_grammar(usable_lstag_names(doc)), *read_script(script))
    nodes = dot_nodes(structure_to_dot(s))
    left, right = s.projections()
    assert [label for node_id, label in nodes if node_id.startswith("dl")] == preorder_names(left)
    assert [label for node_id, label in nodes if node_id.startswith("dr:")] == [label for _, label in right.nodes]
    assert ("dl_1", "d") in nodes


def test_grammar_dot_declares_each_node_once(fixtures_dir):
    for path in sorted(p for p in fixtures_dir.iterdir() if p.is_file()):
        doc = load_grammar(str(path))
        pairs = (*doc.stag_pairs, *doc.lstag_pairs)
        trees = [t for _, t in doc.trees] + [t for p in pairs for t in (p.left_tree, p.right_tree)]
        assert len(dot_nodes(grammar_to_dot(doc))) == sum(len(t) for t in trees), path.name
