import contextlib
import re
import sys
from collections import Counter

import pytest

import lstag

from lstag import (
    DerivationTree,
    EdgeAddressInvalid,
    EnumerationBudget,
    GornAddress,
    OperationMismatch,
    SymbolMismatch,
    SyntaxTree,
    TagGrammar,
    UnknownTree,
    enumerate_derivations,
    load_grammar,
    parse_grammar,
    parse_derivation_script,
    format_derivation_script,
    parse_tree,
    replay,
    validate_derivation,
    yield_string,
    yield_tokens,
)
from lstag.errors import Diagnostic, ParseError
from lstag.tag import derivation_to_json_obj
from lstag.trees import TreeNode

from helpers_trees import derivation_from_json_obj

A = GornAddress.parse

GRAMMAR = TagGrammar.from_trees(
    {
        "cooked": parse_tree('S(NP! VP(V("cooked") NP!))'),
        "john": parse_tree('NP("John")'),
        "beans": parse_tree('NP(N("beans"))'),
        "dried": parse_tree('N(A("dried") N*)'),
    }
)

FULL_DERIVATION = DerivationTree(
    "cooked",
    (
        (A("1"), DerivationTree("john")),
        (A("2.2"), DerivationTree("beans", ((A("1"), DerivationTree("dried")),))),
    ),
)


def test_replay_transitive_with_modifier():
    derived = replay(GRAMMAR, FULL_DERIVATION)
    assert yield_string(derived) == "John cooked dried beans"


def test_replay_single_node_derivation():
    derived = replay(GRAMMAR, DerivationTree("john"))
    assert derived == GRAMMAR.get("john").tree


def test_replay_child_order_is_irrelevant():
    reversed_edges = DerivationTree(
        "cooked",
        (
            (A("2.2"), DerivationTree("beans", ((A("1"), DerivationTree("dried")),))),
            (A("1"), DerivationTree("john")),
        ),
    )
    assert replay(GRAMMAR, reversed_edges) == replay(GRAMMAR, FULL_DERIVATION)


def test_replay_is_deterministic():
    assert replay(GRAMMAR, FULL_DERIVATION) == replay(GRAMMAR, FULL_DERIVATION)


def test_completeness_depends_on_filling_every_slot():
    partial = DerivationTree("cooked", ((A("1"), DerivationTree("john")),))
    derived = replay(GRAMMAR, partial)
    assert derived.slot_addresses == (A("2.2"),)
    assert not replay(GRAMMAR, FULL_DERIVATION).slot_addresses


def test_multiple_adjunctions_at_one_address_are_rejected():
    with pytest.raises(ValueError):
        DerivationTree(
            "beans",
            ((A("1"), DerivationTree("dried")), (A("1"), DerivationTree("dried"))),
        )


def test_stacked_adjunction_through_the_auxiliary_itself():
    nested = DerivationTree(
        "beans",
        ((A("1"), DerivationTree("dried", ((GornAddress(()), DerivationTree("dried")),))),),
    )
    assert yield_string(replay(GRAMMAR, nested)) == "dried dried beans"


def test_replay_unknown_tree():
    with pytest.raises(UnknownTree):
        replay(GRAMMAR, DerivationTree("missing"))


def test_a_grammar_rejects_a_repeated_name_and_a_lookup_of_a_missing_one():
    with pytest.raises(ValueError, match="duplicate elementary tree names"):
        TagGrammar(GRAMMAR.entries + GRAMMAR.entries[:1])
    with pytest.raises(UnknownTree, match="no elementary tree named 'nope'"):
        GRAMMAR.get("nope")


def test_replay_invalid_edge_address():
    bad = DerivationTree("cooked", ((A("9.9"), DerivationTree("john")),))
    with pytest.raises(EdgeAddressInvalid):
        replay(GRAMMAR, bad)


def test_replay_operation_mismatch_at_slot():
    bad = DerivationTree("cooked", ((A("1"), DerivationTree("dried")),))
    with pytest.raises(OperationMismatch):
        replay(GRAMMAR, bad)


@pytest.mark.parametrize(
    "addr, child, message",
    [
        ("1", "cooked", "root: slot at 1 expects 'NP', got root 'S'"),
        ("2", "dried", "root: adjunction at 2 expects 'VP', got root 'N'"),
    ],
)
def test_replay_symbol_mismatch(addr, child, message):
    with pytest.raises(SymbolMismatch, match=f"^{re.escape(message)}$"):
        replay(GRAMMAR, DerivationTree("cooked", ((A(addr), DerivationTree(child)),)))


# --- validate_derivation ---------------------------------------------------------


def test_validate_clean_derivation():
    assert validate_derivation(GRAMMAR, FULL_DERIVATION) == []


def test_validate_reports_bad_edge_address_with_path():
    bad = DerivationTree("cooked", ((A("9.9"), DerivationTree("john")),))
    diags = validate_derivation(GRAMMAR, bad)
    assert [d.code for d in diags] == ["EdgeAddressInvalid"]
    assert diags[0].where == "root"


def test_validate_reports_auxiliary_at_slot():
    bad = DerivationTree("cooked", ((A("1"), DerivationTree("dried")),))
    assert [d.code for d in validate_derivation(GRAMMAR, bad)] == ["OperationMismatch"]


def test_validate_reports_nested_problems_with_paths():
    bad = DerivationTree(
        "cooked",
        ((A("2.2"), DerivationTree("beans", ((A("1"), DerivationTree("nope")),))),),
    )
    diags = validate_derivation(GRAMMAR, bad)
    assert [(d.code, d.where) for d in diags] == [("UnknownTree", "root/2.2/1")]


def test_validate_reports_symbol_mismatch():
    bad = DerivationTree("cooked", ((A("1"), DerivationTree("beans")),))
    assert validate_derivation(GRAMMAR, bad) == []  # NP filler fits the NP slot
    worse = DerivationTree("beans", ((A("1.1"), DerivationTree("john")),))
    codes = [d.code for d in validate_derivation(GRAMMAR, worse)]
    assert codes == ["OperationMismatch"]  # terminal site supports no operation


def test_validate_reports_every_problem_depth_first_in_edge_order():
    bad = DerivationTree(
        "cooked",
        (
            (A("1"), DerivationTree("dried")),
            (A("2"), DerivationTree("dried", ((A("9"), DerivationTree("john")),))),
            (
                A("2.2"),
                DerivationTree(
                    "beans",
                    (
                        (A("1"), DerivationTree("nope", ((A("1"), DerivationTree("john")),))),
                        (A("1.1"), DerivationTree("john")),
                    ),
                ),
            ),
        ),
    )
    assert [(d.where, d.code, d.message) for d in validate_derivation(GRAMMAR, bad)] == [
        ("root", "OperationMismatch", "slot at 1 needs an initial tree, got 'dried'"),
        ("root", "SymbolMismatch", "adjunction at 2 expects 'VP', got root 'N'"),
        ("root/2", "EdgeAddressInvalid", "'dried' has no address 9"),
        ("root/2.2/1", "UnknownTree", "no elementary tree named 'nope'"),
        ("root/2.2", "OperationMismatch", "cannot compose at 1.1: node is Terminal(token='beans')"),
    ]


def test_validate_a_derivation_deeper_than_the_recursion_limit():
    grammar = TagGrammar.from_trees({"r": parse_tree('N(A("a"))'), "m": parse_tree('N(A("a") N*)')})
    depth = 1200
    d = DerivationTree("nope")
    for _ in range(depth):
        d = DerivationTree("m", ((A("ε"), d),))
    d = DerivationTree("r", ((A("ε"), d),))
    assert validate_derivation(grammar, d) == [
        Diagnostic("UnknownTree", "no elementary tree named 'nope'", "root" + "/ε" * (depth + 1))
    ]


def modifier_stack(k: int) -> tuple[TagGrammar, DerivationTree]:
    """A transitive verb whose subject carries k stacked modifiers, `mod{i} @ 1 <- mod{i+1}`.

    Modifier i is `Xi(X{i+1}("wi") Xi*)`, so each adjoins below the root of
    the one before and every derived auxiliary keeps its foot at depth 1.
    """
    trees = {"v": 'S(NP! VP(V("v") NP!))', "s": 'NP(X1("s"))', "o": 'NP(X1("o"))'}
    trees.update((f"mod{i}", f'X{i}(X{i + 1}("w{i}") X{i}*)') for i in range(1, k + 1))
    lines = ["root v", "v @ 1 <- s", "v @ 2.2 <- o", "s @ 1 <- mod1"]
    lines += [f"mod{i} @ 1 <- mod{i + 1}" for i in range(1, k)]
    grammar = TagGrammar.from_trees({name: parse_tree(text) for name, text in trees.items()})
    return grammar, parse_derivation_script("\n".join(lines) + "\n")


def test_replaying_a_modifier_stack_walks_no_more_trees_as_it_grows(monkeypatch):
    """No splice walks its derived auxiliary to find the foot, so the `rows()` walks do not grow with the stack."""
    walks = []
    rows = SyntaxTree.rows
    monkeypatch.setattr(SyntaxTree, "rows", lambda tree: walks.append(tree) or rows(tree))
    counts = []
    for k in (30, 60):
        grammar, d = modifier_stack(k)
        walks.clear()
        tree = replay(grammar, d)
        counts.append(len(walks))
        assert yield_string(tree) == " ".join([f"w{i}" for i in range(k, 0, -1)] + ["s", "v", "o"])
    assert counts[0] == counts[1]


# --- replay in one pass ------------------------------------------------------------


def test_replay_raises_validations_first_problem_not_the_first_it_meets():
    """Replay meets `h @ 1.1 <- nope` first, below the host it moves to `m`'s foot; validation reports `m @ 2` first."""
    grammar = TagGrammar.from_trees({"h": parse_tree("X(Y(Z!) W!)"), "m": parse_tree("Y(Y* Q!)")})
    d = DerivationTree(
        "h",
        (
            (A("1"), DerivationTree("m", ((A("2"), DerivationTree("nope2")),))),
            (A("1.1"), DerivationTree("nope")),
        ),
    )
    assert [x.where for x in validate_derivation(grammar, d)] == ["root/1/2", "root/1.1"]
    with pytest.raises(UnknownTree) as caught:
        replay(grammar, d)
    assert (str(caught.value), caught.value.name) == ("root/1/2: no elementary tree named 'nope2'", "nope2")


def test_replay_runs_validate_derivation_only_on_failure(monkeypatch):
    calls = []
    monkeypatch.setattr(lstag.tag, "validate_derivation", lambda g, d: calls.append(d) or validate_derivation(g, d))
    replay(GRAMMAR, FULL_DERIVATION)
    assert calls == []
    bad = DerivationTree("cooked", ((A("1"), DerivationTree("dried")), (A("9"), DerivationTree("john"))))
    with pytest.raises(OperationMismatch, match=r"^root: slot at 1 needs an initial tree, got 'dried'$"):
        replay(GRAMMAR, bad)
    assert calls == [bad]


@contextlib.contextmanager
def recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def modifier_chain(n: int) -> tuple[TagGrammar, DerivationTree]:
    """`tools/scale_derive.py --shape chain` at n: n links `mK @ ε <- mK+1`, each at the root of the one before."""
    trees = ['tree v: S(NP! VP(V("v") NP!))', 'tree n: NP(X("n"))', 'tree o: NP(N("o"))']
    trees += [f'tree m{k}: X(A("a{k}") X*)' for k in range(n + 1)]
    lines = ["root v", "v @ 1 <- n", "v @ 2.2 <- o", "n @ 1 <- m0"] + [f"m{k} @ ε <- m{k + 1}" for k in range(n)]
    return parse_grammar("\n".join(trees) + "\n").tag_grammar(), parse_derivation_script("\n".join(lines) + "\n")


def test_replay_a_5000_link_modifier_chain_without_recursion():
    grammar, d = modifier_chain(5000)
    with recursion_limit(200):
        tree = replay(grammar, d)
    assert yield_tokens(tree) == tuple(f"a{k}" for k in range(5000, -1, -1)) + ("n", "v", "o")
    assert sum(node.adjoined for node in tree.nodes()) == 5001


def test_replay_a_5000_deep_substitution_chain_without_recursion():
    grammar = TagGrammar.from_trees({"s": parse_tree('Y(A("s") Y!)'), "e": parse_tree('Y(A("e"))')})
    d = DerivationTree("e")
    for _ in range(5000):
        d = DerivationTree("s", ((A("2"), d),))
    with recursion_limit(200):
        tree = replay(grammar, d)
    assert yield_tokens(tree) == ("s",) * 5000 + ("e",)


def test_replay_an_edge_1200_levels_down_an_elementary_tree_without_recursion():
    deep = parse_tree("S(" * 1200 + "NP!" + ")" * 1200)
    grammar = TagGrammar.from_trees({"deep": deep, "john": parse_tree('NP("John")'), "m": parse_tree('S(S* A("m"))')})
    edges = ((GornAddress((1,) * 600), DerivationTree("m")), (GornAddress((1,) * 1200), DerivationTree("john")))
    d = DerivationTree("deep", edges)
    with recursion_limit(200):
        tree = replay(grammar, d)
    assert yield_tokens(tree) == ("John", "m")
    assert len(tree) == len(deep) + 1 + 3  # the slot's filler adds its terminal, the auxiliary all but its foot
    assert [node.kind for node in tree.nodes() if node.adjoined] == [deep.root.kind]


def test_replaying_a_modifier_chain_builds_the_same_nodes_per_link(monkeypatch):
    """Each link rebuilds a bounded number of nodes, so the work per link does not grow with the chain."""
    built = []
    init = TreeNode.__init__
    monkeypatch.setattr(TreeNode, "__init__", lambda node, *args: built.append(node) or init(node, *args))
    counts = {}
    for n in (0, 100, 200):
        grammar, d = modifier_chain(n)
        built.clear()
        replay(grammar, d)
        counts[n] = len(built)
    assert (counts[100] - counts[0]) / 100 == (counts[200] - counts[0]) / 200


# --- script and JSON formats ------------------------------------------------------


SCRIPT = """# a comment
root cooked
cooked @ 1 <- john
cooked @ 2.2 <- beans
beans @ 1 <- dried
"""


def test_script_parses_to_derivation_tree():
    assert parse_derivation_script(SCRIPT) == FULL_DERIVATION


def test_script_round_trip():
    text = format_derivation_script(FULL_DERIVATION)
    assert parse_derivation_script(text) == FULL_DERIVATION


def test_root_only_script():
    assert parse_derivation_script("root john\n") == DerivationTree("john")


def test_script_without_root_line_uses_first_parent():
    assert parse_derivation_script("cooked @ 1 <- john\n") == DerivationTree(
        "cooked", ((A("1"), DerivationTree("john")),)
    )


def test_script_rejects_unknown_parent():
    with pytest.raises(ParseError):
        parse_derivation_script("root cooked\nbeans @ 1 <- dried\n")


def test_script_rejects_ambiguous_parent():
    text = "root cooked\ncooked @ 1 <- beans\ncooked @ 2.2 <- beans\nbeans @ 1 <- dried\n"
    with pytest.raises(ParseError):
        parse_derivation_script(text)


def test_script_rejects_empty_input():
    with pytest.raises(ParseError):
        parse_derivation_script("# nothing here\n")


def test_derivation_json_round_trip():
    obj = derivation_to_json_obj(FULL_DERIVATION)
    assert obj["name"] == "cooked"
    assert [c["addr"] for c in obj["children"]] == ["1", "2.2"]
    assert derivation_from_json_obj(obj) == FULL_DERIVATION


def test_deep_derivations_parse_print_and_convert_without_recursion():
    depth = 3000
    lines = ["root m0"] + [f"m{k} @ 1 <- m{k + 1}" for k in range(depth)]
    text = "\n".join(lines) + "\n"
    d = parse_derivation_script(text)
    assert format_derivation_script(d) == text
    obj = derivation_to_json_obj(d)
    for k in range(depth):
        assert obj["name"] == f"m{k}"
        (edge,) = obj["children"]
        assert edge["addr"] == "1"
        obj = edge["node"]
    assert obj == {"name": f"m{depth}", "children": []}


def test_json_round_trip_of_a_derivation_deeper_than_the_recursion_limit():
    text = "root m0\n" + "".join(f"m{k} @ 1 <- m{k + 1}\n" for k in range(1500))
    d = parse_derivation_script(text)
    # Printed as a script, since comparing 1,500-level trees with == recurses.
    assert format_derivation_script(derivation_from_json_obj(derivation_to_json_obj(d))) == text


def test_script_and_json_keep_edge_order_below_every_node():
    text = "root a\na @ 1 <- b\nb @ 1 <- d\nd @ 1 <- f\nb @ 2 <- e\na @ 2 <- c\n"
    d = parse_derivation_script(text)
    assert format_derivation_script(d) == text

    def leaf(name):
        return {"name": name, "children": []}

    def node(name, *children):
        return {"name": name, "children": [{"addr": str(k), "node": c} for k, c in enumerate(children, 1)]}

    assert derivation_to_json_obj(d) == node("a", node("b", node("d", leaf("f")), leaf("e")), leaf("c"))


def names_an_ambiguous_parent(script: str) -> bool:
    """Whether an edge line of `script` names a parent whose name labels two nodes listed before it."""
    seen = Counter()
    for words in map(str.split, script.splitlines()):
        if words[0] == "root":
            seen[words[1]] += 1
            continue
        if seen[words[0]] > 1:
            return True
        seen[words[-1]] += 1
    return False


@pytest.mark.parametrize("ops, ambiguous, total", [(3, 2, 13), (4, 5, 19)])
def test_enumerated_derivations_read_back_unless_a_parent_name_is_ambiguous(fixtures_dir, ops, ambiguous, total):
    """A script names a parent by its name alone, so it cannot say which of two like-named nodes a line means.

    `cooked @ 1 <- beans`, `cooked @ 2.2 <- beans`, `beans @ 1 <- dried` is
    one such script.  Every other item's script parses back to its
    derivation and replays to its yield.
    """
    grammar = load_grammar(str(fixtures_dir / "cooked.tag")).tag_grammar()
    items = enumerate_derivations(grammar, EnumerationBudget(ops)).items
    failing = 0
    for item in items:
        script = format_derivation_script(item.left_derivation)
        if names_an_ambiguous_parent(script):
            failing += 1
            with pytest.raises(ParseError, match=r"^parent '\w+' is ambiguous \(2 occurrences\)"):
                parse_derivation_script(script)
            continue
        derivation = parse_derivation_script(script)
        assert derivation == item.left_derivation, script
        assert yield_tokens(replay(grammar, derivation)) == item.left_yield, script
    assert (failing, len(items)) == (ambiguous, total)
