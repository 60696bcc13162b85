import pytest

from lstag import (
    DerivationTree,
    EdgeAddressInvalid,
    GornAddress,
    OperationMismatch,
    TagGrammar,
    UnknownTree,
    parse_derivation_script,
    format_derivation_script,
    parse_tree,
    replay,
    validate_derivation,
    yield_string,
)
from lstag.errors import Diagnostic, ParseError
from lstag.tag import derivation_from_json_obj, derivation_to_json_obj

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


def test_replay_invalid_edge_address():
    bad = DerivationTree("cooked", ((A("9.9"), DerivationTree("john")),))
    with pytest.raises(EdgeAddressInvalid):
        replay(GRAMMAR, bad)


def test_replay_operation_mismatch_at_slot():
    bad = DerivationTree("cooked", ((A("1"), DerivationTree("dried")),))
    with pytest.raises(OperationMismatch):
        replay(GRAMMAR, bad)


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
