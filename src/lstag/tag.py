"""Plain TAG grammars, derivation trees, and replay of derivations.

A derivation tree records which elementary tree composed into which, with
edge labels giving the address in the parent's original elementary tree.
Whether a derivation is valid is decided edge by edge, so `replay` checks
once, with `validate_derivation`'s rule, and raises the first problem it
reports; the build after that check is unchecked and cannot fail.  Replay
is bottom-up: children are rebuilt first, then attached at each edge's
row, walked to once, by `fill_slot` or `splice` as its node is a slot or
not.  A parent's edges are composed in reverse address order, so no
composition moves a site still to come, and edge addresses are used
exactly as written in the grammar.  `derivation_tree` is the one internal
builder of derivation trees: the script parser, the JSON reader and
`sharing`'s projections collect each node's name and edges and call it.  It
checks each node's edges once, as the public `DerivationTree(...)` checks
them, and builds the nodes without that check.  Replay, that builder,
script parsing and printing walk derivations with an explicit stack, so a
derivation may be deeper than Python's recursion limit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping

from ._lex import script_lines
from .errors import (
    AddressNotFound,
    Diagnostic,
    EdgeAddressInvalid,
    OperationMismatch,
    ParseError,
    SymbolMismatch,
    UnknownTree,
)
from .gorn import GornAddress
from .trees import (
    Interior,
    SubstitutionSlot,
    SyntaxTree,
    TreeClass,
    classify,
    fill_slot,
    splice,
)


@dataclass(frozen=True)
class ElementaryTree:
    tree: SyntaxTree
    tree_class: TreeClass

    @classmethod
    def of(cls, tree: SyntaxTree) -> "ElementaryTree":
        return cls(tree, classify(tree))


@dataclass(frozen=True)
class TagGrammar:
    entries: tuple[tuple[str, ElementaryTree], ...]

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate elementary tree names")

    @classmethod
    def from_trees(cls, trees: dict[str, SyntaxTree]) -> "TagGrammar":
        return cls(tuple((name, ElementaryTree.of(tree)) for name, tree in trees.items()))

    @cached_property
    def _by_name(self) -> dict[str, ElementaryTree]:
        return dict(self.entries)

    def get(self, name: str) -> ElementaryTree:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTree(f"no elementary tree named {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True)
class DerivationTree:
    """Checked: sorts the edges by address and rejects a repeated one.  `derivation_tree` builds trusted nodes."""

    root: str
    edges: tuple[tuple[GornAddress, "DerivationTree"], ...] = ()

    def __post_init__(self):
        edges = tuple(sorted(self.edges, key=lambda e: e[0]))
        addrs = [a for a, _ in edges]
        if len(set(addrs)) != len(addrs):
            raise ValueError(f"duplicate edge addresses under {self.root!r}")
        object.__setattr__(self, "edges", edges)


def derivation_tree(root: Hashable, labels, children: Mapping) -> DerivationTree:
    """The derivation tree below node `root`, built leaves first, without recursion.

    `labels[node]` is a node's elementary name and `children.get(node)` its
    (edge address, child node) pairs; a node `children` omits is a leaf.
    Edges are checked as `DerivationTree` checks them, then nodes built trusted.
    """
    order = [root]  # parents before children
    for node in order:
        order.extend(child for _, child in children.get(node, ()))
    built: dict = {}
    new, set_field = object.__new__, object.__setattr__
    for node in reversed(order):
        edges = children.get(node, ())
        if len(edges) > 1:
            edges = sorted(edges, key=lambda e: e[0].parts)
            if any(a.parts == b.parts for (a, _), (b, _) in zip(edges, edges[1:])):
                raise ValueError(f"duplicate edge addresses under {labels[node]!r}")
        tree = built[node] = new(DerivationTree)
        set_field(tree, "root", labels[node])
        set_field(tree, "edges", tuple([(a, built[c]) for a, c in edges]))
    return built[root]


_DIAGNOSTIC_ERRORS = {e.__name__: e for e in (EdgeAddressInvalid, OperationMismatch, SymbolMismatch, UnknownTree)}


def replay(grammar: TagGrammar, d: DerivationTree) -> SyntaxTree:
    """The derived tree of `d`; raises the first problem `validate_derivation` reports.

    The error is the class the diagnostic's code names, and its message is
    prefixed by the diagnostic's derivation path.
    """
    problems = validate_derivation(grammar, d)
    if problems:
        first = problems[0]
        raise _DIAGNOSTIC_ERRORS[first.code](f"{first.where}: {first.message}")
    order = [d]  # parents before children
    for node in order:
        order.extend(child for _, child in node.edges)
    built: dict[int, SyntaxTree] = {}
    for node in reversed(order):
        result = grammar.get(node.root).tree
        for addr, child in reversed(node.edges):  # each composition moves only its own subtree
            row = result.row_at(addr)
            result = (fill_slot if isinstance(row[2].kind, SubstitutionSlot) else splice)(row, built[id(child)])
        built[id(node)] = result
    return built[id(d)]


def _edge_problem(grammar: TagGrammar, parent: str, addr: GornAddress, child: str) -> tuple[str, str] | None:
    """The (code, message) of what is wrong with composing `child` into `parent` at `addr`, if anything."""
    try:
        kind = grammar.get(parent).tree.row_at(addr)[2].kind
    except AddressNotFound:
        return "EdgeAddressInvalid", f"{parent!r} has no address {addr}"
    if child not in grammar:
        return None  # reported when the child is visited
    entry = grammar.get(child)
    if isinstance(kind, SubstitutionSlot):
        if entry.tree_class is not TreeClass.INITIAL:
            return "OperationMismatch", f"slot at {addr} needs an initial tree, got {child!r}"
        if entry.tree.root_symbol != kind.symbol:
            return "SymbolMismatch", f"slot at {addr} expects {kind.symbol!r}, got root {entry.tree.root_symbol!r}"
    elif isinstance(kind, Interior):
        if entry.tree_class is not TreeClass.AUXILIARY:
            return "OperationMismatch", f"interior node at {addr} needs an auxiliary tree, got {child!r}"
        if entry.tree.root_symbol != kind.symbol:
            return (
                "SymbolMismatch",
                f"adjunction at {addr} expects {kind.symbol!r}, got root {entry.tree.root_symbol!r}",
            )
    else:
        return "OperationMismatch", f"cannot compose at {addr}: node is {kind}"
    return None


def _path(entry: tuple) -> str:
    """A `validate_derivation` entry's derivation path, such as `root/2.2/1`, built only for a diagnostic."""
    parts = []
    while entry[2] is not None:
        parts.append(str(entry[1]))
        entry = entry[2]
    return "/".join(["root", *reversed(parts)])


def validate_derivation(grammar: TagGrammar, d: DerivationTree) -> list[Diagnostic]:
    """All problems that would make `replay` fail, with derivation-tree paths.

    Depth first, in edge order: an edge's problem comes just before those
    of the subtree below it.  Children of an unknown tree are not visited.
    """
    diags: list[Diagnostic] = []
    stack: list[tuple] = [(d, None, None)]  # (node, the address of the edge above it, its parent's entry)
    while stack:
        entry = stack.pop()
        node, addr, up = entry
        if up is not None:
            problem = _edge_problem(grammar, up[0].root, addr, node.root)
            if problem is not None:
                diags.append(Diagnostic(*problem, _path(up)))
        if node.root not in grammar:
            diags.append(Diagnostic("UnknownTree", f"no elementary tree named {node.root!r}", _path(entry)))
            continue
        stack.extend((child, addr, entry) for addr, child in reversed(node.edges))
    return diags


# --- derivation script format -------------------------------------------------
#
# One optional `root NAME` line, then one line per edge:
#
#     cooked @ 2.2 <- beans
#
# Parents are referenced by name and must be unambiguous at the point of use.


def parse_derivation_script(text: str) -> DerivationTree:
    labels: list[str] = []  # by node number; node 0 is the root
    children: defaultdict[int, list[tuple[GornAddress, int]]] = defaultdict(list)
    occurrences: dict[str, list[int]] = {}

    def add(name: str) -> int:
        occurrences.setdefault(name, []).append(len(labels))
        labels.append(name)
        return len(labels) - 1

    for lineno, cur in script_lines(text):
        if cur.accept("NAME", "root"):
            name = cur.expect("NAME").text
            if labels:
                raise ParseError("duplicate root declaration", lineno)
            add(name)
        else:
            parent_name = cur.expect("NAME").text
            cur.expect("PUNCT", "@")
            addr = cur.address()
            cur.expect("PUNCT", "<-")
            child_name = cur.expect("NAME").text
            if not labels:
                add(parent_name)
            candidates = occurrences.get(parent_name, [])
            if not candidates:
                raise ParseError(f"unknown parent {parent_name!r}", lineno)
            if len(candidates) > 1:
                raise ParseError(
                    f"parent {parent_name!r} is ambiguous ({len(candidates)} occurrences)", lineno
                )
            edges = children[candidates[0]]
            if any(a == addr for a, _ in edges):
                raise ParseError(f"duplicate edge at address {addr} under {parent_name!r}", lineno)
            edges.append((addr, add(child_name)))
        if cur.peek().kind != "EOF":
            raise cur.error("trailing input on script line")
    if not labels:
        raise ParseError("empty derivation script: needs a root or at least one edge")
    return derivation_tree(0, labels, children)


def format_derivation_script(d: DerivationTree) -> str:
    """One line per edge in preorder: an edge, then the edges below its child."""
    lines = [f"root {d.root}"]
    stack = [(d, a, c) for a, c in reversed(d.edges)]
    while stack:
        node, addr, child = stack.pop()
        lines.append(f"{node.root} @ {addr} <- {child.root}")
        stack.extend((child, a, c) for a, c in reversed(child.edges))
    return "\n".join(lines) + "\n"


def derivation_to_json_obj(d: DerivationTree) -> dict:
    top: dict = {"name": d.root, "children": []}
    stack = [(d, top)]
    while stack:
        node, obj = stack.pop()
        for addr, child in node.edges:
            child_obj: dict = {"name": child.root, "children": []}
            obj["children"].append({"addr": str(addr), "node": child_obj})
            stack.append((child, child_obj))
    return top


def derivation_from_json_obj(obj: dict) -> DerivationTree:
    nodes = [obj]  # by node number, parents before children
    children: dict[int, list[tuple[GornAddress, int]]] = {}
    for number, node in enumerate(nodes):
        kids = node.get("children", [])
        children[number] = [(GornAddress.parse(c["addr"]), len(nodes) + k) for k, c in enumerate(kids)]
        nodes.extend(c["node"] for c in kids)
    return derivation_tree(0, [node["name"] for node in nodes], children)
