"""Plain TAG grammars, derivation trees, and replay of derivations.

A derivation tree records which elementary tree composed into which, with
edge labels giving the address in the parent's original elementary tree.
Whether a derivation is valid is decided edge by edge, so `replay` checks
once, with `validate_derivation`'s rule, and raises the first problem it
reports; the build after that check is unchecked and cannot fail.  Replay
is bottom-up: children are rebuilt first, then attached with `fill_slot`
or `splice`.  A parent's edges are composed in reverse address order, so
no composition moves a site still to come, and edge addresses are used
exactly as written in the grammar.  Replay, script parsing and printing
walk derivations with an explicit stack, so a derivation may be deeper
than Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ._lex import script_lines
from .errors import (
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
    root: str
    edges: tuple[tuple[GornAddress, "DerivationTree"], ...] = ()

    def __post_init__(self):
        edges = tuple(sorted(self.edges, key=lambda e: e[0]))
        addrs = [a for a, _ in edges]
        if len(set(addrs)) != len(addrs):
            raise ValueError(f"duplicate edge addresses under {self.root!r}")
        object.__setattr__(self, "edges", edges)


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
        tree = result = grammar.get(node.root).tree
        for addr, child in reversed(node.edges):  # each composition moves only its own subtree
            graft = fill_slot if isinstance(tree.node_at(addr), SubstitutionSlot) else splice
            result = graft(result, addr, built[id(child)])
        built[id(node)] = result
    return built[id(d)]


def _edge_problem(grammar: TagGrammar, parent: str, addr: GornAddress, child: str) -> tuple[str, str] | None:
    """The (code, message) of what is wrong with composing `child` into `parent` at `addr`, if anything."""
    tree = grammar.get(parent).tree
    if not tree.has_address(addr):
        return "EdgeAddressInvalid", f"{parent!r} has no address {addr}"
    if child not in grammar:
        return None  # reported when the child is visited
    kind, entry = tree.node_at(addr), grammar.get(child)
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


def validate_derivation(grammar: TagGrammar, d: DerivationTree) -> list[Diagnostic]:
    """All problems that would make `replay` fail, with derivation-tree paths.

    Depth first, in edge order: an edge's problem comes just before those
    of the subtree below it.  Children of an unknown tree are not visited.
    """
    diags: list[Diagnostic] = []
    # (node, its path, and the (parent name, address, parent path) of the edge above it)
    stack: list[tuple[DerivationTree, str, tuple[str, GornAddress, str] | None]] = [(d, "root", None)]
    while stack:
        node, path, edge = stack.pop()
        if edge is not None:
            parent, addr, parent_path = edge
            problem = _edge_problem(grammar, parent, addr, node.root)
            if problem is not None:
                diags.append(Diagnostic(*problem, parent_path))
        if node.root not in grammar:
            diags.append(Diagnostic("UnknownTree", f"no elementary tree named {node.root!r}", path))
            continue
        stack.extend((child, f"{path}/{addr}", (node.root, addr, path)) for addr, child in reversed(node.edges))
    return diags


# --- derivation script format -------------------------------------------------
#
# One optional `root NAME` line, then one line per edge:
#
#     cooked @ 2.2 <- beans
#
# Parents are referenced by name and must be unambiguous at the point of use.


@dataclass
class _Node:
    name: str
    edges: list[tuple[GornAddress, "_Node"]] = field(default_factory=list)


def parse_derivation_script(text: str) -> DerivationTree:
    root: _Node | None = None
    occurrences: dict[str, list[_Node]] = {}
    created: list[_Node] = []

    def add(node: _Node) -> None:
        occurrences.setdefault(node.name, []).append(node)
        created.append(node)

    for lineno, cur in script_lines(text):
        if cur.accept("NAME", "root"):
            name = cur.expect("NAME").text
            if root is not None:
                raise ParseError("duplicate root declaration", lineno)
            root = _Node(name)
            add(root)
        else:
            parent_name = cur.expect("NAME").text
            cur.expect("PUNCT", "@")
            addr = cur.address()
            cur.expect("PUNCT", "<-")
            child_name = cur.expect("NAME").text
            if root is None:
                root = _Node(parent_name)
                add(root)
            candidates = occurrences.get(parent_name, [])
            if not candidates:
                raise ParseError(f"unknown parent {parent_name!r}", lineno)
            if len(candidates) > 1:
                raise ParseError(
                    f"parent {parent_name!r} is ambiguous ({len(candidates)} occurrences)", lineno
                )
            parent = candidates[0]
            if any(a == addr for a, _ in parent.edges):
                raise ParseError(f"duplicate edge at address {addr} under {parent_name!r}", lineno)
            child = _Node(child_name)
            parent.edges.append((addr, child))
            add(child)
        if cur.peek().kind != "EOF":
            raise cur.error("trailing input on script line")
    if root is None:
        raise ParseError("empty derivation script: needs a root or at least one edge")

    frozen: dict[int, DerivationTree] = {}
    for node in reversed(created):  # children were created after their parents
        frozen[id(node)] = DerivationTree(node.name, tuple((a, frozen[id(c)]) for a, c in node.edges))
    return frozen[id(root)]


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
    order = [obj]  # parents before children
    for node in order:
        order.extend(c["node"] for c in node.get("children", []))
    built: dict[int, DerivationTree] = {}
    for node in reversed(order):
        edges = tuple((GornAddress.parse(c["addr"]), built[id(c["node"])]) for c in node.get("children", []))
        built[id(node)] = DerivationTree(node["name"], edges)
    return built[id(obj)]
