"""Plain TAG grammars, derivation trees, and replay of derivations.

A derivation tree records which elementary tree composed into which, with edge
labels giving the address in the parent's original elementary tree.  `replay`
is one top-down pass: each derivation node rebuilds only the nodes of its
elementary tree on a path from the root to an edge, or to its foot where it is
adjoined.  A child's expansion takes the place of the slot it fills or the node
it adjoins at, and that node, rebuilt with the edges below it and marked
`adjoined`, goes to the child's first foot; so a chain of n modifiers costs
O(n).  Each edge is checked as it is reached, against the guests
`TagGrammar.guests` lists for its node; at the first that fails, replay raises
the first problem `validate_derivation` reports.  `derivation_tree` is the one
internal maker of derivation trees: the script parser and `sharing`'s
projections collect each node's name and edges and call it.  It checks each
node's edges once, as the public `DerivationTree(...)` checks them, and builds
the nodes without that check (`derivation_node`, which the enumerator's path
copies call too).  Replay, `derivation_tree`, script parsing and
printing walk derivations with an explicit stack, so a derivation may be
deeper than Python's recursion limit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping

from ._lex import LineCursor, read_script
from .errors import (
    AddressNotFound,
    Diagnostic,
    EdgeAddressInvalid,
    LstagError,
    OperationMismatch,
    ParseError,
    SymbolMismatch,
    UnknownTree,
)
from .gorn import GornAddress
from .trees import OPERATION, Interior, SubstitutionSlot, SyntaxTree, TreeClass, TreeNode, classify, no_cycles


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

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @cached_property
    def guests(self) -> dict[str, dict[str, dict[str, SyntaxTree]]]:
        """The trees by operation and root symbol, `{operation: {symbol: {name: tree}}}`, in grammar order."""
        table: dict[str, dict[str, dict[str, SyntaxTree]]] = {"substitution": {}, "adjunction": {}}
        for name, entry in self.entries:
            operation = "substitution" if entry.tree_class is TreeClass.INITIAL else "adjunction"
            table[operation].setdefault(entry.tree.root_symbol, {})[name] = entry.tree
        return table


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


def derivation_node(label: str, edges: tuple[tuple[GornAddress, DerivationTree], ...]) -> DerivationTree:
    """A node built trusted, without `DerivationTree`'s check: `edges` are already in address order, none repeated."""
    node = object.__new__(DerivationTree)
    object.__setattr__(node, "root", label)
    object.__setattr__(node, "edges", edges)
    return node


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
    for node in reversed(order):
        edges = children.get(node, ())
        if len(edges) > 1:
            edges = sorted(edges, key=lambda e: e[0].parts)
            if any(a.parts == b.parts for (a, _), (b, _) in zip(edges, edges[1:])):
                raise ValueError(f"duplicate edge addresses under {labels[node]!r}")
        built[node] = derivation_node(labels[node], tuple([(a, built[c]) for a, c in edges]))
    return built[root]


_DIAGNOSTIC_ERRORS = {e.__name__: e for e in (EdgeAddressInvalid, OperationMismatch, SymbolMismatch, UnknownTree)}


@no_cycles
def replay(grammar: TagGrammar, d: DerivationTree) -> SyntaxTree:
    """The derived tree of `d`; raises the first problem `validate_derivation` reports.

    The error is the class the diagnostic's code names, its message prefixed by the diagnostic's derivation path.
    """
    guests, top = grammar.guests, grammar._by_name.get(d.root)
    if top is None:
        raise _first_problem(grammar, d)
    out: list = [None]
    rows: list[tuple] = []  # (kind, site, adjoined, children, into, k) in preorder: build a node into `into[k]`
    # (elementary node, its derivation node's edges, the range at or below it, depth, host for its foot, into, k)
    stack: list[tuple] = [(top.tree.root, d.edges, 0, len(d.edges), 0, None, out, 0)]
    while stack:
        v, edges, lo, hi, depth, host, into, k = stack.pop()
        if lo < hi and len(edges[lo][0].parts) == depth:  # an edge at v: the child's expansion takes v's place
            child = edges[lo][1]
            operation = OPERATION.get(type(v.kind))
            fits = guests[operation].get(v.kind.symbol) if operation else None
            tree = fits.get(child.root) if fits else None
            if tree is None or (operation == "substitution" and lo + 1 < hi):
                raise _first_problem(grammar, d)
            host = (v, edges, lo + 1, hi, depth, host) if operation == "adjunction" else None
            stack.append((tree.root, child.edges, 0, len(child.edges), 0, host, into, k))
        elif lo == hi and host is None:
            into[k] = v
        else:
            adjoined = v.adjoined
            if host is not None and v.foot < 0 and lo == hi:  # an adjoined tree's foot: its host goes here, marked
                v, edges, lo, hi, depth, host = host
                adjoined = True
            kids = list(v.children)
            rows.append((v.kind, v.site, adjoined, kids, into, k))
            foot = v.foot if host is not None else 0  # the child on the way to the foot the host goes to
            i = j = hi
            while j > lo or foot:  # push the children that edges or the foot lead to, last first
                c = edges[j - 1][0].parts[depth] if j > lo else 0
                if c > len(kids):  # also an edge below a foot that takes a host
                    raise _first_problem(grammar, d)
                if c < foot:  # the foot's child, below no edge
                    c = foot
                else:  # the edges below child c are edges[i:j]
                    i -= 1
                    while i > lo and edges[i - 1][0].parts[depth] == c:
                        i -= 1
                stack.append((kids[c - 1], edges, i, j, depth + 1, host if c == foot else None, kids, c - 1))
                foot = 0 if c == foot else foot
                j = i
    for kind, site, adjoined, kids, into, k in reversed(rows):
        into[k] = TreeNode(kind, tuple(kids), site, adjoined)
    return SyntaxTree(out[0])


def _first_problem(grammar: TagGrammar, d: DerivationTree) -> LstagError:
    """The error of the first problem `validate_derivation` reports on `d`; an `UnknownTree` carries the name."""
    first = validate_derivation(grammar, d)[0]
    error = _DIAGNOSTIC_ERRORS[first.code](f"{first.where}: {first.message}")
    if isinstance(error, UnknownTree):  # validation visits nodes in preorder, so it reports the first unknown one
        stack = [d]
        while (node := stack.pop()).root in grammar:
            stack.extend(child for _, child in reversed(node.edges))
        error.name = node.root
    return error


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
    return read_derivation_lines(*read_script(text))


def read_derivation_lines(root: str, lines: list[tuple[int, LineCursor]]) -> DerivationTree:
    """The derivation tree of a script that `_lex.read_script` has read to `root` and its edge lines."""
    labels: list[str] = [root]  # by node number; node 0 is the root
    children: defaultdict[int, list[tuple[GornAddress, int]]] = defaultdict(list)
    occurrences: dict[str, list[int]] = {root: [0]}

    for lineno, cur in lines:
        if cur.accept("root"):
            cur.name()
            message = "root declaration must come before the edges" if children else "duplicate root declaration"
            raise ParseError(message, lineno)
        parent_name = cur.name()
        cur.expect("@")
        addr = cur.address()
        cur.expect("<-")
        child_name = cur.name()
        cur.end()
        candidates = occurrences.get(parent_name, [])
        if not candidates:
            raise ParseError(f"unknown parent {parent_name!r}", lineno)
        if len(candidates) > 1:
            raise ParseError(f"parent {parent_name!r} is ambiguous ({len(candidates)} occurrences)", lineno)
        edges = children[candidates[0]]
        if any(a == addr for a, _ in edges):
            raise ParseError(f"duplicate edge at address {addr} under {parent_name!r}", lineno)
        occurrences.setdefault(child_name, []).append(len(labels))
        edges.append((addr, len(labels)))
        labels.append(child_name)
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

