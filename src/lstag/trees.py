"""Gorn-addressed syntax trees and the two TAG composition operations.

A tree is an immutable map from Gorn addresses to node kinds.  Substitution
replaces a slot leaf with an initial tree; adjunction splices an auxiliary
tree into an interior node, replanting the detached subtree at the foot.
Both return new trees; nothing is mutated, so values can be shared freely
across derived structures and threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

from ._lex import Cursor, lex
from .errors import (
    AddressNotFound,
    ClassMismatch,
    IncompleteTree,
    NotASlot,
    NotInterior,
    ParseError,
    SymbolMismatch,
)
from .gorn import ROOT, GornAddress


@dataclass(frozen=True)
class Interior:
    symbol: str


@dataclass(frozen=True)
class SubstitutionSlot:
    symbol: str


@dataclass(frozen=True)
class Foot:
    symbol: str


@dataclass(frozen=True)
class Terminal:
    token: str


NodeKind = Interior | SubstitutionSlot | Foot | Terminal


class TreeClass(enum.Enum):
    INITIAL = "initial"
    AUXILIARY = "auxiliary"


def _table(nodes: Mapping[GornAddress, NodeKind]) -> tuple[tuple[GornAddress, NodeKind], ...]:
    return tuple(sorted(nodes.items(), key=lambda kv: kv[0].parts))


@dataclass(frozen=True)
class SyntaxTree:
    """Immutable tree; `entries` is the sorted (address, kind) table.

    `parse_tree` and `from_nodes` are the checked constructors.  Calling
    `SyntaxTree(entries)` directly checks nothing; substitution and adjunction
    build their results that way, since composing well-formed trees always
    gives a well-formed tree.
    """

    entries: tuple[tuple[GornAddress, NodeKind], ...]

    @classmethod
    def from_nodes(cls, nodes: Mapping[GornAddress, NodeKind]) -> "SyntaxTree":
        """Build a tree from an address -> kind map, raising ValueError if it is ill-formed."""
        entries = _table(nodes)
        if ROOT not in nodes:
            raise ValueError("tree has no root node")
        if not isinstance(nodes[ROOT], Interior):
            raise ValueError("root node must be an interior node")
        if sum(isinstance(k, Foot) for _, k in entries) > 1:
            raise ValueError("tree has more than one foot node")
        for addr, _ in entries:
            if addr.parts:
                parent = addr.parent
                if parent not in nodes:
                    raise ValueError(f"address set not prefix-closed at {addr}")
                if not isinstance(nodes[parent], Interior):
                    raise ValueError(f"non-interior node {parent} has a child")
                k = addr.parts[-1]
                if k > 1 and parent.child(k - 1) not in nodes:
                    raise ValueError(f"missing sibling {parent.child(k - 1)} before {addr}")
        return cls(entries)

    @cached_property
    def _by_addr(self) -> dict[GornAddress, NodeKind]:
        return dict(self.entries)

    def node_at(self, addr: GornAddress) -> NodeKind:
        try:
            return self._by_addr[addr]
        except KeyError:
            raise AddressNotFound(f"no node at address {addr}") from None

    def has_address(self, addr: GornAddress) -> bool:
        return addr in self._by_addr

    def addresses(self) -> tuple[GornAddress, ...]:
        return tuple(a for a, _ in self.entries)

    def items(self) -> tuple[tuple[GornAddress, NodeKind], ...]:
        return self.entries

    def children(self, addr: GornAddress) -> tuple[GornAddress, ...]:
        out = []
        k = 1
        while True:
            child = addr.child(k)
            if child not in self._by_addr:
                break
            out.append(child)
            k += 1
        return tuple(out)

    @cached_property
    def frontier(self) -> tuple[GornAddress, ...]:
        """Leaf addresses in left-to-right order.

        In the sorted table a node's first child directly follows it, so a
        node is a leaf unless the next entry's parent is that node.
        """
        addrs = [a for a, _ in self.entries]
        return tuple(
            a for a, nxt in zip(addrs, addrs[1:] + [None]) if nxt is None or nxt.parts[:-1] != a.parts
        )

    @cached_property
    def foot_address(self) -> GornAddress | None:
        for a, k in self.entries:
            if isinstance(k, Foot):
                return a
        return None

    @cached_property
    def slot_addresses(self) -> tuple[GornAddress, ...]:
        return tuple(a for a, k in self.entries if isinstance(k, SubstitutionSlot))

    @property
    def root_symbol(self) -> str:
        return self._by_addr[ROOT].symbol  # type: ignore[union-attr]

    def subtree(self, addr: GornAddress) -> dict[GornAddress, NodeKind]:
        """Nodes at or below `addr`, re-rooted at the empty address."""
        if not self.has_address(addr):
            raise AddressNotFound(f"no node at address {addr}")
        return {a.suffix_after(addr): k for a, k in self.entries if addr.is_prefix_of(a)}

    def __len__(self) -> int:
        return len(self.entries)


def classify(tree: SyntaxTree) -> TreeClass:
    """Initial trees have no foot; auxiliaries have one whose symbol matches the root."""
    foot = tree.foot_address
    if foot is None:
        return TreeClass.INITIAL
    foot_symbol = tree.node_at(foot).symbol  # type: ignore[union-attr]
    if foot_symbol != tree.root_symbol:
        raise ClassMismatch(
            f"foot symbol {foot_symbol!r} does not match root symbol {tree.root_symbol!r}"
        )
    return TreeClass.AUXILIARY


def rebase_address(orig: GornAddress, site: GornAddress, foot_addr: GornAddress) -> GornAddress:
    """Where an address of the host ends up after adjunction at `site`.

    Addresses at or below the site move under site.foot; everything else is
    untouched.  This is the map that keeps links alive across composition.
    """
    if site.is_prefix_of(orig):
        return GornAddress._of(site.parts + foot_addr.parts + orig.parts[len(site.parts):])
    return orig


@dataclass(frozen=True)
class ComposeResult:
    """A composed tree plus the address maps for both operands.

    `host_map` is total on host addresses (for substitution the consumed slot
    address maps to itself, where the guest root now sits).  `guest_placed`
    and `host_moved` pair each surviving guest and host address with its
    place in the result; an adjunction's foot and a filled slot do not survive.
    """

    tree: SyntaxTree
    host_map: Callable[[GornAddress], GornAddress]
    guest_placed: tuple[tuple[GornAddress, GornAddress], ...]
    host_moved: tuple[tuple[GornAddress, GornAddress], ...]


def substitute_with_maps(target: SyntaxTree, addr: GornAddress, filler: SyntaxTree) -> ComposeResult:
    kind = target.node_at(addr)
    if not isinstance(kind, SubstitutionSlot):
        raise NotASlot(f"node at {addr} is {kind}, not a substitution slot")
    if classify(filler) is not TreeClass.INITIAL:
        raise ClassMismatch("only initial trees substitute")
    if filler.root_symbol != kind.symbol:
        raise SymbolMismatch(
            f"slot expects {kind.symbol!r} but filler root is {filler.root_symbol!r}"
        )
    nodes: dict[GornAddress, NodeKind] = {a: k for a, k in target.items() if a != addr}
    placed = tuple((p, addr.extend(p)) for p, _ in filler.items())
    nodes.update({addr.extend(p): k for p, k in filler.items()})
    moved = tuple((a, a) for a, _ in target.items() if a != addr)
    return ComposeResult(SyntaxTree(_table(nodes)), lambda a: a, placed, moved)


def adjoin_with_maps(target: SyntaxTree, addr: GornAddress, aux: SyntaxTree) -> ComposeResult:
    kind = target.node_at(addr)
    if not isinstance(kind, Interior):
        raise NotInterior(f"node at {addr} is {kind}, not an interior node")
    if classify(aux) is not TreeClass.AUXILIARY:
        raise ClassMismatch("only auxiliary trees adjoin")
    if aux.root_symbol != kind.symbol:
        raise SymbolMismatch(
            f"adjunction site is {kind.symbol!r} but auxiliary root is {aux.root_symbol!r}"
        )
    foot = aux.foot_address
    assert foot is not None
    nodes: dict[GornAddress, NodeKind] = {}
    moved = []
    for a, k in target.items():
        new = rebase_address(a, addr, foot)
        nodes[new] = k
        moved.append((a, new))
    placed = []
    for p, k in aux.items():
        if p == foot:
            continue
        new = addr.extend(p)
        nodes[new] = k
        placed.append((p, new))
    return ComposeResult(
        SyntaxTree(_table(nodes)),
        lambda a: rebase_address(a, addr, foot),
        tuple(placed),
        tuple(moved),
    )


def substitute(target: SyntaxTree, addr: GornAddress, filler: SyntaxTree) -> SyntaxTree:
    return substitute_with_maps(target, addr, filler).tree


def adjoin(target: SyntaxTree, addr: GornAddress, aux: SyntaxTree) -> SyntaxTree:
    return adjoin_with_maps(target, addr, aux).tree


def yield_tokens(tree: SyntaxTree, partial: bool = False) -> tuple[str, ...]:
    """Frontier tokens in address order.

    Strict mode rejects remaining slots and feet; partial mode renders them
    as placeholders so in-progress structures can still be inspected.
    """
    out: list[str] = []
    for addr in tree.frontier:
        kind = tree.node_at(addr)
        if isinstance(kind, Terminal):
            out.append(kind.token)
        elif isinstance(kind, SubstitutionSlot):
            if not partial:
                raise IncompleteTree(f"substitution slot remains at {addr}")
            out.append(f"⟨{kind.symbol}↓⟩")
        elif isinstance(kind, Foot):
            if not partial:
                raise IncompleteTree(f"foot node remains at {addr}")
            out.append(f"⟨{kind.symbol}*⟩")
        # childless interior nodes spell out nothing
    return tuple(out)


def yield_string(tree: SyntaxTree, partial: bool = False) -> str:
    return " ".join(yield_tokens(tree, partial=partial))


def _quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_tree(tree: SyntaxTree) -> str:
    """Canonical bracketed text: `S(NP! VP(V("cooked") NP!))`."""

    def fmt(addr: GornAddress) -> str:
        kind = tree.node_at(addr)
        if isinstance(kind, Terminal):
            return _quote(kind.token)
        if isinstance(kind, SubstitutionSlot):
            return kind.symbol + "!"
        if isinstance(kind, Foot):
            return kind.symbol + "*"
        kids = tree.children(addr)
        if not kids:
            return kind.symbol
        return kind.symbol + "(" + " ".join(fmt(c) for c in kids) + ")"

    return fmt(ROOT)


def parse_tree_tokens(cur: Cursor) -> SyntaxTree:
    nodes: dict[GornAddress, NodeKind] = {}

    def parse_node(addr: GornAddress) -> None:
        tok = cur.peek()
        if tok.kind == "STRING":
            cur.next()
            nodes[addr] = Terminal(tok.text)
            return
        if tok.kind != "NAME":
            raise cur.error("expected a node symbol or quoted terminal")
        cur.next()
        symbol = tok.text
        if cur.accept("PUNCT", "!"):
            nodes[addr] = SubstitutionSlot(symbol)
            return
        if cur.accept("PUNCT", "*"):
            nodes[addr] = Foot(symbol)
            return
        nodes[addr] = Interior(symbol)
        if cur.accept("PUNCT", "("):
            k = 1
            while not cur.accept("PUNCT", ")"):
                if cur.peek().kind == "EOF":
                    raise cur.error("unterminated tree, expected ')'")
                parse_node(addr.child(k))
                k += 1
            if k == 1:
                raise ParseError("empty child list", tok.line, tok.column)

    parse_node(ROOT)
    try:
        return SyntaxTree.from_nodes(nodes)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_tree(text: str) -> SyntaxTree:
    cur = Cursor(lex(text))
    tree = parse_tree_tokens(cur)
    if cur.peek().kind != "EOF":
        raise cur.error("trailing input after tree")
    return tree
