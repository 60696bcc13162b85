"""Gorn-addressed syntax trees and the two TAG composition operations.

A tree is an immutable nested node; each node holds its kind, its children
and the elementary site (`SiteRef`) it came from.  Substitution replaces a
slot leaf with an initial tree; adjunction splices an auxiliary tree into an
interior node, replanting the detached subtree at the foot.  Both copy only
the path from the root to the site and share every other subtree, stamping
the guest's nodes with their elementary sites, so a derived tree carries
its own provenance.  Adjunction marks the node it replants `adjoined` and
path copies keep the mark, so a tree tells which nodes host an adjunction.
`check_substitution` and `check_adjunction` hold the rules a composition
checks, and `fill_slot` and `splice` compose without checking, for callers
that have checked.  No operation here recurses on tree depth.

Addresses are not stored; a traversal builds one only where its caller
reads it.  `nodes()` walks nodes alone (yield, size, equality and hashing
need no more), `paths()` walks child-index paths, and `walk()` builds each
node's `GornAddress`.  The walks that are read again are cached per tree:
`preorder`, which `locate` and the link-sharing move generator read, and
the (kind, child count, address) rows `owned_by` stamps a grammar tree
from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

from ._lex import Cursor, Token, lex
from .errors import (
    AddressNotFound,
    ClassMismatch,
    IncompleteTree,
    NotASlot,
    NotInterior,
    ParseError,
    SymbolMismatch,
)
from .gorn import GornAddress


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


@dataclass(frozen=True)
class SiteRef:
    """A node named by its owning elementary instance and original address."""

    owner: str
    addr: GornAddress

    def __str__(self) -> str:
        return f"{self.owner}@{self.addr}"


class TreeNode:
    """A node: its kind, its children and the elementary site it came from.

    `site` is None on parsed trees.  `adjoined` is True on the node an
    adjunction replanted under its auxiliary's foot: that elementary node
    hosts an adjunction and takes no other.  Parsed and stamped trees are
    unmarked.  Tree equality and hashing ignore both `site` and `adjoined`.
    `slots` counts the substitution slots at or below the node.  Nodes
    never change, so trees share them freely.
    """

    __slots__ = ("kind", "children", "site", "adjoined", "slots")

    def __init__(
        self,
        kind: NodeKind,
        children: tuple[TreeNode, ...] = (),
        site: SiteRef | None = None,
        adjoined: bool = False,
    ):
        self.kind = kind
        self.children = children
        self.site = site
        self.adjoined = adjoined
        self.slots = sum(c.slots for c in children) if children else int(isinstance(kind, SubstitutionSlot))


def _from_preorder(rows: Sequence[Sequence]) -> TreeNode:
    """Build the nodes listed as (kind, child count, site) rows in preorder.

    In reverse preorder a node's children are built before it, the first
    child last.
    """
    done: list[TreeNode] = []
    for kind, count, site in reversed(rows):
        kids = tuple(reversed(done[len(done) - count:]))
        del done[len(done) - count:]
        done.append(TreeNode(kind, kids, site))
    return done[0]


def _replaced(top: TreeNode, parts: tuple[int, ...], new: TreeNode) -> TreeNode:
    """`top` with `new` at `parts`, sharing every subtree off the path; the path's copies keep sites and marks."""
    path = []
    node = top
    for k in parts:
        path.append(node)
        node = node.children[k - 1]
    for parent, k in zip(reversed(path), reversed(parts)):
        kids = parent.children
        new = TreeNode(parent.kind, kids[: k - 1] + (new,) + kids[k:], parent.site, parent.adjoined)
    return new


@dataclass(frozen=True, eq=False, repr=False)
class SyntaxTree:
    """Immutable tree over a nested root node.

    `parse_tree` and `from_nodes` are the checked constructors.  Calling
    `SyntaxTree(root)` directly checks nothing; substitution and adjunction
    build their results that way, since composing well-formed trees always
    gives a well-formed tree.  The address views are worked out from the
    nodes when read.  Equality and hashing ignore the nodes' sites and
    adjunction marks.
    """

    root: TreeNode

    @classmethod
    def from_nodes(cls, nodes: Mapping[GornAddress, NodeKind]) -> "SyntaxTree":
        """Build a tree from an address -> kind map, raising ValueError if it is ill-formed."""
        kinds = {a.parts: k for a, k in nodes.items()}
        if () not in kinds:
            raise ValueError("tree has no root node")
        if not isinstance(kinds[()], Interior):
            raise ValueError("root node must be an interior node")
        if sum(isinstance(k, Foot) for k in kinds.values()) > 1:
            raise ValueError("tree has more than one foot node")
        order = sorted(kinds)
        arity = dict.fromkeys(order, 0)
        for parts in order[1:]:
            parent, k = parts[:-1], parts[-1]
            if parent not in kinds:
                raise ValueError(f"address set not prefix-closed at {GornAddress._of(parts)}")
            if not isinstance(kinds[parent], Interior):
                raise ValueError(f"non-interior node {GornAddress._of(parent)} has a child")
            if k > 1 and parent + (k - 1,) not in kinds:
                missing = GornAddress._of(parent + (k - 1,))
                raise ValueError(f"missing sibling {missing} before {GornAddress._of(parts)}")
            arity[parent] += 1
        return cls(_from_preorder([(kinds[p], arity[p], None) for p in order]))

    def owned_by(self, owner: str) -> "SyntaxTree":
        """This tree with every node's site set to `SiteRef(owner, its address)`.

        The (kind, child count, address) rows are worked out once per tree
        and cached, so stamping a grammar tree again builds only the sites
        and the nodes.
        """
        return SyntaxTree(_from_preorder([(kind, count, SiteRef(owner, a)) for kind, count, a in self._rows]))

    @cached_property
    def _rows(self) -> tuple[tuple[NodeKind, int, GornAddress], ...]:
        return tuple((n.kind, len(n.children), a) for a, n in self.walk())

    def nodes(self) -> Iterator[TreeNode]:
        """The nodes in preorder, without their addresses."""
        stack = [self.root]
        pop, extend = stack.pop, stack.extend
        while stack:
            node = pop()
            yield node
            kids = node.children
            if kids:
                extend(kids[::-1])

    def paths(self) -> Iterator[tuple[tuple[int, ...], TreeNode]]:
        """(child-index path, node) pairs in preorder; a path is its address's `parts`."""
        stack = [((), self.root)]
        pop, push = stack.pop, stack.append
        while stack:
            parts, node = pop()
            yield parts, node
            k = len(node.children)
            for kid in reversed(node.children):
                push((parts + (k,), kid))
                k -= 1

    def walk(self) -> Iterator[tuple[GornAddress, TreeNode]]:
        """(address, node) pairs in preorder, which is Gorn order."""
        address = GornAddress._of
        return ((address(parts), node) for parts, node in self.paths())

    @cached_property
    def preorder(self) -> tuple[tuple[GornAddress, TreeNode], ...]:
        """The pairs of `walk()`, walked once and kept: `locate` and the move generator read them."""
        return tuple(self.walk())

    @cached_property
    def entries(self) -> tuple[tuple[GornAddress, NodeKind], ...]:
        """The (address, kind) table in Gorn order."""
        return tuple((a, n.kind) for a, n in self.walk())

    def _find(self, addr: GornAddress) -> TreeNode | None:
        node = self.root
        for k in addr.parts:
            if k > len(node.children):
                return None
            node = node.children[k - 1]
        return node

    def node(self, addr: GornAddress) -> TreeNode:
        """The node at `addr`: its kind, children and elementary site."""
        node = self._find(addr)
        if node is None:
            raise AddressNotFound(f"no node at address {addr}")
        return node

    def node_at(self, addr: GornAddress) -> NodeKind:
        return self.node(addr).kind

    @cached_property
    def by_site(self) -> dict[SiteRef | None, tuple[GornAddress, TreeNode]]:
        """The (address, node) pair of `preorder` each site names."""
        return {pair[1].site: pair for pair in self.preorder}

    def locate(self, site: SiteRef) -> tuple[GornAddress, TreeNode]:
        """The address and node of the node that carries `site`, read off `preorder`."""
        try:
            return self.by_site[site]
        except KeyError:
            raise AddressNotFound(f"no node carries {site}") from None

    def has_address(self, addr: GornAddress) -> bool:
        return self._find(addr) is not None

    def addresses(self) -> tuple[GornAddress, ...]:
        return tuple(a for a, _ in self.entries)

    def items(self) -> tuple[tuple[GornAddress, NodeKind], ...]:
        return self.entries

    def children(self, addr: GornAddress) -> tuple[GornAddress, ...]:
        node = self._find(addr)
        count = len(node.children) if node is not None else 0
        return tuple(GornAddress._of(addr.parts + (k,)) for k in range(1, count + 1))

    @cached_property
    def frontier(self) -> tuple[GornAddress, ...]:
        """Leaf addresses in left-to-right order."""
        return tuple(a for a, n in self.walk() if not n.children)

    @cached_property
    def foot_address(self) -> GornAddress | None:
        path: list[int] = []  # child indices from the root to the node just taken
        stack = [(0, 0, self.root)]  # (depth, child index, node)
        while stack:
            depth, k, node = stack.pop()
            if depth:
                del path[depth - 1:]
                path.append(k)
            if isinstance(node.kind, Foot):
                return GornAddress._of(tuple(path))
            stack.extend((depth + 1, k, c) for k, c in enumerate(node.children, 1))
        return None

    @cached_property
    def slot_addresses(self) -> tuple[GornAddress, ...]:
        return tuple(a for a, n in self.walk() if isinstance(n.kind, SubstitutionSlot))

    @property
    def root_symbol(self) -> str:
        return self.root.kind.symbol  # type: ignore[union-attr]

    def __len__(self) -> int:
        return sum(1 for _ in self.nodes())

    def _shape(self) -> tuple[tuple[NodeKind, int], ...]:
        """Each node's kind and child count in preorder, which fix the tree."""
        return tuple((n.kind, len(n.children)) for n in self.nodes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SyntaxTree):
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(self._shape())

    def __repr__(self) -> str:
        return f"SyntaxTree({format_tree(self)!r})"


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
    untouched.  `stag_compose` keeps synchronous links alive with it.
    """
    if site.is_prefix_of(orig):
        return GornAddress._of(site.parts + foot_addr.parts + orig.parts[len(site.parts):])
    return orig


@dataclass(frozen=True)
class ComposeResult:
    """A composed tree plus where each host address ended up.

    `host_map` is total on host addresses (for substitution the consumed slot
    address maps to itself, where the guest root now sits).
    """

    tree: SyntaxTree
    host_map: Callable[[GornAddress], GornAddress]


def check_substitution(kind: NodeKind, addr: GornAddress, filler: SyntaxTree) -> None:
    """Raise what substituting `filler` at a node of this kind at `addr` raises."""
    if not isinstance(kind, SubstitutionSlot):
        raise NotASlot(f"node at {addr} is {kind}, not a substitution slot")
    if classify(filler) is not TreeClass.INITIAL:
        raise ClassMismatch("only initial trees substitute")
    if filler.root_symbol != kind.symbol:
        raise SymbolMismatch(
            f"slot expects {kind.symbol!r} but filler root is {filler.root_symbol!r}"
        )


def check_adjunction(kind: NodeKind, addr: GornAddress, aux: SyntaxTree) -> None:
    """Raise what adjoining `aux` at a node of this kind at `addr` raises."""
    if not isinstance(kind, Interior):
        raise NotInterior(f"node at {addr} is {kind}, not an interior node")
    if classify(aux) is not TreeClass.AUXILIARY:
        raise ClassMismatch("only auxiliary trees adjoin")
    if aux.root_symbol != kind.symbol:
        raise SymbolMismatch(
            f"adjunction site is {kind.symbol!r} but auxiliary root is {aux.root_symbol!r}"
        )


def fill_slot(target: SyntaxTree, addr: GornAddress, filler: SyntaxTree, guest_id: str | None = None) -> SyntaxTree:
    """`target` with `filler` at `addr`, unchecked: the caller ensured what `check_substitution` checks.

    A `guest_id` stamps the guest's nodes as that instance's.
    """
    guest = filler if guest_id is None else filler.owned_by(guest_id)
    return SyntaxTree(_replaced(target.root, addr.parts, guest.root))


def splice(target: SyntaxTree, addr: GornAddress, aux: SyntaxTree, guest_id: str | None = None) -> SyntaxTree:
    """`target` with `aux` adjoined at `addr`, unchecked: the caller ensured what `check_adjunction` checks.

    The detached subtree, sites and all, replaces the auxiliary's foot, and
    its root is marked `adjoined`.
    """
    guest = aux if guest_id is None else aux.owned_by(guest_id)
    host = target.node(addr)
    marked = TreeNode(host.kind, host.children, host.site, True)
    wrapped = _replaced(guest.root, aux.foot_address.parts, marked)  # type: ignore[union-attr]
    return SyntaxTree(_replaced(target.root, addr.parts, wrapped))


def substitute_with_maps(
    target: SyntaxTree, addr: GornAddress, filler: SyntaxTree, guest_id: str | None = None
) -> ComposeResult:
    """Fill the slot at `addr`; a `guest_id` stamps the guest's nodes as that instance's."""
    check_substitution(target.node_at(addr), addr, filler)
    return ComposeResult(fill_slot(target, addr, filler, guest_id), lambda a: a)


def adjoin_with_maps(
    target: SyntaxTree, addr: GornAddress, aux: SyntaxTree, guest_id: str | None = None
) -> ComposeResult:
    """Splice `aux` in at `addr`; the detached subtree, sites and all, replaces its foot."""
    check_adjunction(target.node_at(addr), addr, aux)
    foot = aux.foot_address
    assert foot is not None
    return ComposeResult(splice(target, addr, aux, guest_id), lambda a: rebase_address(a, addr, foot))


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
    for node in tree.nodes():
        if node.children:
            continue
        kind = node.kind
        if isinstance(kind, Terminal):
            out.append(kind.token)
        elif isinstance(kind, SubstitutionSlot):
            if not partial:
                raise IncompleteTree(f"substitution slot remains at {_address_of(tree, node)}")
            out.append(f"⟨{kind.symbol}↓⟩")
        elif isinstance(kind, Foot):
            if not partial:
                raise IncompleteTree(f"foot node remains at {_address_of(tree, node)}")
            out.append(f"⟨{kind.symbol}*⟩")
        # childless interior nodes spell out nothing
    return tuple(out)


def _address_of(tree: SyntaxTree, node: TreeNode) -> GornAddress:
    """The address of `node`'s first place in `tree`'s preorder."""
    return next(a for a, n in tree.walk() if n is node)


def yield_string(tree: SyntaxTree, partial: bool = False) -> str:
    return " ".join(yield_tokens(tree, partial=partial))


def _quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_tree(tree: SyntaxTree) -> str:
    """Canonical bracketed text: `S(NP! VP(V("cooked") NP!))`."""
    out: list[str] = []
    depth = -1
    for parts, node in tree.paths():
        # Close the lists of the previous node's ancestors that do not contain this one.
        if len(parts) <= depth:
            out.append(")" * (depth - len(parts)) + " ")
        depth = len(parts)
        kind = node.kind
        if isinstance(kind, Terminal):
            out.append(_quote(kind.token))
        elif isinstance(kind, SubstitutionSlot):
            out.append(kind.symbol + "!")
        elif isinstance(kind, Foot):
            out.append(kind.symbol + "*")
        else:
            out.append(kind.symbol + ("(" if node.children else ""))
    return "".join(out) + ")" * depth


def parse_tree_tokens(cur: Cursor) -> SyntaxTree:
    """Parse one bracketed tree from `cur.tokens` at `cur.pos`; leave `cur.pos` just past it.

    Each open interior node waits on `stack` with the children built so
    far, and a `)` builds it and hands it on to the node below.  A
    non-interior root is reported at its token, a second foot at its own.
    """
    tokens, i = cur.tokens, cur.pos
    stack: list[tuple[Interior, list[TreeNode]]] = []
    feet: list[Token] = []
    while True:
        tok = tokens[i]
        if stack and tok.kind == "EOF":
            raise ParseError("unterminated tree, expected ')'", tok.line, tok.column)
        i += 1
        if tok.kind == "STRING":
            kind: NodeKind = Terminal(tok.text)
        elif tok.kind == "NAME":
            mark = tokens[i].text if tokens[i].kind == "PUNCT" else ""
            if mark == "(":
                if tokens[i + 1].text == ")" and tokens[i + 1].kind == "PUNCT":
                    raise ParseError("empty child list", tok.line, tok.column)
                stack.append((Interior(tok.text), []))
                i += 1
                continue
            if mark == "!":
                kind = SubstitutionSlot(tok.text)
                i += 1
            elif mark == "*":
                kind = Foot(tok.text)
                feet.append(tok)
                i += 1
            else:
                kind = Interior(tok.text)
        else:
            raise ParseError("expected a node symbol or quoted terminal", tok.line, tok.column)
        node = TreeNode(kind)
        while stack:
            stack[-1][1].append(node)
            if tokens[i].text != ")" or tokens[i].kind != "PUNCT":
                break
            i += 1
            symbol, children = stack.pop()
            node = TreeNode(symbol, tuple(children))
        else:
            break
    if not isinstance(node.kind, Interior):
        raise cur.error("root node must be an interior node")
    if len(feet) > 1:
        raise ParseError("tree has more than one foot node", feet[1].line, feet[1].column)
    cur.pos = i
    return SyntaxTree(node)


def parse_tree(text: str) -> SyntaxTree:
    cur = Cursor(lex(text))
    tree = parse_tree_tokens(cur)
    if cur.peek().kind != "EOF":
        raise cur.error("trailing input after tree")
    return tree
