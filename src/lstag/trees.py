"""Gorn-addressed syntax trees and the two TAG composition operations.

A tree is an immutable nested node; each node holds its kind, its children
and the elementary site (`SiteRef`) it came from.  Substitution replaces a
slot leaf with an initial tree; adjunction splices an auxiliary tree into an
interior node, replanting the detached subtree at the foot.  Both copy only
the path from the root to the site and share every other subtree.  They
never stamp: a caller that names the guest instance stamps its tree with
its elementary sites first (`owned_by`), so a derived tree carries its own
provenance.  Stamping reads a plan cached on the tree it stamps (each
node's row with its address, in reverse preorder), and a stamped node
copies its source's kind, slot count and foot index, so stamping a grammar
tree again builds only the sites and the nodes.  A site (`SiteRef`) hashes
once, when it is built, as its address does.  Adjunction marks the node it
replants `adjoined` and path copies keep the mark, so a tree tells which
nodes host an adjunction.
`check_substitution` and `check_adjunction` hold the rules a composition
checks, and `fill_slot` and `splice` graft without checking.  All four take
the row of the host's site, which the caller locates once (below), and
build its address only to report a failure.  None recurses on tree depth.
The composition rule is written once, as two tables every composer reads:
`OPERATION` maps a node kind to the operation it hosts, and `RULE` maps an
operation to its (check, graft) pair; `site_operation` reads `OPERATION` at
two linked sites, as a synchronous step composes at both.

Addresses are not stored.  `nodes()` walks nodes alone (yield, size,
equality and hashing need no more).  `rows()` is the one walk with
positions: each node's row holds its parent's row, its child index and the
node, and holds no address.  `row_address` builds a row's `GornAddress`
up its parent rows, in O(depth), only for a node whose address a caller
reads.  Every positional view but the foot's reads `rows()`; the views
read again are cached per tree: `by_site`, which maps a site to its row for
`locate` (read by `shared_substitute`, `lstag derive` and the
`DerivedStructure` address views; `lstag_compose` calls `row_at`, and the
enumerator walks to the nodes it uses instead), and the address tables
`entries`, `frontier`, `slot_addresses` and `foot_address`.  No walk
searches for the foot: each node records which child leads to it
(`TreeNode.foot`, set with `slots` when the node is built), and `foot_row`
follows those indexes down from the root in O(depth), as `row_at` walks
down from the root to an address's row.

Parsing builds each distinct leaf node once per document: `parse_tree_tokens`
reads a leaf (`NP!`, `S*`, `NP`, `"x"`) and an open node's `Interior` kind
off its cursor's memo, so the trees of one grammar file share their leaves,
and a pair whose two sides repeat a tree shares them across the sides.
Interior nodes are built afresh.  Sharing is safe: a parsed node never
changes, equality and hashing read shapes, and a walk tells two places of
one node apart by their rows.  So a derived tree, whether `owned_by`
stamped its parts anew or `tag.replay` kept elementary subtrees as they
are, reads as it would without the sharing.

Nothing the engine builds holds a reference cycle (derived and derivation
trees are trees, a link-sharing derivation graph is a DAG), so reference
counting frees it all.  `no_cycles` wraps the bulk builders
(`parse_grammar`, `enumerate_derivations`, `replay`, `cli.main`): the
cyclic collector is off for the call, so it does not scan what the call
builds, and is back on when it returns or raises; a call made with the
collector already off leaves it off.  The switch is process-wide, so a call
in one thread also pauses the collector for the others while it runs.
"""

from __future__ import annotations

import enum
import gc
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterator, Mapping, Sequence

from ._lex import NAME_START, Cursor, lex, string_value
from .errors import (
    AddressNotFound,
    ClassMismatch,
    IncompleteTree,
    NotASlot,
    NotInterior,
    OperationMismatch,
    SymbolMismatch,
)
from .gorn import GornAddress


def no_cycles(fn: Callable) -> Callable:
    """`fn` run with the cyclic collector off, and the collector's state restored on return or error."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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


_set = object.__setattr__  # sets a field of a frozen value


class _Hashed:
    """The slot of a site's hash, set when the site is built."""

    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True)
class SiteRef(_Hashed):
    """A node named by its owning elementary instance and original address.

    Link groups, fragment parents, derivation records and the enumerator's
    tables are keyed by sites, so a site hashes once, when it is built, to
    the value a dataclass hash gives (`hash((owner, addr))`), and equality
    takes an identity fast path.  The hash lives in a slot, and pickling
    rebuilds a site through its constructor.
    """

    owner: str
    addr: GornAddress

    def __init__(self, owner: str, addr: GornAddress):
        """Sets the slots directly: a stamp builds a site for every node it makes."""
        _set(self, "owner", owner)
        _set(self, "addr", addr)
        _set(self, "_hash", hash((owner, addr)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.owner == other.owner and self.addr == other.addr  # type: ignore

    def __str__(self) -> str:
        return f"{self.owner}@{self.addr}"

    def __reduce__(self):
        return SiteRef, (self.owner, self.addr)


class TreeNode:
    """A node: its kind, its children and the elementary site it came from.

    `site` is None on parsed trees.  `adjoined` is True on the node an
    adjunction replanted under its auxiliary's foot: that elementary node
    hosts an adjunction and takes no other.  Parsed and stamped trees are
    unmarked.  Tree equality and hashing ignore both `site` and `adjoined`.
    `slots` counts the substitution slots at or below the node.  `foot` is
    the 1-based index of the first child whose subtree holds a foot, -1 on
    a foot leaf and 0 where no foot lies at or below the node.  Nodes never
    change, so trees share them freely: the trees parsed from one document
    share each distinct leaf, and compositions share every subtree they do
    not copy.
    """

    __slots__ = ("kind", "children", "site", "adjoined", "slots", "foot")

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
        if children:
            slots = foot = k = 0
            for child in children:
                k += 1
                slots += child.slots
                if child.foot and not foot:
                    foot = k
        else:
            slots, foot = int(isinstance(kind, SubstitutionSlot)), -1 if isinstance(kind, Foot) else 0
        self.slots = slots
        self.foot = foot


Row = tuple["Row | None", int, TreeNode]
"""A node's place in a walk: (its parent's row, its child index, the node); the root's row is (None, 0, root)."""


def row_address(row: Row) -> GornAddress:
    """The address of a row's node, read off its parent rows in O(depth)."""
    parts = []
    while row[0] is not None:
        parts.append(row[1])
        row = row[0]
    return GornAddress._of(tuple(reversed(parts)))


def _from_preorder(rows: Sequence[tuple[int, NodeKind, SiteRef | None]]) -> TreeNode:
    """Build the nodes listed as (depth, kind, site) rows in preorder.

    In reverse preorder a node's children are built before it: they are the
    deeper nodes on top of `done`, the first child on top.
    """
    done: list[tuple[int, TreeNode]] = []
    for depth, kind, site in reversed(rows):
        kids = []
        while done and done[-1][0] > depth:
            kids.append(done.pop()[1])
        done.append((depth, TreeNode(kind, tuple(kids), site)))
    return done[0][1]


def _foot_row(root: TreeNode) -> Row | None:
    """The row of the first foot in preorder below `root`, followed down the nodes' `foot` indexes."""
    row: Row = (None, 0, root)
    k = root.foot
    if not k:
        return None
    while k > 0:
        node = row[2].children[k - 1]
        row = (row, k, node)
        k = node.foot
    return row


def _replaced(row: Row, new: TreeNode) -> TreeNode:
    """`row`'s tree rebuilt up its parent rows with `new` in its place; the copies keep their sites and marks."""
    parent, k, _ = row
    while parent is not None:
        node = parent[2]
        kids = node.children
        new = TreeNode(node.kind, kids[: k - 1] + (new,) + kids[k:], node.site, node.adjoined)
        parent, k, _ = parent
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
        for parts in order[1:]:
            parent, k = parts[:-1], parts[-1]
            if parent not in kinds:
                raise ValueError(f"address set not prefix-closed at {GornAddress._of(parts)}")
            if not isinstance(kinds[parent], Interior):
                raise ValueError(f"non-interior node {GornAddress._of(parent)} has a child")
            if k > 1 and parent + (k - 1,) not in kinds:
                missing = GornAddress._of(parent + (k - 1,))
                raise ValueError(f"missing sibling {missing} before {GornAddress._of(parts)}")
        return cls(_from_preorder([(len(p), kinds[p], None) for p in order]))

    def owned_by(self, owner: str) -> "SyntaxTree":
        """This tree with every node's site set to `SiteRef(owner, its address)`, and no node marked `adjoined`.

        Stamping reads the plan cached on the tree, so stamping a grammar tree
        again builds only the sites and the nodes.  In reverse preorder a
        node's children are stamped before it: they are the last ones on
        `done`, the first child last.  A stamped node copies its source's
        `kind`, `slots` and `foot`, which stamping its children does not change.
        The stamped tree's `foot_row` is filled here, followed down those
        `foot` indexes, so no read of it takes the cached property's lock.
        """
        done: list[TreeNode] = []
        for row, addr in self._stamp_plan:
            source = row[2]
            node = object.__new__(TreeNode)
            node.kind, node.site, node.adjoined = source.kind, SiteRef(owner, addr), False
            node.slots, node.foot = source.slots, source.foot
            n = len(source.children)
            if n:
                node.children = tuple(done[: -n - 1 : -1])
                del done[-n:]
            else:
                node.children = ()
            done.append(node)
        stamped = SyntaxTree(done[0])
        stamped.__dict__["foot_row"] = _foot_row(done[0])
        return stamped

    @cached_property
    def _stamp_plan(self) -> tuple[tuple[Row, GornAddress], ...]:
        """Each node's row with its address, in reverse preorder: what `owned_by` reads."""
        return tuple(zip(self.rows(), self.addresses()))[::-1]

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

    def rows(self) -> Iterator[Row]:
        """Each node's row in preorder, which is Gorn order; a row is built once and holds no address."""
        stack: list[Row] = [(None, 0, self.root)]
        pop, push = stack.pop, stack.append
        while stack:
            row = pop()
            yield row
            kids = row[2].children
            k = len(kids)
            while k:
                push((row, k, kids[k - 1]))
                k -= 1

    @cached_property
    def entries(self) -> tuple[tuple[GornAddress, NodeKind], ...]:
        """The (address, kind) table in Gorn order."""
        return tuple((row_address(row), row[2].kind) for row in self.rows())

    def row_at(self, addr: GornAddress) -> Row:
        """The row of the node at `addr`, built down from the root."""
        row: Row = (None, 0, self.root)
        for k in addr.parts:
            kids = row[2].children
            if k > len(kids):
                raise AddressNotFound(f"no node at address {addr}")
            row = (row, k, kids[k - 1])
        return row

    def node(self, addr: GornAddress) -> TreeNode:
        """The node at `addr`: its kind, children and elementary site."""
        return self.row_at(addr)[2]

    def node_at(self, addr: GornAddress) -> NodeKind:
        return self.node(addr).kind

    @cached_property
    def by_site(self) -> dict[SiteRef | None, Row]:
        """The row of the node each site names, the last in preorder where several share one."""
        return {row[2].site: row for row in self.rows()}

    def locate(self, site: SiteRef) -> Row:
        """The row of the node that carries `site`, read off `by_site`."""
        try:
            return self.by_site[site]
        except KeyError:
            raise AddressNotFound(f"no node carries {site}") from None

    def has_address(self, addr: GornAddress) -> bool:
        try:
            self.node(addr)
        except AddressNotFound:
            return False
        return True

    def addresses(self) -> tuple[GornAddress, ...]:
        return tuple(a for a, _ in self.entries)

    def items(self) -> tuple[tuple[GornAddress, NodeKind], ...]:
        return self.entries

    @cached_property
    def frontier(self) -> tuple[GornAddress, ...]:
        """Leaf addresses in left-to-right order."""
        return tuple(row_address(row) for row in self.rows() if not row[2].children)

    @cached_property
    def foot_row(self) -> Row | None:
        """The row of the first foot in preorder, followed down the nodes' `foot` indexes in O(depth)."""
        return _foot_row(self.root)

    @cached_property
    def foot_address(self) -> GornAddress | None:
        return None if self.foot_row is None else row_address(self.foot_row)

    @cached_property
    def slot_addresses(self) -> tuple[GornAddress, ...]:
        return tuple(row_address(row) for row in self.rows() if isinstance(row[2].kind, SubstitutionSlot))

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
    foot = tree.foot_row
    if foot is None:
        return TreeClass.INITIAL
    foot_symbol = foot[2].kind.symbol  # type: ignore[union-attr]
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


def check_substitution(row: Row, filler: SyntaxTree) -> None:
    """Raise what substituting `filler` at the node of `row` raises."""
    kind = row[2].kind
    if not isinstance(kind, SubstitutionSlot):
        raise NotASlot(f"node at {row_address(row)} is {kind}, not a substitution slot")
    if classify(filler) is not TreeClass.INITIAL:
        raise ClassMismatch("only initial trees substitute")
    if filler.root_symbol != kind.symbol:
        raise SymbolMismatch(
            f"slot expects {kind.symbol!r} but filler root is {filler.root_symbol!r}"
        )


def check_adjunction(row: Row, aux: SyntaxTree) -> None:
    """Raise what adjoining `aux` at the node of `row` raises."""
    kind = row[2].kind
    if not isinstance(kind, Interior):
        raise NotInterior(f"node at {row_address(row)} is {kind}, not an interior node")
    if classify(aux) is not TreeClass.AUXILIARY:
        raise ClassMismatch("only auxiliary trees adjoin")
    if aux.root_symbol != kind.symbol:
        raise SymbolMismatch(
            f"adjunction site is {kind.symbol!r} but auxiliary root is {aux.root_symbol!r}"
        )


def fill_slot(row: Row, filler: SyntaxTree) -> SyntaxTree:
    """The tree of `row` with `filler` at its node, unchecked: the caller ensured what `check_substitution` checks."""
    return SyntaxTree(_replaced(row, filler.root))


def splice(row: Row, aux: SyntaxTree) -> SyntaxTree:
    """The tree of `row` with `aux` adjoined at its node, unchecked: the caller ensured `check_adjunction`'s rules.

    The detached subtree, sites and all, replaces the auxiliary's foot, and
    its root is marked `adjoined`.
    """
    host = row[2]
    marked = TreeNode(host.kind, host.children, host.site, True)
    return SyntaxTree(_replaced(row, _replaced(aux.foot_row, marked)))  # type: ignore[arg-type]


OPERATION: dict[type, str] = {SubstitutionSlot: "substitution", Interior: "adjunction"}
"""The operation a node of each kind hosts; a foot or a terminal hosts none."""

RULE: dict[str, tuple[Callable[[Row, SyntaxTree], None], Callable[[Row, SyntaxTree], SyntaxTree]]] = {
    "substitution": (check_substitution, fill_slot),
    "adjunction": (check_adjunction, splice),
}
"""Each operation's (check, graft): the check raises what composing there raises, the graft cannot fail."""


def site_operation(left: Row, right: Row) -> str:
    """The operation two linked sites host: two slots substitute, two interior nodes adjoin."""
    left_kind, right_kind = left[2].kind, right[2].kind
    operation = OPERATION.get(type(left_kind))
    if operation is None or operation != OPERATION.get(type(right_kind)):
        raise OperationMismatch(
            f"left site {row_address(left)} is {left_kind} while right site {row_address(right)} is {right_kind}; "
            "both sides must substitute or both must adjoin"
        )
    return operation


def substitute_with_maps(target: SyntaxTree, addr: GornAddress, filler: SyntaxTree) -> ComposeResult:
    """Fill the slot at `addr`."""
    row = target.row_at(addr)
    check_substitution(row, filler)
    return ComposeResult(fill_slot(row, filler), lambda a: a)


def adjoin_with_maps(target: SyntaxTree, addr: GornAddress, aux: SyntaxTree) -> ComposeResult:
    """Splice `aux` in at `addr`; the detached subtree, sites and all, replaces its foot."""
    row = target.row_at(addr)
    check_adjunction(row, aux)
    foot = aux.foot_address
    assert foot is not None
    return ComposeResult(splice(row, aux), lambda a: rebase_address(a, addr, foot))


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
    stack = [tree.root]
    pop, extend = stack.pop, stack.extend
    while stack:
        node = pop()
        kids = node.children
        if kids:  # an interior node is spelled out by its leaves
            extend(kids[::-1])
            continue
        kind = node.kind
        if isinstance(kind, Terminal):
            out.append(kind.token)
        elif isinstance(kind, Interior):  # a childless one spells nothing
            continue
        elif partial:
            out.append(f"⟨{kind.symbol}↓⟩" if isinstance(kind, SubstitutionSlot) else f"⟨{kind.symbol}*⟩")
        else:
            what = "substitution slot" if isinstance(kind, SubstitutionSlot) else "foot node"
            row = next(row for row in tree.rows() if row[2] is node)  # the node's first place
            raise IncompleteTree(f"{what} remains at {row_address(row)}")
    return tuple(out)


def yield_string(tree: SyntaxTree, partial: bool = False) -> str:
    return " ".join(yield_tokens(tree, partial=partial))


def _quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_tree(tree: SyntaxTree) -> str:
    """Canonical bracketed text: `S(NP! VP(V("cooked") NP!))`."""
    out: list[str] = []
    path: list[Row] = []  # the rows from the root to the last node; in preorder a node's parent is on it
    for row in tree.rows():
        # Close the lists of the last node's ancestors that do not contain this one.
        closed = 0
        while path and path[-1] is not row[0]:
            path.pop()
            closed += 1
        if closed:
            out.append(")" * (closed - 1) + " ")
        path.append(row)
        node = row[2]
        kind = node.kind
        if isinstance(kind, Terminal):
            out.append(_quote(kind.token))
        elif isinstance(kind, SubstitutionSlot):
            out.append(kind.symbol + "!")
        elif isinstance(kind, Foot):
            out.append(kind.symbol + "*")
        else:
            out.append(kind.symbol + ("(" if node.children else ""))
    return "".join(out) + ")" * (len(path) - 1)


def _leaf_kind(key: str, interiors: dict[str, Interior]) -> NodeKind:
    """The kind of the leaf written `key`: a quoted terminal, or a symbol with its `!` or `*` mark or none."""
    if key[0] == '"':
        return Terminal(string_value(key))
    if key[-1] == "!":
        return SubstitutionSlot(key[:-1])
    if key[-1] == "*":
        return Foot(key[:-1])
    kind = interiors.get(key)
    if kind is None:
        kind = interiors[key] = Interior(key)
    return kind


def parse_tree_tokens(cur: Cursor) -> SyntaxTree:
    """Parse one bracketed tree from `cur.texts` at `cur.pos`; leave `cur.pos` just past it.

    Each open interior node waits on `stack` with the children built so
    far, and a `)` builds it and hands it on to the node below.  A leaf and
    an open node's `Interior` kind are read off the cursor's memos (see
    `Cursor`) and built, a STRING unescaped, only the first time the cursor
    meets them.  A non-interior root is reported at its token, a second
    foot at its own.
    """
    texts, i = cur.texts, cur.pos
    leaves, interiors = cur.leaves, cur.interiors
    stack: list[tuple[Interior, list[TreeNode]]] = []
    feet: list[int] = []  # the token index of each foot
    while True:
        tok = texts[i]
        if stack and not tok:
            raise cur.error("unterminated tree, expected ')'", i)
        i += 1
        first = tok[:1]
        if first in NAME_START:
            mark = texts[i]
            if mark == "(":
                if texts[i + 1] == ")":
                    raise cur.error("empty child list", i - 1)
                kind = interiors.get(tok)
                if kind is None:
                    kind = interiors[tok] = Interior(tok)
                stack.append((kind, []))
                i += 1
                continue
            if mark == "!" or mark == "*":
                if mark == "*":
                    feet.append(i - 1)
                key = tok + mark
                i += 1
            else:
                key = tok
        elif first == '"':
            key = tok
        else:
            raise cur.error("expected a node symbol or quoted terminal", i - 1)
        node = leaves.get(key)
        if node is None:
            node = leaves[key] = TreeNode(_leaf_kind(key, interiors))
        while stack:
            stack[-1][1].append(node)
            if texts[i] != ")":
                break
            i += 1
            symbol, children = stack.pop()
            node = TreeNode(symbol, tuple(children))
        else:
            break
    if not isinstance(node.kind, Interior):
        raise cur.error("root node must be an interior node")
    if len(feet) > 1:
        raise cur.error("tree has more than one foot node", feet[1])
    cur.pos = i
    return SyntaxTree(node)


def parse_tree(text: str) -> SyntaxTree:
    cur = Cursor(text, lex(text))
    tree = parse_tree_tokens(cur)
    if cur.peek():
        raise cur.error("trailing input after tree")
    return tree
