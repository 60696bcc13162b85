"""Reference composition over flat address tables.

This is tree composition as it was before trees carried their provenance on
the node: substitution and adjunction rebuild the whole (address, kind)
table, sending every host address through `rebase_address`, and report
where each surviving host and guest address ended up.  `updated_prov` keeps
a separate provenance table, address -> `SiteRef`, up to date from those
lists.  The library's path-copying composition must agree with this on the
tree, on `host_map` and on the `SiteRef` of every node; `test_properties.py`
checks that, and `reference_search.py` builds its plain TAG states with it.

`replay` composes a derivation the same way, carrying each edge address
through the host maps of the compositions before it, and `LinkBook` keeps
link-sharing groups and fragment parents as derived addresses rebased on
every adjunction.  The library composes a node's edges in reverse address
order and names groups and parents by elementary site; `test_properties.py`
checks that both give the same results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from lstag import (
    CardinalityViolation,
    ClassMismatch,
    GornAddress,
    GroupNotLive,
    Interior,
    NotASlot,
    NotInterior,
    SiteRef,
    SubstitutionSlot,
    SymbolMismatch,
    SyntaxTree,
    TreeClass,
    classify,
    rebase_address,
)
from lstag.trees import OPERATION, RULE


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
    nodes = {a: k for a, k in target.items() if a != addr}
    placed = tuple((p, addr.extend(p)) for p, _ in filler.items())
    nodes.update({addr.extend(p): k for p, k in filler.items()})
    moved = tuple((a, a) for a, _ in target.items() if a != addr)
    return ComposeResult(SyntaxTree.from_nodes(nodes), lambda a: a, placed, moved)


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
    nodes = {}
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
        SyntaxTree.from_nodes(nodes),
        lambda a: rebase_address(a, addr, foot),
        tuple(placed),
        tuple(moved),
    )


def replay(grammar, d) -> SyntaxTree:
    """Replay composing each node's edges in address order.

    Every site is first carried through the host maps of the compositions
    before it.
    """
    result, host_maps = grammar.get(d.root).tree, []
    for addr, child in d.edges:
        site = addr
        for host_map in host_maps:
            site = host_map(site)
        slot = isinstance(result.node_at(site), SubstitutionSlot)
        res = (substitute_with_maps if slot else adjoin_with_maps)(result, site, replay(grammar, child))
        result = res.tree
        host_maps.append(res.host_map)
    return result


def initial_prov(tree: SyntaxTree, owner: str) -> tuple[tuple[GornAddress, SiteRef], ...]:
    """The provenance table of an elementary tree that `owner` instantiates."""
    return tuple((a, SiteRef(owner, a)) for a in tree.addresses())


def updated_prov(
    prov: dict[GornAddress, SiteRef],
    moved: Iterable[tuple[GornAddress, GornAddress]],
    placed: Iterable[tuple[GornAddress, GornAddress]],
    guest_id: str,
) -> tuple[tuple[GornAddress, SiteRef], ...]:
    new: dict[GornAddress, SiteRef] = {}
    for old, moved_to in moved:
        new[moved_to] = prov[old]
    for orig, placed_at in placed:
        new[placed_at] = SiteRef(guest_id, orig)
    return tuple(sorted(new.items(), key=lambda kv: kv[0]))


# --- replay by bottom-up grafts -----------------------------------------------------


def graft_replay(grammar, d) -> SyntaxTree:
    """`tag.replay` as it was before it built the derived tree top down, in one pass, for a valid `d`.

    Bottom-up: children are rebuilt first, then attached at each edge's
    row by the graft `trees.RULE` pairs with the operation its node hosts.
    A parent's edges are composed in reverse address order, so no
    composition moves a site still to come.  Each graft copies the path
    from the root to its site, and an adjunction also the auxiliary's path
    to its foot, so the nodes, their marks, slot counts, foot indexes and
    sites are what a splice leaves.
    """
    order = [d]  # parents before children
    for node in order:
        order.extend(child for _, child in node.edges)
    built: dict[int, SyntaxTree] = {}
    for node in reversed(order):
        result = grammar.get(node.root).tree
        for addr, child in reversed(node.edges):  # each composition moves only its own subtree
            row = result.row_at(addr)
            result = RULE[OPERATION[type(row[2].kind)]][1](row, built[id(child)])
        built[id(node)] = result
    return built[id(d)]


# --- link groups and fragment parents as derived addresses ------------------------


@dataclass(frozen=True)
class LinkBook:
    """Live link groups and fragment parents of a structure, as derived addresses.

    Every adjunction sends each surviving group endpoint and fragment parent
    through the host map.  `groups` holds
    (left address, right addresses) per live group and `parents` the parent
    addresses per fragment, both in the structure's order.
    """

    groups: tuple[tuple[GornAddress, tuple[GornAddress, ...]], ...]
    parents: tuple[tuple[GornAddress, ...], ...]


def book_of(pair) -> LinkBook:
    """The book of the one-pair structure `pair` starts."""
    return LinkBook(tuple((link.left, (link.right,)) for link in pair.delta), ())


def book_after_compose(book: LinkBook, left_tree: SyntaxTree, left_site, right_site, guest) -> LinkBook:
    """The book after `lstag_compose` at these sites, given the host's left tree.

    Raises `NotASlot`, `GroupNotLive` and `CardinalityViolation` where
    `lstag_compose` must.
    """
    live = list(book.groups)
    if isinstance(left_tree.node_at(left_site), SubstitutionSlot):
        if any(right_site in parents for parents in book.parents):
            raise NotASlot(f"right slot at {right_site} is already filled by a shared fragment")
        touching = [g for g in live if g[0] == left_site or right_site in g[1]]
        if touching:
            if touching != [(left_site, (right_site,))]:
                raise GroupNotLive("substitution at a shared link group")
            live.remove(touching[0])
        left_map = right_map = lambda a: a
    else:
        left_foot, right_foot = guest.left_tree.foot_address, guest.right_tree.foot_address
        left_map = lambda a: rebase_address(a, left_site, left_foot)
        right_map = lambda a: rebase_address(a, right_site, right_foot)
    groups = [(left_map(left), tuple(right_map(a) for a in rights)) for left, rights in live]
    if len(groups) < len(guest.phi):
        raise CardinalityViolation("guest carries more phi links than the host offers groups")
    for i, link in enumerate(guest.phi):
        left, rights = groups[i]
        groups[i] = (left, rights + (right_site.extend(link.right),))
    groups += [(left_site.extend(link.left), (right_site.extend(link.right),)) for link in guest.delta]
    parents = tuple(tuple(right_map(a) for a in fragment) for fragment in book.parents)
    return LinkBook(tuple(groups), parents)


def book_after_shared(book: LinkBook, index: int) -> LinkBook:
    """The book after a shared substitution fills the multi-site group at `index`.

    The group leaves the live set together with any copy of it.
    """
    group = book.groups[index]
    groups = tuple(g for g in book.groups if g != group)
    return LinkBook(groups, book.parents + (group[1],))
