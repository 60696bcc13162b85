"""Reference composition over flat address tables.

This is tree composition as it was before trees carried their provenance on
the node: substitution and adjunction rebuild the whole (address, kind)
table, sending every host address through `rebase_address`, and report
where each surviving host and guest address ended up.  `updated_prov` keeps
a separate provenance table, address -> `SiteRef`, up to date from those
lists.  The library's path-copying composition must agree with this on the
tree, on `host_map` and on the `SiteRef` of every node; `test_properties.py`
checks that, and `reference_search.py` builds its plain TAG states with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from lstag import (
    ClassMismatch,
    GornAddress,
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
