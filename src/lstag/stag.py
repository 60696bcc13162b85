"""Synchronous tree pairs: linked composition that consumes one link member.

A pair carries two trees and an ordered set of links between their node
addresses.  Composing a guest pair at link member i performs the same
operation (substitution or adjunction) on both sides at the member's two
addresses.  Every other host link and every guest link is inherited, with
surviving endpoints rebased through the composition's `host_map` (links
here are addresses by definition; `sharing` names them by elementary
site); the consumed member itself never reappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import LinkNotFound, OperationMismatch, UnknownTree
from .gorn import GornAddress
from .trees import (
    Interior,
    SubstitutionSlot,
    SyntaxTree,
    substitute_with_maps,
    adjoin_with_maps,
)


@dataclass(frozen=True)
class Link:
    left: GornAddress
    right: GornAddress

    def __str__(self) -> str:
        return f"{self.left}~{self.right}"

    @property
    def is_reflexive(self) -> bool:
        return self.left == self.right


@dataclass(frozen=True)
class StagPair:
    name: str
    left_tree: SyntaxTree
    right_tree: SyntaxTree
    links: tuple[Link, ...] = ()

    def __post_init__(self):
        for link in self.links:
            if not self.left_tree.has_address(link.left):
                raise ValueError(f"link endpoint {link.left} missing from left tree of {self.name!r}")
            if not self.right_tree.has_address(link.right):
                raise ValueError(f"link endpoint {link.right} missing from right tree of {self.name!r}")


@dataclass(frozen=True)
class StagGrammar:
    pairs: tuple[tuple[str, StagPair], ...]

    def __post_init__(self):
        names = [n for n, _ in self.pairs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate pair names")

    @cached_property
    def _by_name(self) -> dict[str, StagPair]:
        return dict(self.pairs)

    def get(self, name: str) -> StagPair:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTree(f"no pair named {name!r}") from None


def stag_compose(host: StagPair, member_index: int, guest: StagPair) -> StagPair:
    """Compose `guest` into `host` at link member `member_index` (0-based)."""
    if not 0 <= member_index < len(host.links):
        raise LinkNotFound(f"{host.name!r} has no link member {member_index}")
    member = host.links[member_index]
    left_kind = host.left_tree.node_at(member.left)
    right_kind = host.right_tree.node_at(member.right)
    if isinstance(left_kind, SubstitutionSlot) and isinstance(right_kind, SubstitutionSlot):
        left_res = substitute_with_maps(host.left_tree, member.left, guest.left_tree)
        right_res = substitute_with_maps(host.right_tree, member.right, guest.right_tree)
    elif isinstance(left_kind, Interior) and isinstance(right_kind, Interior):
        left_res = adjoin_with_maps(host.left_tree, member.left, guest.left_tree)
        right_res = adjoin_with_maps(host.right_tree, member.right, guest.right_tree)
    else:
        raise OperationMismatch(
            f"link member {member} joins {left_kind} with {right_kind}; "
            "both sides must substitute or both must adjoin"
        )
    links = [
        Link(left_res.host_map(l.left), right_res.host_map(l.right))
        for i, l in enumerate(host.links)
        if i != member_index
    ]
    links.extend(
        Link(member.left.extend(l.left), member.right.extend(l.right)) for l in guest.links
    )
    return StagPair(
        f"{host.name}+{guest.name}",
        left_res.tree,
        right_res.tree,
        tuple(links),
    )
