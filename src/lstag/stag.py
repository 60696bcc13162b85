"""Synchronous tree pairs: linked composition that consumes one link member.

A pair carries two trees and an ordered set of links between their node
addresses.  Composing a guest pair at link member i performs the same
operation (substitution or adjunction) on both sides at the member's two
addresses.  The two sites are located once, as rows; `trees.site_operation`
names their operation, and `trees.RULE` checks and grafts it.  Every other
host link and every guest link is inherited; after an adjunction the
surviving endpoints are moved under the foot by `trees.rebase_address`
(links here are addresses by definition; `sharing` names them by elementary
site).  The consumed member itself never reappears.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LinkNotFound
from .gorn import GornAddress
from .trees import RULE, SyntaxTree, rebase_address, site_operation


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


def stag_compose(host: StagPair, member_index: int, guest: StagPair) -> StagPair:
    """Compose `guest` into `host` at link member `member_index` (0-based)."""
    if not 0 <= member_index < len(host.links):
        raise LinkNotFound(f"{host.name!r} has no link member {member_index}")
    member = host.links[member_index]
    left, right = host.left_tree.row_at(member.left), host.right_tree.row_at(member.right)
    operation = site_operation(left, right)
    check, graft = RULE[operation]
    check(left, guest.left_tree)
    check(right, guest.right_tree)
    links = [l for i, l in enumerate(host.links) if i != member_index]
    if operation == "adjunction":  # endpoints at or below the site move under the foot
        feet = guest.left_tree.foot_address, guest.right_tree.foot_address
        links = [
            Link(rebase_address(l.left, member.left, feet[0]), rebase_address(l.right, member.right, feet[1]))
            for l in links
        ]
    links.extend(Link(member.left.extend(l.left), member.right.extend(l.right)) for l in guest.links)
    return StagPair(
        f"{host.name}+{guest.name}", graft(left, guest.left_tree), graft(right, guest.right_tree), tuple(links)
    )
