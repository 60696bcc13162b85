"""Link-sharing tree pairs and the derived structures they compose into.

Each pair carries two ordered link sets: delta links join a left address to
a right address and mark where arguments attach on both sides; phi links
are reflexive right-side links that a guest spends, all at once, when it
composes into a host.  Sharing pairs the host's live link groups with the
guest's phi links positionally (the canonical order is list order) and
extends each matched group with the guest's corresponding right address.
A group tying one left slot to several right slots is then filled by a
single shared substitution, which plants one right-side instance under
every linked parent and turns the right derivation into a DAG.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence, Union

from .errors import (
    CardinalityViolation,
    ClassMismatch,
    Diagnostic,
    DuplicateAdjunction,
    GroupNotLive,
    InconsistentHistory,
    NotASlot,
    OperationMismatch,
    SymbolMismatch,
    UnknownTree,
    UnsupportedGuestLinks,
)
from .gorn import GornAddress
from .stag import Link
from .tag import DerivationTree
from .trees import (
    Interior,
    SiteRef,
    SubstitutionSlot,
    SyntaxTree,
    TreeClass,
    classify,
    substitute_with_maps,
    adjoin_with_maps,
    yield_tokens,
)


@dataclass(frozen=True)
class LstagPair:
    """A left/right tree pair with ordered delta and phi link lists.

    Construction is deliberately lenient about link well-formedness so that
    `validate_pair` can report problems as diagnostics; composition assumes
    a validated pair.
    """

    name: str
    left_tree: SyntaxTree
    right_tree: SyntaxTree
    delta: tuple[Link, ...] = ()
    phi: tuple[Link, ...] = ()


def validate_pair(p: LstagPair) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for link in p.delta:
        if not p.left_tree.has_address(link.left):
            diags.append(
                Diagnostic("AddressNotFound", f"delta endpoint {link.left} missing from left tree", p.name)
            )
        if not p.right_tree.has_address(link.right):
            diags.append(
                Diagnostic("AddressNotFound", f"delta endpoint {link.right} missing from right tree", p.name)
            )
    for link in p.phi:
        if not link.is_reflexive:
            diags.append(Diagnostic("NotReflexive", f"phi link {link} is not reflexive", p.name))
        for end in {link.left, link.right}:
            if not p.right_tree.has_address(end):
                diags.append(
                    Diagnostic("AddressNotFound", f"phi endpoint {end} missing from right tree", p.name)
                )
    overlap = set(p.delta) & set(p.phi)
    for link in sorted(overlap, key=str):
        diags.append(Diagnostic("NotDisjoint", f"link {link} appears in both delta and phi", p.name))
    return diags


@dataclass(frozen=True)
class LstagGrammar:
    pairs: tuple[tuple[str, LstagPair], ...]

    def __post_init__(self):
        names = [n for n, _ in self.pairs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate pair names")

    @cached_property
    def _by_name(self) -> dict[str, LstagPair]:
        return dict(self.pairs)

    def get(self, name: str) -> LstagPair:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTree(f"no pair named {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.pairs)


@dataclass(frozen=True)
class SharedLinkGroup:
    """One left address tied to one or more right addresses."""

    left_addr: GornAddress
    right_addrs: tuple[GornAddress, ...]

    def __post_init__(self):
        if not self.right_addrs:
            raise ValueError("a shared link group needs at least one right address")

    def __str__(self) -> str:
        rights = ", ".join(str(a) for a in self.right_addrs)
        return f"{self.left_addr} ~ [{rights}]"


@dataclass(frozen=True)
class DerivationRecord:
    operation: str  # "substitution" | "adjunction" | "shared-substitution"
    guest: str
    guest_id: str
    left_site: SiteRef
    right_sites: tuple[SiteRef, ...]

    @property
    def host(self) -> str:
        return self.left_site.owner

    def to_line(self) -> str:
        if not self.right_sites:
            return f"{self.operation} {self.guest_id}"
        rights = ", ".join(str(s) for s in self.right_sites)
        return f"{self.operation} {self.guest_id} right=[{rights}]"


@dataclass(frozen=True)
class Fragment:
    """A right-side subtree shared by several parents in the spine."""

    guest_id: str
    name: str
    tree: SyntaxTree
    parents: tuple[GornAddress, ...]

    @property
    def in_degree(self) -> int:
        return len(self.parents)


LinkOrGroup = Union[Link, SharedLinkGroup]


def link_share(
    delta: Sequence[LinkOrGroup],
    phi: Sequence[Link],
    rebase: Callable[[GornAddress], GornAddress],
) -> tuple[SharedLinkGroup, ...]:
    """Pair host link groups with guest phi links strictly by list position.

    The i-th group gains the i-th phi address, mapped into the composed
    right structure by `rebase`; trailing unmatched groups pass through.
    Phi is consumed entirely, which is why the host must offer at least as
    many groups as the guest has phi links.
    """
    groups = [
        g if isinstance(g, SharedLinkGroup) else SharedLinkGroup(g.left, (g.right,)) for g in delta
    ]
    if len(groups) < len(phi):
        raise CardinalityViolation(
            f"guest carries {len(phi)} phi links but the host offers only {len(groups)} link groups"
        )
    out = []
    for i, group in enumerate(groups):
        if i < len(phi):
            out.append(
                SharedLinkGroup(group.left_addr, group.right_addrs + (rebase(phi[i].right),))
            )
        else:
            out.append(group)
    return tuple(out)


@dataclass(frozen=True)
class DerivedStructure:
    """A left constituency tree plus a right structure that may share nodes.

    The right side is a spine tree with zero or more shared fragments, each
    attached below every slot address in its `parents`.  Every node of both
    trees carries the `SiteRef` (instance, original address) it came from,
    so derivation records and the one-adjunction-per-node rule survive
    address rebasing.
    """

    root: str
    left_tree: SyntaxTree
    right_spine: SyntaxTree
    fragments: tuple[Fragment, ...]
    live_links: tuple[SharedLinkGroup, ...]
    history: tuple[DerivationRecord, ...]

    @cached_property
    def adjoined_left(self) -> frozenset[SiteRef]:
        """Left elementary nodes that already host an adjunction."""
        return frozenset(r.left_site for r in self.history if r.operation == "adjunction")

    @cached_property
    def adjoined_right(self) -> frozenset[SiteRef]:
        """Right elementary nodes that already host an adjunction."""
        return frozenset(r.right_sites[0] for r in self.history if r.operation == "adjunction")

    @cached_property
    def fragment_parent_addrs(self) -> frozenset[GornAddress]:
        return frozenset(a for f in self.fragments for a in f.parents)

    def fragment_named(self, name: str) -> Fragment:
        for f in self.fragments:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def is_complete(self) -> bool:
        """No slot is open; the spine slots left are exactly the fragment parents."""
        return not (self.left_tree.root.slots or any(f.tree.root.slots for f in self.fragments)) and (
            self.right_spine.root.slots == len(self.fragment_parent_addrs)
        )

    def left_yield(self, partial: bool = False) -> tuple[str, ...]:
        return yield_tokens(self.left_tree, partial=partial)

    def projections(self) -> tuple[DerivationTree, "DerivationGraph"]:
        return derivation_projections(self.history, self.root)


def structure_from_pair(pair: LstagPair) -> DerivedStructure:
    """The one-pair structure a derivation starts from; both trees must be initial."""
    if any(classify(t) is not TreeClass.INITIAL for t in (pair.left_tree, pair.right_tree)):
        raise ClassMismatch(f"a derivation starts from an initial pair, and {pair.name!r} is not one")
    live = tuple(SharedLinkGroup(l.left, (l.right,)) for l in pair.delta)
    return DerivedStructure(
        root=pair.name,
        left_tree=pair.left_tree.owned_by(pair.name),
        right_spine=pair.right_tree.owned_by(pair.name),
        fragments=(),
        live_links=live,
        history=(),
    )


def as_structure(host: LstagPair | DerivedStructure) -> DerivedStructure:
    return host if isinstance(host, DerivedStructure) else structure_from_pair(host)


def guest_instance_id(left_ref: SiteRef, guest_name: str) -> str:
    return f"{left_ref.owner}/{left_ref.addr}:{guest_name}"


def _site_record(
    hs: DerivedStructure,
    operation: str,
    guest_name: str,
    left_site: GornAddress,
    right_sites: Sequence[GornAddress],
) -> DerivationRecord:
    left_ref = hs.left_tree.node(left_site).site
    right_refs = tuple(hs.right_spine.node(a).site for a in right_sites)
    return DerivationRecord(
        operation, guest_name, guest_instance_id(left_ref, guest_name), left_ref, right_refs
    )


def compose_record(
    hs: DerivedStructure, left_site: GornAddress, right_site: GornAddress, guest_name: str
) -> DerivationRecord:
    """The record `lstag_compose` appends for a guest named `guest_name` at these sites.

    The operation follows from the two sites' kinds; this raises what
    `lstag_compose` raises for sites that are missing or of different kinds.
    """
    left_kind = hs.left_tree.node_at(left_site)
    right_kind = hs.right_spine.node_at(right_site)
    if isinstance(left_kind, SubstitutionSlot) and isinstance(right_kind, SubstitutionSlot):
        operation = "substitution"
    elif isinstance(left_kind, Interior) and isinstance(right_kind, Interior):
        operation = "adjunction"
    else:
        raise OperationMismatch(
            f"left site {left_site} is {left_kind} while right site {right_site} is {right_kind}; "
            "both sides must substitute or both must adjoin"
        )
    return _site_record(hs, operation, guest_name, left_site, (right_site,))


def group_record(hs: DerivedStructure, group: SharedLinkGroup, guest_name: str) -> DerivationRecord:
    """The record `shared_substitute` appends when it fills `group` with that guest.

    Like `compose_record`, this raises for a site the structure lacks and,
    for a one-site group, for sites of different kinds.
    """
    if len(group.right_addrs) == 1:
        return compose_record(hs, group.left_addr, group.right_addrs[0], guest_name)
    return _site_record(hs, "shared-substitution", guest_name, group.left_addr, group.right_addrs)


def lstag_compose(
    host: LstagPair | DerivedStructure,
    left_site: GornAddress,
    right_site: GornAddress,
    guest: LstagPair,
) -> DerivedStructure:
    """One synchronized composition step: same operation on both sides.

    Adjunction rebases every surviving link endpoint through the foot path;
    substitution may consume a singleton link group whose two endpoints are
    exactly the chosen sites.  The guest's phi links are exhausted here by
    extending the host's remaining groups in order; its delta links join the
    live set as fresh singleton groups.
    """
    hs = as_structure(host)
    record = compose_record(hs, left_site, right_site, guest.name)

    live = list(hs.live_links)
    if record.operation == "substitution":
        if right_site in hs.fragment_parent_addrs:
            raise NotASlot(f"right slot at {right_site} is already filled by a shared fragment")
        touching = [
            g for g in live if g.left_addr == left_site or right_site in g.right_addrs
        ]
        if touching:
            only = touching[0]
            if (
                len(touching) != 1
                or only.left_addr != left_site
                or only.right_addrs != (right_site,)
            ):
                raise GroupNotLive(
                    "substitution at a shared link group must fill every linked site in one "
                    "operation; use shared_substitute"
                )
            live.remove(only)
        left_res = substitute_with_maps(hs.left_tree, left_site, guest.left_tree, record.guest_id)
        right_res = substitute_with_maps(hs.right_spine, right_site, guest.right_tree, record.guest_id)
    else:
        if record.left_site in hs.adjoined_left:
            raise DuplicateAdjunction(f"left node {record.left_site} already hosts an adjunction")
        if record.right_sites[0] in hs.adjoined_right:
            raise DuplicateAdjunction(f"right node {record.right_sites[0]} already hosts an adjunction")
        left_res = adjoin_with_maps(hs.left_tree, left_site, guest.left_tree, record.guest_id)
        right_res = adjoin_with_maps(hs.right_spine, right_site, guest.right_tree, record.guest_id)

    rebased = [
        SharedLinkGroup(
            left_res.host_map(g.left_addr),
            tuple(right_res.host_map(a) for a in g.right_addrs),
        )
        for g in live
    ]
    shared = link_share(rebased, guest.phi, rebase=right_site.extend)
    appended = tuple(
        SharedLinkGroup(left_site.extend(l.left), (right_site.extend(l.right),))
        for l in guest.delta
    )
    fragments = tuple(
        replace(f, parents=tuple(right_res.host_map(a) for a in f.parents))
        for f in hs.fragments
    )
    return DerivedStructure(
        root=hs.root,
        left_tree=left_res.tree,
        right_spine=right_res.tree,
        fragments=fragments,
        live_links=shared + appended,
        history=hs.history + (record,),
    )


def shared_substitute(
    host: LstagPair | DerivedStructure,
    group: SharedLinkGroup,
    guest: LstagPair,
) -> DerivedStructure:
    """Fill one link group with a single guest instance.

    With one right address this is an ordinary synchronized substitution.
    With several, the guest's right tree is attached once as a shared
    fragment below every linked slot, so the node's in-degree equals the
    number of shared sites.
    """
    hs = as_structure(host)
    if group not in hs.live_links:
        raise GroupNotLive(f"group {group} is not live in this structure")
    if len(group.right_addrs) == 1:
        return lstag_compose(hs, group.left_addr, group.right_addrs[0], guest)

    if guest.delta or guest.phi:
        raise UnsupportedGuestLinks(
            "a guest attached at several shared sites cannot carry links of its own"
        )
    if classify(guest.left_tree) is not TreeClass.INITIAL or classify(guest.right_tree) is not TreeClass.INITIAL:
        raise ClassMismatch("shared substitution requires initial guest trees")
    guest_id = guest_instance_id(hs.left_tree.node(group.left_addr).site, guest.name)
    left_res = substitute_with_maps(hs.left_tree, group.left_addr, guest.left_tree, guest_id)
    for addr in group.right_addrs:
        kind = hs.right_spine.node_at(addr)
        if not isinstance(kind, SubstitutionSlot):
            raise NotASlot(f"right node at {addr} is {kind}, not a substitution slot")
        if guest.right_tree.root_symbol != kind.symbol:
            raise SymbolMismatch(
                f"right slot at {addr} expects {kind.symbol!r}, guest root is "
                f"{guest.right_tree.root_symbol!r}"
            )

    record = group_record(hs, group, guest.name)
    fragment = Fragment(guest_id, guest.name, guest.right_tree, group.right_addrs)
    live = tuple(g for g in hs.live_links if g != group)
    return DerivedStructure(
        root=hs.root,
        left_tree=left_res.tree,
        right_spine=hs.right_spine,
        fragments=hs.fragments + (fragment,),
        live_links=live,
        history=hs.history + (record,),
    )


@dataclass(frozen=True)
class DerivationGraph:
    """Derivation history as a labeled graph; shared guests have in-degree > 1."""

    root: str
    nodes: tuple[tuple[str, str], ...]  # (instance id, elementary name)
    edges: tuple[tuple[str, str, str], ...]  # (parent id, address text, child id)

    @cached_property
    def labels(self) -> dict[str, str]:
        return dict(self.nodes)

    @cached_property
    def _in_degrees(self) -> Counter[str]:
        return Counter(child for _, _, child in self.edges)

    def in_degree(self, node_id: str) -> int:
        return self._in_degrees[node_id]

    def ids_with_label(self, label: str) -> tuple[str, ...]:
        return tuple(i for i, l in self.nodes if l == label)

    def is_tree(self) -> bool:
        return all(self.in_degree(i) == 1 for i, _ in self.nodes if i != self.root) and (
            self.in_degree(self.root) == 0
        )

    def is_dag(self) -> bool:
        children: dict[str, list[str]] = defaultdict(list)
        indeg: dict[str, int] = {i: 0 for i, _ in self.nodes}
        for parent, _, child in self.edges:
            children[parent].append(child)
            indeg[child] += 1
        queue = [i for i, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for child in children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    queue.append(child)
        return seen == len(self.nodes)

    def to_derivation_tree(self) -> DerivationTree:
        if not self.is_tree():
            raise InconsistentHistory("derivation graph is not a tree")
        children: dict[str, list[tuple[GornAddress, str]]] = defaultdict(list)
        for parent, addr, child in self.edges:
            children[parent].append((GornAddress.parse(addr), child))

        def build(node_id: str) -> DerivationTree:
            kids = children.get(node_id, [])
            return DerivationTree(self.labels[node_id], tuple((a, build(c)) for a, c in kids))

        return build(self.root)


def derivation_projections(
    records: Sequence[DerivationRecord], root: str
) -> tuple[DerivationTree, DerivationGraph]:
    """Split a history into its left (tree) and right (graph) projections.

    On the left every guest has the single parent that owns its left site;
    on the right a shared guest gets one node with an edge from every right
    host, which is what makes the dependency projection a DAG.
    """
    known: dict[str, str] = {root: root}
    nodes: list[tuple[str, str]] = [(root, root)]
    edges: list[tuple[str, str, str]] = []
    left_children: dict[str, list[tuple[GornAddress, str]]] = defaultdict(list)
    for r in records:
        if r.guest_id in known:
            raise InconsistentHistory(f"guest {r.guest_id!r} attached twice")
        if r.left_site.owner not in known:
            raise InconsistentHistory(f"unknown left host {r.left_site.owner!r}")
        for site in r.right_sites:
            if site.owner not in known:
                raise InconsistentHistory(f"unknown right host {site.owner!r}")
        known[r.guest_id] = r.guest
        nodes.append((r.guest_id, r.guest))
        left_children[r.left_site.owner].append((r.left_site.addr, r.guest_id))
        for site in r.right_sites:
            edges.append((site.owner, str(site.addr), r.guest_id))

    def build(node_id: str) -> DerivationTree:
        kids = left_children.get(node_id, [])
        return DerivationTree(known[node_id], tuple((a, build(c)) for a, c in kids))

    return build(root), DerivationGraph(root, tuple(nodes), tuple(edges))
