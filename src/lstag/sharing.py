"""Link-sharing tree pairs and the derived structures they compose into.

Each pair carries two ordered link sets: delta links join a left address to
a right address and mark where arguments attach on both sides; phi links
are reflexive right-side links that a guest spends, all at once, when it
composes into a host.  Sharing pairs the host's live link groups with the
guest's phi links positionally (the canonical order is list order) and
extends each matched group with the guest's corresponding right node.
A group tying one left slot to several right slots is then filled by a
single shared substitution, which plants one right-side instance under
every linked parent and turns the right derivation into a DAG.

Link groups and fragment parents name nodes by elementary site (`SiteRef`),
as derivation records do, so a composition never rebuilds them; derived
addresses are worked out from the trees only where output or a caller asks
for them.

Every step takes one shape.  Its sites are located once, as tree rows
(`trees.Row`): one left row and a tuple of right rows.  `step_record`
builds its `DerivationRecord` once, from those rows.  As `trees.RULE` pairs
each operation's check with an unchecked graft, a step has a check and an
unchecked build on the same arguments: `check_step` raises every error the
step can raise before anything is composed, building an address only to
report one, and returns `build_step` bound to them, which appends that
record unchanged.  A build grafts at those rows the guest's trees stamped
as the instance the record names (`owned_by`), since grafts never stamp.
It reads them off the stamp table (`Stamps`) it is given, which the first
build of an instance fills: the enumerator keeps one table per
enumeration, so it stamps each guest instance once, and `lstag_compose`,
`shared_substitute` and a `derive` step each pass a fresh one.  Several
right rows take a shared substitution; one takes the operation
`trees.site_operation` names for both sites' kinds, checked and grafted
with the pair `trees.RULE` gives it.  `lstag_compose`, `shared_substitute`
and `lstag derive` check each step; the enumerator offers only steps that
pass and builds them unchecked.  Whether a legal step leaves the structure
complete is `closes`, read off slot counts alone.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

from .errors import (
    AddressNotFound,
    CardinalityViolation,
    ClassMismatch,
    Diagnostic,
    DuplicateAdjunction,
    GroupNotLive,
    InconsistentHistory,
    NotASlot,
    SymbolMismatch,
    UnknownTree,
    UnsupportedGuestLinks,
)
from .gorn import ROOT, GornAddress
from .stag import Link
from .tag import DerivationTree, derivation_tree
from .trees import (
    OPERATION,
    RULE,
    Interior,
    SiteRef,
    SubstitutionSlot,
    SyntaxTree,
    TreeClass,
    Row,
    check_substitution,
    classify,
    fill_slot,
    row_address,
    site_operation,
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
    try:
        left, right = classify(p.left_tree), classify(p.right_tree)
    except ClassMismatch:  # `validate_document` reports the tree that does not classify
        pass
    else:
        if left is not right:  # both sides take one operation, so both trees are of one class
            message = f"left tree is {left.value} but right tree is {right.value}"
            diags.append(Diagnostic("ClassMismatch", message, p.name))
    # A group is filled only by a substitution, at its left site and every right site at once, so each of its
    # sites must be a slot that no other group holds; the links below would make groups nothing ever fills.
    delta = dict.fromkeys(p.delta)  # each link once, in list order
    for link in delta:
        kinds = []
        for side, tree, end in (("left", p.left_tree, link.left), ("right", p.right_tree, link.right)):
            try:
                kinds.append(type(tree.node_at(end)))
            except AddressNotFound:
                diags.append(Diagnostic("AddressNotFound", f"delta endpoint {end} missing from {side} tree", p.name))
        if kinds == [Interior, Interior]:
            message = f"delta link {link} joins two interior nodes, and only a substitution fills a link group"
            diags.append(Diagnostic("NotASlot", message, p.name))
    for link in p.phi:
        if not link.is_reflexive:
            diags.append(Diagnostic("NotReflexive", f"phi link {link} is not reflexive", p.name))
        for end in {link.left, link.right}:
            if not p.right_tree.has_address(end):
                diags.append(Diagnostic("AddressNotFound", f"phi endpoint {end} missing from right tree", p.name))
            elif type(kind := p.right_tree.node_at(end)) not in OPERATION:  # the group it joins could never be filled
                message = f"phi endpoint {end} is {kind}, which hosts no operation"
                diags.append(Diagnostic("OperationMismatch", message, p.name))
            elif type(kind) is Interior:
                message = f"phi endpoint {end} is {kind}, not a substitution slot"
                diags.append(Diagnostic("NotASlot", message, p.name))
    for side in ("left", "right") if len(delta) > 1 else ():
        ends = [getattr(link, side) for link in delta]
        if len(set(ends)) < len(ends):  # filling one of the groups that share an end fills a site of the others
            for end in dict.fromkeys(e for e in ends if ends.count(e) > 1):
                links = ", ".join(str(link) for link, e in zip(delta, ends) if e == end)
                diags.append(Diagnostic("SharedEndpoint", f"delta links {links} share {side} endpoint {end}", p.name))
    phi = set(p.phi)
    for link in sorted(delta.keys() & phi, key=str):
        diags.append(Diagnostic("NotDisjoint", f"link {link} appears in both delta and phi", p.name))
    for label, links, distinct in (("delta", p.delta, delta), ("phi", p.phi, phi)):
        if len(distinct) < len(links):  # each copy makes a group at the same sites: filling one strands the other
            for link, n in Counter(links).items():
                if n > 1:
                    diags.append(Diagnostic("DuplicateLink", f"{label} link {link} appears {n} times", p.name))
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
            raise UnknownTree(f"no pair named {name!r}", name) from None


@dataclass(frozen=True)
class SharedLinkGroup:
    """One left elementary node tied to one or more right ones: the sites the record filling it carries."""

    left_site: SiteRef
    right_sites: tuple[SiteRef, ...]

    def __post_init__(self):
        if not self.right_sites:
            raise ValueError("a shared link group needs at least one right site")


@dataclass(frozen=True)
class DerivationRecord:
    """A record names its step: the operation, the guest and its instance id, and the sites it composes at.

    A record hashes its fields once, when it is built, to the dataclass hash's value (the search keys each
    move by its record), and spells its line the first time `to_line` is called (items sort by their lines,
    and states share records).  Neither takes part in equality or `repr`, and pickling rebuilds a record
    through its constructor, so neither travels.
    """

    operation: str  # "substitution" | "adjunction" | "shared-substitution"
    guest: str
    guest_id: str
    left_site: SiteRef
    right_sites: tuple[SiteRef, ...]

    def __post_init__(self):
        fields = (self.operation, self.guest, self.guest_id, self.left_site, self.right_sites)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return DerivationRecord, (self.operation, self.guest, self.guest_id, self.left_site, self.right_sites)

    def to_line(self) -> str:
        try:
            return self._line
        except AttributeError:  # the first call spells the line
            line = f"{self.operation} {self.guest_id}"
            if self.right_sites:
                line += f" right=[{', '.join(map(str, self.right_sites))}]"
            object.__setattr__(self, "_line", line)
            return line


@dataclass(frozen=True)
class Fragment:
    """A right-side subtree shared by several parents, the spine slots it fills."""

    guest_id: str
    name: str
    tree: SyntaxTree
    parents: tuple[SiteRef, ...]


def _check_cardinality(groups: Sequence[SharedLinkGroup], phi: Sequence[Link]) -> None:
    if len(groups) < len(phi):
        raise CardinalityViolation(
            f"guest carries {len(phi)} phi links but the host offers only {len(groups)} link groups"
        )


def link_share(
    groups: Sequence[SharedLinkGroup],
    phi: Sequence[Link],
    site: Callable[[GornAddress], SiteRef],
) -> tuple[SharedLinkGroup, ...]:
    """Pair host link groups with guest phi links strictly by list position.

    The i-th group gains `site(a)`, the elementary site of the i-th phi
    address `a` of the guest's right tree; trailing unmatched groups pass
    through unchanged.  Phi is consumed entirely, which is why the host must
    offer at least as many groups as the guest has phi links.
    """
    _check_cardinality(groups, phi)
    extended = tuple(
        SharedLinkGroup(g.left_site, g.right_sites + (site(link.right),)) for g, link in zip(groups, phi)
    )
    return extended + tuple(groups[len(phi):])


@dataclass(frozen=True)
class DerivedStructure:
    """A left constituency tree plus a right structure that may share nodes.

    The right side is a spine tree with zero or more shared fragments, each
    attached below every spine slot in its `parents`.  Every node of both
    trees carries the `SiteRef` (instance, original address) it came from;
    link groups and fragment parents name nodes by it, and
    `left_address`/`right_address` give a site's derived address.

    `fragment_parents` (the spine slots the fragments fill) and
    `fragment_slots` (the substitution slots left open in the fragments) are
    worked out when the structure is built: every completeness test and
    every step's check reads them, and a cached property would take Python
    3.11's per-property lock at each new structure's first read.
    """

    root: str
    left_tree: SyntaxTree
    right_spine: SyntaxTree
    fragments: tuple[Fragment, ...]
    live_links: tuple[SharedLinkGroup, ...]
    history: tuple[DerivationRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "fragment_parents", frozenset(p for f in self.fragments for p in f.parents))
        object.__setattr__(self, "fragment_slots", sum(f.tree.root.slots for f in self.fragments))

    def left_address(self, site: SiteRef) -> GornAddress:
        """The derived address of the left node that carries `site`."""
        return row_address(self.left_tree.locate(site))

    def right_address(self, site: SiteRef) -> GornAddress:
        """The derived address of the spine node that carries `site`."""
        return row_address(self.right_spine.locate(site))

    @property
    def is_complete(self) -> bool:
        return _closed(
            self.left_tree.root.slots, self.fragment_slots, self.right_spine.root.slots, len(self.fragment_parents)
        )

    def left_yield(self, partial: bool = False) -> tuple[str, ...]:
        return yield_tokens(self.left_tree, partial=partial)

    def projections(self) -> tuple[DerivationTree, "DerivationGraph"]:
        return derivation_projections(self.history, self.root)


def _closed(left_slots: int, fragment_slots: int, spine_slots: int, parents: int) -> bool:
    """No slot is open: none on the left or in a fragment, and the spine's slots are exactly the fragment parents."""
    return not (left_slots or fragment_slots) and spine_slots == parents


def closes(hs: DerivedStructure, guest: LstagPair, operation: str, right_sites: tuple[SiteRef, ...]) -> bool:
    """Whether a legal step of `operation` composing `guest` at `right_sites` leaves no slot of `hs` open.

    Read off slot counts alone, so the enumerator knows it for every move before it builds one.
    """
    left = hs.left_tree.root.slots + guest.left_tree.root.slots
    spine, right = hs.right_spine.root.slots, guest.right_tree.root.slots
    if operation == "shared-substitution":  # one left slot filled, the guest's right tree a fragment under them
        return _closed(left - 1, hs.fragment_slots + right, spine, len(hs.fragment_parents.union(right_sites)))
    consumed = operation == "substitution"  # the slot each side fills
    return _closed(left - consumed, hs.fragment_slots, spine - consumed + right, len(hs.fragment_parents))


def structure_from_pair(pair: LstagPair) -> DerivedStructure:
    """The one-pair structure a derivation starts from; both trees must be initial."""
    if any(classify(t) is not TreeClass.INITIAL for t in (pair.left_tree, pair.right_tree)):
        raise ClassMismatch(f"a derivation starts from an initial pair, and {pair.name!r} is not one")
    live = tuple(SharedLinkGroup(SiteRef(pair.name, l.left), (SiteRef(pair.name, l.right),)) for l in pair.delta)
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
    """The id of the instance of the guest `guest_name` composed at the left site `left_ref`."""
    return f"{left_ref.owner}/{left_ref.addr}:{guest_name}"


def step_record(left: Row, rights: tuple[Row, ...], guest_name: str) -> DerivationRecord:
    """The record of composing a guest named `guest_name` at these rows of a host's left and right trees.

    Several right rows take a shared substitution, one the operation `trees.OPERATION` names for the left
    node (None if it hosts none); it never raises, since `check_step` rejects sites of different kinds.
    """
    ref = left[2].site
    operation = OPERATION.get(type(left[2].kind)) if len(rights) == 1 else "shared-substitution"
    sites = tuple([row[2].site for row in rights])
    return DerivationRecord(operation, guest_name, guest_instance_id(ref, guest_name), ref, sites)


Stamps = dict[str, tuple[SyntaxTree, SyntaxTree]]
"""A stamp table: guest instance id -> the guest's left and right trees stamped as that instance (`owned_by`)."""


def check_step(
    stamps: Stamps, hs: DerivedStructure, record: DerivationRecord, guest: LstagPair, left: Row, rights: tuple[Row, ...]
) -> Callable[[], DerivedStructure]:
    """Raise what composing `guest` in the step `record` names raises, before anything is composed.

    `left` and `rights` are the rows of the record's left and right sites
    in the host's trees; a site's address is built only to report an error.
    Returns the step itself, `build_step` on these arguments.
    """
    if len(rights) > 1:
        if guest.delta or guest.phi:
            raise UnsupportedGuestLinks("a guest attached at several shared sites cannot carry links of its own")
        if classify(guest.left_tree) is not TreeClass.INITIAL or classify(guest.right_tree) is not TreeClass.INITIAL:
            raise ClassMismatch("shared substitution requires initial guest trees")
        check_substitution(left, guest.left_tree)
        parents = hs.fragment_parents
        for row in rights:
            kind = row[2].kind
            if row[2].site in parents:
                raise NotASlot(f"right slot at {row_address(row)} is already filled by a shared fragment")
            if not isinstance(kind, SubstitutionSlot):
                raise NotASlot(f"right node at {row_address(row)} is {kind}, not a substitution slot")
            if guest.right_tree.root_symbol != kind.symbol:
                raise SymbolMismatch(
                    f"right slot at {row_address(row)} expects {kind.symbol!r}, "
                    f"guest root is {guest.right_tree.root_symbol!r}"
                )
        return partial(build_step, stamps, hs, record, guest, left, rights)
    right = rights[0]
    operation = site_operation(left, right)
    left_ref, right_ref = left[2].site, right[2].site
    live = hs.live_links
    consumed = operation == "substitution"  # the slot each side fills
    if consumed:
        if right_ref in hs.fragment_parents:
            raise NotASlot(f"right slot at {row_address(right)} is already filled by a shared fragment")
        touching = [g for g in live if g.left_site == left_ref or right_ref in g.right_sites]
        if touching:
            if touching != [SharedLinkGroup(left_ref, (right_ref,))]:
                raise GroupNotLive(
                    "substitution at a shared link group must fill every linked site in one "
                    "operation; use shared_substitute"
                )
            live = tuple(g for g in live if g not in touching)
    else:
        if left[2].adjoined:
            raise DuplicateAdjunction(f"left node {left_ref} already hosts an adjunction")
        if right[2].adjoined:
            raise DuplicateAdjunction(f"right node {right_ref} already hosts an adjunction")
    check = RULE[operation][0]
    check(left, guest.left_tree)
    check(right, guest.right_tree)
    _check_cardinality(live, guest.phi)
    return partial(build_step, stamps, hs, record, guest, left, rights)


def build_step(
    stamps: Stamps, hs: DerivedStructure, record: DerivationRecord, guest: LstagPair, left: Row, rights: tuple[Row, ...]
) -> DerivedStructure:
    """The step `record` names, composed unchecked: the caller ensured what `check_step` checks.

    It grafts at the rows `left` and `rights` the guest's trees stamped as
    the record's instance, read off `stamps`, which the first build of that
    instance fills, and appends `record` unchanged.
    """
    guest_id, history = record.guest_id, hs.history + (record,)
    if (stamped := stamps.get(guest_id)) is None:  # the instance's first build stamps its trees for every later one
        stamped = stamps[guest_id] = (guest.left_tree.owned_by(guest_id), guest.right_tree.owned_by(guest_id))
    left_guest, right_guest = stamped
    if record.operation == "shared-substitution":
        fragment = Fragment(guest_id, guest.name, guest.right_tree, record.right_sites)
        # Another group on the filled left slot now names the guest root, which sits where the slot was.
        filler, group = SiteRef(guest_id, ROOT), SharedLinkGroup(record.left_site, record.right_sites)
        live = tuple(
            SharedLinkGroup(filler, g.right_sites) if g.left_site == record.left_site else g
            for g in hs.live_links if g != group
        )
        left_tree = fill_slot(left, left_guest)
        return DerivedStructure(hs.root, left_tree, hs.right_spine, hs.fragments + (fragment,), live, history)
    graft = RULE[record.operation][1]
    left_ref, right_ref = record.left_site, record.right_sites[0]
    live = hs.live_links
    if record.operation == "substitution":  # the one group at both sites is filled
        live = tuple(g for g in live if g.left_site != left_ref and right_ref not in g.right_sites)
    feet = guest.left_tree.foot_address, guest.right_tree.foot_address
    left_of = lambda a: left_ref if a == feet[0] else SiteRef(guest_id, a)
    right_of = lambda a: right_ref if a == feet[1] else SiteRef(guest_id, a)
    shared = link_share(live, guest.phi, right_of)
    appended = tuple(SharedLinkGroup(left_of(l.left), (right_of(l.right),)) for l in guest.delta)
    left_tree, right_spine = graft(left, left_guest), graft(rights[0], right_guest)
    return DerivedStructure(hs.root, left_tree, right_spine, hs.fragments, shared + appended, history)


def lstag_compose(
    host: LstagPair | DerivedStructure, left_site: GornAddress, right_site: GornAddress, guest: LstagPair
) -> DerivedStructure:
    """One synchronized composition step: same operation on both sides.

    Substitution may consume a singleton link group whose two sites are
    exactly the chosen ones.  The guest's phi links are exhausted here by
    extending the host's remaining groups in order; its delta links join the
    live set as fresh singleton groups.  A guest endpoint names the guest
    instance's node, except at the guest's foot, where it names the host
    node the adjunction wraps.  Groups and fragment parents name elementary
    sites, so no other group and no fragment is rebuilt.
    """
    hs = as_structure(host)
    left, right = hs.left_tree.row_at(left_site), hs.right_spine.row_at(right_site)
    return check_step({}, hs, step_record(left, (right,), guest.name), guest, left, (right,))()


def shared_substitute(
    host: LstagPair | DerivedStructure, group: SharedLinkGroup, guest: LstagPair
) -> DerivedStructure:
    """Fill one link group with a single guest instance.

    With one right site this is the step `lstag_compose` takes at the two sites.
    With several, the guest's right tree is attached once as a shared
    fragment below every linked slot, so the node's in-degree equals the
    number of shared sites.  A slot a fragment already fills takes no other.
    """
    hs = as_structure(host)
    if group not in hs.live_links:
        raise GroupNotLive(f"the group at left site {group.left_site} is not live in this structure")
    left = hs.left_tree.locate(group.left_site)
    rights = tuple(map(hs.right_spine.locate, group.right_sites))
    return check_step({}, hs, step_record(left, rights, guest.name), guest, left, rights)()


@dataclass(frozen=True)
class DerivationGraph:
    """Derivation history as a labeled graph; shared guests have in-degree > 1."""

    root: str
    nodes: tuple[tuple[str, str], ...]  # (instance id, elementary name)
    edges: tuple[tuple[str, str, str], ...]  # (parent id, address text, child id)

    @cached_property
    def _in_degrees(self) -> Counter[str]:
        return Counter(child for _, _, child in self.edges)

    def in_degree(self, node_id: str) -> int:
        return self._in_degrees[node_id]

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


def derivation_projections(records: Sequence[DerivationRecord], root: str) -> tuple[DerivationTree, DerivationGraph]:
    """Split a history into its left (tree) and right (graph) projections.

    On the left every guest has the single parent that owns its left site;
    on the right a shared guest gets one node with an edge from every right
    host, which is what makes the dependency projection a DAG.
    """
    nodes = ((root, root), *((r.guest_id, r.guest) for r in records))  # in attachment order
    edges = tuple((site.owner, str(site.addr), r.guest_id) for r in records for site in r.right_sites)
    return left_projection(records, root), DerivationGraph(root, nodes, edges)


def left_projection(records: Sequence[DerivationRecord], root: str) -> DerivationTree:
    """The left projection alone, which is all plain TAG reads; raises `InconsistentHistory` for both."""
    known: dict[str, str] = {root: root}  # instance id -> elementary name
    left: dict[str, list[tuple[GornAddress, str]]] = defaultdict(list)
    for r in records:
        if r.guest_id in known:
            raise InconsistentHistory(f"guest {r.guest_id!r} attached twice")
        if r.left_site.owner not in known:
            raise InconsistentHistory(f"unknown left host {r.left_site.owner!r}")
        for site in r.right_sites:
            if site.owner not in known:
                raise InconsistentHistory(f"unknown right host {site.owner!r}")
        known[r.guest_id] = r.guest
        left[r.left_site.owner].append((r.left_site.addr, r.guest_id))
    return derivation_tree(root, known, left)
