"""Shared test utilities: random structure generators and independent oracles.

The generators use a caller-supplied Random so that randomized suites are
reproducible.  The oracles here deliberately avoid the library's composition
internals: the splice oracle works purely on frontier token lists, and the
connectivity oracle is a BFS over the induced subgraph.
"""

from __future__ import annotations

import random
from collections import Counter

from lstag import (
    Foot,
    GornAddress,
    Interior,
    Link,
    LstagGrammar,
    LstagPair,
    SubstitutionSlot,
    SyntaxTree,
    Terminal,
    parse_tree,
)
from lstag.gorn import ROOT
from lstag.tag import derivation_tree

SYMBOLS = ("S", "A", "B")
TOKENS = ("a", "b", "c", "d")


def random_tree(
    rng: random.Random,
    max_depth: int = 3,
    root_symbol: str | None = None,
    allow_slots: bool = True,
    foot_symbol: str | None = None,
) -> SyntaxTree:
    """A random well-formed tree; when `foot_symbol` is set, exactly one leaf
    becomes a foot with that symbol (placed under a random path)."""
    nodes: dict[GornAddress, object] = {}
    leaf_addrs: list[GornAddress] = []

    def grow(addr: GornAddress, depth: int) -> None:
        if addr == ROOT:
            symbol = root_symbol or rng.choice(SYMBOLS)
            nodes[addr] = Interior(symbol)
        else:
            roll = rng.random()
            if depth >= max_depth or roll < 0.45:
                if allow_slots and roll < 0.2:
                    nodes[addr] = SubstitutionSlot(rng.choice(SYMBOLS))
                else:
                    nodes[addr] = Terminal(rng.choice(TOKENS))
                leaf_addrs.append(addr)
                return
            nodes[addr] = Interior(rng.choice(SYMBOLS))
        for k in range(1, rng.randint(1, 3) + 1):
            grow(addr.child(k), depth + 1)

    grow(ROOT, 0)
    if foot_symbol is not None:
        foot_at = rng.choice(leaf_addrs)
        nodes[foot_at] = Foot(foot_symbol)
    return SyntaxTree.from_nodes(nodes)


def random_initial(
    rng: random.Random, root_symbol: str | None = None, allow_slots=True, max_depth: int = 3
) -> SyntaxTree:
    return random_tree(rng, max_depth=max_depth, root_symbol=root_symbol, allow_slots=allow_slots)


def random_auxiliary(rng: random.Random, root_symbol: str | None = None, max_depth: int = 3) -> SyntaxTree:
    symbol = root_symbol or rng.choice(SYMBOLS)
    return random_tree(rng, max_depth=max_depth, root_symbol=symbol, foot_symbol=symbol)


def interior_addresses(tree: SyntaxTree) -> list[GornAddress]:
    return [a for a, k in tree.items() if isinstance(k, Interior)]


def slot_addresses(tree: SyntaxTree) -> list[GornAddress]:
    return [a for a, k in tree.items() if isinstance(k, SubstitutionSlot)]


def random_links(rng: random.Random, left: SyntaxTree, right: SyntaxTree, count: int) -> list[Link]:
    lefts = list(left.addresses())
    rights = list(right.addresses())
    return [Link(rng.choice(lefts), rng.choice(rights)) for _ in range(count)]


def random_lstag_grammar(rng: random.Random) -> LstagGrammar:
    """A random link-sharing grammar of two hosts, slot-free fillers and three auxiliaries.

    Two hosts link their slots pairwise.  A host's right tree is often not a
    copy of its left one, and a host often has one random link more, which
    may join a slot to an interior node.  Slot-free fillers cover every
    symbol.  Three auxiliaries carry a random delta link and phi links at
    their right slots; most are coordinators whose slots copy a host's, so
    the groups they extend are filled by shared substitutions.
    """
    pairs = []
    for k in range(2):
        left = random_initial(rng, "S", max_depth=2)
        right = left if rng.random() < 0.5 else random_initial(rng, "S", max_depth=2)
        delta = [Link(a, b) for a, b in zip(slot_addresses(left), slot_addresses(right))]
        delta += random_links(rng, left, right, rng.randint(0, 1))
        pairs.append(LstagPair(f"h{k}", left, right, delta=tuple(delta)))
    for k, symbol in enumerate(SYMBOLS):
        pairs.append(LstagPair(f"f{k}", *(random_initial(rng, symbol, allow_slots=False, max_depth=1) for _ in "lr")))
    for k in range(3):
        left, right = (random_auxiliary(rng, rng.choice("SA"), max_depth=2) for _ in "lr")
        if rng.random() < 0.7:  # a coordinator: a slot like each of a host's first right slots, in order
            host = rng.choice(pairs[:2]).right_tree
            right = parse_tree("S(%s S*)" % " ".join(f"{host.node_at(a).symbol}!" for a in slot_addresses(host)[:2]))
        phi = tuple(Link(a, a) for a in rng.sample(slot_addresses(right), min(2, len(slot_addresses(right)))))
        delta = tuple(random_links(rng, left, right, rng.randint(0, 1)))
        pairs.append(LstagPair(f"a{k}", left, right, delta=delta, phi=phi))
    return LstagGrammar(tuple((p.name, p) for p in pairs))


def frontier_entries(tree: SyntaxTree) -> list[tuple[GornAddress, str]]:
    """(address, token) for frontier positions that spell something, in order.

    Slots and feet render as placeholders so partial yields can be compared.
    """
    out = []
    for addr in tree.frontier:
        kind = tree.node_at(addr)
        if isinstance(kind, Terminal):
            out.append((addr, kind.token))
        elif isinstance(kind, SubstitutionSlot):
            out.append((addr, f"⟨{kind.symbol}↓⟩"))
        elif isinstance(kind, Foot):
            out.append((addr, f"⟨{kind.symbol}*⟩"))
    return out


def splice_yield_oracle(target: SyntaxTree, site: GornAddress, aux: SyntaxTree) -> list[str]:
    """Expected yield of adjunction, computed by string splicing alone.

    yield(target) = u.v.z with v the tokens under `site`; yield(aux) =
    w1.FOOT.w2; the result must spell u.w1.v.w2.z.
    """
    entries = frontier_entries(target)
    u = [tok for addr, tok in entries if not site.is_prefix_of(addr) and addr < site]
    v = [tok for addr, tok in entries if site.is_prefix_of(addr)]
    z = [tok for addr, tok in entries if not site.is_prefix_of(addr) and addr > site]
    foot = aux.foot_address
    assert foot is not None
    aux_entries = frontier_entries(aux)
    w1 = [tok for addr, tok in aux_entries if addr < foot]
    w2 = [tok for addr, tok in aux_entries if addr > foot]
    return u + w1 + v + w2 + z


def check_structure(s, grammar, linked_slots: bool = True) -> None:
    """Assert the invariants of a `DerivedStructure` derived in `grammar`.

    Both trees pass the checked constructor.  Every node of both trees
    carries a `SiteRef` whose owner is the root or a guest instance in the
    history, and whose original address holds the same kind in that
    owner's elementary tree on the same side.  Every site of a live link
    group and every fragment parent is carried by a node (the left site by
    a left node, the others by spine nodes), and every fragment parent is a
    spine slot whose symbol is the fragment's root symbol.  With
    `linked_slots`, each live group also ties a left slot to right slots,
    all of one symbol, as the link-bearing pairs of a well-formed
    coordination grammar do.  The nodes marked `adjoined` are exactly those
    that carry an adjunction record's sites: its left site on the left, its
    right site on the spine.
    """
    owners = {s.root: s.root}
    owners.update((r.guest_id, r.guest) for r in s.history)
    for side, tree in (("left_tree", s.left_tree), ("right_tree", s.right_spine)):
        assert SyntaxTree.from_nodes(dict(tree.items())) == tree
        for addr, node in zip(tree.addresses(), tree.nodes()):
            site = node.site
            assert site is not None and site.owner in owners, (side, addr, site)
            elementary = getattr(grammar.get(owners[site.owner]), side)
            assert elementary.node_at(site.addr) == node.kind, (side, addr, site)
    left_nodes = {node.site: node for node in s.left_tree.nodes()}
    right_nodes = {node.site: node for node in s.right_spine.nodes()}
    for group in s.live_links:
        assert group.left_site in left_nodes, group
        assert all(site in right_nodes for site in group.right_sites), group
        kinds = [left_nodes[group.left_site].kind]
        kinds += [right_nodes[site].kind for site in group.right_sites]
        if linked_slots:
            assert all(isinstance(k, SubstitutionSlot) for k in kinds), group
            assert len({k.symbol for k in kinds}) == 1, group
    for fragment in s.fragments:
        for parent in fragment.parents:
            assert parent in right_nodes, (fragment, parent)
            kind = right_nodes[parent].kind
            assert isinstance(kind, SubstitutionSlot), (fragment, parent)
            assert kind.symbol == fragment.tree.root_symbol, (fragment, parent)
    adjunctions = [r for r in s.history if r.operation == "adjunction"]
    marked_left = Counter(node.site for node in s.left_tree.nodes() if node.adjoined)
    marked_right = Counter(node.site for node in s.right_spine.nodes() if node.adjoined)
    assert marked_left == Counter(r.left_site for r in adjunctions), marked_left
    assert marked_right == Counter(r.right_sites[0] for r in adjunctions), marked_right


def free_adjunction_keys(s, auxiliary) -> set[tuple]:
    """The order keys of the adjunction moves the search should try at `s`.

    Each (name, pair) of `auxiliary` whose phi links the live link groups
    can take goes at every left and right pair of interior nodes of its
    root symbols that no adjunction record of the history names, worked out
    without the nodes' `adjoined` marks.
    """
    adjunctions = [r for r in s.history if r.operation == "adjunction"]
    taken = ({r.left_site for r in adjunctions}, {r.right_sites[0] for r in adjunctions})
    left, right = (
        [
            (str(a), n.kind.symbol)
            for a, n in zip(tree.addresses(), tree.nodes())
            if isinstance(n.kind, Interior) and n.site not in used
        ]
        for tree, used in zip((s.left_tree, s.right_spine), taken)
    )
    return {
        (1, la, ra, name)
        for name, pair in auxiliary
        if len(pair.phi) <= len(s.live_links)
        for la, left_symbol in left
        if left_symbol == pair.left_tree.root_symbol
        for ra, right_symbol in right
        if right_symbol == pair.right_tree.root_symbol
    }


def group_addresses(s) -> list[tuple[GornAddress, tuple[GornAddress, ...]]]:
    """Each live link group of `s` as (left address, right addresses), through the resolver."""
    return [
        (s.left_address(g.left_site), tuple(s.right_address(site) for site in g.right_sites))
        for g in s.live_links
    ]


def parent_addresses(s, fragment) -> tuple[GornAddress, ...]:
    """The spine addresses of a fragment's parents, through the resolver."""
    return tuple(s.right_address(site) for site in fragment.parents)


def pair_grammar(*pairs):
    """An `LstagGrammar` over the given pairs, for `check_structure`."""
    return LstagGrammar(tuple((p.name, p) for p in pairs))


def replay_lstag_records(grammar, root: str, records):
    """Re-derive a structure from its history, resolving provenance sites.

    Each record names sites by (owning instance, original address); this walks
    the history forward, finding the node that carries each site in the
    evolving trees, and checks the structure's invariants after every step.
    A substitution record, shared or not, carries exactly the sites of the
    live link group it filled.
    """
    from lstag import SharedLinkGroup, lstag_compose, shared_substitute, structure_from_pair

    def located(tree, site):
        return next(a for a, node in zip(tree.addresses(), tree.nodes()) if node.site == site)

    structure = structure_from_pair(grammar.get(root))
    check_structure(structure, grammar)
    for record in records:
        guest = grammar.get(record.guest)
        if record.operation == "adjunction":
            left = located(structure.left_tree, record.left_site)
            right = located(structure.right_spine, record.right_sites[0])
            structure = lstag_compose(structure, left, right, guest)
        else:
            group = SharedLinkGroup(record.left_site, record.right_sites)
            structure = shared_substitute(structure, group, guest)
        check_structure(structure, grammar)
    return structure


def lstag_script(grammar, root: str, records) -> str:
    """The `lstag derive` script of a history, its sites written as derived addresses.

    An adjunction record is written `adjoin G at L ~ R` and a substitution
    record, shared or not, `substitute G at L`; the addresses are read off
    the structure built so far, which the writer builds through the
    library's composition functions.
    """
    from lstag import SharedLinkGroup, lstag_compose, shared_substitute, structure_from_pair

    lines = [f"root {root}"]
    structure = structure_from_pair(grammar.get(root))
    for record in records:
        guest = grammar.get(record.guest)
        left = structure.left_address(record.left_site)
        if record.operation == "adjunction":
            right = structure.right_address(record.right_sites[0])
            lines.append(f"adjoin {record.guest} at {left} ~ {right}")
            structure = lstag_compose(structure, left, right, guest)
        else:
            lines.append(f"substitute {record.guest} at {left}")
            structure = shared_substitute(structure, SharedLinkGroup(record.left_site, record.right_sites), guest)
    return "\n".join(lines) + "\n"


def derivation_from_json_obj(obj: dict):
    """The derivation tree `tag.derivation_to_json_obj` printed as `obj`, built without recursion."""
    nodes = [obj]  # by node number, parents before children
    children: dict[int, list[tuple[GornAddress, int]]] = {}
    for number, node in enumerate(nodes):
        kids = node.get("children", [])
        children[number] = [(GornAddress.parse(c["addr"]), len(nodes) + k) for k, c in enumerate(kids)]
        nodes.extend(c["node"] for c in kids)
    return derivation_tree(0, [node["name"] for node in nodes], children)


def graph_to_derivation_tree(graph):
    """The derivation tree a `DerivationGraph` draws; the graph must be a tree."""
    assert graph.is_tree()
    children: dict[str, list[tuple[GornAddress, str]]] = {}
    for parent, addr, child in graph.edges:
        children.setdefault(parent, []).append((GornAddress.parse(addr), child))
    return derivation_tree(graph.root, dict(graph.nodes), children)


def image_connected_oracle(tree: SyntaxTree, image: set[GornAddress]) -> bool:
    """BFS connectivity of the induced subgraph over parent-child edges."""
    if not image:
        return True
    image = set(image)
    start = next(iter(sorted(image)))
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        neighbours = []
        if node.parts:
            neighbours.append(node.parent)
        count = len(tree.node(node).children) if tree.has_address(node) else 0
        neighbours.extend(node.child(k) for k in range(1, count + 1))
        for n in neighbours:
            if n in image and n not in seen:
                seen.add(n)
                queue.append(n)
    return seen == image
