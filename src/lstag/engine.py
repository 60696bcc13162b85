"""Bounded, exhaustive enumeration of derivations.

The enumerator applies every legal composition up to a budget and returns
each complete derivation exactly once, in a deterministic order.  Distinct
histories that happen to build the same structure are both kept; the same
history reached through different operation orders is collapsed, since a
derivation is identified by its (order-insensitive) record set.

Plain TAG and link-sharing TAG share one breadth-first search core,
`_search`.  It sees a state only through the interface `DerivedStructure`
already has: `root`, `history` (the derivation records), `is_complete`,
`left_yield()` and `projections()`.  Plain TAG states (`_TagState`) return
no right projection.  Each grammar supplies a lazy move generator that
yields `(order_key, record, complete, build, bound)` for every legal next
step, and for no other: `record` is the derivation record the step appends,
worked out without composing, `complete` whether the next state will be
complete, read off slot counts, `build()` composes the step unchecked, and
`bound` is None or a bound (below); given a one-item list, it counts there
the moves whose state will not be complete, building no record, and yields
only the others.  A queue entry other than a block (below) is `(root,
record set, record, complete, build, bound)`: a move carries its parent's
record set, and a root the empty set, no record and a build that returns
the root.  The core keys and counts a
move only when it pops it: a move whose `(root, record set + record)` key
is seen is dropped, and any other marks its key.  The queue is first in,
first out, so the move that first reaches a key is the first one made.  A
record hashes its fields once, when it is built, and a key's set copies its
parent's hashes, so no history is hashed again.  A root's key is never
looked up: grammars reject duplicate names, and a move's key holds a
record, so no key could repeat a root's.

The core expands a state's moves in key order, but a state at the operation
budget is never expanded: it decides `truncated` by asking only whether it
has a move.  Breadth first, every entry popped after a budget-level state
is at the budget too, and it is built only if it is complete or
`truncated` is undecided.  So a state one operation short of the budget
is queued as one block (partial expansion): the state, the
moves it made, in key order, and the count of those it did not make.  The
first block to hold a move whose state will not be complete makes every
move, since such a move usually decides `truncated`; each later block
makes only its complete moves and counts the others.  The cap test counts
a block as all of its moves.  A block popped once `truncated` is decided,
while `explored` and every move left, its own included, stay within
`max_structures`, takes the moves it made and drops its counted ones
unmade: the cap cannot bind, now or later, so each would be dropped
unkeyed.  Any other block with counted moves remakes its moves, and they
are taken one by one in key order: once `truncated` is decided, a move
whose state will not be complete is dropped unkeyed while counting it
and every move left stays within the cap, and otherwise keyed and counted
but not built, since how many keys are new decides where the cap binds.

A step fills at most one left slot, so a state with two or more open left
slots cannot complete in one more step (the pruning test of Korf's IDA*).
Link sharing gives a move into such a state its `bound`, at least the
number of moves the state makes, worked out from the parent and the guest
alone; plain TAG gives none.  Once `counting` is set, such a move into the
level one short of the budget is keyed and counted but queued unbuilt, as a
block that holds its build and `((), bound)`.  It builds its state and
remakes its moves only where a block with counted moves does, and the cap
test counts it as `bound` moves, never too few, so outputs stay exact at
every cap.

Both grammars take TAG's two operations, substitution at slots and
adjunction at interior nodes, so both move generators find their sites with
the same two walks, one per operation.  `_slot_rows` maps the site of each
substitution slot to its row and enters only subtrees that hold a slot
(`TreeNode.slots`).  `_adjunction_sites` lists in preorder, with its address
text, each interior node that no adjunction has marked `adjoined` and whose
symbol is the root symbol of an auxiliary that may fit; it enters interior
nodes only, builds each one's text as it walks down (its parent's text and
`.k`), and it is called only once an auxiliary makes a move.  Counting
adjunctions and bounds read `_interior_symbols`, a walk of the same nodes
that counts them by symbol and builds no row or text.  A move reads
the elementary site it composes at (its `SiteRef`) off its node and grafts
at the row its walk found.

Plain TAG: a site meets only the guests `TagGrammar.guests` lists for its
walk's operation and its root symbol, so its moves are legal by
construction and build with the unchecked graft `trees.RULE` pairs with
that operation.  What a node can host, and which guests fit it, is fixed by
its elementary site, so an enumeration keeps one site table, which it drops
when it returns.  The first time a site is met, the table stores one offer
per guest that fits there, in grammar order.  An offer is a whole value,
built then and never changed: the step's record, the change in open slots
the step makes and, since grafts never stamp, the guest instance's tree,
stamped with its sites (`owned_by`) from the start.  A site no guest fits
stores none.  A move's order key starts with its site's derived address
text, spelled only at the nodes some guest fits: an adjunction site's is
its walk's, and a slot's is joined from the child indexes of its parent
rows (`_row_text`), with no `GornAddress` built.  A state is a plain tuple
(`_TagState`).  No two nodes of a plain-TAG state share a site
(a guest instance's id names the one host site it fills), so the slot
walk's table holds every slot.

A plain-TAG state also carries its derivation tree, equal to
`sharing.left_projection` of its history, so an item projects nothing.  A
build path-copies the parent's tree: it rebuilds the nodes from the root down
to the host instance, adds the new edge there in address order, and shares
every other subtree.  A node has few edges, so each level scans them, with
no key function: for the edge down by address identity, then parts, and at
the host for the new edge's place by parts.  The path of edge addresses down
to a guest instance depends on its instance id alone, so an offer holds it,
worked out when the offer is made (the owner's path plus the site address)
and kept in a path table that, like the site table, lives for one
enumeration.

Link-sharing moves build with `sharing.build_step` on the rows of their
sites.  Substitutions fill live link groups (one move fills every shared
site).  A group takes an initial guest only if its sites are substitution
slots, so the slot walk of each tree gives its rows, and they give
`sharing.step_record` its record.  Adjunctions pair the sites the interior
walk finds in the two trees, with records built from those nodes.  Each
guest instance is stamped once per enumeration: the search keeps one stamp
table (`sharing.Stamps`), which a move's build fills the first time it
builds that instance, and drops it when it returns.

Like a plain-TAG site, a link-sharing step meets only the guests that fit
it, read off the guest pair and the host alone, so the generator offers
exactly the steps `sharing.check_step` passes and the engine checks none.
A group meets an initial guest only if its left site is a slot of the
guest's left root symbol and each right site a slot of its right root
symbol that no fragment fills.  A group of several right sites meets only
a guest with no links of its own, and a group of one only if no other live
group meets its left or its right site, which the step would leave naming
a filled slot.  An auxiliary meets each pair of unmarked interior nodes,
one per tree, of its two root symbols.  No guest is offered whose phi
links outnumber the groups the step leaves live (every live group for an
adjunction, all but the filled one for a substitution).  Each call reads
the root symbols of the guests it may offer once, before it visits a site.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Container, Iterable, Iterator, NamedTuple, Union

from .errors import LstagError
from .gorn import ROOT_TEXT, GornAddress
from .sharing import (
    DerivationGraph,
    DerivationRecord,
    DerivedStructure,
    LstagGrammar,
    LstagPair,
    Stamps,
    build_step,
    closes,
    guest_instance_id,
    step_record,
    structure_from_pair,
)
from .tag import DerivationTree, TagGrammar, derivation_node
from .trees import (
    RULE,
    Interior,
    Row,
    SiteRef,
    SyntaxTree,
    TreeClass,
    TreeNode,
    classify,
    no_cycles,
    yield_tokens,
)


@dataclass(frozen=True)
class EnumerationBudget:
    max_operations: int
    max_structures: int = 10000

    def __post_init__(self):
        if self.max_operations < 1 or self.max_structures < 1:
            raise ValueError("enumeration budget components must be >= 1")


@dataclass(frozen=True)
class EnumerationItem:
    root: str
    records: tuple[DerivationRecord, ...]
    left_yield: tuple[str, ...]
    left_derivation: DerivationTree
    right_derivation: DerivationGraph | None

    @property
    def yield_text(self) -> str:
        return " ".join(self.left_yield)

    def record_lines(self) -> tuple[str, ...]:
        return tuple(sorted(r.to_line() for r in self.records))

    def sort_key(self):
        return (self.yield_text, len(self.records), self.record_lines(), self.root)


@dataclass(frozen=True)
class EnumerationResult:
    items: tuple[EnumerationItem, ...]
    truncated: bool


_State = Union["_TagState", DerivedStructure]
_Move = tuple[tuple, DerivationRecord, bool, Callable[[], _State], Union[int, None]]  # (..., build, bound)
# A queue entry: a root `(root, {}, None, complete, build, None)`, a move `(root, parent's record set, record,
# complete, build, bound)`, or a block `(root, parent's record set, parent, None, (the parent's moves made, count of
# the others), None)`; a block left unbuilt holds the parent's build, and `((), bound)`.
_Entry = tuple[str, frozenset[DerivationRecord], Any, Union[bool, None], Any, Union[int, None]]
_Keys = set[tuple[str, frozenset[DerivationRecord]]]  # the keys of the moves taken: (root, record set)
_Guests = dict[str, dict[str, dict[str, SyntaxTree]]]  # `TagGrammar.guests`: {operation: {root symbol: {name: tree}}}
_Path = tuple[GornAddress, ...]  # the edge addresses from a derivation's root down to one guest instance
_Offer = tuple[DerivationRecord, int, SyntaxTree, _Path]  # (record, slot change, stamped guest tree, its path)
_Sites = dict[SiteRef | None, list[_Offer]]  # a site table, kept for one enumeration


def _search(
    roots: Iterable[_State],
    moves: Callable[..., Iterator[_Move]],  # given a one-item list, it counts the incomplete moves there instead
    budget: EnumerationBudget,
) -> EnumerationResult:
    seen: _Keys = set()
    none: frozenset[DerivationRecord] = frozenset()
    queue: deque[_Entry] = deque((s.root, none, None, s.is_complete, lambda s=s: s, None) for s in roots)
    complete: list[_State] = []
    truncated = counting = False  # counting: some block holds a move whose state will not be complete
    explored = hidden = 0  # hidden: the moves that queued blocks hold beyond the one entry each is
    while queue:
        root, base, record, will_complete, build, bound = queue.popleft()
        if will_complete is None:  # a block: `record` is the parent state (unbuilt, its build), `build` its moves
            made, count = build
            hidden -= len(made) + count - 1
            if count and (not truncated or explored + len(queue) + hidden + len(made) + count > budget.max_structures):
                state = record() if callable(record) else record
                made = sorted(moves(state), key=itemgetter(0))  # every move, taken one by one in key order
            queue.extendleft((root, base, *move[1:]) for move in reversed(made))
            continue
        if record is not None:  # a move; a root is queued unkeyed
            if truncated and not will_complete and explored + len(queue) + hidden < budget.max_structures:
                continue  # it would be counted and not built, and counting every move left cannot pass the cap
            base = base | {record}  # the copy keeps base's hashes: only record is hashed
            if (root, base) in seen:
                continue
        seen.add((root, base))
        explored += 1
        if explored > budget.max_structures:
            truncated = True
            break
        if truncated and not will_complete:  # breadth first: every entry left is at the budget
            continue
        if counting and bound is not None and len(base) == budget.max_operations - 1:
            queue.append((root, base, build, None, ((), bound), None))  # it has no complete move: a block, unbuilt
            hidden += bound - 1
            continue
        state = build()
        if state.is_complete:
            complete.append(state)
        if len(state.history) >= budget.max_operations:
            truncated = truncated or any(moves(state))
            continue
        if len(state.history) < budget.max_operations - 1:
            queue.extend((root, base, *move[1:]) for move in sorted(moves(state), key=itemgetter(0)))
            continue
        count = [0]  # one short of the budget: one block, which counts the incomplete moves once another holds one
        made = sorted(moves(state, count if counting else None), key=itemgetter(0))
        counting = counting or not all(move[2] for move in made)
        queue.append((root, base, state, None, (made, count[0]), None))
        hidden += len(made) + count[0] - 1
    items = sorted(
        (EnumerationItem(s.root, s.history, s.left_yield(), *s.projections()) for s in complete),
        key=EnumerationItem.sort_key,
    )
    return EnumerationResult(tuple(items), truncated)


def _slot_rows(tree: SyntaxTree) -> dict[SiteRef | None, Row]:
    """The row of each substitution slot of `tree` by its site, the last in preorder where several share one.

    The walk enters only subtrees that hold a slot (`TreeNode.slots`), so a leaf it reaches is a slot.
    """
    rows: dict[SiteRef | None, Row] = {}
    stack: list[Row] = [(None, 0, tree.root)] if tree.root.slots else []
    pop, push = stack.pop, stack.append
    while stack:
        row = pop()
        kids = row[2].children
        if not kids:
            rows[row[2].site] = row
        k = len(kids)
        while k:
            if kids[k - 1].slots:
                push((row, k, kids[k - 1]))
            k -= 1
    return rows


def _row_text(row: Row) -> str:
    """The address text of a row's node, spelled from its parent rows' child indexes as `row_address` prints it."""
    parts = []
    while row[0] is not None:
        parts.append(row[1])
        row = row[0]
    return ".".join(map(str, reversed(parts))) if parts else ROOT_TEXT


def _adjunction_sites(tree: SyntaxTree, symbols: Container[str]) -> list[tuple[str, Row, TreeNode]]:
    """(address text, row, node) of each interior node no adjunction has marked whose symbol is in `symbols`.

    In preorder; the walk enters interior nodes only, and builds each one's
    address text as it goes down: its parent's text, then `.k`.
    """
    sites = []
    stack: list[tuple[Row, str]] = [((None, 0, tree.root), "")]  # each row with its address text, "" at the root
    pop, push = stack.pop, stack.append
    while stack:
        row, text = pop()
        node = row[2]
        if node.kind.symbol in symbols and not node.adjoined:
            sites.append((text or ROOT_TEXT, row, node))
        kids = node.children
        k = len(kids)
        prefix = text + "." if text else ""
        while k:
            if isinstance(kids[k - 1].kind, Interior):
                push(((row, k, kids[k - 1]), f"{prefix}{k}"))
            k -= 1
    return sites


def _interior_symbols(tree: SyntaxTree) -> dict[str, int]:
    """The number of interior nodes of `tree` that no adjunction has marked, by symbol: one walk, no rows or text."""
    counts: dict[str, int] = {}
    stack = [tree.root]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if not node.adjoined:
            counts[node.kind.symbol] = counts.get(node.kind.symbol, 0) + 1
        for kid in node.children:
            if isinstance(kid.kind, Interior):
                push(kid)
    return counts


# --- plain TAG moves ------------------------------------------------------------


class _TagState(NamedTuple):
    """A plain-TAG search state, a plain tuple: the search builds one per move it takes."""

    root: str
    tree: SyntaxTree
    history: tuple[DerivationRecord, ...]
    derivation: DerivationTree  # left_projection(history, root), path-copied from the parent state's

    @property
    def is_complete(self) -> bool:
        return not self.tree.root.slots

    def left_yield(self) -> tuple[str, ...]:
        return yield_tokens(self.tree)

    def projections(self) -> tuple[DerivationTree, None]:
        return self.derivation, None


def _offers(guests: _Guests, paths: dict[str, _Path], operation: str, node: TreeNode) -> list[_Offer]:
    """The offers at `node`'s elementary site, one per guest of `operation` that fits there, in grammar order."""
    fits = guests[operation].get(node.kind.symbol, {})  # type: ignore[union-attr]
    ref, consumed = node.site, operation == "substitution"
    path = paths[ref.owner] + (ref.addr,)  # each guest instance's path, also kept in the path table
    records = [DerivationRecord(operation, name, guest_instance_id(ref, name), ref, ()) for name in fits]
    paths.update((r.guest_id, path) for r in records)
    return [(r, tree.root.slots - consumed, tree.owned_by(r.guest_id), path) for r, tree in zip(records, fits.values())]


def _grafted(derivation: DerivationTree, path: _Path, label: str) -> DerivationTree:
    """`derivation` with a new leaf `label` at the end of `path`, inserted in address order among its host's edges.

    Path copying: only the nodes from the root down to the host are rebuilt, and every other subtree is shared.
    Each level scans its node's few edges: for the path's address (that object, or its parts), or at the host
    for the first edge past the new address.
    """
    above: list[tuple[DerivationTree, int]] = []  # each node above the host, with the index of its edge down
    host = derivation
    for addr in path[:-1]:
        edges, i = host.edges, 0
        while edges[i][0] is not addr and edges[i][0].parts != addr.parts:
            i += 1
        above.append((host, i))
        host = edges[i][1]
    edges, addr = host.edges, path[-1]
    parts, i = addr.parts, 0
    while i < len(edges) and edges[i][0].parts < parts:
        i += 1
    node = derivation_node(host.root, (*edges[:i], (addr, derivation_node(label, ())), *edges[i:]))
    for host, i in reversed(above):
        edges = host.edges
        node = derivation_node(host.root, (*edges[:i], (edges[i][0], node), *edges[i + 1 :]))
    return node


def _tag_child(record: DerivationRecord, tree: SyntaxTree, path: _Path, state: _TagState, row: Row) -> _TagState:
    """`state` with the step `record` taken at `row` of its tree, grafting the stamped guest `tree` at `path`."""
    derivation = _grafted(state.derivation, path, record.guest)
    return _TagState(state.root, RULE[record.operation][1](row, tree), state.history + (record,), derivation)


def _tag_moves(
    guests: _Guests, table: _Sites, paths: dict[str, _Path], state: _TagState, count: list[int] | None = None
) -> Iterator[_Move]:
    tree, slots = state.tree, state.tree.root.slots
    sites: list[tuple[str, str | None, Row]] = [("substitution", None, row) for row in _slot_rows(tree).values()]
    if guests["adjunction"]:  # with no auxiliary, the only sites are slots
        sites += [("adjunction", text, row) for text, row, _ in _adjunction_sites(tree, guests["adjunction"])]
    for operation, addr_text, row in sites:
        node = row[2]
        if (offers := table.get(node.site)) is None:
            offers = table[node.site] = _offers(guests, paths, operation, node)
        if offers:
            addr_text = addr_text or _row_text(row)
            for record, change, guest, path in offers:
                if count is not None and slots + change:
                    count[0] += 1
                    continue
                build = partial(_tag_child, record, guest, path, state, row)
                yield (addr_text, record.guest), record, slots + change == 0, build, None


# --- link-sharing moves -----------------------------------------------------------


def _pair_class(pair: LstagPair) -> TreeClass | None:
    """The class both trees of a pair share, or None if they differ or are ill-formed."""
    try:
        left, right = classify(pair.left_tree), classify(pair.right_tree)
    except LstagError:
        return None
    return left if left is right else None


def _lstag_moves(
    initial: list[tuple[str, LstagPair]],
    auxiliary: list[tuple[str, LstagPair]],
    stamps: Stamps,
    s: DerivedStructure,
    count: list[int] | None = None,
) -> Iterator[_Move]:
    groups = s.live_links
    live = len(groups)  # a guest spends every phi link on a group the step leaves live
    lefts, rights_at = _slot_rows(s.left_tree), _slot_rows(s.right_spine)
    host: tuple[dict[str, int], ...] = ()  # `_interior_symbols` of the left tree and the spine, once a step needs them

    def bound(pair: LstagPair, filled: int) -> int | None:
        """None where a step composing `pair` leaves one left slot open or none, else at least its state's moves.

        `filled` is 1 where the step fills a group and its left slot.  Each group the step leaves live or adds
        meets each initial guest once at most, and each auxiliary pairs unmarked interior nodes of its two root
        symbols, each node the host's or the guest's.
        """
        nonlocal host
        if s.left_tree.root.slots - filled + pair.left_tree.root.slots < 2:
            return None
        host_left, host_right = host = host or (_interior_symbols(s.left_tree), _interior_symbols(s.right_spine))
        left, right = _interior_symbols(pair.left_tree), _interior_symbols(pair.right_tree)
        total = (live - filled + len(pair.delta)) * len(initial)
        for _, aux in auxiliary:
            l, r = aux.left_tree.root_symbol, aux.right_tree.root_symbol
            total += (host_left.get(l, 0) + left.get(l, 0)) * (host_right.get(r, 0) + right.get(r, 0))
        return total

    # Each initial guest whose phi links leave a group live, with its root symbols, read once per call.
    fillers = [(n, p, p.left_tree.root_symbol, p.right_tree.root_symbol) for n, p in initial if len(p.phi) < live]
    for gi, group in enumerate(groups):
        left = lefts.get(group.left_site)
        rights = tuple(map(rights_at.get, group.right_sites))
        if left is None or None in rights:  # an initial guest fills slots only, and an unvalidated link names none
            continue
        if not s.fragment_parents.isdisjoint(group.right_sites):  # a slot a fragment fills takes no other guest
            continue
        shared = len(rights) > 1  # a guest shared by several right sites carries no link of its own
        site = group.right_sites[0]
        if not shared and sum(g.left_site == group.left_site or site in g.right_sites for g in groups) > 1:
            continue  # a one-site group is filled only where no other live group meets its sites
        slot, right_symbols = left[2].kind, {row[2].kind.symbol for row in rights}
        operation = "shared-substitution" if shared else "substitution"  # the one `step_record` names
        for name, pair, symbol, right_symbol in fillers:
            if symbol != slot.symbol:
                continue
            if right_symbols != {right_symbol}:  # every right slot takes the guest's right root
                continue
            if shared and (pair.delta or pair.phi):
                continue
            complete = closes(s, pair, operation, group.right_sites)
            if count is not None and not complete:
                count[0] += 1
                continue
            record = step_record(left, rights, name)
            build = partial(build_step, stamps, s, record, pair, left, rights)
            yield (0, gi, name), record, complete, build, bound(pair, 1)
    adjoining = [(n, p, p.left_tree.root_symbol, p.right_tree.root_symbol) for n, p in auxiliary if len(p.phi) <= live]
    left_sites = right_sites = None  # each tree's adjunction sites, walked to once a guest makes a move
    for name, pair, left_root, right_root in adjoining:
        complete = closes(s, pair, "adjunction", ())  # the same at every site pair
        if count is not None and not complete:
            host = host or (_interior_symbols(s.left_tree), _interior_symbols(s.right_spine))
            count[0] += host[0].get(left_root, 0) * host[1].get(right_root, 0)
            continue
        if left_sites is None:
            left_sites = _adjunction_sites(s.left_tree, {left_root for _, _, left_root, _ in adjoining})
            right_sites = _adjunction_sites(s.right_spine, {right_root for _, _, _, right_root in adjoining})
        at_most = bound(pair, 0)  # the same at every site pair
        for left_text, left, ln in left_sites:
            if ln.kind.symbol != left_root:
                continue
            guest_id = guest_instance_id(ln.site, name)
            for right_text, right, rn in right_sites:
                if rn.kind.symbol == right_root:
                    record = DerivationRecord("adjunction", name, guest_id, ln.site, (rn.site,))
                    build = partial(build_step, stamps, s, record, pair, left, (right,))
                    yield (1, left_text, right_text, name), record, complete, build, at_most


@no_cycles
def enumerate_derivations(
    grammar: TagGrammar | LstagGrammar, budget: EnumerationBudget
) -> EnumerationResult:
    if isinstance(grammar, TagGrammar):
        initial = [(n, e.tree) for n, e in grammar.entries if e.tree_class is TreeClass.INITIAL]
        roots = (_TagState(n, tree.owned_by(n), (), DerivationTree(n)) for n, tree in initial)
        # One site table, with one stamp per guest instance, and one path table: they live for this call alone.
        return _search(roots, partial(_tag_moves, grammar.guests, {}, {n: () for n, _ in initial}), budget)
    if isinstance(grammar, LstagGrammar):
        classes = {name: _pair_class(pair) for name, pair in grammar.pairs}
        initial = [(n, p) for n, p in grammar.pairs if classes[n] is TreeClass.INITIAL]
        auxiliary = [(n, p) for n, p in grammar.pairs if classes[n] is TreeClass.AUXILIARY]
        roots = (structure_from_pair(pair) for _, pair in initial)
        # One stamp table, with one stamp per guest instance: it lives for this call alone.
        return _search(roots, partial(_lstag_moves, initial, auxiliary, {}), budget)
    raise TypeError(f"cannot enumerate over {type(grammar).__name__}")


def language_sample(grammar: TagGrammar | LstagGrammar, budget: EnumerationBudget) -> list[str]:
    result = enumerate_derivations(grammar, budget)
    return sorted({item.yield_text for item in result.items})
