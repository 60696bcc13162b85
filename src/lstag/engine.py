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
yields `(order_key, record, check)` for every candidate next step: `record`
is the derivation record the step would append, worked out without
composing, and `check()` raises `LstagError` if the step is illegal and
otherwise returns whether the next state will be complete, worked out from
slot counts, and the `build` that composes it and cannot fail.  The core
expands a state's moves in key order and drops a move whose
`(root, history + record)` key it has already seen before checking it; a
move whose check passes marks its key.  The record set of the history is
built once per expanded state, and each move's key extends it by the one
record, so only that record is hashed.  The queue holds one kind of entry,
`(complete, build)`, for roots and children alike, and a state is built
when popped.  Roots are queued unkeyed: grammars reject duplicate names, and
a child's key holds a record, so no key could repeat a root's.  A state at
the operation budget is never expanded: it decides `truncated` by asking
whether some move passes its check.  The search is breadth-first, so every
entry left after that is at the budget too, and it is built only if it is
complete.

Both grammars take TAG's two operations, substitution at slots and
adjunction at interior nodes, so both move generators find their sites with
the same two walks, one per operation.  `_slot_rows` maps the site of each
substitution slot to its row and enters only subtrees that hold a slot
(`TreeNode.slots`).  `_adjunction_sites` lists in preorder, with its address
text, each interior node that no adjunction has marked `adjoined` and whose
symbol is the root symbol of an auxiliary that may fit; it enters interior
nodes only, and it is not called where no auxiliary can fit.  A move reads
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
stores none.  Each state builds its own address and order-key text, at the
nodes some guest fits only.  No two nodes of a plain-TAG state share a site
(a guest instance's id names the one host site it fills), so the slot
walk's table holds every slot.

Link-sharing moves are checked by `sharing.check_step` on the rows of their
sites.  Substitutions fill live link groups (one move fills every shared
site).  A group takes an initial guest only if its sites are substitution
slots, so the slot walk of each tree gives its rows, and they give
`sharing.step_record` its record.  Adjunctions pair the sites the interior
walk finds in the two trees, with records built from those nodes.  Each
guest instance is stamped once per enumeration: the search keeps one stamp
table (`sharing.Stamps`), which a move's build fills the first time it
builds that instance, and drops it when it returns.

Like a plain-TAG site, a link-sharing step meets only the guests that can
fit it, read off the guest pair and the host alone: a group meets an
initial guest only at a left substitution slot of the guest's left root
symbol, a group of several right sites only a guest with no links of its
own, and no guest is offered whose phi links outnumber the groups the step
leaves live (every live group for an adjunction, all but the filled one
for a substitution).  `check_step` is still the judge of every move
offered, so leaving out moves it would reject changes no result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Container, Iterable, Iterator, Union

from .errors import LstagError
from .sharing import (
    DerivationGraph,
    DerivationRecord,
    DerivedStructure,
    LstagGrammar,
    LstagPair,
    Stamps,
    check_step,
    guest_instance_id,
    left_projection,
    step_record,
    structure_from_pair,
)
from .tag import DerivationTree, TagGrammar
from .trees import (
    RULE,
    Interior,
    Row,
    SiteRef,
    SyntaxTree,
    TreeClass,
    TreeNode,
    classify,
    row_address,
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
_Checked = tuple[bool, Callable[[], _State]]
_Move = tuple[tuple, DerivationRecord, Callable[[], _Checked]]
_Guests = dict[str, dict[str, dict[str, SyntaxTree]]]  # `TagGrammar.guests`: {operation: {root symbol: {name: tree}}}
# A site table, kept for one enumeration: {site: [(record, slot change, stamped guest tree)]}
_Sites = dict[SiteRef | None, list[tuple[DerivationRecord, int, SyntaxTree]]]


def _passes(check: Callable[[], _Checked]) -> bool:
    try:
        check()
    except LstagError:
        return False
    return True


def _search(
    roots: Iterable[_State],
    moves: Callable[[_State], Iterator[_Move]],
    budget: EnumerationBudget,
) -> EnumerationResult:
    seen: set[tuple[str, frozenset[DerivationRecord]]] = set()
    queue: deque[_Checked] = deque((state.is_complete, partial(_built, state)) for state in roots)
    complete: list[_State] = []
    truncated = False
    explored = 0
    while queue:
        will_complete, build = queue.popleft()
        explored += 1
        if explored > budget.max_structures:
            truncated = True
            break
        if truncated and not will_complete:  # breadth first: every entry left is at the budget
            continue
        state = build()
        if state.is_complete:
            complete.append(state)
        if len(state.history) >= budget.max_operations:
            truncated = truncated or any(_passes(check) for _, _, check in moves(state))
            continue
        base = frozenset(state.history)
        for _, record, check in sorted(moves(state), key=lambda m: m[0]):
            key = (state.root, base | {record})  # the copy keeps base's hashes: only record is hashed
            if key in seen:
                continue
            try:
                checked = check()
            except LstagError:
                continue
            seen.add(key)
            queue.append(checked)
    items = sorted(
        (EnumerationItem(s.root, s.history, s.left_yield(), *s.projections()) for s in complete),
        key=EnumerationItem.sort_key,
    )
    return EnumerationResult(tuple(items), truncated)


def _built(state: _State) -> _State:
    """The build of a state that already exists."""
    return state


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


def _adjunction_sites(tree: SyntaxTree, symbols: Container[str]) -> list[tuple[str, Row, TreeNode]]:
    """(address text, row, node) of each interior node no adjunction has marked whose symbol is in `symbols`.

    In preorder; the walk enters interior nodes only.
    """
    sites = []
    stack: list[Row] = [(None, 0, tree.root)]
    pop, push = stack.pop, stack.append
    while stack:
        row = pop()
        node = row[2]
        if node.kind.symbol in symbols and not node.adjoined:
            sites.append((str(row_address(row)), row, node))
        kids = node.children
        k = len(kids)
        while k:
            if isinstance(kids[k - 1].kind, Interior):
                push((row, k, kids[k - 1]))
            k -= 1
    return sites


# --- plain TAG moves ------------------------------------------------------------


@dataclass(frozen=True)
class _TagState:
    root: str
    tree: SyntaxTree
    history: tuple[DerivationRecord, ...]

    @property
    def is_complete(self) -> bool:
        return not self.tree.root.slots

    def left_yield(self) -> tuple[str, ...]:
        return yield_tokens(self.tree)

    def projections(self) -> tuple[DerivationTree, None]:
        return left_projection(self.history, self.root), None


def _offers(guests: _Guests, operation: str, node: TreeNode) -> list[tuple[DerivationRecord, int, SyntaxTree]]:
    """The offers at `node`'s elementary site, one per guest of `operation` that fits there, in grammar order."""
    fits = guests[operation].get(node.kind.symbol, {})  # type: ignore[union-attr]
    ref, consumed = node.site, operation == "substitution"
    records = [DerivationRecord(operation, name, guest_instance_id(ref, name), ref, ()) for name in fits]
    return [(r, tree.root.slots - consumed, tree.owned_by(r.guest_id)) for r, tree in zip(records, fits.values())]


def _tag_child(record: DerivationRecord, tree: SyntaxTree, state: _TagState, row: Row) -> _TagState:
    """`state` with the step `record` taken at `row` of its tree, grafting the stamped guest `tree`."""
    return _TagState(state.root, RULE[record.operation][1](row, tree), state.history + (record,))


def _legal(complete: bool, build: Callable[[], _TagState]) -> _Checked:
    """The check of a move that is legal by construction."""
    return complete, build


def _tag_moves(guests: _Guests, table: _Sites, state: _TagState) -> Iterator[_Move]:
    tree, slots = state.tree, state.tree.root.slots
    sites: list[tuple[str, str | None, Row]] = [("substitution", None, row) for row in _slot_rows(tree).values()]
    if guests["adjunction"]:  # with no auxiliary, the only sites are slots
        sites += [("adjunction", text, row) for text, row, _ in _adjunction_sites(tree, guests["adjunction"])]
    for operation, addr_text, row in sites:
        node = row[2]
        if (offers := table.get(node.site)) is None:
            offers = table[node.site] = _offers(guests, operation, node)
        if offers:
            addr_text = addr_text or str(row_address(row))
            for record, change, guest in offers:
                build = partial(_tag_child, record, guest, state, row)
                yield (addr_text, record.guest), record, partial(_legal, slots + change == 0, build)


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
) -> Iterator[_Move]:
    live = len(s.live_links)  # a guest spends every phi link on a group the step leaves live
    lefts, rights_at = _slot_rows(s.left_tree), _slot_rows(s.right_spine)
    for gi, group in enumerate(s.live_links):
        left = lefts.get(group.left_site)
        rights = tuple(map(rights_at.get, group.right_sites))
        if left is None or None in rights:  # an initial guest fills slots only, and an unvalidated link names none
            continue
        slot = left[2].kind
        shared = len(rights) > 1  # a guest shared by several right sites carries no link of its own
        for name, pair in initial:
            if pair.left_tree.root_symbol != slot.symbol or len(pair.phi) >= live:
                continue
            if shared and (pair.delta or pair.phi):
                continue
            record = step_record(left, rights, name)
            yield (0, gi, name), record, partial(check_step, stamps, s, record, pair, left, rights)
    auxiliary = [(name, pair) for name, pair in auxiliary if len(pair.phi) <= live]
    if not auxiliary:  # no site is walked to for an adjunction that no guest can make
        return
    left_sites = _adjunction_sites(s.left_tree, {pair.left_tree.root_symbol for _, pair in auxiliary})
    right_sites = _adjunction_sites(s.right_spine, {pair.right_tree.root_symbol for _, pair in auxiliary})
    for name, pair in auxiliary:
        for left_text, left, ln in left_sites:
            if ln.kind.symbol != pair.left_tree.root_symbol:
                continue
            guest_id = guest_instance_id(ln.site, name)
            for right_text, right, rn in right_sites:
                if rn.kind.symbol == pair.right_tree.root_symbol:
                    record = DerivationRecord("adjunction", name, guest_id, ln.site, (rn.site,))
                    check = partial(check_step, stamps, s, record, pair, left, (right,))
                    yield (1, left_text, right_text, name), record, check


def enumerate_derivations(
    grammar: TagGrammar | LstagGrammar, budget: EnumerationBudget
) -> EnumerationResult:
    if isinstance(grammar, TagGrammar):
        roots = (_TagState(n, e.tree.owned_by(n), ()) for n, e in grammar.entries if e.tree_class is TreeClass.INITIAL)
        # One site table, with one stamp per guest instance: it lives for this call alone.
        return _search(roots, partial(_tag_moves, grammar.guests, {}), budget)
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
