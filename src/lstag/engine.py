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

Plain TAG takes at each node the operation `trees.OPERATION` names for its
kind: initial trees substitute at slots and auxiliary trees adjoin at
interior nodes.  A site meets only the guests `TagGrammar.guests` lists
for its operation and root symbol, so its moves are legal by construction
and build with the unchecked graft `trees.RULE` pairs with their operation.  They walk the tree's rows and
build a site's `GornAddress`, its order-key text and the guest instance-id
prefix once, where some guest fits; other nodes get no address.  Grafts
never stamp, so each guest instance's tree is stamped with its sites
(`owned_by`) once per enumeration, at its first use, in a table the
enumeration drops when it returns.  Link-sharing moves are checked by
`sharing.check_step` on the rows of their sites: substitutions fill live
link groups (one move fills every shared site), whose rows are read off
`by_site` once per state and give `sharing.step_record` its record, and
adjunctions pair the interior nodes of each tree that no adjunction has
marked `adjoined` and whose symbol is an auxiliary's root, with records
built from those nodes.  Such a site's address text, for the order key, is
built once per state.  A move reads the elementary site it composes at (its
`SiteRef`) off the node itself, so no state keeps a provenance table.
Like a plain-TAG site, a link-sharing step meets only the guests that can
fit it, read off the guest pair and the host alone: a group meets an
initial guest only at a left substitution slot of the guest's left root
symbol, a group of several right sites only a guest with no links of its
own, and no guest is offered whose phi links outnumber the groups the step
leaves live (every live group for an adjunction, all but the filled one for
a substitution).  `check_step` is still the judge of every move offered, so
leaving out moves it would reject changes no result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Union

from .errors import LstagError
from .gorn import GornAddress
from .sharing import (
    DerivationGraph,
    DerivationRecord,
    DerivedStructure,
    LstagGrammar,
    LstagPair,
    check_step,
    guest_instance_id,
    instance_prefix,
    left_projection,
    step_record,
    structure_from_pair,
)
from .tag import DerivationTree, TagGrammar
from .trees import OPERATION, RULE, SubstitutionSlot, SyntaxTree, TreeClass, classify, row_address, yield_tokens


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


def _tag_child(
    stamped: dict[tuple[str, str], SyntaxTree],
    state: _TagState,
    addr: GornAddress,
    guest: SyntaxTree,
    record: DerivationRecord,
) -> _TagState:
    """`state` with `record`'s step taken; `stamped` holds each guest instance's tree, stamped at its first use."""
    key = (record.guest, record.guest_id)
    tree = stamped.get(key)
    if tree is None:
        tree = stamped[key] = guest.owned_by(record.guest_id)
    graft = RULE[record.operation][1]
    return _TagState(state.root, graft(state.tree.row_at(addr), tree), state.history + (record,))


def _legal(complete: bool, build: Callable[[], _TagState]) -> _Checked:
    """The check of a move that is legal by construction."""
    return complete, build


def _tag_moves(guests: _Guests, stamped: dict[tuple[str, str], SyntaxTree], state: _TagState) -> Iterator[_Move]:
    slots = state.tree.root.slots
    for row in state.tree.rows():
        node = row[2]
        operation = OPERATION.get(type(node.kind))
        if operation is None or node.adjoined:  # only an interior node is ever marked
            continue
        fits = guests[operation].get(node.kind.symbol)  # type: ignore[union-attr]
        if not fits:
            continue
        open_slots = slots - (operation == "substitution")
        ref = node.site
        addr = row_address(row)
        addr_text, id_prefix = str(addr), instance_prefix(ref)
        for name, tree in fits.items():
            record = DerivationRecord(operation, name, id_prefix + name, ref, ())
            build = partial(_tag_child, stamped, state, addr, tree, record)
            yield (addr_text, name), record, partial(_legal, open_slots + tree.root.slots == 0, build)


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
    s: DerivedStructure,
) -> Iterator[_Move]:
    live = len(s.live_links)  # a guest spends every phi link on a group the step leaves live
    for gi, group in enumerate(s.live_links):
        left = s.left_tree.by_site.get(group.left_site)
        rights = tuple(map(s.right_spine.by_site.get, group.right_sites))
        if left is None or None in rights:  # an unvalidated link names no node, so no guest fills its group
            continue
        slot = left[2].kind
        if not isinstance(slot, SubstitutionSlot):  # an initial guest only substitutes
            continue
        shared = len(rights) > 1  # a guest shared by several right sites carries no link of its own
        for name, pair in initial:
            if pair.left_tree.root_symbol != slot.symbol or len(pair.phi) >= live:
                continue
            if shared and (pair.delta or pair.phi):
                continue
            record = step_record(left, rights, name)
            yield (0, gi, name), record, partial(check_step, s, record, pair, left, rights)
    auxiliary = [(name, pair) for name, pair in auxiliary if len(pair.phi) <= live]
    # (address text, row, node) of each node no adjunction has marked whose kind is an auxiliary's root, in preorder
    left_sites, right_sites = (
        [(str(row_address(r)), r, r[2]) for r in tree.rows() if r[2].kind in roots and not r[2].adjoined]
        for tree, roots in (
            (s.left_tree, {pair.left_tree.root.kind for _, pair in auxiliary}),
            (s.right_spine, {pair.right_tree.root.kind for _, pair in auxiliary}),
        )
    )
    for name, pair in auxiliary:
        for left_text, left, ln in left_sites:
            if ln.kind.symbol != pair.left_tree.root_symbol:
                continue
            guest_id = guest_instance_id(ln.site, name)
            for right_text, right, rn in right_sites:
                if rn.kind.symbol == pair.right_tree.root_symbol:
                    record = DerivationRecord("adjunction", name, guest_id, ln.site, (rn.site,))
                    check = partial(check_step, s, record, pair, left, (right,))
                    yield (1, left_text, right_text, name), record, check


def enumerate_derivations(
    grammar: TagGrammar | LstagGrammar, budget: EnumerationBudget
) -> EnumerationResult:
    if isinstance(grammar, TagGrammar):
        roots = (_TagState(n, e.tree.owned_by(n), ()) for n, e in grammar.entries if e.tree_class is TreeClass.INITIAL)
        # One stamp per guest instance: the table lives for this call alone.
        return _search(roots, partial(_tag_moves, grammar.guests, {}), budget)
    if isinstance(grammar, LstagGrammar):
        classes = {name: _pair_class(pair) for name, pair in grammar.pairs}
        initial = [(n, p) for n, p in grammar.pairs if classes[n] is TreeClass.INITIAL]
        auxiliary = [(n, p) for n, p in grammar.pairs if classes[n] is TreeClass.AUXILIARY]
        roots = (structure_from_pair(pair) for _, pair in initial)
        return _search(roots, partial(_lstag_moves, initial, auxiliary), budget)
    raise TypeError(f"cannot enumerate over {type(grammar).__name__}")


def language_sample(grammar: TagGrammar | LstagGrammar, budget: EnumerationBudget) -> list[str]:
    result = enumerate_derivations(grammar, budget)
    return sorted({item.yield_text for item in result.items})
