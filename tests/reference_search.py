"""Reference enumerator: build every move's state, then drop duplicates.

This is the search as it was before moves carried their derivation record:
each move generator composes every legal next state, and the breadth-first
loop keys the built state on `(root, frozenset(history))` to drop the ones
already seen.  `lstag.engine.enumerate_derivations` must return exactly what
`reference_enumerate` returns; `test_engine.py` checks that.

Plain TAG states carry their own provenance table and are composed with the
flat-table reference in `reference_trees.py`, so this side shares no tree
composition code with the engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial

from lstag import (
    DerivationRecord,
    EnumerationItem,
    EnumerationResult,
    GornAddress,
    Interior,
    LstagError,
    LstagGrammar,
    SiteRef,
    SubstitutionSlot,
    SyntaxTree,
    TagGrammar,
    TreeClass,
    derivation_projections,
    lstag_compose,
    shared_substitute,
    structure_from_pair,
    yield_tokens,
)
from lstag.engine import _pair_class
from lstag.sharing import guest_instance_id

from reference_trees import adjoin_with_maps, initial_prov, substitute_with_maps, updated_prov


@dataclass(frozen=True)
class _TagState:
    root: str
    tree: SyntaxTree
    prov: tuple[tuple[GornAddress, SiteRef], ...]
    history: tuple[DerivationRecord, ...]

    @cached_property
    def adjoined(self):
        return frozenset(r.left_site for r in self.history if r.operation == "adjunction")

    @property
    def is_complete(self) -> bool:
        return not self.tree.slot_addresses

    def left_yield(self):
        return yield_tokens(self.tree)

    def projections(self):
        return derivation_projections(self.history, self.root)[0], None


def _search(roots, moves, budget) -> EnumerationResult:
    seen = set()
    queue = deque()

    def push(state) -> None:
        key = (state.root, frozenset(state.history))
        if key not in seen:
            seen.add(key)
            queue.append(state)

    for state in roots:
        push(state)
    complete = []
    truncated = False
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if explored > budget.max_structures:
            truncated = True
            break
        if state.is_complete:
            complete.append(state)
        if len(state.history) >= budget.max_operations:
            truncated = truncated or next(moves(state), None) is not None
            continue
        for _, nxt in sorted(moves(state), key=lambda m: m[0]):
            push(nxt)
    items = sorted(
        (EnumerationItem(s.root, s.history, s.left_yield(), *s.projections()) for s in complete),
        key=EnumerationItem.sort_key,
    )
    return EnumerationResult(tuple(items), truncated)


def _tag_moves(guests, state):
    prov = dict(state.prov)
    for addr, kind in state.tree.items():
        ref = prov[addr]
        if isinstance(kind, SubstitutionSlot):
            operation, compose = "substitution", substitute_with_maps
        elif isinstance(kind, Interior) and ref not in state.adjoined:
            operation, compose = "adjunction", adjoin_with_maps
        else:
            continue
        for name, tree in guests[operation]:
            if tree.root_symbol != kind.symbol:
                continue
            res = compose(state.tree, addr, tree)
            guest_id = guest_instance_id(ref, name)
            record = DerivationRecord(operation, name, guest_id, ref, ())
            new_prov = updated_prov(prov, res.host_moved, res.guest_placed, guest_id)
            yield (str(addr), name), _TagState(state.root, res.tree, new_prov, state.history + (record,))


def _lstag_moves(initial, auxiliary, s):
    for gi, group in enumerate(s.live_links):
        for name, pair in initial:
            try:
                nxt = shared_substitute(s, group, pair)
            except LstagError:
                continue
            yield (0, gi, name), nxt
    # lstag_compose rejects a second adjunction at one elementary node, so
    # every interior pair is tried and the failures are dropped below.
    left_sites = [a for a, k in s.left_tree.items() if isinstance(k, Interior)]
    right_sites = [a for a, k in s.right_spine.items() if isinstance(k, Interior)]
    for name, pair in auxiliary:
        for la in left_sites:
            if s.left_tree.node_at(la).symbol != pair.left_tree.root_symbol:
                continue
            for ra in right_sites:
                if s.right_spine.node_at(ra).symbol != pair.right_tree.root_symbol:
                    continue
                try:
                    nxt = lstag_compose(s, la, ra, pair)
                except LstagError:
                    continue
                yield (1, str(la), str(ra), name), nxt


def reference_enumerate(grammar, budget) -> EnumerationResult:
    if isinstance(grammar, TagGrammar):
        guests = {
            operation: [(n, e.tree) for n, e in grammar.entries if e.tree_class is tree_class]
            for operation, tree_class in (
                ("substitution", TreeClass.INITIAL),
                ("adjunction", TreeClass.AUXILIARY),
            )
        }
        roots = (
            _TagState(name, tree, initial_prov(tree, name), ()) for name, tree in guests["substitution"]
        )
        return _search(roots, partial(_tag_moves, guests), budget)
    assert isinstance(grammar, LstagGrammar)
    classes = {name: _pair_class(pair) for name, pair in grammar.pairs}
    initial = [(n, p) for n, p in grammar.pairs if classes[n] is TreeClass.INITIAL]
    auxiliary = [(n, p) for n, p in grammar.pairs if classes[n] is TreeClass.AUXILIARY]
    roots = (structure_from_pair(pair) for _, pair in initial)
    return _search(roots, partial(_lstag_moves, initial, auxiliary), budget)
