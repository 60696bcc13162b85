"""Reference derivation validation with eager paths.

This is `tag.validate_derivation` as it was before it built a path's text
only for a diagnostic: every stack entry carries its full derivation path,
`root/2.2/1`, and each edge looks its node up twice, with `has_address`
and then `node_at`.  The library's lazy version must report the same
(code, message, where) list; `test_properties.py` checks that.
"""

from __future__ import annotations

from lstag import Diagnostic, DerivationTree, GornAddress, Interior, SubstitutionSlot, TagGrammar, TreeClass


def edge_problem(grammar: TagGrammar, parent: str, addr: GornAddress, child: str) -> tuple[str, str] | None:
    tree = grammar.get(parent).tree
    if not tree.has_address(addr):
        return "EdgeAddressInvalid", f"{parent!r} has no address {addr}"
    if child not in grammar:
        return None  # reported when the child is visited
    kind, entry = tree.node_at(addr), grammar.get(child)
    if isinstance(kind, SubstitutionSlot):
        if entry.tree_class is not TreeClass.INITIAL:
            return "OperationMismatch", f"slot at {addr} needs an initial tree, got {child!r}"
        if entry.tree.root_symbol != kind.symbol:
            return "SymbolMismatch", f"slot at {addr} expects {kind.symbol!r}, got root {entry.tree.root_symbol!r}"
    elif isinstance(kind, Interior):
        if entry.tree_class is not TreeClass.AUXILIARY:
            return "OperationMismatch", f"interior node at {addr} needs an auxiliary tree, got {child!r}"
        if entry.tree.root_symbol != kind.symbol:
            return (
                "SymbolMismatch",
                f"adjunction at {addr} expects {kind.symbol!r}, got root {entry.tree.root_symbol!r}",
            )
    else:
        return "OperationMismatch", f"cannot compose at {addr}: node is {kind}"
    return None


def validate_derivation(grammar: TagGrammar, d: DerivationTree) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    # (node, its path, and the (parent name, address, parent path) of the edge above it)
    stack: list[tuple[DerivationTree, str, tuple[str, GornAddress, str] | None]] = [(d, "root", None)]
    while stack:
        node, path, edge = stack.pop()
        if edge is not None:
            parent, addr, parent_path = edge
            problem = edge_problem(grammar, parent, addr, node.root)
            if problem is not None:
                diags.append(Diagnostic(*problem, parent_path))
        if node.root not in grammar:
            diags.append(Diagnostic("UnknownTree", f"no elementary tree named {node.root!r}", path))
            continue
        stack.extend((child, f"{path}/{addr}", (node.root, addr, path)) for addr, child in reversed(node.edges))
    return diags
