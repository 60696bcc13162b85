"""Deterministic JSON and DOT renderings of trees, structures, and derivations.

Shared right-side nodes are drawn once with one incoming edge per parent,
so the tangled shape of a coordination derivation is visible directly in
the graph output.  Nothing here depends on time, locale, or hashing order.
"""

from __future__ import annotations

import json

from .gorn import ROOT, GornAddress
from .sharing import DerivationGraph, DerivedStructure, derivation_projections
from .tag import DerivationTree, derivation_to_json_obj
from .trees import Foot, Interior, SubstitutionSlot, SyntaxTree, Terminal, format_tree


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _kind_label(kind) -> str:
    if isinstance(kind, Interior):
        return kind.symbol
    if isinstance(kind, SubstitutionSlot):
        return kind.symbol + "↓"
    if isinstance(kind, Foot):
        return kind.symbol + "*"
    return kind.token


def _tree_node_id(prefix: str, addr: GornAddress) -> str:
    if not addr.parts:
        return prefix
    return prefix + "_" + "_".join(str(k) for k in addr.parts)


def tree_dot_lines(tree: SyntaxTree, prefix: str, indent: str = "  ") -> list[str]:
    """Node lines in address order, then each node's child edges in the same order."""
    lines, edges = [], []
    for addr, node in tree.walk():
        node_id = _tree_node_id(prefix, addr)
        shape = "box" if isinstance(node.kind, Terminal) else "plaintext"
        lines.append(f'{indent}"{node_id}" [label="{_esc(_kind_label(node.kind))}" shape={shape}];')
        for k in range(1, len(node.children) + 1):
            edges.append(f'{indent}"{node_id}" -> "{_tree_node_id(prefix, addr.child(k))}";')
    return lines + edges


def tree_to_dot(tree: SyntaxTree, name: str = "tree") -> str:
    body = "\n".join(tree_dot_lines(tree, "n"))
    return f'digraph "{_esc(name)}" {{\n{body}\n}}\n'


def derivation_tree_to_dot(d: DerivationTree) -> str:
    """Each node's line, then for each edge its line and the child's lines, in preorder."""
    lines: list[str] = []
    stack: list[tuple[DerivationTree, str, str | None]] = [(d, "d", None)]  # node, id, edge line into it
    while stack:
        node, node_id, edge_line = stack.pop()
        if edge_line is not None:
            lines.append(edge_line)
        lines.append(f'  "{node_id}" [label="{_esc(node.root)}" shape=plaintext];')
        for addr, child in reversed(node.edges):
            child_id = node_id + "_" + str(addr).replace(".", "_")
            stack.append((child, child_id, f'  "{node_id}" -> "{child_id}" [label="{addr}"];'))
    return "digraph derivation {\n" + "\n".join(lines) + "\n}\n"


def derivation_graph_to_dot(g: DerivationGraph) -> str:
    lines = [f'  "{_esc(i)}" [label="{_esc(label)}" shape=plaintext];' for i, label in g.nodes]
    lines.extend(
        f'  "{_esc(parent)}" -> "{_esc(child)}" [label="{addr}"];' for parent, addr, child in g.edges
    )
    return "digraph derivation_graph {\n" + "\n".join(lines) + "\n}\n"


def derivation_graph_to_json_obj(g: DerivationGraph) -> dict:
    return {
        "root": g.root,
        "nodes": [{"id": i, "label": label} for i, label in g.nodes],
        "edges": [{"from": parent, "addr": addr, "to": child} for parent, addr, child in g.edges],
    }


def structure_to_json_obj(s: DerivedStructure) -> dict:
    left_proj, right_proj = derivation_projections(s.history, s.root)
    return {
        "root": s.root,
        "left": format_tree(s.left_tree),
        "right": {
            "spine": format_tree(s.right_spine),
            "fragments": [
                {
                    "id": f.guest_id,
                    "name": f.name,
                    "tree": format_tree(f.tree),
                    "parents": [str(s.right_address(p)) for p in f.parents],
                }
                for f in s.fragments
            ],
        },
        "liveLinks": [
            {"left": str(s.left_address(g.left_site)), "right": [str(s.right_address(x)) for x in g.right_sites]}
            for g in s.live_links
        ],
        "history": [
            {
                "operation": r.operation,
                "guest": r.guest,
                "id": r.guest_id,
                "left": {"owner": r.left_site.owner, "addr": str(r.left_site.addr)},
                "right": [{"owner": site.owner, "addr": str(site.addr)} for site in r.right_sites],
            }
            for r in s.history
        ],
        "projections": {
            "left": derivation_to_json_obj(left_proj),
            "right": derivation_graph_to_json_obj(right_proj),
        },
    }


_scalar = json.JSONEncoder(ensure_ascii=False).encode


def to_json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)` and a newline, without recursion.

    `obj` nests dicts with string keys, lists and scalars; a derivation's
    JSON nests once per level, deeper than `json.dumps` may recurse.
    """
    out: list[str] = []
    stack: list[tuple[object, int | None]] = [(obj, 0)]  # (value, depth), or (text, None)
    while stack:
        value, depth = stack.pop()
        if depth is None:
            out.append(value)  # type: ignore[arg-type]
            continue
        if isinstance(value, dict) and value:
            entries = [(_scalar(k) + ": ", v) for k, v in sorted(value.items())]
            opening, closing = "{", "}"
        elif isinstance(value, (list, tuple)) and value:
            entries = [("", v) for v in value]
            opening, closing = "[", "]"
        else:
            out.append(_scalar(value))
            continue
        indent = "\n" + "  " * (depth + 1)
        stack.append(("\n" + "  " * depth + closing, None))
        for i in range(len(entries) - 1, -1, -1):
            key, v = entries[i]
            stack.append((v, depth + 1))
            stack.append(((opening if i == 0 else ",") + indent + key, None))
    return "".join(out) + "\n"


def structure_to_dot(s: DerivedStructure) -> str:
    lines: list[str] = ["digraph derived {"]
    lines.append('  subgraph cluster_left {')
    lines.append('    label="left (constituency)";')
    lines.extend(tree_dot_lines(s.left_tree, "L", indent="    "))
    lines.append("  }")
    lines.append('  subgraph cluster_right {')
    lines.append('    label="right (dependency)";')
    lines.extend(tree_dot_lines(s.right_spine, "R", indent="    "))
    for idx, frag in enumerate(s.fragments):
        prefix = f"F{idx}"
        lines.extend(tree_dot_lines(frag.tree, prefix, indent="    "))
        for parent in frag.parents:
            parent_id = _tree_node_id("R", s.right_address(parent))
            lines.append(f'    "{parent_id}" -> "{_tree_node_id(prefix, ROOT)}" [style=dashed];')
    lines.append("  }")
    left_proj, right_proj = derivation_projections(s.history, s.root)
    lines.append('  subgraph cluster_derivation_left {')
    lines.append('    label="left derivation (tree)";')
    for raw in derivation_tree_to_dot(left_proj).splitlines()[1:-1]:
        lines.append("  " + raw.replace('"d"', '"dl"').replace('"d_', '"dl_'))
    lines.append("  }")
    lines.append('  subgraph cluster_derivation_right {')
    lines.append('    label="right derivation (graph)";')
    for node_id, label in right_proj.nodes:
        lines.append(f'    "dr:{_esc(node_id)}" [label="{_esc(label)}" shape=plaintext];')
    for parent, addr, child in right_proj.edges:
        lines.append(f'    "dr:{_esc(parent)}" -> "dr:{_esc(child)}" [label="{addr}"];')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def derived_tree_with_derivation_to_dot(tree: SyntaxTree, d: DerivationTree) -> str:
    lines: list[str] = ["digraph derived {"]
    lines.append('  subgraph cluster_tree {')
    lines.append('    label="derived tree";')
    lines.extend(tree_dot_lines(tree, "T", indent="    "))
    lines.append("  }")
    lines.append('  subgraph cluster_derivation {')
    lines.append('    label="derivation";')
    for raw in derivation_tree_to_dot(d).splitlines()[1:-1]:
        lines.append("  " + raw)
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
