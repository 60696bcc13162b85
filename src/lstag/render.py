"""Deterministic JSON and DOT renderings of trees, structures, and derivations.

DOT documents are composed from line builders (`tree_dot_lines`,
`derivation_tree_dot_lines`, `derivation_graph_dot_lines`) whose node ids
start with the caller's prefix, so graphs share a document as clusters and
no rendered text is rewritten.  A tree node's id spells its Gorn address; a
derivation node's id spells its edge addresses, with `'` appended where two
paths spell the same id, so each id is declared once.  Shared right-side
nodes are drawn once with one incoming edge per parent.  Nothing here
depends on time, locale, or hashing order.
"""

from __future__ import annotations

import json

from .grammarfile import GrammarDocument
from .sharing import DerivationGraph, DerivedStructure
from .tag import DerivationTree, derivation_to_json_obj
from .trees import Foot, Interior, Row, SubstitutionSlot, SyntaxTree, Terminal, format_tree


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


def _digraph(name: str, lines: list[str]) -> str:
    return "\n".join([f"digraph {name} {{", *lines, "}\n"])


def _cluster(name: str, label: str, lines: list[str]) -> list[str]:
    return [f"  subgraph cluster_{name} {{", f'    label="{_esc(label)}";', *lines, "  }"]


def tree_dot_lines(tree: SyntaxTree, prefix: str, indent: str = "  ") -> list[str]:
    """Node lines in address order, then each node's child edges in the same order."""
    lines, edges = [], []
    path: list[tuple[Row, str]] = []  # (row, id) from the root to the last node; in preorder a node's parent is on it
    for row in tree.rows():
        parent, k, node = row
        while path and path[-1][0] is not parent:
            path.pop()
        node_id = f"{path[-1][1]}_{k}" if path else prefix
        path.append((row, node_id))
        shape = "box" if isinstance(node.kind, Terminal) else "plaintext"
        lines.append(f'{indent}"{node_id}" [label="{_esc(_kind_label(node.kind))}" shape={shape}];')
        for k in range(1, len(node.children) + 1):
            edges.append(f'{indent}"{node_id}" -> "{node_id}_{k}";')
    return lines + edges


def tree_to_dot(tree: SyntaxTree, name: str = "tree") -> str:
    return _digraph(f'"{_esc(name)}"', tree_dot_lines(tree, "n"))


def derivation_tree_dot_lines(d: DerivationTree, prefix: str = "d", indent: str = "  ") -> list[str]:
    """Each node's line, then for each edge its line and the child's lines, in preorder.

    A child's id is its parent's id, `_` and the edge address with `_` for `.`.  An id already taken
    (child 1 of child 2 and child 2.1 both spell `d_2_1`) gets `'`, which no address spells, until free.
    """
    lines: list[str] = []
    taken: set[str] = set()
    stack: list[tuple[DerivationTree, str | None, str]] = [(d, None, "")]  # node, parent id, edge address
    while stack:
        node, parent_id, addr = stack.pop()
        node_id = prefix if parent_id is None else parent_id + "_" + addr.replace(".", "_")
        while node_id in taken:
            node_id += "'"
        taken.add(node_id)
        if parent_id is not None:
            lines.append(f'{indent}"{parent_id}" -> "{node_id}" [label="{addr}"];')
        lines.append(f'{indent}"{node_id}" [label="{_esc(node.root)}" shape=plaintext];')
        stack.extend((child, node_id, str(a)) for a, child in reversed(node.edges))
    return lines


def derivation_tree_to_dot(d: DerivationTree) -> str:
    return _digraph("derivation", derivation_tree_dot_lines(d))


def derivation_graph_dot_lines(g: DerivationGraph, prefix: str = "", indent: str = "  ") -> list[str]:
    """Node lines in `g.nodes` order, then edge lines in `g.edges` order; ids are `prefix` and the instance id."""
    nodes = [f'{indent}"{prefix}{_esc(i)}" [label="{_esc(label)}" shape=plaintext];' for i, label in g.nodes]
    return nodes + [f'{indent}"{prefix}{_esc(a)}" -> "{prefix}{_esc(b)}" [label="{addr}"];' for a, addr, b in g.edges]


def derivation_graph_to_dot(g: DerivationGraph) -> str:
    return _digraph("derivation_graph", derivation_graph_dot_lines(g))


def derivation_graph_to_json_obj(g: DerivationGraph) -> dict:
    return {
        "root": g.root,
        "nodes": [{"id": i, "label": label} for i, label in g.nodes],
        "edges": [{"from": parent, "addr": addr, "to": child} for parent, addr, child in g.edges],
    }


def structure_to_json_obj(s: DerivedStructure) -> dict:
    left_proj, right_proj = s.projections()
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
    right = tree_dot_lines(s.right_spine, "R", "    ")
    for idx, frag in enumerate(s.fragments):
        right += tree_dot_lines(frag.tree, f"F{idx}", "    ")
        for p in frag.parents:
            parent_id = "R" + "".join(f"_{k}" for k in s.right_address(p).parts)
            right.append(f'    "{parent_id}" -> "F{idx}" [style=dashed];')
    left_proj, right_proj = s.projections()
    return _digraph("derived", [
        *_cluster("left", "left (constituency)", tree_dot_lines(s.left_tree, "L", "    ")),
        *_cluster("right", "right (dependency)", right),
        *_cluster("derivation_left", "left derivation (tree)", derivation_tree_dot_lines(left_proj, "dl", "    ")),
        *_cluster("derivation_right", "right derivation (graph)",
                  derivation_graph_dot_lines(right_proj, "dr:", "    ")),
    ])


def derived_tree_with_derivation_to_dot(tree: SyntaxTree, d: DerivationTree) -> str:
    return _digraph("derived", [
        *_cluster("tree", "derived tree", tree_dot_lines(tree, "T", "    ")),
        *_cluster("derivation", "derivation", derivation_tree_dot_lines(d, "d", "    ")),
    ])


def grammar_to_dot(doc: GrammarDocument) -> str:
    """One cluster per tree and per side of each pair, in file order; cluster i's node ids start with `t<i>`."""
    entries = [(f"tree {name}", tree) for name, tree in doc.trees]
    for p in (*doc.stag_pairs, *doc.lstag_pairs):
        entries += [(f"{p.name} left", p.left_tree), (f"{p.name} right", p.right_tree)]
    lines: list[str] = []
    for index, (label, tree) in enumerate(entries):
        lines += _cluster(str(index), label, tree_dot_lines(tree, f"t{index}", "    "))
    return _digraph("grammar", lines)
