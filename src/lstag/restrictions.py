"""Well-formedness restrictions on elementary structures.

Two checks gate which pairs may take part in coordination: the left element
must correspond to a dominance-connected region of the right element, and
an elementary tree that spells out a lexically discontiguous string (a slot
or foot between two anchors on its frontier) cannot coordinate.  The
smallest connected region holding a correspondence image runs from each
image address up to the image's longest common prefix; the region's nodes
outside the image are the excised segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Diagnostic
from .gorn import GornAddress
from .sharing import LstagPair
from .trees import Foot, SubstitutionSlot, SyntaxTree, Terminal, row_address


@dataclass(frozen=True)
class Correspondence:
    """Injective map from left-tree addresses to right-tree addresses."""

    pairs: tuple[tuple[GornAddress, GornAddress], ...]

    def __post_init__(self):
        lefts = [l for l, _ in self.pairs]
        rights = [r for _, r in self.pairs]
        if len(set(lefts)) != len(lefts):
            raise ValueError("correspondence maps a left address twice")
        if len(set(rights)) != len(rights):
            raise ValueError("correspondence is not injective")


def check_left_contiguity(p: LstagPair, c: Correspondence) -> list[Diagnostic]:
    """The correspondence image must form one connected region of the right tree."""
    diags: list[Diagnostic] = []
    for left, right in c.pairs:
        if not p.left_tree.has_address(left):
            diags.append(
                Diagnostic("AddressNotFound", f"correspondence source {left} missing from left tree", p.name)
            )
        if not p.right_tree.has_address(right):
            diags.append(
                Diagnostic("AddressNotFound", f"correspondence target {right} missing from right tree", p.name)
            )
    if diags:
        return diags
    image = {right.parts for _, right in c.pairs}
    # A set's longest common prefix is that of its lexicographic first and last.
    first, last = min(image, default=()), max(image, default=())
    top = next((k for k, (x, y) in enumerate(zip(first, last)) if x != y), min(len(first), len(last)))
    missing = {a[:k] for a in image for k in range(top, len(a) + 1)} - image
    if missing:
        segment = ", ".join(str(GornAddress._of(a)) for a in sorted(missing))
        diags.append(
            Diagnostic(
                "Discontiguous",
                f"left element corresponds to discontinuous parts of the right element; "
                f"excised segment at {segment}",
                p.name,
            )
        )
    return diags


def check_lexical_contiguity(t: SyntaxTree) -> list[Diagnostic]:
    """The terminal anchors must form one uninterrupted block on the frontier."""
    frontier = [row for row in t.rows() if not row[2].children]  # the leaves' rows, left to right
    terminal_positions = [i for i, row in enumerate(frontier) if isinstance(row[2].kind, Terminal)]
    if len(terminal_positions) < 2:
        return []
    first, last = terminal_positions[0], terminal_positions[-1]
    gaps = [
        row_address(frontier[i])
        for i in range(first + 1, last)
        if isinstance(frontier[i][2].kind, (SubstitutionSlot, Foot))
    ]
    if not gaps:
        return []
    where = ", ".join(str(a) for a in gaps)
    return [
        Diagnostic(
            "LexicallyDiscontiguous",
            f"lexical string is interrupted by open positions at {where}",
        )
    ]
