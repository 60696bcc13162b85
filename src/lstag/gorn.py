"""Gorn addresses: paths of positive child indices identifying tree nodes.

The root is the empty path and is printed as "ε".  The total order is
plain lexicographic order on the component tuples, so a prefix precedes
every extension of itself and siblings sort by index.

`GornAddress(parts)` and `GornAddress.parse` are the checked boundary: both
reject a component that is not an integer >= 1.  Addresses derived from
valid ones (`extend`, `parent`, `suffix_after`, the address views of a
tree, `child` once its new index is checked, and `trees.rebase_address`,
which only the host map of `adjoin_with_maps` applies, for `stag_compose`'s
link endpoints) are trusted and skip that check.  Whether an address names
a node of a given tree is a separate question: `tag.validate_derivation`
answers it once for a derivation's edges, before `replay` composes there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

ROOT_TEXT = "ε"


def _is_index(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 1


@total_ordering
@dataclass(frozen=True)
class GornAddress:
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        if not all(map(_is_index, parts)):
            raise ValueError(f"address components must be integers >= 1, got {parts!r}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "GornAddress":
        """An address over parts taken from valid addresses, built without the check."""
        addr = object.__new__(cls)
        object.__setattr__(addr, "parts", parts)
        return addr

    @classmethod
    def parse(cls, text: str) -> "GornAddress":
        text = text.strip()
        if text in (ROOT_TEXT, ""):
            return cls(())
        try:
            return cls(tuple(int(piece) for piece in text.split(".")))
        except ValueError:
            raise ValueError(f"malformed Gorn address: {text!r}") from None

    def child(self, k: int) -> "GornAddress":
        if not _is_index(k):
            raise ValueError(f"address components must be integers >= 1, got {self.parts + (k,)!r}")
        return GornAddress._of(self.parts + (k,))

    def extend(self, other: "GornAddress") -> "GornAddress":
        return GornAddress._of(self.parts + other.parts)

    @property
    def parent(self) -> "GornAddress":
        if not self.parts:
            raise ValueError("the root address has no parent")
        return GornAddress._of(self.parts[:-1])

    def is_prefix_of(self, other: "GornAddress") -> bool:
        return other.parts[: len(self.parts)] == self.parts

    def is_proper_prefix_of(self, other: "GornAddress") -> bool:
        return len(self.parts) < len(other.parts) and self.is_prefix_of(other)

    def suffix_after(self, prefix: "GornAddress") -> "GornAddress":
        if not prefix.is_prefix_of(self):
            raise ValueError(f"{prefix} is not a prefix of {self}")
        return GornAddress._of(self.parts[len(prefix.parts):])

    def __lt__(self, other: "GornAddress") -> bool:
        return self.parts < other.parts

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ".".join(str(k) for k in self.parts) if self.parts else ROOT_TEXT

    def __repr__(self) -> str:
        return f"GornAddress({str(self)!r})"


ROOT = GornAddress(())
