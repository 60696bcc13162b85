"""Gorn addresses: paths of positive child indices identifying tree nodes.

The root is the empty path and is printed as "ε".  The total order is
plain lexicographic order on the component tuples, so a prefix precedes
every extension of itself and siblings sort by index.  An address does not
order against a value of another type: `<` returns NotImplemented, so Python
raises TypeError, as it does for built-in types.

`GornAddress(parts)` and `GornAddress.parse` are the checked boundary: both
reject a component that is not an integer >= 1.  Addresses derived from
valid ones are trusted and skip that check: `extend`, `parent`,
`suffix_after`, `child` once its new index is checked, `trees.row_address`
(every address view of a tree reads a node's address off the rows of one
tree walk with it) and `trees.rebase_address` (which `stag_compose` applies
to the link endpoints an adjunction moves, as does the host map of
`adjoin_with_maps`).  Whether an address names a node of a tree is a
separate question, which `tag.replay` answers for an edge as it walks to it.

Addresses name every link group, fragment parent and derivation record
(through `trees.SiteRef`), so they are hashed, compared and printed far more
often than they are built.  An address hashes once, when it is built, to the
value a dataclass hash gives (`hash((parts,))`), and equality takes an
identity fast path; it builds its text the first time it is printed and keeps
it.  Both live in slots, not in an instance dict, and pickling rebuilds an
address through the checked constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

ROOT_TEXT = "ε"


def _is_index(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 1


class _Once:
    """The slots of what an address works out once: its hash, set when it is built, and its text, when printed."""

    __slots__ = ("_hash", "_text")


@total_ordering
@dataclass(frozen=True, slots=True)
class GornAddress(_Once):
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        if not all(map(_is_index, parts)):
            raise ValueError(f"address components must be integers >= 1, got {parts!r}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash((parts,)))

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "GornAddress":
        """An address over parts taken from valid addresses, built without the check."""
        addr = object.__new__(cls)
        object.__setattr__(addr, "parts", parts)
        object.__setattr__(addr, "_hash", hash((parts,)))
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
            raise ValueError(f"address components must be integers >= 1, got {(*self.parts, k)!r}")
        return GornAddress._of((*self.parts, k))

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

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts  # type: ignore[attr-defined]

    def __lt__(self, other: "GornAddress") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts < other.parts

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:  # the first print builds the text
            text = ".".join(map(str, self.parts)) if self.parts else ROOT_TEXT
            object.__setattr__(self, "_text", text)
            return text

    def __repr__(self) -> str:
        return f"GornAddress({str(self)!r})"

    def __reduce__(self):
        return GornAddress, (self.parts,)


ROOT = GornAddress(())
