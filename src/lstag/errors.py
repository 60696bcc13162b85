"""Exception types and the diagnostic record shared across the package."""

from __future__ import annotations

import json
from dataclasses import dataclass


class LstagError(Exception):
    """Base class for every error raised by this package."""


class AddressNotFound(LstagError):
    pass


class NotASlot(LstagError):
    pass


class NotInterior(LstagError):
    pass


class SymbolMismatch(LstagError):
    pass


class ClassMismatch(LstagError):
    pass


class IncompleteTree(LstagError):
    pass


class UnknownTree(LstagError):
    def __init__(self, message: str, name: str | None = None):
        super().__init__(message)
        self.name = name  # the name looked up, where one was


class EdgeAddressInvalid(LstagError):
    pass


class OperationMismatch(LstagError):
    pass


class DuplicateAdjunction(OperationMismatch):
    """A node of an elementary tree may host at most one adjunction."""


class LinkNotFound(LstagError):
    pass


class CardinalityViolation(LstagError):
    pass


class GroupNotLive(LstagError):
    pass


class UnsupportedGuestLinks(LstagError):
    """Guest links cannot be carried through a multi-site shared substitution."""


class InconsistentHistory(LstagError):
    pass


class ParseError(LstagError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: a stable code, a message, and where it applies."""

    code: str
    message: str
    where: str = ""

    def to_json(self) -> str:
        payload = {"code": self.code, "message": self.message, "where": self.where}
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)

    def __str__(self) -> str:
        prefix = f"{self.where}: " if self.where else ""
        return f"{prefix}{self.code}: {self.message}"
