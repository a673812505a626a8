"""Exception types shared across the package.

Every domain failure raises a subclass of TreeFactorialError so the CLI can
map any of them to exit code 1 and print the class name on stderr.
"""

from __future__ import annotations

__all__ = [
    "TreeFactorialError",
    "ParseError",
    "StructureError",
    "DepthBudgetExceeded",
    "Exhausted",
    "IndexOutOfRange",
    "AllOpenCircuit",
    "Inconclusive",
    "NotBiased",
    "Mismatch",
]


class TreeFactorialError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(TreeFactorialError):
    """Malformed tree file or generator spec.

    Carries the 1-based line number when the source is a file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StructureError(TreeFactorialError):
    """Structurally invalid tree: bad ids, orphan nodes, missing lengths."""


class DepthBudgetExceeded(TreeFactorialError):
    """A walk ran past sources.DEFAULT_BUDGET levels, a truncation past as many
    vertices, or a level past what a list holds."""


class Exhausted(TreeFactorialError):
    """Every boundary element hit its capacity before the requested term."""


class IndexOutOfRange(TreeFactorialError):
    """Requested a factorial term at or past the boundary count N, or past
    the longest list of terms a leaf can hold."""


class AllOpenCircuit(TreeFactorialError):
    """No shorted (infinite-capacity) leaf exists, so no current can flow."""


class Inconclusive(TreeFactorialError):
    """The depth schedule ended without a convergent/divergent verdict."""


class NotBiased(TreeFactorialError):
    """Sequence fails the bias condition needed by the length construction."""


class Mismatch(TreeFactorialError):
    """Roundtrip comparison failed; carries the first differing index."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)
