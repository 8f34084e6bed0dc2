"""Exception types shared across the package."""

from __future__ import annotations


class FilicertError(Exception):
    """Base class for all errors raised by this package."""


class ZeroSpecialization(FilicertError):
    """Evaluation at t = 0 of a scalar with a pole at t = 0."""


class NotAUnit(FilicertError):
    """A scalar or determinant that is not of the form c*t^k."""


class DimensionMismatch(FilicertError):
    """Operands of incompatible dimensions."""


class NegativeExponent(FilicertError):
    """A t-pole where a polynomial entry is required."""


class NotInvariant(FilicertError):
    """A subspace that is not invariant under the given matrix."""


class InvalidSpec(FilicertError):
    """A deformation specification violating one of its invariants."""


class ValidationError(FilicertError):
    """Structurally well-formed input violating a semantic invariant."""


class ParseError(FilicertError):
    """Syntax error at a column, with the set of expected tokens.  In a file,
    named as ``source``, the text starts with ``<source>:<line>:``."""

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 expected: tuple[str, ...] = (), source: str = ""):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        prefix = f"{source}:{line}: " if source else ""
        super().__init__(f"{prefix}{message} at column {column}{hint}")
