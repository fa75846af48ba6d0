"""Exception hierarchy shared by every bihomcheck module.

Everything raised on purpose derives from BihomError so the CLI can catch one
type, print a diagnostic and exit 2 instead of tracebacking on bad input.
Each failure kind has one class: TextSyntaxError for malformed text in both
grammars (coefficients and .idl laws, read by one tokenizer), MissingOp and
MissingMap for a name a bundle does not provide, wherever it is looked up.
"""

from __future__ import annotations


class BihomError(Exception):
    """Base class for all bihomcheck errors."""


class RingMismatch(BihomError):
    """Two values over different parameter lists were combined."""


class DivisionByZero(BihomError, ZeroDivisionError):
    """Division by the zero scalar."""


class DenominatorVanishes(BihomError, ZeroDivisionError):
    """A fraction's denominator evaluates to 0 at a parameter point."""

    def __init__(self, point, detail: str = ""):
        self.point = dict(point)
        msg = "denominator vanishes at " + ", ".join(f"{k}={v}" for k, v in self.point.items())
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TextSyntaxError(BihomError, ValueError):
    """Malformed coefficient or identity DSL text; carries the offending
    position."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at position {position}: {message}")


class UnknownParameter(BihomError, ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown parameter {name!r}")


class SpaceMismatch(BihomError, ValueError):
    """Vectors/maps/ops over different basis spaces were combined."""


class ArityMismatch(BihomError, ValueError):
    """Wrong number of arguments for a multilinear operation."""


class NotInvertible(BihomError, ValueError):
    """A linear map with zero determinant was asked for a negative power."""

    def __init__(self, detail: str = "determinant is zero"):
        super().__init__(detail)


class LinearityViolation(BihomError, ValueError):
    """A declared variable does not occur exactly once in some monomial."""

    def __init__(self, variable: str, term_index: int, count: int):
        self.variable = variable
        self.term_index = term_index
        self.count = count
        super().__init__(
            f"variable {variable!r} occurs {count} times in term {term_index}"
            " (must be exactly once)"
        )


class _PlainKeyError(BihomError, KeyError):
    def __str__(self):  # KeyError quotes its arg; keep the plain message
        return self.args[0]


class MissingOp(_PlainKeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"bundle has no operation {name!r}")


class MissingMap(_PlainKeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"bundle has no linear map {name!r}")


class NoSamplePoints(BihomError, ValueError):
    def __init__(self):
        super().__init__("sampled mode needs at least one point")


class PredicateFailed(BihomError, ValueError):
    """A construction's hypothesis does not hold on its input."""


class Inconsistent(BihomError, ValueError):
    """The skew-completion linear system has no solution."""

    def __init__(self, row: str):
        self.row = row
        super().__init__(f"inconsistent system row: {row}")


class UnknownEntry(_PlainKeyError):
    def __init__(self, entry_id):
        self.entry_id = entry_id
        super().__init__(f"no catalog entry {entry_id!r}")


class BundleFormatError(BihomError, ValueError):
    """Bundle/report file violates the schema (bad field, index, version)."""
