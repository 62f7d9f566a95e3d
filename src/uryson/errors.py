"""Exception hierarchy. Every failure mode carries a stable machine-readable code."""

from __future__ import annotations


class UrysonError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class DimensionMismatch(UrysonError):
    code = "dimension_mismatch"


class SupportTooLarge(UrysonError):
    """Enumeration over fragments or masks would exceed the configured cap."""

    code = "support_too_large"


class NotConverged(UrysonError):
    """No index works for some coordinate when building an order-limit witness."""

    code = "not_converged"


class NotPositiveUnit(UrysonError):
    """The regulating unit has a zero (or negative) coordinate."""

    code = "not_positive_unit"


class C0Violation(UrysonError):
    """An integral kernel does not vanish at the origin on the grid."""

    code = "c0_violation"


class NegativeU(UrysonError):
    """A rank-one direction has a negative coordinate where nonnegativity is required."""

    code = "negative_u"


class NotDisjoint(UrysonError):
    """A disjointness witness was requested for operators whose meet is nonzero."""

    code = "not_disjoint"


class NotIncreasing(UrysonError):
    """An operator family lacks an internal upper bound for some pair."""

    code = "not_increasing"


class NotPositive(UrysonError):
    """An operator required to be positive is not."""

    code = "not_positive"


class NoStabilization(UrysonError):
    """The feasible set kept changing after max_steps epsilon reductions."""

    code = "no_stabilization"


class NumericError(UrysonError):
    """A computation overflowed or met a non-finite value.  The library raises
    ValueError or OverflowError there; the CLI and the suite report them under
    this code."""

    code = "numeric_error"


class KernelEvalError(UrysonError):
    """A kernel expression hit a numeric domain error (division by zero, etc.)."""

    code = "eval_error"


class ModelSyntaxError(UrysonError):
    """Model text failed to tokenize/parse. Carries 1-based line and column."""

    code = "syntax_error"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class ModelSemanticError(UrysonError):
    """Model text parsed but violates a model invariant. Carries 1-based line.

    ``code`` may be overridden per instance so that invariants with their own
    code (e.g. c0_violation) keep it when detected at parse time.
    """

    code = "semantic_error"

    def __init__(self, message: str, line: int, code: str | None = None):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message
        if code is not None:
            self.code = code


class BadCommand(UrysonError):
    """Unknown verb or wrong arity/arguments for a CLI command."""

    code = "bad_command"
