"""Exception hierarchy shared across the engine."""


class StreamCalcError(Exception):
    """Base class for every error raised by this package."""


class UsageError(StreamCalcError):
    """A request the command line cannot run as given: a bad flag, selector or file."""


class AlgebraMismatch(StreamCalcError):
    """Operands belong to different coefficient algebras."""


class UnsupportedOp(StreamCalcError):
    """The coefficient algebra lacks a required capability (neg, inv, ...)."""


class HeadNotInvertible(StreamCalcError):
    """An inverse was demanded at a head value that has none."""


class NoExactSqrt(StreamCalcError):
    """No exact square root exists for the requested element."""


class UnorderedAlgebra(StreamCalcError):
    """merge needs a totally ordered coefficient algebra."""


class DenominatorHeadZero(StreamCalcError):
    """Rational expression denominator vanishes at 0."""


class SingularMatrix(StreamCalcError):
    """Elimination hit a pivot column with no invertible-head entry."""


class EvenDenominator(StreamCalcError):
    """Binary encoding is defined for rationals with odd denominator only."""


class NotZeroConsistent(StreamCalcError):
    """Even-odd specification violates x(0) = even(x)(0)."""

    def __init__(self, state, message=None):
        self.state = state
        super().__init__(message or f"zero-consistency fails at {state!r}")


class BudgetExhausted(StreamCalcError):
    """An observation ran out of permitted steps.

    ``index`` is the prefix position at which progress stalled, once the
    failing observation (take / bounded_eq) has annotated it.
    """

    def __init__(self, message="forcing budget exhausted", index=None):
        self.index = index
        super().__init__(message)

    def __str__(self):
        base = super().__str__()
        if self.index is not None:
            return f"{base} (at index {self.index})"
        return base


class NonProductive(BudgetExhausted):
    """A demand re-entered a coefficient that is currently being computed.

    Such a demand can never be satisfied, so it is trapped immediately
    instead of burning the whole budget.
    """

    def __init__(self, message="non-productive definition", index=None):
        super().__init__(message, index=index)


class SpecError(StreamCalcError):
    """Problem in a specification; carries an optional (line, col) span."""

    def __init__(self, message, span=None):
        self.span = span
        super().__init__(message)

    def __str__(self):
        base = super().__str__()
        if self.span is not None:
            line, col = self.span
            return f"{line}:{col}: {base}"
        return base


class SpecSyntaxError(SpecError):
    pass


class GsosViolation(SpecError):
    """A definition fell outside the GSOS shape where one is required."""


class UnknownSymbol(SpecError):
    pass


class ArityMismatch(SpecError):
    pass


class MissingInitialValue(SpecError):
    pass
