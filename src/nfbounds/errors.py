"""Exception hierarchy.

Two families: ``ValidationError`` for structurally bad input (CLI exit
code 2) and ``ResourceLimitError`` for exceeded budgets or series
cutoffs (CLI exit code 3).  ``InvariantError`` is neither: it reports an
internal consistency check that failed, a bug rather than bad input.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A configured budget, cutoff, or tolerance cannot be met."""


class InvariantError(RuntimeError):
    """An internal invariant does not hold (checked without ``assert``)."""


class NotMonic(ValidationError):
    pass


class NotSquarefree(ValidationError):
    pass


class NotTotallyReal(ValidationError):
    pass


class NotPrime(ValidationError):
    pass


class EmptyInput(ValidationError):
    pass


class EmptyGrid(ValidationError):
    pass


class NotAUnit(ValidationError):
    pass


class DependentUnits(ValidationError):
    pass


class WrongRank(ValidationError):
    pass


class RegulatorMismatch(ValidationError):
    pass


class CutoffTooSmall(ResourceLimitError):
    pass


class BoxTooLarge(ResourceLimitError):
    """The box needs more candidates than the budget, or (``budget_helps``
    false) its norm cap (R + tol)^n is past any float."""

    def __init__(self, message: str, budget_helps: bool = True):
        super().__init__(message)
        self.budget_helps = budget_helps


class SieveTooLarge(ResourceLimitError):
    pass


class PrecisionTooHigh(ResourceLimitError):
    pass


class GridTooLarge(ResourceLimitError):
    pass
