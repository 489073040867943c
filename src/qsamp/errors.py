"""Exception and warning types shared across the package."""


class QsampError(Exception):
    """Base class for all qsamp errors."""


class NegativeRate(QsampError):
    """A transition or absorption rate is negative."""


class NonIrreducible(QsampError):
    """The killed chain is not strongly connected on the surviving states."""


class NoAbsorption(QsampError):
    """No state carries a positive absorption rate."""


class InvalidParameter(QsampError):
    """A structural parameter is out of range."""


class EmptyResult(QsampError):
    """An operation would produce an empty object (e.g. removing every state)."""


class NoConvergence(QsampError):
    """Iterative eigensolver exhausted its budget; message reports the residual."""


class NonPositiveInput(QsampError):
    """A vector that must be strictly positive is not."""


class SingularFactor(QsampError):
    """A path factor has denominator |L(x,x)| - lambda0 at or below zero."""


class NotReversible(QsampError):
    """Operation requires a reversible generator."""


class DegenerateGap(QsampError):
    """lambda0' <= lambda0 numerically, which the strict-minor-gap result forbids."""


class NotBirthDeath(QsampError):
    """Operation requires a birth-death generator absorbed from state 1."""


class EventBudgetExceeded(QsampError):
    """A simulated trajectory exceeded the jump-event budget (possible explosion)."""


class NotConverged(QsampError):
    """Truncation schedule ended before the requested tolerance; message has last deltas."""


class GapViolation(QsampError):
    """Computed lambda0' <= lambda0 in the truncation pipeline (numerical failure)."""


class UnknownCase(QsampError):
    """Unknown reproduction case identifier."""


class HeavyTailWarning(UserWarning):
    """Exponential-moment estimate is close to its divergence threshold."""


class UnderflowWarning(UserWarning):
    """Survival mass underflowed; conditioned distributions are unreliable."""
