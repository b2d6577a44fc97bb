"""Exception types shared across the library."""


class StatlenError(Exception):
    """Base class for all library errors."""


class ValidationError(StatlenError, ValueError):
    """A state failed its construction invariants."""


class NotNormalized(ValidationError):
    """A weight sum or a matrix trace is off one beyond the input tolerance."""


class NotHermitian(ValidationError):
    """A matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositive(ValidationError):
    """A weight or an eigenvalue lies below the negative validation tolerance."""


class BadRank(ValidationError):
    """Requested rank is outside 1..dim."""


class DimensionMismatch(StatlenError, ValueError):
    """Two states that must share a dimension do not."""


class DimensionCapExceeded(StatlenError):
    """An input would exceed one of the fixed caps on dimensions and work sizes."""

    def __init__(self, message, max_feasible=None):
        super().__init__(message)
        self.max_feasible = max_feasible


def _refuse_above(cap: int, name: str, value: int, unit: str) -> None:
    """Raise DimensionCapExceeded above ``cap``, naming it as the largest feasible ``unit``."""
    if value > cap:
        raise DimensionCapExceeded(
            f"{name} {value} exceeds cap {cap}; largest feasible {unit} is {cap}", max_feasible=cap
        )


class SupportViolation(StatlenError, ValueError):
    """A tangent direction leaves the support of its base state."""


class RankDeficient(StatlenError, ValueError):
    """Operation requires a full-rank state; enable a ridge to proceed."""


class InfiniteYield(StatlenError):
    """A transport step has infinite relative entropy (support violation)."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class RankCollapse(StatlenError):
    """A quantum iterate lost rank while the ridge was disabled."""
