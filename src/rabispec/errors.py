"""Exception and warning types shared across the package."""


class RabispecError(Exception):
    """Base class for all errors raised by rabispec."""


class CouplingOutOfRange(RabispecError):
    """Coupling strength violates the squeezing bound (2|g| >= omega or |g| >= omega)."""


class ZeroCoupling(RabispecError):
    """Operation undefined at (numerically) zero coupling; use the decoupled closed form."""


class NotDecoupled(RabispecError):
    """Closed-form decoupled spectrum requested with g != 0."""


class PoleCollision(RabispecError):
    """Energy coincides with a pole of the recurrence coefficients."""


class CoefficientPole(RabispecError):
    """A non-finite recurrence coefficient was consumed during evaluation."""


class DivisionBlowup(RabispecError):
    """Backward recursion produced a non-finite ratio despite denominator flooring."""


class EmptyWindow(RabispecError):
    """Scan window contains no usable grid points.

    No longer raised: levels are counted, and any window with E_min < E_max is
    usable.  Kept so that existing imports and handlers still work.
    """


class TruncationInsufficient(RabispecError):
    """Series truncation too short for the requested evaluation point."""


class TruncationCeiling(RabispecError):
    """Oracle truncation limit reached before eigenvalues stabilized."""


class NotAnEigenvalueWarning(UserWarning):
    """Series requested at an energy that is not (close to) a spectral root."""


class CollapseRegimeWarning(UserWarning):
    """Parameters approach spectral collapse.

    No longer issued: the level count checks every level's position under
    truncation doubling, near collapse as elsewhere.  Kept so that existing
    imports and warning filters still work.
    """


class SignLostWarning(UserWarning):
    """A level's position could not be confirmed before the count rows reached their cap."""
