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


class TruncationInsufficient(RabispecError):
    """Series truncation too short for the requested evaluation point."""


class TruncationCeiling(RabispecError):
    """Oracle truncation limit reached before eigenvalues stabilized."""


class NotAnEigenvalueWarning(UserWarning):
    """Series requested at an energy that is not (close to) a spectral root."""


class SignLostWarning(UserWarning):
    """A level's position could not be confirmed before the count rows reached their cap."""
