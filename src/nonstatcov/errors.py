"""Exception hierarchy shared by all nonstatcov modules."""


class NonstatcovError(Exception):
    """Base class for every error raised by this package."""


class InputError(NonstatcovError, ValueError):
    """Malformed numerical input (non-finite entries, shape mismatch, ...);
    ``key`` names the offending payload key, where there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class DomainError(NonstatcovError, ValueError):
    """Parameter outside the domain where a formula is valid."""


class ModelError(NonstatcovError):
    """A process specification violates its own invariants (instability,
    vanishing filter, non-SPD innovation variance, ...)."""


class UnsupportedFamilyError(ModelError):
    """Operation not available for this model family (e.g. closed-form
    covariances of a stochastic recurrence model)."""


class ConditioningError(NonstatcovError):
    """A matrix that must be inverted is singular or numerically singular."""


class DivergenceError(NonstatcovError):
    """A series expansion does not contract; carries the offending norm."""

    def __init__(self, message: str, contraction_norm: float | None = None):
        super().__init__(message)
        self.contraction_norm = contraction_norm


class FitError(NonstatcovError):
    """Not enough usable data points for a regression-style fit."""


class DegenerateFitError(FitError):
    """All quantities to be fitted are numerically zero."""


class ConfigError(NonstatcovError):
    """Invalid experiment configuration; ``path`` is a JSON-pointer-style
    location of the offending field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path
