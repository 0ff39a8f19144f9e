"""Exception types shared across the package.

Validation-style failures (bad inputs, bad configs) also subclass
ValueError so callers can catch them generically; failures that can only
surface at run time (step control, sampling) subclass RuntimeError.
"""

import operator


class BelljumpError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- parameters


class RangeError(BelljumpError, ValueError):
    """Coulomb strength outside the admissible band sqrt(3)/2 < |q| < 1."""


class SetError(BelljumpError, ValueError):
    """(m_tilde, kappa_tilde) is not one of the four admissible label pairs."""


# ------------------------------------------------------------------- domains


class DomainError(BelljumpError, ValueError):
    """Invalid quantum numbers or out-of-domain evaluation point."""


def integer_at_least(name: str, value, least: int) -> int:
    """value as a Python int; DomainError unless it is an integer >= least."""
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, not {value!r}") from None
    if n < least:
        raise DomainError(f"{name} = {value!r} is below {least}")
    return n


class WindowClosed(DomainError):
    """The window ends before the flight's first sample."""


class OriginError(BelljumpError, ValueError):
    """Wave-function evaluation requested at the source point x = 0."""


class FitError(BelljumpError, ValueError):
    """Degenerate input to the power-law fitter."""


class DegenerateError(BelljumpError, ValueError):
    """Im[conj(c_minus) c_plus] vanishes (or has the wrong sign), so the
    requested radial motion does not exist."""


# ------------------------------------------------------------------- runtime


class StepFailure(BelljumpError, RuntimeError):
    """Adaptive step control could not meet the error tolerance."""


class VacuumEmpty(BelljumpError, RuntimeError):
    """Vacuum amplitude is zero while the jump rate is positive."""


class MajorantError(BelljumpError, RuntimeError):
    """No trustworthy finite rate majorant on a track interval."""


class NormalizationError(BelljumpError, RuntimeError):
    """Sector masses of the initial ensemble do not sum to one."""


class InsufficientEvents(BelljumpError, RuntimeError):
    """Too few events for the requested statistical test."""


# -------------------------------------------------------------------- config


class ParseError(BelljumpError, ValueError):
    """Config text rejected; message carries line and column."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}" + (
                f", column {column}: " if column is not None else ": "
            ) + message
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(BelljumpError, ValueError):
    """Config is well-formed but describes an invalid model."""
