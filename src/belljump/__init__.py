"""Simulation of the point-source Dirac creation/annihilation jump
process: exact and asymptotic probability currents near the source,
Bohmian trajectory integration, stochastic emission via thinning, and
Monte Carlo checks that the sampled process stays |psi|^2-distributed.

The root holds the version, the error classes and the parameters; every
other name is imported from its module (`belljump.ensemble`, ...).
"""

__version__ = "0.1.0"

from .errors import (
    BelljumpError,
    DegenerateError,
    DomainError,
    FitError,
    InsufficientEvents,
    MajorantError,
    NormalizationError,
    OriginError,
    ParseError,
    RangeError,
    SetError,
    StepFailure,
    VacuumEmpty,
    ValidationError,
    WindowClosed,
)
from .params import (
    ADMISSIBLE_LABELS,
    PhysParams,
    canonical_params,
    circling_sign,
)
