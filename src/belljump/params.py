"""Model parameters for the point-source Dirac jump process.

The model is fixed by the Coulomb coupling strength q and a choice of
angular sector labels (m_tilde, kappa_tilde).  Units: hbar = c = 1; every
dynamical law downstream is unit-free up to a common time rescaling.

Only sqrt(3)/2 < |q| < 1 is admissible: below that band the source needs
extra structure to make the generator self-adjoint, above it the Coulomb
potential is supercritical.  The derived exponent

    B = sqrt(1 - q^2),   0 < B < 1/2,

controls every short-distance power law in the package (the singular
radial modes r^(-1-B) and r^(-1+B), the absorption law r ~ |t|^(1/(1-2B)),
the azimuthal winding r^(-2B)).

The interior-boundary condition of the paper's Hamiltonian also carries a
source coupling g and a boundary matrix a1..a4.  They fix how the
singular amplitudes evolve with the vacuum amplitude, but here every
track supplies c_minus(t), c_plus(t) and psi0(t) directly, and the jump
rate, the guiding field and the spinors depend only on q, B and the
labels.  So they are not parameters of this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RangeError, SetError

#: Admissible sector labels (m_tilde, kappa_tilde): total angular momentum
#: j = 1/2 combined with either sign of the spin-orbit eigenvalue.
ADMISSIBLE_LABELS = ((-0.5, -1), (-0.5, 1), (0.5, -1), (0.5, 1))

_Q_LOW = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class PhysParams:
    """Validated, immutable parameter set.  Build via canonical_params()."""

    q: float
    B: float
    m_tilde: float
    kappa_tilde: int

    @property
    def sign_mk(self) -> int:
        """sgn(m_tilde * kappa_tilde); orients every azimuthal law."""
        return 1 if self.m_tilde * self.kappa_tilde > 0 else -1


def canonical_params(q, m_tilde=0.5, kappa_tilde=1) -> PhysParams:
    """Validate raw inputs and derive B = sqrt(1 - q^2).

    Raises RangeError for q outside the band and SetError for labels
    outside ADMISSIBLE_LABELS.
    """
    q = float(q)
    if not _Q_LOW < abs(q) < 1.0:
        raise RangeError(f"q = {q!r} outside (sqrt(3)/2, 1) in absolute value")
    mk = (float(m_tilde), float(kappa_tilde))
    if mk not in {(m, float(k)) for m, k in ADMISSIBLE_LABELS}:
        raise SetError(
            f"(m_tilde, kappa_tilde) = {mk!r} not in {ADMISSIBLE_LABELS!r}"
        )
    return PhysParams(
        q=q, B=math.sqrt(1.0 - q * q), m_tilde=mk[0], kappa_tilde=int(mk[1])
    )


def circling_sign(params: PhysParams) -> int:
    """Sense of the azimuthal winding near the source.

    Sign of dphi/dt for small r: -sgn(q) * sgn(m_tilde * kappa_tilde).
    Depends only on the parameter choice, not on the wave function.
    """
    return (-1 if params.q > 0 else 1) * params.sign_mk
