"""Angular building blocks of the j = 1/2 sector on the unit sphere.

The four-spinor basis Phi+/-, the boundary spinors f+/-, the Dirac alpha
matrices in the spherical frame, their closed-form overlaps, and a
product Gauss-Legendre quadrature used as an independent oracle.

Conventions
-----------
* chi_m is the unit two-spinor for m_j = +1/2 (upper) or -1/2 (lower),
  divided by sqrt(4 pi), and s_m = (sigma . e_r) chi_m.  These are the
  two-spinor harmonics with l = 0 and l = 1 in the Condon-Shortley
  convention.
* Four-spinor basis in the standard Dirac representation:

    kappa_j = -1:  Phi^+ = (i chi_m, 0),  Phi^- = (0, s_m),
    kappa_j = +1:  Phi^+ = (i s_m, 0),    Phi^- = (0, chi_m).

* Boundary spinors:  f^+ = (1+q+B) Phi^+ - (1+q-B) Phi^-,
                     f^- = (1+q-B) Phi^+ - (1+q+B) Phi^-.
  The weight assignment is fixed by requiring <f^-, alpha_r f^+> =
  -i(1+q)B/pi, so that Im[conj(c_minus) c_plus] > 0 drives an outward
  radial current (the orientation every law downstream relies on).
* Spherical frame: e_r = (sin t cos p, sin t sin p, cos t),
  e_theta = (cos t cos p, cos t sin p, -sin t), e_phi = (-sin p, cos p, 0);
  at the poles the frame is the continuous extension at fixed phi.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .params import ADMISSIBLE_LABELS, PhysParams


class SpherePoint(NamedTuple):
    """Point omega on the unit sphere, radians."""

    theta: float
    phi: float


# Pauli matrices and the Dirac alpha vector in the standard representation.
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

ALPHA = tuple(
    np.block([[np.zeros((2, 2), dtype=complex), s], [s, np.zeros((2, 2), dtype=complex)]])
    for s in SIGMA
)


# =====================================================================
# the j = 1/2 basis
# =====================================================================

def _sector_sign(m_j: float, kappa_j: int) -> int:
    """sgn(m_j kappa_j) for an admissible j = 1/2 label pair."""
    if (m_j, kappa_j) not in ADMISSIBLE_LABELS:
        raise DomainError(
            f"(m_j, kappa_j) = {(m_j, kappa_j)!r} not in {ADMISSIBLE_LABELS!r}"
        )
    return 1 if m_j * kappa_j > 0 else -1


_INV_SQRT_4PI = 1.0 / math.sqrt(4.0 * math.pi)


def phi_basis(sign: int, m_j: float, kappa_j: int, point) -> np.ndarray:
    """Four-spinor basis function Phi^sign_(m_j, kappa_j)(omega)."""
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    _sector_sign(m_j, kappa_j)
    theta, phi = point
    # chi_m and s_m = (sigma . e_r) chi_m, both divided by sqrt(4 pi)
    c = _INV_SQRT_4PI * math.cos(theta)
    w = _INV_SQRT_4PI * math.sin(theta) * complex(math.cos(phi), math.sin(phi))
    if m_j > 0:
        chi, s = (_INV_SQRT_4PI, 0.0), (c, w)
    else:
        chi, s = (0.0, _INV_SQRT_4PI), (w.conjugate(), -c)
    # kappa_j = -1: upper block l = 0, lower block l = 1; kappa_j = +1 swapped
    upper, lower = (chi, s) if kappa_j < 0 else (s, chi)
    if sign > 0:
        return np.array([1j * upper[0], 1j * upper[1], 0.0, 0.0], dtype=complex)
    return np.array([0.0, 0.0, lower[0], lower[1]], dtype=complex)


def f_boundary(sign: int, point, params: PhysParams) -> np.ndarray:
    """Boundary spinor f^sign(omega) in the sector of params, the angular
    profile of the singular modes.

    f^- profiles the r^(-1-B) mode, f^+ the r^(-1+B) mode.  The weights
    are oriented so that <f^-, alpha_r f^+> = -i(1+q)B/pi pointwise; see
    the module docstring.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    plus = phi_basis(+1, params.m_tilde, params.kappa_tilde, point)
    minus = phi_basis(-1, params.m_tilde, params.kappa_tilde, point)
    w = 1.0 + params.q
    if sign > 0:
        return (w + params.B) * plus - (w - params.B) * minus
    return (w - params.B) * plus - (w + params.B) * minus


# =====================================================================
# frame and matrices
# =====================================================================

def frame_vectors(point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal spherical frame (e_r, e_theta, e_phi) at omega."""
    theta, phi = point
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    e_r = np.array([st * cp, st * sp, ct])
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, 0.0])
    return e_r, e_theta, e_phi


_FRAME_INDEX = {"r": 0, "theta": 1, "phi": 2}


def alpha_component(k: str, point) -> np.ndarray:
    """Spherical-frame Dirac matrix alpha_k = e_k . alpha, k in {r, theta, phi}."""
    try:
        idx = _FRAME_INDEX[k]
    except KeyError:
        raise DomainError(f"k must be one of 'r', 'theta', 'phi', got {k!r}") from None
    e = frame_vectors(point)[idx]
    return e[0] * ALPHA[0] + e[1] * ALPHA[1] + e[2] * ALPHA[2]


def from_spherical(r: float, theta: float, phi: float) -> np.ndarray:
    """(r, theta, phi) -> Cartesian 3-vector."""
    st = math.sin(theta)
    return np.array(
        [r * st * math.cos(phi), r * st * math.sin(phi), r * math.cos(theta)]
    )


# =====================================================================
# quadrature oracle
# =====================================================================

def sphere_quadrature(f: Callable[[SpherePoint], complex], order: int = 32) -> complex:
    """Integral of f over the sphere, d Omega = sin theta dtheta dphi.

    Product rule: Gauss-Legendre in cos theta (`order` nodes) times the
    periodic trapezoid rule in phi (2 * order equispaced nodes).  Exact
    for integrands polynomial in the low-degree harmonics used here.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order!r}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    n_phi = 2 * order
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi
    total = 0.0 + 0.0j
    for x, w in zip(nodes, weights):
        theta = math.acos(float(x))
        row = 0.0 + 0.0j
        for phi in phis:
            row += f(SpherePoint(theta, float(phi)))
        total += w * w_phi * row
    return total


# =====================================================================
# closed-form overlaps
# =====================================================================

def basis_overlap_closed(sign_a: int, sign_b: int, m_j: float, kappa_j: int) -> complex:
    """Pointwise <Phi^a, Phi^b>: 1/(4 pi) when a = b, else 0."""
    _sector_sign(m_j, kappa_j)
    return 1.0 / (4.0 * math.pi) if sign_a == sign_b else 0.0j


def basis_alpha_overlap_closed(
    sign_a: int, sign_b: int, m_j: float, kappa_j: int, k: str, point
) -> complex:
    """Pointwise <Phi^a, alpha_k Phi^b> in the j = 1/2 sectors.

    Diagonal overlaps vanish for every k; the off-diagonal ones are
    -i/(4 pi) (radial, a=+, b=-), 0 (polar), and
    sgn(m_j kappa_j) sin(theta)/(4 pi) (azimuthal).
    """
    sgn = _sector_sign(m_j, kappa_j)
    if k not in _FRAME_INDEX:
        raise DomainError(f"k must be one of 'r', 'theta', 'phi', got {k!r}")
    theta, _ = point
    if sign_a == sign_b:
        return 0.0j
    if k == "r":
        return complex(0.0, -1.0 / (4.0 * math.pi)) if sign_a > 0 else complex(
            0.0, 1.0 / (4.0 * math.pi)
        )
    if k == "theta":
        return 0.0j
    return complex(sgn * math.sin(theta) / (4.0 * math.pi), 0.0)


def boundary_overlap_closed(sign_a: int, sign_b: int, params: PhysParams) -> complex:
    """Pointwise <f^a, f^b>: (1+q)/pi when a = b, else q(1+q)/pi."""
    w = (1.0 + params.q) / math.pi
    return complex(w if sign_a == sign_b else params.q * w, 0.0)


def boundary_alpha_overlap_closed(
    sign_a: int, sign_b: int, params: PhysParams, k: str, point
) -> complex:
    """Pointwise <f^a, alpha_k f^b> in the sector fixed by params.

    Same-sign pairs: (0, 0, -q(1+q) sgn sin(theta)/pi).
    Opposite-sign pairs: (-/+ i(1+q)B/pi, 0, -(1+q) sgn sin(theta)/pi),
    the radial sign being -i for (a, b) = (-, +).
    """
    if k not in _FRAME_INDEX:
        raise DomainError(f"k must be one of 'r', 'theta', 'phi', got {k!r}")
    theta, _ = point
    w = (1.0 + params.q) / math.pi
    sgn = params.sign_mk
    if k == "theta":
        return 0.0j
    if sign_a == sign_b:
        if k == "r":
            return 0.0j
        return complex(-params.q * w * sgn * math.sin(theta), 0.0)
    if k == "r":
        im = -w * params.B if (sign_a, sign_b) == (-1, 1) else w * params.B
        return complex(0.0, im)
    return complex(-w * sgn * math.sin(theta), 0.0)
