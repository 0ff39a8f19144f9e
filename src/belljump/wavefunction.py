"""The one-particle model wave function near the source and its current.

The short-distance model is

    psi(r, omega) = [c_minus r^(-1-B) + s_minus r^(-1/2+delta)] f^-(omega)
                  + [c_plus  r^(-1+B) + s_plus  r^(-1/2+delta)] f^+(omega),

multiplied by a C^1 cutoff chi(r) that is 1 on r <= r_cut/2 and 0 beyond
r_cut, with omega = (theta, phi); every function here takes a position
as (r, theta, phi).  The optional s_-/s_+ amplitudes inject error terms
strictly smaller than r^(-1/2) (delta = 0.1 fixed) to exercise the
robustness of the asymptotic extractors; they default to zero.

Everything the dynamics needs follows from the pointwise overlaps of the
boundary spinors: with X = conj(A) C for radial amplitudes A (along f^-)
and C (along f^+),

    j_r          = (1+q)/pi * 2 B Im[X]
    j_theta      = 0
    j_phi        = -(1+q)/pi * sgn * (q(|A|^2+|C|^2) + 2 Re[X]) sin(theta)
    rho          = (1+q)/pi * (|A|^2 + 2 q Re[X] + |C|^2)

with sgn = sgn(m_tilde kappa_tilde).  reduced_amplitudes and
span_currents code these formulas once, for scalars or arrays; the
integrator's azimuth rate and the radial mass profile evaluate them, and
current_exact (the spinor contraction) checks them.  The integrator's
radial speed evaluates them under subleading amplitudes only; without
them it is their ratio j_r/rho in closed form (trajectory._make_rhs).
For the pure model (s = 0) they give the exact expansion coefficients
frozen in CurrentCoeffs, e.g. r^2 j_r = C_r = 2(1+q) B Im[conj(c_minus)
c_plus]/pi exactly below r_cut/2.

span_currents(current_weights(params), a_r, a_i, c_r, c_i) takes the
real and imaginary parts of A and C and forms X with the operations of
CPython's complex product, so an array gives elementwise the bits that
scalars give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, OriginError
from .params import PhysParams
from .spinor_basis import SpherePoint, alpha_component, f_boundary

#: The injected error terms scale as r^(-1/2 + SUBLEADING_DELTA).
SUBLEADING_DELTA = 0.1
#: Default absorption radius as a fraction of r_cut.
R_MIN_FRACTION = 1e-8
#: Emission seed radius as a multiple of r_min.
R_SEED_FACTOR = 10.0
#: Points of the s grid the radial mass profile is summed on.
MASS_PROFILE_POINTS = 4097


def _absorption_radius(r_cut: float, r_min: float | None) -> float:
    """r_min, or its default R_MIN_FRACTION * r_cut; DomainError unless
    0 < r_min < r_cut / (2 R_SEED_FACTOR), so that emissions seed inside
    the inner region r < r_cut/2."""
    if r_min is None:
        r_min = R_MIN_FRACTION * r_cut
    top = 0.5 * r_cut / R_SEED_FACTOR
    if not 0.0 < r_min < top:
        raise DomainError(
            f"r_min = {r_min!r} outside (0, r_cut/{2 * R_SEED_FACTOR:g} = {top!r})"
        )
    return float(r_min)


@dataclass(frozen=True)
class ModelWavefunction:
    """Frozen-coefficient model wave function on the punctured ball.
    Flights end at r_min, the numerical stand-in for the source
    (default R_MIN_FRACTION * r_cut)."""

    params: PhysParams
    c_minus: complex
    c_plus: complex
    r_cut: float
    subleading_amp: tuple[complex, complex] = (0j, 0j)
    r_min: float | None = None

    def __post_init__(self):
        if not self.r_cut > 0.0:
            raise DomainError(f"r_cut must be positive, got {self.r_cut!r}")
        object.__setattr__(self, "r_min", _absorption_radius(self.r_cut, self.r_min))
        object.__setattr__(self, "c_minus", complex(self.c_minus))
        object.__setattr__(self, "c_plus", complex(self.c_plus))
        s_minus, s_plus = self.subleading_amp
        object.__setattr__(
            self, "subleading_amp", (complex(s_minus), complex(s_plus))
        )

    @property
    def has_subleading(self) -> bool:
        return self.subleading_amp != (0j, 0j)

    @functools.cached_property
    def overlap_parts(self) -> tuple[float, float, float, float]:
        """overlap_parts(c_minus, c_plus), formed on first use and kept:
        it is no field, so models compare without it."""
        return overlap_parts(self.c_minus, self.c_plus)


@dataclass(frozen=True)
class ModelFamily:
    """Static part of the model shared by all coefficient values.

    Maps track coefficients (c_minus(t), c_plus(t)) to concrete
    ModelWavefunction instances; r_min as in ModelWavefunction.
    """

    params: PhysParams
    r_cut: float
    subleading_amp: tuple[complex, complex] = (0j, 0j)
    r_min: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "r_min", _absorption_radius(self.r_cut, self.r_min))

    def at(self, c_minus: complex, c_plus: complex) -> ModelWavefunction:
        """The model at (c_minus, c_plus).  A pair equal to the last one
        gets the last model back, so the flights of fixed coefficients
        share one model and its overlap_parts; the memo is no field, so
        families compare without it."""
        model = self.__dict__.get("_model")
        if model is None or model.c_minus != c_minus or model.c_plus != c_plus:
            model = ModelWavefunction(
                self.params, c_minus, c_plus, self.r_cut, self.subleading_amp, self.r_min
            )
            object.__setattr__(self, "_model", model)
        return model


@dataclass(frozen=True)
class CurrentCoeffs:
    """Closed-form expansion coefficients of current and density.

    j_r = C_r r^-2;  j_phi/sin(theta) = Cphi_leading r^(-2-2B)
    + Cphi_mid r^-2 + Cphi_sub r^(-2+2B);  rho = rho_leading r^(-2-2B)
    + rho_mid r^-2 + (|c_plus|^2 (1+q)/pi) r^(-2+2B).
    """

    C_r: float
    Cphi_leading: float
    Cphi_mid: float
    Cphi_sub: float
    rho_leading: float
    rho_mid: float


def overlap_parts(c_minus: complex, c_plus: complex) -> tuple[float, float, float, float]:
    """(|c-|^2, |c+|^2, Re, Im) of conj(c-) c+, what the closed-form flight
    relations read; DegenerateError if Im = 0 (no radial motion)."""
    x = complex(c_minus).conjugate() * complex(c_plus)
    if x.imag == 0.0:
        raise DegenerateError("no radial motion for Im[conj(c_minus) c_plus] = 0")
    return abs(c_minus) ** 2, abs(c_plus) ** 2, x.real, x.imag


def current_coeffs(params: PhysParams, c_minus: complex, c_plus: complex) -> CurrentCoeffs:
    """Exact expansion coefficients for the pure (subleading = 0) model."""
    q, B = params.q, params.B
    sgn = params.sign_mk
    w = (1.0 + q) / math.pi
    x = np.conj(complex(c_minus)) * complex(c_plus)
    return CurrentCoeffs(
        C_r=2.0 * w * B * x.imag,
        Cphi_leading=-q * w * abs(c_minus) ** 2 * sgn,
        Cphi_mid=-2.0 * w * x.real * sgn,
        Cphi_sub=-q * w * abs(c_plus) ** 2 * sgn,
        rho_leading=abs(c_minus) ** 2 * w,
        rho_mid=2.0 * x.real * q * w,
    )


# =====================================================================
# pointwise evaluation
# =====================================================================

def cutoff(r, r_cut: float):
    """C^1 cubic bridge: 1 on r <= r_cut/2, 0 on r >= r_cut; r may be a
    float (float result) or an array (elementwise)."""
    u = np.clip((np.asarray(r, dtype=float) - 0.5 * r_cut) / (0.5 * r_cut), 0.0, 1.0)
    chi = 1.0 - u * u * (3.0 - 2.0 * u)
    return float(chi) if chi.ndim == 0 else chi


def reduced_amplitudes(params: PhysParams, c_minus, c_plus, r, subleading_amp):
    """Radial amplitudes along f^- and f^+ with the common factor
    chi(r) r^(-1-B) removed: (c_minus + s_minus r^(1/2+B+delta),
    c_plus r^(2B) + s_plus r^(1/2+B+delta)); r >= 0, float or array.

    Keeping the reduced form avoids overflow at tiny radii; the common
    factor cancels from every velocity ratio.  At r = 0 the pair is
    (c_minus, 0).
    """
    B = params.B
    a_hat = c_minus
    c_hat = c_plus * r ** (2.0 * B)
    if subleading_amp != (0j, 0j):
        s_minus, s_plus = subleading_amp
        bump = r ** (0.5 + B + SUBLEADING_DELTA)
        a_hat = a_hat + s_minus * bump
        c_hat = c_hat + s_plus * bump
    return a_hat, c_hat


def radial_amplitudes(model: ModelWavefunction, r: float) -> tuple[complex, complex]:
    """Full radial amplitudes (A, C) of psi = A f^- + C f^+ at radius r."""
    if not r > 0.0:
        raise OriginError(f"radius must be positive, got {r!r}")
    a_hat, c_hat = reduced_amplitudes(
        model.params, model.c_minus, model.c_plus, r, model.subleading_amp
    )
    common = cutoff(r, model.r_cut) * r ** (-1.0 - model.params.B)
    return common * a_hat, common * c_hat


def eval_psi1(model: ModelWavefunction, r, theta, phi) -> np.ndarray:
    """Model wave function at (r, theta, phi) (four components);
    OriginError unless r > 0."""
    a, c = radial_amplitudes(model, r)
    point = SpherePoint(theta, phi)
    return a * f_boundary(-1, point, model.params) + c * f_boundary(
        +1, point, model.params
    )


def current_weights(params: PhysParams) -> tuple[float, float, float, float, float]:
    """The factors of span_currents that depend on params only:
    (q, w, 2 w B, -w sgn, 2 q) with w = (1+q)/pi."""
    q = params.q
    w = (1.0 + q) / math.pi
    return q, w, 2.0 * w * params.B, -w * params.sign_mk, 2.0 * q


def span_currents(weights, a_r, a_i, c_r, c_i):
    """(j_r, j_phi / sin(theta), rho) for a spinor A f^- + C f^+, from the
    real and imaginary parts A = a_r + i a_i, C = c_r + i c_i and the
    weights current_weights(params).

    The bilinear route: assembled from the closed-form boundary-spinor
    overlaps, valid for any radial amplitudes (with or without the
    injected subleading terms, with or without the cutoff factor) and
    elementwise for arrays of them.  X = conj(A) C is formed from the
    parts with the operations of a complex product.
    """
    q, w, w_r, w_phi, two_q = weights
    x_r = a_r * c_r + a_i * c_i
    x_i = a_r * c_i - a_i * c_r
    mod2 = a_r * a_r + a_i * a_i + c_r * c_r + c_i * c_i
    return w_r * x_i, w_phi * (q * mod2 + 2.0 * x_r), w * (mod2 + two_q * x_r)


def current_exact(model: ModelWavefunction, r, theta, phi) -> np.ndarray:
    """Current (j_r, j_theta, j_phi) at (r, theta, phi) by the spinor
    contraction psi^dag alpha_k psi; OriginError unless r > 0."""
    psi = eval_psi1(model, r, theta, phi)
    point = SpherePoint(theta, phi)
    return np.array(
        [
            np.vdot(psi, alpha_component(k, point) @ psi).real
            for k in ("r", "theta", "phi")
        ]
    )


# =====================================================================
# radial mass profile (used by the ensemble sampler and the tests)
# =====================================================================

def radial_mass_profile(model: ModelWavefunction) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative radial mass M(s) = integral of 4 pi r^2 rho dr on a grid
    of the substituted variable s = r^(1-2B), from 0 to r_cut^(1-2B).

    In s the integrand is bounded (the r^(-2B) singularity is exactly
    absorbed by the substitution), so the trapezoid rule converges fast.
    """
    p = model.params
    one = 1.0 - 2.0 * p.B
    s_grid = np.linspace(0.0, model.r_cut ** one, MASS_PROFILE_POINTS)
    r = s_grid ** (1.0 / one)
    a_hat, c_hat = reduced_amplitudes(
        p, model.c_minus, model.c_plus, r, model.subleading_amp
    )
    rho_hat = span_currents(
        current_weights(p), a_hat.real, a_hat.imag, c_hat.real, c_hat.imag
    )[2]
    # 4 pi r^2 rho dr = (4 pi / (1-2B)) chi^2 rho_hat ds
    integrand = (4.0 * math.pi / one) * cutoff(r, model.r_cut) ** 2 * rho_hat
    cum = np.concatenate(
        ([0.0], np.cumsum(np.diff(s_grid) * 0.5 * (integrand[1:] + integrand[:-1])))
    )
    return s_grid, cum


def particle_sector_mass(model: ModelWavefunction) -> float:
    """Total mass of |psi|^2 over the ball of radius r_cut."""
    return float(radial_mass_profile(model)[1][-1])
