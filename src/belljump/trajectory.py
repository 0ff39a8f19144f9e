"""Bohmian trajectories near the source: the closed-form flow relations,
a closed-form flight evaluator, an adaptive integrator in the substituted
radial variable, and emission seeding.  The integrator's guiding field is
wavefunction.span_currents of the real and imaginary parts of the reduced
amplitudes, with its parameter weights formed once per flight.

Radial substitution.  With s = r^(1-2B) the leading radial equation
becomes ds/dt = const near the origin (the power-law r(t) ~ |t|^(1/(1-2B))
is the integral of exactly that), so an adaptive stepper in (s, phi)
takes uniform-quality steps all the way into absorption.  theta is not
integrated at all: every model wave function lies pointwise in the span
of the two boundary spinors, which makes j_theta vanish identically, so
theta stays exactly constant along a segment.

One call per stage.  Each DP5 stage makes one Python call, field(t, s),
built once per flight (_make_rhs), plus span_currents inside it.  Every
DP5 flight reads its coefficients from a cubic piece by Horner: under
psi_t the CoefficientTrack's own, with the bits of
CoefficientTrack.coefficients, and for a fixed pair one piece whose
cubic terms are zero.  Without subleading amplitudes the pair enters
span_currents as real parts, never boxed as complex numbers.

Closed forms (pure model, coefficients frozen).  Separating variables,
with Im = Im[conj(c_minus) c_plus], Re likewise, sgn = sgn(m~ k~):

    t(r) - t0 = [|c-|^2 r^(1-2B)/(1-2B) + 2q Re r
                 + |c+|^2 r^(1+2B)/(1+2B)] / (2B Im)

    phi(r) - phi0 = q sgn |c-|^2/(4B^2 Im) r^(-2B)
                    - sgn Re/(B Im) ln r
                    - q sgn |c+|^2/(4B^2 Im) r^(2B)

Both are exact for the subleading-free model, not asymptotic, and r is
monotone along such a flight.  So a flight with fixed coefficients and
no subleading amplitudes is evaluated directly from them when the caller
does not ask for dense samples (`dense=False`; the path sampler always
does this): the overlap (|c-|^2, |c+|^2, Re, Im) is formed once per
model (ModelWavefunction.overlap_parts), and terminal event, probe
crossing and end point cost a few evaluations and at most one root-find
of t(r).  The DP5 integrator serves dense traces (`trace`, the
`simulate --trace-dir` CSVs), subleading models, time-varying
coefficients and flights without radial motion (Im = 0, circling at
their start radius), and is tested against the closed forms; emission
trajectories are seeded from them.  Either way a flight
records the crossings of at most one probe radius.

Flights end at the model's r_min (ModelWavefunction.r_min), the
numerical stand-in for the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .cubic import cubic_table, cubic_values
from .errors import (
    DegenerateError,
    DomainError,
    FitError,
    OriginError,
    StepFailure,
    WindowClosed,
)
from .params import PhysParams
from .wavefunction import (
    R_SEED_FACTOR,
    ModelWavefunction,
    current_weights,
    overlap_parts,
    reduced_amplitudes,
    span_currents,
)

if TYPE_CHECKING:
    from .jump_process import CoefficientTrack

#: Integrator steps (accepted plus rejected) one flight may take.
MAX_STEPS = 500_000


class SphericalState(NamedTuple):
    """A trajectory sample: time and spherical position, phi unwrapped."""

    t: float
    r: float
    theta: float
    phi: float


@dataclass(frozen=True)
class Absorbed:
    """Terminal event: the path reached r_min; t0 is the arrival time at
    the source, exact for closed-form flights and extrapolated (linear
    s(t) continuation below r_min) for integrated ones."""

    t0: float


@dataclass(frozen=True)
class LeftInnerRegion:
    """Terminal event: the path reached r_cut/2 going outward."""


@dataclass(frozen=True)
class TimeExhausted:
    """Terminal event: integration ran to t_end."""


@dataclass(frozen=True)
class ProbeCrossing:
    """A recorded passage through a probe radius; direction +1 outward."""

    t: float
    r: float
    direction: int


@dataclass
class TrajectorySegment:
    """One deterministic flight.  Integrated flights sample every accepted
    step plus the terminal point; closed-form flights (n_accepted = 0)
    sample the start, the probe crossing if any and the terminal point.
    `model` is the model at the flight's launch time, the coefficients a
    fixed flight keeps throughout; an emitted flight holds those of its
    emission time, not of its first sample (the seed point after it).

    The segment keeps the float arrays its producer built: of equal
    length, t strictly increasing and r > 0, which integrate and
    _closed_form_flight guarantee by construction."""

    t: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    terminal: Absorbed | LeftInnerRegion | TimeExhausted
    probe_crossings: tuple[ProbeCrossing, ...] = ()
    n_accepted: int = 0
    n_rejected: int = 0
    model: ModelWavefunction | None = None

    @property
    def initial(self) -> SphericalState:
        return SphericalState(self.t[0], self.r[0], self.theta[0], self.phi[0])

    def radius_at(self, t: float) -> float | None:
        """Radius at time t, or None outside the segment's time span.

        Closed-form segments invert t(r) of their frozen model exactly;
        integrated ones interpolate s = r^(1-2B), the integrator's own
        variable, with a cubic spline through the samples, built at each
        call (linear interpolation between the integrator's wide steps is
        off by more than 1e-5 relative far from the source).
        """
        if not self.t[0] <= t <= self.t[-1]:
            return None
        if self.model is None:
            raise DomainError("segment carries no model to evaluate radii with")
        p = self.model.params
        if self.n_accepted == 0:
            parts = self.model.overlap_parts
            t_src = self.t[0] - _elapsed(p, parts, self.r[0])
            lo, hi = sorted((float(self.r[0]), float(self.r[-1])))
            return _invert_time(p, parts, t - t_src, lo, hi)
        one = 1.0 - 2.0 * p.B
        table = cubic_table(self.t, (self.r**one)[:, None])
        return float(cubic_values(self.t, table, t)[0]) ** (1.0 / one)


# =====================================================================
# closed forms
# =====================================================================

#: (|c-|^2, |c+|^2, Re, Im) of conj(c_minus) c_plus, as overlap_parts forms it.
_Parts = tuple[float, float, float, float]


def _elapsed(params: PhysParams, parts: _Parts, r: float) -> float:
    """t(r) - t0 from the overlap parts of the coefficients."""
    m2, p2, re, im = parts
    q, B = params.q, params.B
    one = 1.0 - 2.0 * B
    return (
        m2 * r**one / one + 2.0 * q * re * r + p2 * r ** (1.0 + 2.0 * B) / (1.0 + 2.0 * B)
    ) / (2.0 * B * im)


def _azimuth(params: PhysParams, parts: _Parts, r: float) -> float:
    """phi(r) - phi0 from the overlap parts of the coefficients."""
    m2, p2, re, im = parts
    q, B = params.q, params.B
    sgn = params.sign_mk
    return (
        q * sgn * m2 / (4.0 * B * B * im) * r ** (-2.0 * B)
        - sgn * re / (B * im) * math.log(r)
        - q * sgn * p2 / (4.0 * B * B * im) * r ** (2.0 * B)
    )


def time_from_radius(
    params: PhysParams, c_minus: complex, c_plus: complex, r: float
) -> float:
    """Exact elapsed time t(r) - t0 relative to the visit to the source.

    Positive for outgoing motion (Im > 0), negative for ingoing (Im < 0,
    the path is at radius r before it hits the source at t0).
    """
    if r <= 0.0:
        raise OriginError("radius must be positive")
    return _elapsed(params, overlap_parts(c_minus, c_plus), r)


def azimuth_from_radius(
    params: PhysParams, c_minus: complex, c_plus: complex, r: float
) -> float:
    """Exact azimuthal offset phi(r) - phi0, with phi0 the label defined
    by subtracting the divergent r^(-2B) and log parts as r -> 0."""
    if r <= 0.0:
        raise OriginError("radius must be positive")
    return _azimuth(params, overlap_parts(c_minus, c_plus), r)


def _invert_time(
    params: PhysParams, parts: _Parts, dt: float, r_lo: float, r_hi: float
) -> float:
    """The radius in [r_lo, r_hi] at which t(r) - t0 = dt.  t(r) is
    monotone; when rounding puts dt just outside the bracket's image,
    the nearer end is returned.  Newton steps with the exact slope

        dt/dr = (|c-|^2 r^(-2B) + 2 q Re + |c+|^2 r^(2B)) / (2 B Im),

    kept inside the shrinking sign-change bracket (a step that leaves it
    bisects instead); _bracket_root finishes if they do not converge."""
    m2, p2, re, im = parts
    q, B = params.q, params.B
    f = lambda r: _elapsed(params, parts, r) - dt
    f_lo, f_hi = f(r_lo), f(r_hi)
    if f_lo * f_hi > 0.0:
        return r_lo if abs(f_lo) < abs(f_hi) else r_hi
    if f_lo == 0.0 or f_hi == 0.0:
        return r_lo if f_lo == 0.0 else r_hi
    lo, hi, rising = r_lo, r_hi, f_lo < 0.0
    # start where the chord in s = r^(1-2B) crosses, the variable in
    # which t is nearly linear near the source
    one = 1.0 - 2.0 * B
    s_lo, s_hi = lo**one, hi**one
    r = min(max((s_lo + f_lo / (f_lo - f_hi) * (s_hi - s_lo)) ** (1.0 / one), lo), hi)
    for _ in range(60):
        g = f(r)
        if g == 0.0:
            return r
        if (g < 0.0) == rising:
            lo = r
        else:
            hi = r
        u = r ** (2.0 * B)
        slope = (m2 / u + 2.0 * q * re + p2 * u) / (2.0 * B * im)
        r_next = r - g / slope
        if not lo < r_next < hi:
            r_next = 0.5 * (lo + hi)
        if abs(r_next - r) <= 4.4e-16 * r:
            return r_next
        r = r_next
    return _bracket_root(f, lo, hi, f(lo), f(hi))


def _closed_form_flight(
    model: ModelWavefunction,
    parts: _Parts,
    initial: SphericalState,
    t_end: float,
    probe_radius: float | None,
) -> TrajectorySegment:
    """The flight integrate would step, evaluated from the exact relations
    of the pure frozen-coefficient model with overlap parts `parts`.

    r is monotone, so the flight ends at the source side (r_min, ingoing)
    or at r_cut/2 (outgoing) unless t_end comes first; a probe radius
    between the start and that end is crossed once.  Samples: the start,
    the crossing and the terminal point, strictly time-ordered by
    construction (t_i < t_c < t_last).
    """
    p = model.params
    t_i, r_i, phi_i = float(initial.t), float(initial.r), float(initial.phi)
    t_src = t_i - _elapsed(p, parts, r_i)  # visit to the source
    phi_label = phi_i - _azimuth(p, parts, r_i)
    inward = parts[3] < 0.0
    r_term = model.r_min if inward else 0.5 * model.r_cut
    lo, hi = sorted((r_i, r_term))
    t_last = t_src + _elapsed(p, parts, r_term)
    r_last = r_term
    if t_last <= t_end:
        terminal = Absorbed(t0=t_src) if inward else LeftInnerRegion()
        # a start within rounding of r_term still ends after it starts
        t_last = max(t_last, math.nextafter(t_i, math.inf))
    else:
        terminal = TimeExhausted()
        t_last = t_end
        r_last = _invert_time(p, parts, t_end - t_src, lo, hi)

    crossings = ()
    if probe_radius is not None and lo < probe_radius < hi:
        rp = float(probe_radius)
        tc = t_src + _elapsed(p, parts, rp)
        if t_i < tc < t_last:
            crossings = (ProbeCrossing(t=tc, r=rp, direction=-1 if inward else 1),)

    radii = [r_i, *(pc.r for pc in crossings), r_last]
    t, r, theta, phi = np.array([
        [t_i, *(pc.t for pc in crossings), t_last],
        radii,
        [float(initial.theta)] * len(radii),
        [phi_i] + [phi_label + _azimuth(p, parts, r) for r in radii[1:]],
    ])
    return TrajectorySegment(
        t=t,
        r=r,
        theta=theta,
        phi=phi,
        terminal=terminal,
        probe_crossings=crossings,
        model=model,
    )


# =====================================================================
# adaptive integrator (Dormand-Prince 5(4), FSAL, PI step control)
# =====================================================================

_DP_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_DP_A = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_DP_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_DP_E = (  # b - b_hat, applied to k1..k7
    35.0 / 384.0 - 5179.0 / 57600.0,
    0.0,
    500.0 / 1113.0 - 7571.0 / 16695.0,
    125.0 / 192.0 - 393.0 / 640.0,
    -2187.0 / 6784.0 + 92097.0 / 339200.0,
    11.0 / 84.0 - 187.0 / 2100.0,
    -1.0 / 40.0,
)
# the same entries as module floats, for the straight-line stages
_C2, _C3, _C4, _C5, _C6 = _DP_C[1:]
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
) = _DP_A[1:]
_B1, _B2, _B3, _B4, _B5, _B6 = _DP_B
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_E


def _dp5_attempt(field, t, s, phi, h, k1, q1):
    """One Dormand-Prince attempt of width h from (t, s, phi), where k1
    and q1 are the slopes of s and phi: (s_new, phi_new, k7, q7, err_s,
    err_phi), with k7, q7 the FSAL slopes at t + h and err_* the
    embedded error estimates; None when a stage or s_new reaches s <= 0
    (the step passed the source).  Stage i reads field(t + c_i h, s_i).
    The field depends on s only, so phi is a quadrature of its stages.
    Each sum runs left to right over all terms, zero ones included."""
    ys = s + h * (_A21 * k1)
    if ys <= 0.0:
        return None
    k2, q2 = field(t + _C2 * h, ys)
    ys = s + h * (_A31 * k1 + _A32 * k2)
    if ys <= 0.0:
        return None
    k3, q3 = field(t + _C3 * h, ys)
    ys = s + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
    if ys <= 0.0:
        return None
    k4, q4 = field(t + _C4 * h, ys)
    ys = s + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
    if ys <= 0.0:
        return None
    k5, q5 = field(t + _C5 * h, ys)
    ys = s + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
    if ys <= 0.0:
        return None
    t6 = t + _C6 * h
    k6, q6 = field(t6, ys)
    s_new = s + h * (_B1 * k1 + _B2 * k2 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    if s_new <= 0.0:
        return None
    phi_new = phi + h * (
        _B1 * q1 + _B2 * q2 + _B3 * q3 + _B4 * q4 + _B5 * q5 + _B6 * q6
    )
    k7, q7 = field(t6, s_new)  # FSAL stage, at t + h like the last one
    err_s = h * (
        _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7
    )
    err_phi = h * (
        _E1 * q1 + _E2 * q2 + _E3 * q3 + _E4 * q4 + _E5 * q5 + _E6 * q6 + _E7 * q7
    )
    return s_new, phi_new, k7, q7, err_s, err_phi


def _hermite(y0, y1, f0, f1, h, tau):
    """Cubic Hermite value at fraction tau of a step of width h."""
    a = tau * tau * (3.0 - 2.0 * tau)
    b = tau * (tau - 1.0)
    return (1.0 - a) * y0 + a * y1 + h * b * ((tau - 1.0) * f0 + tau * f1)


def _bracket_root(g, lo, hi, g_lo, g_hi):
    """Bisection for g's sign change on [lo, hi]; returns the root."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_lo < 0.0) != (g_mid < 0.0):
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def _make_rhs(
    params: PhysParams,
    subleading: tuple[complex, complex],
    coefficients: tuple[complex, complex] | CoefficientTrack,
) -> Callable[[float, float], tuple[float, float]]:
    """The guiding field of one flight, field(t, s) -> (ds/dt, dphi/dt)
    for y = (s, phi) with s = r^(1-2B): one call per DP5 stage.

    v = j/rho from span_currents of the real and imaginary parts of the
    reduced amplitudes, whose common factor cancels from the ratios:
    ds/dt = (1-2B) r^(-2B) j_r/rho and dphi/dt = (j_phi/sin(theta))/(r rho).
    Both stay finite as s -> 0 (j_r ~ r^(2B) while rho -> (1+q)|c-|^2/pi).
    The constants that depend on params only (the exponents and
    current_weights) are formed once, here.

    Each stage reads (c_minus, c_plus) at its time t by Horner from the
    four c+- columns of a cubic piece (the first 16 floats of a
    CoefficientTrack.pair_pieces piece), keeping the piece of its last
    read and locating another only when t leaves it.  A track (psi_t)
    supplies its own pieces; a fixed pair is one piece over [0, inf) with
    zero cubic terms.  Without subleading amplitudes c_plus r^(2B) is
    formed as (Re c+ u, Im c+ u), the bits of the complex product; with
    them complex(Re, Im) of the pair goes through reduced_amplitudes.
    """
    one = 1.0 - 2.0 * params.B
    inv_one = 1.0 / one
    two_b = 2.0 * params.B
    neg_two_b = -two_b
    weights = current_weights(params)
    plain = subleading == (0j, 0j)

    if isinstance(coefficients, tuple):
        c_minus, c_plus = coefficients
        columns = (c_minus.real, c_minus.imag, c_plus.real, c_plus.imag)
        knots = (0.0, math.inf)
        pieces = [[w for d in columns for w in (0.0, 0.0, 0.0, d)]]
        locate = lambda _t: (0, 0.0)
    else:
        knots, pieces, locate = coefficients.pair_pieces()
    lo = hi = math.nan  # the last read's piece [lo, hi); none yet
    piece = None

    def field(t: float, s: float) -> tuple[float, float]:
        nonlocal lo, hi, piece
        if lo <= t < hi:
            x = t - lo
        else:
            i, x = locate(t)
            lo, hi, piece = knots[i], knots[i + 1], pieces[i][:16]
        a0, b0, c0, d0, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3 = piece
        cm_r = ((a0 * x + b0) * x + c0) * x + d0
        cm_i = ((a1 * x + b1) * x + c1) * x + d1
        cp_r = ((a2 * x + b2) * x + c2) * x + d2
        cp_i = ((a3 * x + b3) * x + c3) * x + d3
        r = s**inv_one
        if plain:
            u = r**two_b
            j_r, j_phi_over_sin, rho = span_currents(
                weights, cm_r, cm_i, cp_r * u, cp_i * u
            )
        else:
            a, c = reduced_amplitudes(
                params, complex(cm_r, cm_i), complex(cp_r, cp_i), r, subleading
            )
            j_r, j_phi_over_sin, rho = span_currents(
                weights, a.real, a.imag, c.real, c.imag
            )
        return one * r**neg_two_b * j_r / rho, j_phi_over_sin / (r * rho)

    return field


def integrate(
    model: ModelWavefunction,
    initial: SphericalState,
    t_end: float,
    tol: float = 1e-8,
    *,
    probe_radius: float | None = None,
    refresh: CoefficientTrack | None = None,
    dense: bool = True,
) -> TrajectorySegment:
    """Integrate the guiding equation forward from `initial` to t_end.

    Stops early with Absorbed (r crossed model.r_min, t0 extrapolated) or
    LeftInnerRegion (r crossed r_cut/2).  `refresh`, a CoefficientTrack
    when given, supplies (c_minus(t), c_plus(t)): the flight then solves
    the time-dependent guiding equation, each DP5 stage reading the
    track's piece at its own time t + c_i h.  Without it the stages read
    the model's fixed pair as one cubic piece (_make_rhs).  Crossings of
    `probe_radius`, when given, must lie in (0, r_cut/2) and are recorded
    in either direction.

    With dense=False, no refresh and no subleading amplitudes the flight
    is evaluated in closed form instead (exact; Absorbed then carries the
    exact arrival time at the source, and only the start, the crossing
    and the terminal point are sampled).  Without refresh or subleading
    amplitudes and with Im[conj(c_minus) c_plus] = 0 there is no radial
    motion: DP5 circles at the start radius until t_end, and an infinite
    t_end raises DegenerateError, since such a flight never ends.
    """
    p = model.params
    r_min = model.r_min
    r_top = 0.5 * model.r_cut
    if not r_min < initial.r < r_top:
        raise DomainError(
            f"initial radius {initial.r!r} outside ({r_min!r}, {r_top!r})"
        )
    if not t_end > initial.t:
        raise DomainError("t_end must exceed the initial time")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol = {tol!r} outside (0, inf)")
    if probe_radius is not None and not 0.0 < probe_radius < r_top:
        raise DomainError(
            f"probe_radius = {probe_radius!r} outside (0, {r_top!r})"
        )
    if refresh is None and not model.has_subleading:
        try:
            parts = model.overlap_parts
        except DegenerateError:
            # no radial motion: DP5 circles at the start radius, a flight
            # only a finite t_end ends
            if math.isinf(t_end):
                raise
        else:
            if not dense:
                return _closed_form_flight(model, parts, initial, t_end, probe_radius)

    one = 1.0 - 2.0 * p.B
    inv_one = 1.0 / one
    s_min = r_min**one
    s_top = r_top**one
    levels = [(s_min, True), (s_top, True)]  # (s level, is terminal)
    if probe_radius is not None:
        levels.append((float(probe_radius) ** one, False))
    field = _make_rhs(
        p,
        model.subleading_amp,
        (model.c_minus, model.c_plus) if refresh is None else refresh,
    )

    t = float(initial.t)
    s = float(initial.r) ** one
    phi = float(initial.phi)
    theta = float(initial.theta)

    ts, ss, phis = [t], [s], [phi]
    crossings: list[ProbeCrossing] = []
    n_acc = n_rej = 0

    f_s, f_phi = field(t, s)

    # Hairer's first-step guess h0 = 0.01 d0/d1, with d0 and d1 the
    # scaled norms of y0 and f(y0)
    atol_s = 0.1 * tol * s_min
    scale_s = atol_s + tol * abs(s)
    scale_phi = tol * max(1.0, abs(phi))
    d0 = max(abs(s) / scale_s, abs(phi) / scale_phi)
    d1 = max(abs(f_s) / scale_s, abs(f_phi) / scale_phi, 1e-300)
    h = min(0.01 * d0 / d1, t_end - t)

    err_prev = 1.0
    terminal: Absorbed | LeftInnerRegion | TimeExhausted | None = None

    while terminal is None:
        if n_acc + n_rej >= MAX_STEPS:
            raise StepFailure(f"step budget {MAX_STEPS} exhausted at t = {t!r}")
        if h < 16.0 * abs(t) * 2.3e-16 + 1e-300:
            raise StepFailure(f"step size underflow at t = {t!r}")
        if f_s < 0.0:
            # near absorption s(t) is almost linear and the controller
            # would overshoot s <= 0; aim just below the crossing instead
            h_aim = (0.5 * s_min - s) / f_s
            if h_aim < h:
                h = h_aim
        final_step = t + h >= t_end
        if final_step:
            h = t_end - t

        attempt = _dp5_attempt(field, t, s, phi, h, f_s, f_phi)
        if attempt is None:
            n_rej += 1  # stepped over the source; shrink
            h *= 0.3
            continue
        s_new, phi_new, g_s, g_phi, err_s, err_phi = attempt
        # comparisons in place of min and max, picking what they pick
        s_abs, s_new_abs = abs(s), abs(s_new)
        sc_s = atol_s + tol * (s_new_abs if s_new_abs > s_abs else s_abs)
        phi_abs, phi_new_abs = abs(phi), abs(phi_new)
        phi_abs = phi_abs if phi_abs > 1.0 else 1.0
        sc_phi = tol * (phi_new_abs if phi_new_abs > phi_abs else phi_abs)
        err = math.sqrt(0.5 * ((err_s / sc_s) ** 2 + (err_phi / sc_phi) ** 2))

        if err > 1.0:
            n_rej += 1
            fac = 0.9 * err**-0.2
            h *= fac if fac > 0.2 else 0.2
            err_prev = err
            continue

        # accepted: scan [t, t+h] for probe and terminal crossings
        hits: list[tuple[float, float, int, bool]] = []  # (tau, s_level, dir, is_terminal)
        for level, is_term in levels:
            g0, g1 = s - level, s_new - level
            if g0 == 0.0 or (g0 < 0.0) == (g1 < 0.0):
                continue
            tau_c = _bracket_root(
                lambda u: _hermite(s, s_new, f_s, g_s, h, u) - level, 0.0, 1.0, g0, g1
            )
            hits.append((tau_c, level, 1 if g1 > g0 else -1, is_term))
        hits.sort()

        for tau_c, level, direction, is_term in hits:
            tc = t + tau_c * h
            if tc <= ts[-1]:
                tc = math.nextafter(ts[-1], math.inf)
            if is_term:
                ts.append(tc)
                ss.append(level)
                phis.append(_hermite(phi, phi_new, f_phi, g_phi, h, tau_c))
                if level == s_min and direction < 0:
                    ds_dt = field(tc, s_min)[0]
                    t0 = tc + s_min / (-ds_dt) if ds_dt < 0.0 else tc
                    terminal = Absorbed(t0=t0)
                else:
                    terminal = LeftInnerRegion()
                break
            crossings.append(
                ProbeCrossing(t=tc, r=level**inv_one, direction=direction)
            )

        n_acc += 1
        if terminal is None:
            t, s, phi = (t_end if final_step else t + h), s_new, phi_new
            if t <= ts[-1]:
                t = math.nextafter(ts[-1], math.inf)
            ts.append(t)
            ss.append(s)
            phis.append(phi)
            if final_step:
                terminal = TimeExhausted()
                break
            fac = 0.9 * err ** -0.14 * err_prev**0.08 if err > 0.0 else 10.0
            fac = fac if fac > 0.2 else 0.2
            h *= fac if fac < 10.0 else 10.0
            err_prev = 1e-10 if 1e-10 > err else err
            f_s, f_phi = g_s, g_phi

    r_arr = np.array(ss) ** inv_one
    return TrajectorySegment(
        t=np.array(ts),
        r=r_arr,
        theta=np.full(len(ts), theta),
        phi=np.array(phis),
        terminal=terminal,
        probe_crossings=tuple(crossings),
        n_accepted=n_acc,
        n_rejected=n_rej,
        model=model,
    )


def emit_trajectory(
    model: ModelWavefunction,
    t0: float,
    theta0: float,
    phi0: float,
    tol: float = 1e-8,
    *,
    t_end: float = math.inf,
    probe_radius: float | None = None,
    refresh: CoefficientTrack | None = None,
    dense: bool = True,
) -> TrajectorySegment:
    """Outgoing trajectory emanating from the source at t0 with labels
    (theta0, phi0): seed (t, phi) at R_SEED_FACTOR * model.r_min from the
    exact closed forms, then integrate forward until leaving the inner
    region (or t_end); `dense` as in integrate.  WindowClosed if t_end
    does not come after the seed time.
    """
    p = model.params
    seed_radius = R_SEED_FACTOR * model.r_min
    parts = model.overlap_parts
    if parts[3] < 0.0:
        raise DegenerateError(
            f"no outgoing trajectory for Im[conj(c_minus) c_plus] = {parts[3]!r}"
        )
    t_seed = t0 + _elapsed(p, parts, seed_radius)
    phi_seed = phi0 + _azimuth(p, parts, seed_radius)
    start = SphericalState(t=t_seed, r=seed_radius, theta=theta0, phi=phi_seed)
    if not t_end > t_seed:
        raise WindowClosed("t_end precedes the seed time")
    if math.isinf(t_end):
        # generous bound: exact exit time for frozen coefficients, doubled
        t_end = t_seed + 2.0 * abs(_elapsed(p, parts, 0.5 * model.r_cut)) + 1.0
    return integrate(
        model,
        start,
        t_end,
        tol,
        probe_radius=probe_radius,
        refresh=refresh,
        dense=dense,
    )


# =====================================================================
# power-law fitting
# =====================================================================

def fit_power_law(samples) -> tuple[float, float, float]:
    """Least-squares fit y = prefactor * t^exponent on log-log axes.

    samples: sequence of (t, y) pairs, t > 0, y > 0, at least 8 of them.
    Returns (exponent, prefactor, r_squared).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise FitError("samples must be (t, y) pairs")
    if arr.shape[0] < 8:
        raise FitError(f"need at least 8 samples, got {arr.shape[0]}")
    t, y = arr[:, 0], arr[:, 1]
    if np.any(t <= 0.0) or np.any(y <= 0.0):
        raise FitError("samples must have positive t and y")
    lt, ly = np.log(t), np.log(y)
    vt = lt - lt.mean()
    denom = float(vt @ vt)
    if denom == 0.0:
        raise FitError("degenerate fit: all abscissae equal")
    slope = float(vt @ (ly - ly.mean())) / denom
    intercept = float(ly.mean() - slope * lt.mean())
    resid = ly - (intercept + slope * lt)
    ss_res = float(resid @ resid)
    ss_tot = float((ly - ly.mean()) @ (ly - ly.mean()))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, math.exp(intercept), r2
