"""Bohmian trajectories near the source: the closed-form flow relations,
a closed-form flight evaluator, an adaptive integrator in the substituted
radial variable, and emission seeding.  The integrator's radial speed is
the closed form of j_r/rho in the overlap of the coefficients; its
azimuth rate, and its radial speed under subleading amplitudes, come from
wavefunction.span_currents of the reduced amplitudes (_make_rhs).

Radial substitution.  With s = r^(1-2B) the leading radial equation
becomes ds/dt = const near the origin (the power-law r(t) ~ |t|^(1/(1-2B))
is the integral of exactly that), so an adaptive stepper in s takes
uniform-quality steps all the way into absorption.  ds/dt is finite at
s = 0, where it is (1-2B) 2B Im[conj(c_minus) c_plus]/|c_minus|^2; only
dphi/dt ~ 1/r diverges there, the particle's infinitely many windings.
theta is not integrated at all: every model wave function lies pointwise
in the span of the two boundary spinors, which makes j_theta vanish
identically, so theta stays exactly constant along a segment.

Flights.  Every flight is a TrajectorySegment, whose docstring states
what each route (closed form, radial DP5, dense DP5) samples, what every
segment holds whatever its route, and what tol delivers.

One call per stage.  Each DP5 stage makes one Python call, field(t, s)
-> ds/dt, built once per flight (_make_rhs); without subleading
amplitudes it is closed form, with one pow.  A dense flight also calls
azimuth(t, s) -> dphi/dt at the same stage points; a radial flight never
does.  Every DP5 flight reads its coefficients from a cubic piece by
Horner: under psi_t the CoefficientTrack's own, with the bits of
CoefficientTrack.coefficients, and for a fixed pair one piece whose
cubic terms are zero.  A stage whose time leaves the piece of the last
read finds the next with one bisect on the knots.

Step control.  DP5 steps s; a dense flight integrates phi over the same
stage points.  A step is accepted when err is at most 1.  On a radial
flight err is the embedded error estimate of s relative to 0.15 tol
times the larger of its values at the step's ends plus 0.1 s_min; on a
dense flight it is the RMS over s and phi of their estimates, each
relative to 0.3 tol times the larger of the component's values at the
step's ends (plus 0.1 s_min for s, at least 1 for phi), so the radial
bound on s is tighter than the 0.42 tol that the RMS allows s when phi's
error is 0.  The next step is then
0.9 err^(-1/5) times this one: pure I control, growth capped at 10x; a
rejected step shrinks by the same law, at most 5x.  Near the source the
step follows the flight's self-similar scale and grows at every step,
which Hairer's PI controller 0.9 err^-0.14 err_prev^0.08 follows only
about 1.12 times per step; the fraction 0.3 keeps the flights at least as
accurate as that controller is at tol.  The
first step is Hairer's: h0 = 0.01 d0/d1 from the scaled norms of y and
f(y), then h1 = (0.01 / max(d1, d2))^(1/5), at most 100 h0, with d2 the
scaled change of f over an Euler step of h0, all in the flight's norm.
Probe and terminal crossings, and phi at a terminal crossing, are read
from DP5's own continuous extension over the crossing step (Hairer's
CONTD5, order 4).

Closed forms (pure model, coefficients frozen).  Separating variables,
with Im = Im[conj(c_minus) c_plus], Re likewise, sgn = sgn(m~ k~):

    t(r) - t0 = [|c-|^2 r^(1-2B)/(1-2B) + 2q Re r
                 + |c+|^2 r^(1+2B)/(1+2B)] / (2B Im)

    phi(r) - phi0 = q sgn |c-|^2/(4B^2 Im) r^(-2B)
                    - sgn Re/(B Im) ln r
                    - q sgn |c+|^2/(4B^2 Im) r^(2B)

Both are exact for the subleading-free model, not asymptotic, and r is
monotone along such a flight.  The closed-form route evaluates t(r)
alone: the overlap (|c-|^2, |c+|^2, Re, Im) is formed once per model
(ModelWavefunction.overlap_parts), and terminal event, probe crossing
and end point cost a few evaluations and at most one root-find of t(r).
DP5 is tested against both relations, and emission seeds come from
them.  Either way a flight records the crossings of at most one probe
radius.

Flights end at the model's r_min (ModelWavefunction.r_min), the
numerical stand-in for the source.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


class Absorbed(NamedTuple):
    """Terminal event: the path reached r_min; t0 is the arrival time at
    the source, exact for closed-form flights and extrapolated (linear
    s(t) continuation below r_min) for integrated ones."""

    t0: float


# the two empty terminals stay dataclasses: two empty NamedTuples would
# compare equal, to each other and to ()
@dataclass(frozen=True)
class LeftInnerRegion:
    """Terminal event: the path reached r_cut/2 going outward."""


@dataclass(frozen=True)
class TimeExhausted:
    """Terminal event: integration ran to t_end."""


class ProbeCrossing(NamedTuple):
    """A recorded passage through a probe radius; direction +1 outward."""

    t: float
    r: float
    direction: int


@dataclass
class TrajectorySegment:
    """One deterministic flight, from its launch to its terminal event.

    Every segment keeps one contract, whatever its route: its first
    sample is the state it was launched from, bit for bit (for an
    emitted flight, the seed emit_trajectory computes), and after that
    sample phi is nan unless the flight was flown with dense=True.  So a
    flight that needs phi is the dense flight from seg.initial, which is
    how `trace` and `simulate --trace-dir` get theirs.  The rates and
    ds/dt do not depend on the angles, so no path statistic reads phi.
    integrate picks the route:
    - closed form (n_accepted = 0): fixed coefficients (no refresh), no
      subleading amplitudes, Im[conj(c_minus) c_plus] != 0 and
      dense=False.  Exact; samples the start, the probe crossing if any
      and the terminal point;
    - radial DP5, any other flight with dense=False (psi_t, subleading
      amplitudes, or Im = 0, which circles at its start radius): steps
      s = r^(1-2B) alone on ds/dt, evaluates no azimuth rate, and
      samples every accepted step plus the terminal point;
    - dense DP5 (dense=True): steps s the same way and integrates phi
      over the same stage points, bounding the error of both, with the
      same samples.

    What tol delivers on DP5 flights, against a DOP853 oracle on
    drifting psi_t flights, as the relative error in r at an accepted
    sample, over the 275 flights of the drifting_cli benchmark at seeds
    4242, 11 and 12 (tol 1e-6): radial flights 0.33 tol at worst and
    0.18 tol on nine flights in ten, in 4866 step attempts; dense flights
    2.4 tol and 0.42 tol, in 7412.  The tests' launched and emitted
    flights read 0.14 and 1.84 tol as radial flights at tol 1e-6 and
    1e-8, and 0.30-1.09 tol as dense ones.  The worst errors come from
    single steps that span many track knots (16-18 knots in 0.19-0.21
    time units), where the embedded estimate misses the error.

    `model` is the model at the flight's launch time, the coefficients a
    fixed flight keeps throughout; an emitted flight holds those of its
    emission time, not of its first sample (the seed point after it).
    The arrays are the float arrays the producer built: of equal length,
    t strictly increasing and r > 0, which integrate and
    _closed_form_flight guarantee by construction.  theta is one float:
    j_theta = 0 keeps every flight on its cone."""

    t: np.ndarray
    r: np.ndarray
    theta: float
    phi: np.ndarray
    terminal: Absorbed | LeftInnerRegion | TimeExhausted
    model: ModelWavefunction
    probe_crossings: tuple[ProbeCrossing, ...] = ()
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def initial(self) -> SphericalState:
        return SphericalState(self.t[0], self.r[0], self.theta, self.phi[0])

    def radius_at(self, t: float) -> float | None:
        """Radius at time t, or None outside the segment's time span.

        Closed-form segments invert t(r) of their frozen model exactly;
        integrated ones interpolate s = r^(1-2B), the integrator's own
        variable, with a cubic spline through the samples, built at each
        call.  Between samples the spline's own error dominates: on
        drifting psi_t sampler flights at tol 1e-6 it reaches about 1e-3
        relative in r (9.1e-4 at worst, 1.2e-4 in the median, at 20
        random times in each of the 275 drifting_cli flights at seeds
        4242, 11 and 12), two orders above the error of the samples.
        """
        if not self.t[0] <= t <= self.t[-1]:
            return None
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
    t_i, r_i = float(initial.t), float(initial.r)
    t_src = t_i - _elapsed(p, parts, r_i)  # visit to the source
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
    t, r, phi = (t_i, t_last), (r_i, r_last), (float(initial.phi), math.nan)
    if probe_radius is not None and lo < probe_radius < hi:
        rp = float(probe_radius)
        tc = t_src + _elapsed(p, parts, rp)
        if t_i < tc < t_last:
            crossings = (ProbeCrossing(tc, rp, -1 if inward else 1),)
            t, r, phi = (t_i, tc, t_last), (r_i, rp, r_last), (phi[0], math.nan, math.nan)

    return TrajectorySegment(
        t=np.array(t),
        r=np.array(r),
        theta=float(initial.theta),
        phi=np.array(phi),
        terminal=terminal,
        probe_crossings=crossings,
        model=model,
    )


# =====================================================================
# adaptive integrator (Dormand-Prince 5(4), FSAL, I step control)
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
# weights of Hairer's continuous extension (CONTD5), applied to k1, k3..k7
_DP_D = (
    -12715105075.0 / 11282082432.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
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
_D1, _D3, _D4, _D5, _D6, _D7 = _DP_D


def _dp5_increment(h, k1, k2, k3, k4, k5, k6):
    """h times DP5's fifth-order combination of the stage slopes k1..k6."""
    return h * (_B1 * k1 + _B2 * k2 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)


def _dp5_error(h, k1, k2, k3, k4, k5, k6, k7):
    """DP5's embedded error estimate from the stage slopes k1..k7."""
    return h * (
        _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7
    )


def _dp5_attempt(field, azimuth, t, s, phi, h, k1, q1):
    """One Dormand-Prince attempt of width h from (t, s, phi), where k1 is
    the slope of s: (s_new, k7, err_s, stages, phi_part), with k7 the FSAL
    slope at t + h, err_s the embedded error estimate and stages = (k3,
    k4, k5, k6) for the continuous extension (_contd5); None when a stage
    or s_new reaches s <= 0 (the step passed the source).  Stage i reads
    field(t_i, s_i) at t_i = t + c_i h.
    The field depends on s only, so phi is a quadrature over the same
    stage points: for a dense flight, with azimuth its rate and q1 that
    rate at the start, phi_part is (phi_new, q7, err_phi, (q3, q4, q5,
    q6)) from azimuth(t_i, s_i); a radial flight passes azimuth None,
    evaluates no azimuth and gets phi_part None.  Each sum runs left to
    right over all terms, zero ones included."""
    t2 = t + _C2 * h
    s2 = s + h * (_A21 * k1)
    if s2 <= 0.0:
        return None
    k2 = field(t2, s2)
    t3 = t + _C3 * h
    s3 = s + h * (_A31 * k1 + _A32 * k2)
    if s3 <= 0.0:
        return None
    k3 = field(t3, s3)
    t4 = t + _C4 * h
    s4 = s + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
    if s4 <= 0.0:
        return None
    k4 = field(t4, s4)
    t5 = t + _C5 * h
    s5 = s + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
    if s5 <= 0.0:
        return None
    k5 = field(t5, s5)
    t6 = t + _C6 * h
    s6 = s + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
    if s6 <= 0.0:
        return None
    k6 = field(t6, s6)
    s_new = s + _dp5_increment(h, k1, k2, k3, k4, k5, k6)
    if s_new <= 0.0:
        return None
    k7 = field(t6, s_new)  # FSAL stage, at t + h like the last one
    err_s = _dp5_error(h, k1, k2, k3, k4, k5, k6, k7)
    if azimuth is None:
        return s_new, k7, err_s, (k3, k4, k5, k6), None
    q2 = azimuth(t2, s2)
    q3 = azimuth(t3, s3)
    q4 = azimuth(t4, s4)
    q5 = azimuth(t5, s5)
    q6 = azimuth(t6, s6)
    q7 = azimuth(t6, s_new)
    return s_new, k7, err_s, (k3, k4, k5, k6), (
        phi + _dp5_increment(h, q1, q2, q3, q4, q5, q6),
        q7,
        _dp5_error(h, q1, q2, q3, q4, q5, q6, q7),
        (q3, q4, q5, q6),
    )


def _contd5(y0, y1, h, k1, k3, k4, k5, k6, k7):
    """DP5's continuous extension over an accepted step of width h from
    y0 to y1 with stage slopes k1, k3..k7 (Hairer's CONTD5, of order 4):
    its value at fraction tau of the step, as a function."""
    dy = y1 - y0
    b = h * k1 - dy
    c = dy - h * k7 - b
    d = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
    return lambda tau: y0 + tau * (dy + (1.0 - tau) * (b + tau * (c + (1.0 - tau) * d)))


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
) -> tuple[Callable[[float, float], float], Callable[[float, float], float]]:
    """The guiding field of one flight in s = r^(1-2B): (field, azimuth),
    field(t, s) -> ds/dt, which every DP5 stage calls, and azimuth(t, s)
    -> dphi/dt, which only a dense flight calls, at the same points.

    v = j/rho from the currents of the reduced amplitudes, whose common
    factor cancels from the ratios: ds/dt = (1-2B) r^(-2B) j_r/rho and
    dphi/dt = (j_phi/sin(theta))/(r rho).  ds/dt stays finite at the
    source: r^(-2B) j_r = 2 w B Im[conj(c-) c+] exactly, and rho -> w |c-|^2
    as s -> 0, so ds/dt -> (1-2B) 2B Im/|c-|^2 there.  dphi/dt does not:
    it grows as -q sgn / r, the particle's infinitely many windings.
    Without subleading amplitudes, field is that ratio in closed form,

        ds/dt = (1-2B) 2B Im / (|c-|^2 + u (2q Re + u |c+|^2)),

    with u = r^(2B) = s^(2B/(1-2B)) and the overlap parts of the stage's
    (c-, c+): (1-2B) r^(-2B) times the reciprocal of the exact dt/dr
    of _invert_time, one pow per call, and defined at s = 0.  With them,
    and for azimuth always, the pair goes through reduced_amplitudes and
    span_currents.  The constants that depend on params only are formed
    once, here.

    field reads (c_minus, c_plus) at its time t by Horner from the four
    c+- columns of a cubic piece (a CoefficientTrack.pair_pieces piece),
    keeping the piece of its last read; when t leaves it, one bisect on
    the knots finds the next, with t clamped to the grid as
    CoefficientTrack.coefficients clamps it.  A track (psi_t) supplies
    its own pieces; a fixed pair is one piece over [0, inf) with zero
    cubic terms.  azimuth, off the sampler's path, reads the same bits
    through the track's own reader.
    """
    one = 1.0 - 2.0 * params.B
    inv_one = 1.0 / one
    two_b = 2.0 * params.B
    neg_two_b = -two_b
    u_exp = two_b / one
    gain = one * two_b
    two_q = 2.0 * params.q
    weights = current_weights(params)
    plain = subleading == (0j, 0j)

    if isinstance(coefficients, tuple):
        c_minus, c_plus = coefficients
        columns = (c_minus.real, c_minus.imag, c_plus.real, c_plus.imag)
        knots = (0.0, math.inf)
        pieces = [[w for d in columns for w in (0.0, 0.0, 0.0, d)]]
        read = lambda _t: columns
    else:
        knots, pieces, read = coefficients.pair_pieces()
    first, last, n = knots[0], knots[-1], len(pieces)
    lo = hi = math.nan  # the last read's piece [lo, hi); none yet
    piece = None

    def currents(cm_r, cm_i, cp_r, cp_i, s):
        # r and (j_r, j_phi/sin(theta), rho) of the reduced amplitudes
        r = s**inv_one
        a, c = reduced_amplitudes(
            params, complex(cm_r, cm_i), complex(cp_r, cp_i), r, subleading
        )
        return r, span_currents(weights, a.real, a.imag, c.real, c.imag)

    def field(t: float, s: float) -> float:
        nonlocal lo, hi, piece
        if lo <= t < hi:
            x = t - lo
        else:
            t = first if t < first else last if t > last else t
            i = bisect_right(knots, t, 1, n) - 1
            lo, hi, piece = knots[i], knots[i + 1], pieces[i]
            x = t - lo
        a0, b0, c0, d0, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3 = piece
        cm_r = ((a0 * x + b0) * x + c0) * x + d0
        cm_i = ((a1 * x + b1) * x + c1) * x + d1
        cp_r = ((a2 * x + b2) * x + c2) * x + d2
        cp_i = ((a3 * x + b3) * x + c3) * x + d3
        if plain:
            m2 = cm_r * cm_r + cm_i * cm_i
            p2 = cp_r * cp_r + cp_i * cp_i
            re = cm_r * cp_r + cm_i * cp_i
            im = cm_r * cp_i - cm_i * cp_r
            u = s**u_exp
            return gain * im / (m2 + u * (two_q * re + u * p2))
        r, (j_r, _, rho) = currents(cm_r, cm_i, cp_r, cp_i, s)
        return one * r**neg_two_b * j_r / rho

    def azimuth(t: float, s: float) -> float:
        cm_r, cm_i, cp_r, cp_i = read(t)[:4]
        r, (_, j_phi_over_sin, rho) = currents(cm_r, cm_i, cp_r, cp_i, s)
        return j_phi_over_sin / (r * rho)

    return field, azimuth


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
    in either direction.  `dense`, `refresh` and the model pick the
    route, closed form or DP5, and the segment keeps the contract that
    the TrajectorySegment docstring states, with the accuracy tol
    delivers; the module docstring has DP5's step control.  Without
    refresh or subleading amplitudes and with Im[conj(c_minus) c_plus] =
    0 there is no radial motion: DP5 circles at the start radius until
    t_end, and an infinite t_end raises DegenerateError, since such a
    flight never ends.
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

    def bracket(s):
        # the nearest levels at or below s and above it: a step from s
        # crosses a level only if it ends outside [below, above)
        below = max((lv for lv, _ in levels if lv <= s), default=-math.inf)
        above = min((lv for lv, _ in levels if lv > s), default=math.inf)
        return below, above

    field, azimuth = _make_rhs(
        p,
        model.subleading_amp,
        (model.c_minus, model.c_plus) if refresh is None else refresh,
    )

    t = float(initial.t)
    s = float(initial.r) ** one
    phi = float(initial.phi)
    theta = float(initial.theta)

    ts, ss, phis = [t], [s], [phi]
    below, above = bracket(s)
    crossings: list[ProbeCrossing] = []
    n_acc = n_rej = 0

    f_s = field(t, s)

    # a radial flight (TrajectorySegment) evaluates no azimuth, bounds the
    # error of s alone, held to 0.15 tol, and carries no phi after its
    # launch
    radial = not dense
    if radial:
        azimuth = None
        phi = f_phi = math.nan
    else:
        f_phi = azimuth(t, s)
    # dense errors are held to 0.3 tol: pure I control (below) then stays
    # at least as accurate as Hairer's PI controller at tol, in fewer steps
    tol = (0.15 if radial else 0.3) * tol
    # Hairer's first step: h0 = 0.01 d0/d1, with d0 and d1 the scaled
    # norms of y0 and f(y0), then h1 = (0.01 / max(d1, d2))^(1/5), with d2
    # the scaled change of f over an Euler step of h0.  d0 <= 1/tol, so
    # |h0 ds/dt| <= 0.01 (s + 0.1 s_min) and that step stays above the source
    atol_s = 0.1 * tol * s_min
    scale_s = atol_s + tol * abs(s)
    d0 = abs(s) / scale_s
    d1 = abs(f_s) / scale_s
    if not radial:
        scale_phi = tol * max(1.0, abs(phi))
        d0 = max(d0, abs(phi) / scale_phi)
        d1 = max(d1, abs(f_phi) / scale_phi)
    d1 = max(d1, 1e-300)
    h = 0.01 * d0 / d1
    t_euler, s_euler = t + h, s + h * f_s
    d2 = abs(field(t_euler, s_euler) - f_s) / scale_s
    if not radial:
        d2 = max(d2, abs(azimuth(t_euler, s_euler) - f_phi) / scale_phi)
    d2 /= h
    h = min(100.0 * h, (0.01 / max(d1, d2)) ** 0.2, t_end - t)

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

        attempt = _dp5_attempt(field, azimuth, t, s, phi, h, f_s, f_phi)
        if attempt is None:
            n_rej += 1  # stepped over the source; shrink
            h *= 0.3
            continue
        s_new, g_s, err_s, stages, phi_part = attempt
        # comparisons in place of min and max, picking what they pick
        s_abs, s_new_abs = abs(s), abs(s_new)
        sc_s = atol_s + tol * (s_new_abs if s_new_abs > s_abs else s_abs)
        if radial:
            err = abs(err_s) / sc_s
        else:
            phi_new, g_phi, err_phi, phi_stages = phi_part
            phi_abs, phi_new_abs = abs(phi), abs(phi_new)
            phi_abs = phi_abs if phi_abs > 1.0 else 1.0
            sc_phi = tol * (phi_new_abs if phi_new_abs > phi_abs else phi_abs)
            err = math.sqrt(0.5 * ((err_s / sc_s) ** 2 + (err_phi / sc_phi) ** 2))

        if err > 1.0:
            n_rej += 1
            fac = 0.9 * err**-0.2
            h *= fac if fac > 0.2 else 0.2
            continue

        # accepted: a step that leaves [below, above) may cross a probe or
        # terminal level; scan [t, t+h] for them, found on the step's
        # continuous extension
        if not below <= s_new < above:
            hits: list[tuple[float, float, int, bool]] = []  # (tau, s_level, dir, is_terminal)
            for level, is_term in levels:
                g0, g1 = s - level, s_new - level
                if g0 == 0.0 or (g0 < 0.0) == (g1 < 0.0):
                    continue
                s_at = _contd5(s, s_new, h, f_s, *stages, g_s)
                tau_c = _bracket_root(lambda u: s_at(u) - level, 0.0, 1.0, g0, g1)
                hits.append((tau_c, level, 1 if g1 > g0 else -1, is_term))
            hits.sort()

            for tau_c, level, direction, is_term in hits:
                tc = t + tau_c * h
                if tc <= ts[-1]:
                    tc = math.nextafter(ts[-1], math.inf)
                if is_term:
                    ts.append(tc)
                    ss.append(level)
                    phis.append(
                        phi if radial
                        else _contd5(phi, phi_new, h, f_phi, *phi_stages, g_phi)(tau_c)
                    )
                    if level == s_min and direction < 0:
                        ds_dt = field(tc, s_min)
                        t0 = tc + s_min / (-ds_dt) if ds_dt < 0.0 else tc
                        terminal = Absorbed(t0=t0)
                    else:
                        terminal = LeftInnerRegion()
                    break
                # the probe radius itself, not its round trip through s
                crossings.append(ProbeCrossing(tc, float(probe_radius), direction))
            below, above = bracket(s_new)

        n_acc += 1
        if terminal is None:
            t, s = (t_end if final_step else t + h), s_new
            if not radial:
                phi, f_phi = phi_new, g_phi
            if t <= ts[-1]:
                t = math.nextafter(ts[-1], math.inf)
            ts.append(t)
            ss.append(s)
            phis.append(phi)
            if final_step:
                terminal = TimeExhausted()
                break
            # pure I control; err <= 1 here, so fac >= 0.9 needs no floor
            fac = 0.9 * err**-0.2 if err > 0.0 else 10.0
            h *= fac if fac < 10.0 else 10.0
            f_s = g_s

    r_arr = np.array(ss) ** inv_one
    r_arr[0] = initial.r  # the launch radius, not its round trip through s
    return TrajectorySegment(
        t=np.array(ts),
        r=r_arr,
        theta=theta,
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
    exact closed forms, then integrate forward from that seed, the
    segment's first sample, until leaving the inner region (or t_end);
    `dense` as in integrate.  WindowClosed if t_end does not come after
    the seed time.
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
