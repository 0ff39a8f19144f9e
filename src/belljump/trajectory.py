"""Bohmian trajectories near the source: the closed-form flow relations,
a closed-form flight evaluator, an adaptive integrator in the substituted
radial variable, and emission seeding.  The integrator's guiding field is
wavefunction.span_currents of the reduced amplitudes.

Radial substitution.  With s = r^(1-2B) the leading radial equation
becomes ds/dt = const near the origin (the power-law r(t) ~ |t|^(1/(1-2B))
is the integral of exactly that), so an adaptive stepper in (s, phi)
takes uniform-quality steps all the way into absorption.  theta is not
integrated at all: every model wave function lies pointwise in the span
of the two boundary spinors, which makes j_theta vanish identically, so
theta stays exactly constant along a segment.

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
does this): terminal event, probe crossings and end point cost a few
evaluations and at most one root-find of t(r).  The DP5 integrator
serves dense traces (`trace`, the `simulate --trace-dir` CSVs),
subleading models and time-varying coefficients, and is tested against
the closed forms; emission trajectories are seeded from them.

Flights end at the model's r_min (ModelWavefunction.r_min), the
numerical stand-in for the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateError,
    DomainError,
    FitError,
    OriginError,
    SignError,
    StepFailure,
)
from .params import PhysParams
from .wavefunction import ModelWavefunction, reduced_amplitudes, span_currents

#: Default emission seed radius as a multiple of r_min.
R_SEED_FACTOR = 10.0
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
    sample the start, each probe crossing and the terminal point.  `model`
    is the model the flight was computed from (for a refreshed flight,
    the one at its start)."""

    t: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    terminal: Absorbed | LeftInnerRegion | TimeExhausted
    probe_crossings: tuple[ProbeCrossing, ...] = ()
    n_accepted: int = 0
    n_rejected: int = 0
    model: ModelWavefunction | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if not (len(self.t) == len(self.r) == len(self.theta) == len(self.phi)):
            raise ValueError("sample arrays must have equal length")
        if len(self.t) and np.any(np.diff(self.t) <= 0.0):
            raise ValueError("samples must be strictly time-ordered")
        if len(self.r) and np.any(self.r <= 0.0):
            raise ValueError("samples must stay off the source")

    @property
    def samples(self) -> tuple[SphericalState, ...]:
        return tuple(
            SphericalState(*row)
            for row in zip(self.t, self.r, self.theta, self.phi)
        )

    @property
    def initial(self) -> SphericalState:
        return SphericalState(self.t[0], self.r[0], self.theta[0], self.phi[0])

    @property
    def final(self) -> SphericalState:
        return SphericalState(self.t[-1], self.r[-1], self.theta[-1], self.phi[-1])

    def radius_at(self, t: float) -> float | None:
        """Radius at time t, or None outside the segment's time span.

        Closed-form segments invert t(r) of their frozen model exactly;
        integrated ones interpolate s = r^(1-2B), the integrator's own
        variable, with a cubic spline through the samples (linear
        interpolation between the integrator's wide steps is off by more
        than 1e-5 relative far from the source).
        """
        if not self.t[0] <= t <= self.t[-1]:
            return None
        if self.model is None:
            raise DomainError("segment carries no model to evaluate radii with")
        p, cm, cp = self.model.params, self.model.c_minus, self.model.c_plus
        if self.n_accepted == 0:
            t_src = self.t[0] - time_from_radius(p, cm, cp, self.r[0])
            lo, hi = sorted((float(self.r[0]), float(self.r[-1])))
            return _invert_time(p, cm, cp, t - t_src, lo, hi)
        from scipy.interpolate import CubicSpline

        one = 1.0 - 2.0 * p.B
        return float(CubicSpline(self.t, self.r**one)(t)) ** (1.0 / one)


# =====================================================================
# closed forms
# =====================================================================

def _overlap_parts(c_minus: complex, c_plus: complex) -> tuple[float, float, float, float]:
    """(|c-|^2, |c+|^2, Re, Im) of conj(c-) c+; DegenerateError if Im = 0."""
    x = complex(c_minus).conjugate() * complex(c_plus)
    if x.imag == 0.0:
        raise DegenerateError("no radial motion for Im[conj(c_minus) c_plus] = 0")
    return abs(c_minus) ** 2, abs(c_plus) ** 2, x.real, x.imag

def time_from_radius(
    params: PhysParams, c_minus: complex, c_plus: complex, r: float
) -> float:
    """Exact elapsed time t(r) - t0 relative to the visit to the source.

    Positive for outgoing motion (Im > 0), negative for ingoing (Im < 0,
    the path is at radius r before it hits the source at t0).
    """
    if r <= 0.0:
        raise OriginError("radius must be positive")
    m2, p2, re, im = _overlap_parts(c_minus, c_plus)
    q, B = params.q, params.B
    one = 1.0 - 2.0 * B
    return (
        m2 * r**one / one + 2.0 * q * re * r + p2 * r ** (1.0 + 2.0 * B) / (1.0 + 2.0 * B)
    ) / (2.0 * B * im)


def azimuth_from_radius(
    params: PhysParams, c_minus: complex, c_plus: complex, r: float
) -> float:
    """Exact azimuthal offset phi(r) - phi0, with phi0 the label defined
    by subtracting the divergent r^(-2B) and log parts as r -> 0."""
    if r <= 0.0:
        raise OriginError("radius must be positive")
    m2, p2, re, im = _overlap_parts(c_minus, c_plus)
    q, B = params.q, params.B
    sgn = params.sign_mk
    return (
        q * sgn * m2 / (4.0 * B * B * im) * r ** (-2.0 * B)
        - sgn * re / (B * im) * math.log(r)
        - q * sgn * p2 / (4.0 * B * B * im) * r ** (2.0 * B)
    )


def radius_from_time(
    params: PhysParams, c_minus: complex, c_plus: complex, dt: float, r_max: float
) -> float:
    """Invert time_from_radius: the radius reached dt after (Im > 0) or
    before (Im < 0, dt < 0) the visit to the source.  dt must carry the
    sign of Im and satisfy |dt| <= |t(r_max) - t0|."""
    _, _, _, im = _overlap_parts(c_minus, c_plus)
    if dt == 0.0:
        return 0.0
    if math.copysign(1.0, dt) != math.copysign(1.0, im):
        raise SignError(f"dt = {dt!r} has the wrong sign for Im = {im!r}")
    t_max = time_from_radius(params, c_minus, c_plus, r_max)
    if abs(dt) > abs(t_max):
        raise DomainError(f"|dt| = {abs(dt)!r} beyond reach r_max = {r_max!r}")
    return _invert_time(params, c_minus, c_plus, dt, 1e-300, r_max)


def _invert_time(
    params: PhysParams,
    c_minus: complex,
    c_plus: complex,
    dt: float,
    r_lo: float,
    r_hi: float,
) -> float:
    """The radius in [r_lo, r_hi] at which t(r) - t0 = dt.  t(r) is
    monotone; when rounding puts dt just outside the bracket's image,
    the nearer end is returned."""
    from scipy.optimize import brentq

    f = lambda r: time_from_radius(params, c_minus, c_plus, r) - dt
    f_lo, f_hi = f(r_lo), f(r_hi)
    if f_lo * f_hi > 0.0:
        return r_lo if abs(f_lo) < abs(f_hi) else r_hi
    return float(brentq(f, r_lo, r_hi, xtol=1e-300, rtol=8.9e-16, maxiter=200))


def _closed_form_flight(
    model: ModelWavefunction,
    initial: SphericalState,
    t_end: float,
    probe_radii: tuple[float, ...],
) -> TrajectorySegment:
    """The flight integrate would step, evaluated from the exact relations
    of the pure frozen-coefficient model.

    r is monotone, so the flight ends at the source side (r_min, ingoing)
    or at r_cut/2 (outgoing) unless t_end comes first; probe radii
    between the start and that end are crossed once each.  Samples: the
    start, each crossing and the terminal point.
    """
    p, cm, cp = model.params, model.c_minus, model.c_plus
    t_i, r_i = float(initial.t), float(initial.r)
    phi_i = float(initial.phi)
    t_src = t_i - time_from_radius(p, cm, cp, r_i)  # visit to the source
    phi_label = phi_i - azimuth_from_radius(p, cm, cp, r_i)
    inward = (cm.conjugate() * cp).imag < 0.0
    r_term = model.r_min if inward else 0.5 * model.r_cut
    lo, hi = sorted((r_i, r_term))
    t_last = t_src + time_from_radius(p, cm, cp, r_term)
    r_last = r_term
    if t_last <= t_end:
        terminal = Absorbed(t0=t_src) if inward else LeftInnerRegion()
    else:
        terminal = TimeExhausted()
        t_last = t_end
        r_last = _invert_time(p, cm, cp, t_end - t_src, lo, hi)

    crossings = []
    for rp in probe_radii:
        if lo < rp < hi:
            tc = t_src + time_from_radius(p, cm, cp, rp)
            if t_i < tc < t_last:
                crossings.append(
                    ProbeCrossing(t=tc, r=float(rp), direction=-1 if inward else 1)
                )
    crossings.sort(key=lambda pc: pc.t)

    radii = [r_i, *(pc.r for pc in crossings), r_last]
    return TrajectorySegment(
        t=[t_i, *(pc.t for pc in crossings), t_last],
        r=radii,
        theta=np.full(len(radii), float(initial.theta)),
        phi=[phi_i]
        + [phi_label + azimuth_from_radius(p, cm, cp, r) for r in radii[1:]],
        terminal=terminal,
        probe_crossings=tuple(crossings),
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


def _hermite(y0, y1, f0, f1, h, tau):
    """Cubic Hermite value at fraction tau of a step of width h."""
    a = tau * tau * (3.0 - 2.0 * tau)
    b = tau * (tau - 1.0)
    return (1.0 - a) * y0 + a * y1 + h * b * ((tau - 1.0) * f0 + tau * f1)


def _bracket_root(g, lo, hi, g_lo, g_hi, iters=80):
    """Bisection for g's sign change on [lo, hi]; returns the root."""
    for _ in range(iters):
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
) -> Callable:
    """RHS for y = (s, phi) with s = r^(1-2B); coefficients passed per call.

    v = j/rho from span_currents of the reduced amplitudes, whose common
    factor cancels from the ratios: ds/dt = (1-2B) r^(-2B) j_r/rho and
    dphi/dt = (j_phi/sin(theta))/(r rho).  Both stay finite as s -> 0
    (j_r ~ r^(2B) while rho -> (1+q)|c-|^2/pi).
    """
    one = 1.0 - 2.0 * params.B
    inv_one = 1.0 / one
    neg_two_b = -2.0 * params.B

    def rhs(s: float, c_minus: complex, c_plus: complex) -> tuple[float, float]:
        r = s**inv_one
        a_hat, c_hat = reduced_amplitudes(params, c_minus, c_plus, r, subleading)
        j_r, j_phi_over_sin, rho = span_currents(params, a_hat, c_hat)
        return one * r**neg_two_b * j_r / rho, j_phi_over_sin / (r * rho)

    return rhs


def integrate(
    model: ModelWavefunction,
    initial: SphericalState,
    t_end: float,
    tol: float = 1e-8,
    *,
    probe_radii: tuple[float, ...] = (),
    refresh: Callable[[float], tuple[complex, complex]] | None = None,
    dense: bool = True,
) -> TrajectorySegment:
    """Integrate the guiding equation forward from `initial` to t_end.

    Stops early with Absorbed (r crossed model.r_min, t0 extrapolated) or
    LeftInnerRegion (r crossed r_cut/2).  `refresh`, when given, supplies
    (c_minus(t), c_plus(t)) at the start of every accepted step; within a
    step the field stays frozen (quasi-static update).  Probe radii
    record non-terminal crossings in either direction.

    With dense=False, no refresh and no subleading amplitudes the flight
    is evaluated in closed form instead (exact; Absorbed then carries the
    exact arrival time at the source, and only the start, the crossings
    and the terminal point are sampled).
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
    if refresh is None and not model.has_subleading:
        _overlap_parts(model.c_minus, model.c_plus)  # Im = 0 guard
        if not dense:
            return _closed_form_flight(model, initial, t_end, probe_radii)

    one = 1.0 - 2.0 * p.B
    inv_one = 1.0 / one
    s_min = r_min**one
    s_top = r_top**one
    probes = tuple(float(rp) ** one for rp in probe_radii)
    rhs = _make_rhs(p, model.subleading_amp)

    def coeffs(t: float) -> tuple[complex, complex]:
        if refresh is None:
            return model.c_minus, model.c_plus
        return refresh(t)

    t = float(initial.t)
    s = float(initial.r) ** one
    phi = float(initial.phi)
    theta = float(initial.theta)

    ts, ss, phis = [t], [s], [phi]
    crossings: list[ProbeCrossing] = []
    n_acc = n_rej = 0

    c_mi, c_pl = coeffs(t)
    f_s, f_phi = rhs(s, c_mi, c_pl)

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
            h = min(h, (0.5 * s_min - s) / f_s)
        final_step = t + h >= t_end
        if final_step:
            h = t_end - t

        k = [(f_s, f_phi)]
        failed = False
        for i in range(1, 6):
            a = _DP_A[i]
            ys = s + h * sum(a[j] * k[j][0] for j in range(i))
            yp = phi + h * sum(a[j] * k[j][1] for j in range(i))
            if ys <= 0.0:
                failed = True  # stepped over the source; shrink
                break
            k.append(rhs(ys, c_mi, c_pl))
        if not failed:
            s_new = s + h * sum(_DP_B[j] * k[j][0] for j in range(6))
            phi_new = phi + h * sum(_DP_B[j] * k[j][1] for j in range(6))
            if s_new <= 0.0:
                failed = True
        if failed:
            n_rej += 1
            h *= 0.3
            continue

        f_new = rhs(s_new, c_mi, c_pl)  # FSAL stage
        k.append(f_new)
        err_s = h * sum(_DP_E[j] * k[j][0] for j in range(7))
        err_phi = h * sum(_DP_E[j] * k[j][1] for j in range(7))
        sc_s = atol_s + tol * max(abs(s), abs(s_new))
        sc_phi = tol * max(1.0, abs(phi), abs(phi_new))
        err = math.sqrt(0.5 * ((err_s / sc_s) ** 2 + (err_phi / sc_phi) ** 2))

        if err > 1.0:
            n_rej += 1
            h *= max(0.2, 0.9 * err**-0.2)
            err_prev = err
            continue

        # accepted: scan [t, t+h] for probe and terminal crossings
        t_new = t + h
        h_used = h
        f0_s, f0_phi = f_s, f_phi

        def s_at(tau):
            return _hermite(s, s_new, f0_s, f_new[0], h_used, tau)

        def phi_at(tau):
            return _hermite(phi, phi_new, f0_phi, f_new[1], h_used, tau)

        hits: list[tuple[float, float, int, bool]] = []  # (tau, s_level, dir, is_terminal)
        for level, is_term in (
            (s_min, True),
            (s_top, True),
            *(((sp, False) for sp in probes)),
        ):
            g0, g1 = s - level, s_new - level
            if g0 == 0.0 or (g0 < 0.0) == (g1 < 0.0):
                continue
            tau_c = _bracket_root(lambda u: s_at(u) - level, 0.0, 1.0, g0, g1)
            hits.append((tau_c, level, 1 if g1 > g0 else -1, is_term))
        hits.sort()

        for tau_c, level, direction, is_term in hits:
            tc = t + tau_c * h_used
            if tc <= ts[-1]:
                tc = np.nextafter(ts[-1], math.inf)
            if is_term:
                ts.append(tc)
                ss.append(level)
                phis.append(phi_at(tau_c))
                if level == s_min and direction < 0:
                    ds_dt = rhs(s_min, c_mi, c_pl)[0]
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
            t, s, phi = (t_end if final_step else t_new), s_new, phi_new
            if t <= ts[-1]:
                t = np.nextafter(ts[-1], math.inf)
            ts.append(t)
            ss.append(s)
            phis.append(phi)
            if final_step:
                terminal = TimeExhausted()
                break
            fac = 0.9 * err ** -0.14 * err_prev**0.08 if err > 0.0 else 10.0
            h = h_used * min(10.0, max(0.2, fac))
            err_prev = max(err, 1e-10)
            c_new = coeffs(t)
            if c_new != (c_mi, c_pl):
                c_mi, c_pl = c_new
                f_new = rhs(s, c_mi, c_pl)
            f_s, f_phi = f_new

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
    r_seed: float | None = None,
    tol: float = 1e-8,
    *,
    t_end: float = math.inf,
    probe_radii: tuple[float, ...] = (),
    refresh: Callable[[float], tuple[complex, complex]] | None = None,
    dense: bool = True,
) -> TrajectorySegment:
    """Outgoing trajectory emanating from the source at t0 with labels
    (theta0, phi0): seed (t, phi) at r_seed from the exact closed forms,
    then integrate forward until leaving the inner region (or t_end);
    r_seed defaults to R_SEED_FACTOR * model.r_min, `dense` as in
    integrate.
    """
    p = model.params
    if r_seed is None:
        r_seed = R_SEED_FACTOR * model.r_min
    x = model.c_minus.conjugate() * model.c_plus
    if x.imag <= 0.0:
        raise DegenerateError(
            f"no outgoing trajectory for Im[conj(c_minus) c_plus] = {x.imag!r}"
        )
    t_seed = t0 + time_from_radius(p, model.c_minus, model.c_plus, r_seed)
    phi_seed = phi0 + azimuth_from_radius(p, model.c_minus, model.c_plus, r_seed)
    start = SphericalState(t=t_seed, r=r_seed, theta=theta0, phi=phi_seed)
    if not t_end > t_seed:
        raise DomainError("t_end precedes the seed time")
    end = t_end
    if math.isinf(end):
        # generous bound: exact exit time for frozen coefficients, doubled
        end = t_seed + 2.0 * abs(
            time_from_radius(p, model.c_minus, model.c_plus, 0.5 * model.r_cut)
        ) + 1.0
    return integrate(
        model,
        start,
        end,
        tol,
        probe_radii=probe_radii,
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
