"""Independent formulas the tests compare the package against.

Each one is derived on its own from the paper's expressions and is not
called by the package: the pure-model guiding equation in (r, theta,
phi), the series coefficient of its azimuthal rate, the leading
small-|t| flight, the inverse of the exact t(r) by bisection, the
guiding field j/rho and the density |psi|^2 by spinor contraction, the
flux balance d|psi0|^2/dt = -4 pi C_r of a track, a track's
cumulative emission hazard by adaptive quadrature, a flight through a
time-dependent guiding field by scipy's DOP853, vacuum membership read
off a path's entries (at one time, or on a grid by numpy comparisons),
and a KS test of snapshot radii against the sector-1 radial law.
"""

import math
from dataclasses import dataclass

import numpy as np

from belljump import (
    DegenerateError,
    DomainError,
    InsufficientEvents,
    OriginError,
)
from belljump.jump_process import VacuumInterval
from belljump.trajectory import SphericalState, time_from_radius
from belljump.wavefunction import (
    current_coeffs,
    current_exact,
    eval_psi1,
    radial_mass_profile,
)

#: Below this sin(theta) a nonzero azimuthal rate is reported as a pole.
SIN_POLE = 1e-12
#: Relative tolerance of the flux-balance check.
BALANCE_TOL = 1e-6


class PoleError(RuntimeError):
    """Azimuthal velocity requested on the polar axis."""


class SignError(ValueError):
    """Time argument on the wrong side of the visit to the source."""


class ZeroDensity(RuntimeError):
    """|psi|^2 vanished where a velocity was needed."""


class BalanceViolation(RuntimeError):
    """Sector probability balance fails on a coefficient track; the
    offending BalanceReport is the ``report`` attribute."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def ode_rhs(params, c_minus, c_plus, state):
    """(dr/dt, dtheta/dt, dphi/dt) of the pure frozen-coefficient model.

    dr/dt = j_r/rho, dtheta/dt = j_theta/(r rho) = 0, dphi/dt =
    j_phi/(r sin(theta) rho); the sin(theta) in j_phi cancels the one in
    the geometric factor, so the azimuthal rate is evaluated in the
    cancelled form and is finite at any theta.
    """
    r = state.r
    if r <= 0.0:
        raise OriginError("rates are defined on the punctured ball only")
    x = complex(c_minus).conjugate() * complex(c_plus)
    if x.imag == 0.0:
        raise DegenerateError(
            "Im[conj(c_minus) c_plus] = 0: radial motion degenerates"
        )
    q, B = params.q, params.B
    u = r ** (2.0 * B)
    mod2 = abs(c_minus) ** 2 + abs(c_plus) ** 2 * u * u
    den = abs(c_minus) ** 2 + 2.0 * q * u * x.real + abs(c_plus) ** 2 * u * u
    phi_over_sin = q * mod2 + 2.0 * u * x.real
    sin_t = math.sin(state.theta)
    if sin_t < SIN_POLE and phi_over_sin * sin_t != 0.0:
        raise PoleError(
            f"azimuthal rate ill-conditioned at sin(theta) = {sin_t!r}"
        )
    dr_dt = 2.0 * B * u * x.imag / den
    dphi_dt = -params.sign_mk * phi_over_sin / (r * den)
    return dr_dt, 0.0, dphi_dt


def phi_rate_correction(params, c_minus, c_plus):
    """Coefficient of r^(2B-1) in dphi/dt beyond the leading -q sgn / r.

    Obtained by series division of the azimuthal rate:
    dphi/dt = -(sgn/r) [q + 2 B^2 Re[conj(c-)c+]/|c-|^2 r^(2B) + O(r^(4B))].
    """
    x = complex(c_minus).conjugate() * complex(c_plus)
    if abs(c_minus) == 0.0:
        raise DegenerateError("correction undefined for c_minus = 0")
    return -params.sign_mk * 2.0 * params.B**2 * x.real / abs(c_minus) ** 2


def asymptotic_solution(params, c_minus, c_plus, theta0, phi0, t):
    """Leading small-|t| behaviour around the visit to the source at t=0:

    r(t) = [2B(1-2B)|Im|/|c-|^2]^(1/(1-2B)) |t|^(1/(1-2B)),  theta = theta0,
    phi(t) = phi0 + (leading r^(-2B) term of the exact azimuth)
             - sgn Re/(B Im (1-2B)) ln|t|.
    """
    x = complex(c_minus).conjugate() * complex(c_plus)
    m2, re, im = abs(c_minus) ** 2, x.real, x.imag
    if im == 0.0:
        raise DegenerateError("no radial motion for Im[conj(c_minus) c_plus] = 0")
    if m2 == 0.0:
        raise DegenerateError("leading asymptotics require c_minus != 0")
    if t == 0.0 or math.copysign(1.0, t) != math.copysign(1.0, im):
        raise SignError(f"t = {t!r} has the wrong sign for Im = {im!r}")
    q, B = params.q, params.B
    one = 1.0 - 2.0 * B
    sgn = params.sign_mk
    prefactor = (2.0 * B * one * abs(im) / m2) ** (1.0 / one)
    r = prefactor * abs(t) ** (1.0 / one)
    phi = (
        phi0
        + q * sgn * m2 / (4.0 * B * B * im) * r ** (-2.0 * B)
        - sgn * re / (B * im * one) * math.log(abs(t))
    )
    return SphericalState(t, r, theta0, phi)


def density_exact(model, r, theta, phi):
    """Probability density |psi|^2 at (r, theta, phi)."""
    psi = eval_psi1(model, r, theta, phi)
    return float(np.vdot(psi, psi).real)


def velocity_field(model, r, theta, phi):
    """Guiding field (j_r/rho, j_theta/rho, j_phi/rho) at (r, theta, phi)
    from the spinor contraction, on the inner region r < r_cut/2."""
    if not r > 0.0:
        raise OriginError("velocity undefined at the source")
    if r >= 0.5 * model.r_cut:
        raise DomainError(f"velocity field needs r < r_cut/2, got r = {r!r}")
    rho = density_exact(model, r, theta, phi)
    if not rho > 0.0:
        raise ZeroDensity(f"rho = {rho!r} at {(r, theta, phi)!r}")
    return current_exact(model, r, theta, phi) / rho


@dataclass(frozen=True)
class BalanceReport:
    max_residual: float
    scale: float
    worst_times: tuple[float, ...]
    passed: bool

    @property
    def relative_residual(self):
        return self.max_residual / self.scale


def validate_balance(track, balance_tol=BALANCE_TOL):
    """Check d|psi0|^2/dt = -4 pi C_r(t) on the track grid (second-order
    finite differences of the grid values).  Returns the report on
    success; raises BalanceViolation carrying the report otherwise."""
    t = track.times
    if len(t) < 3:
        raise DomainError("balance check needs at least 3 grid times")
    lhs = np.gradient(np.abs(track.psi0_values) ** 2, t, edge_order=2)
    rhs = np.array(
        [
            -4.0 * math.pi * current_coeffs(track.params, cm, cp).C_r
            for cm, cp in zip(track.c_minus_values, track.c_plus_values)
        ]
    )
    resid = np.abs(lhs - rhs)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
    worst = tuple(float(t[i]) for i in np.argsort(resid)[::-1][:3])
    report = BalanceReport(
        max_residual=float(np.max(resid)),
        scale=scale,
        worst_times=worst,
        passed=bool(np.max(resid) <= balance_tol * scale),
    )
    if not report.passed:
        raise BalanceViolation(
            f"balance residual {report.relative_residual:.3e} exceeds "
            f"{balance_tol:.1e}; worst at t = {worst}",
            report,
        )
    return report


def cumulative_hazard(track, t_start, times):
    """Lambda(t) = integral of total_jump_rate from t_start to t, for
    each of the increasing times (>= t_start): scipy's adaptive quad on
    every piece between consecutive times and track knots."""
    from scipy.integrate import quad

    from belljump.jump_process import total_jump_rate

    times = np.asarray(times, dtype=float)
    knots = track.times[(track.times > t_start) & (track.times < times[-1])]
    edges = np.union1d(np.append(times, t_start), knots)
    pieces = [
        quad(lambda t: total_jump_rate(track, t), a, b, epsabs=1e-13, epsrel=1e-12)[0]
        for a, b in zip(edges[:-1], edges[1:])
    ]
    hazard = np.concatenate(([0.0], np.cumsum(pieces)))
    return hazard[np.searchsorted(edges, times)]


def time_dependent_flight(params, coefficients, initial, times):
    """(r, phi) at each of the increasing `times` (from initial.t on) of
    the flight dQ/dt = v^{psi_t}(Q) of a subleading-free model whose
    coefficients are coefficients(t): scipy's DOP853 at rtol 1e-12 on
    the package's (s, phi) field, with the pair read at every evaluation
    time."""
    from scipy.integrate import solve_ivp

    from belljump.trajectory import _make_rhs

    rhs = _make_rhs(params, (0j, 0j))
    one = 1.0 - 2.0 * params.B
    s0 = float(initial.r) ** one
    sol = solve_ivp(
        lambda t, y: rhs(y[0], *coefficients(t)),
        (float(initial.t), float(times[-1])),
        [s0, float(initial.phi)],
        method="DOP853",
        t_eval=times,
        rtol=1e-12,
        atol=[1e-14 * s0, 1e-12],
    )
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[0] ** (1.0 / one), sol.y[1]


def in_vacuum(path, t):
    """Whether the configuration of `path` is the vacuum at time t: t lies
    in one of its closed VacuumInterval entries."""
    return any(
        e.t_start <= t <= e.t_end
        for e in path.entries
        if isinstance(e, VacuumInterval)
    )


def occupancy(path, times):
    """Boolean array: the configuration of `path` is the vacuum at each
    of `times`, by numpy comparisons against its closed vacuum spans."""
    times = np.asarray(times, dtype=float)
    out = np.zeros(times.shape, dtype=bool)
    for a, b in path.vacuum_spans:
        out |= (times >= a) & (times <= b)
    return out


def radius_from_time(params, c_minus, c_plus, dt, r_max):
    """The radius reached dt after (Im > 0) or before (Im < 0, dt < 0) the
    visit to the source.  dt must carry the sign of Im and satisfy
    |dt| <= |t(r_max) - t0|.  |t(r)| grows with r, so the root is found
    by bisection in ln r on [ln 1e-300, ln r_max], down to adjacent
    floats."""
    im = (complex(c_minus).conjugate() * complex(c_plus)).imag
    if im == 0.0:
        raise DegenerateError("no radial motion for Im[conj(c_minus) c_plus] = 0")
    if dt == 0.0:
        return 0.0
    if math.copysign(1.0, dt) != math.copysign(1.0, im):
        raise SignError(f"dt = {dt!r} has the wrong sign for Im = {im!r}")
    if abs(dt) > abs(time_from_radius(params, c_minus, c_plus, r_max)):
        raise DomainError(f"|dt| = {abs(dt)!r} beyond reach r_max = {r_max!r}")
    lo, hi = math.log(1e-300), math.log(r_max)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if abs(time_from_radius(params, c_minus, c_plus, math.exp(mid))) < abs(dt):
            lo = mid
        else:
            hi = mid
    return math.exp(mid)


@dataclass(frozen=True)
class RadialKsReport:
    n_samples: int
    ks_statistic: float
    p_value: float
    r_max: float
    passed: bool


def radial_snapshot_ks(stats, model_family, track, r_max, significance=0.01):
    """KS test of the in-flight radii recorded at the snapshot time
    against the sector-1 radial law below r_max.

    Valid on stationary-coefficient windows short enough that the region
    below r_max is still fed from inside the simulated ball (constant
    coefficients keep the radial density shape invariant there)."""
    if stats.snapshot_time is None:
        raise DomainError("ensemble was run without a snapshot time")
    if track.constant_coefficients is None:
        raise DomainError("density check needs a constant-coefficient track")
    from scipy import stats as sps

    cm, cp = track.constant_coefficients
    model = model_family.at(cm, cp)
    radii = stats.snapshot_radii[stats.snapshot_radii < r_max]
    if len(radii) < 100:
        raise InsufficientEvents(
            f"need at least 100 snapshot radii below r_max, got {len(radii)}"
        )
    s_grid, cum = radial_mass_profile(model)
    one = 1.0 - 2.0 * model.params.B
    cum_max = float(np.interp(r_max**one, s_grid, cum))

    def cdf(r):
        s = np.asarray(r, dtype=float) ** one
        return np.interp(s, s_grid, cum) / cum_max

    ks = sps.kstest(radii, cdf)
    return RadialKsReport(
        n_samples=len(radii),
        ks_statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
        r_max=r_max,
        passed=ks.pvalue > significance,
    )
