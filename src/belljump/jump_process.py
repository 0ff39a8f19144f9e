"""The Markov jump process: coefficient tracks, the emission rate law,
waiting-time sampling by thinning, and the path-level state machine.

A path alternates deterministic pieces with jumps.  In the vacuum the
process waits with time-dependent intensity

    Gamma(t) = 8 (1+q) B max{0, Im[conj(c_minus) c_plus](t)} / |psi0(t)|^2,

then jumps onto an outgoing trajectory whose labels (theta0, phi0) are
uniform over the sphere; the per-solid-angle form is

    sigma(theta0) = (2(1+q)B/pi) max{0, Im[...]} sin(theta0) / |psi0|^2,

independent of phi0.  The law is coded once, in
CoefficientTrack.rate_profile; total_jump_rate, jump_rate_density and
the thinning majorants (CoefficientTrack.majorant_table) all evaluate it
there.  A particle follows the guiding field until its radius falls
below the model's r_min (absorption: the configuration becomes the
vacuum at the arrival time t0) or until it leaves the inner region
r < r_cut/2, after which the near-source model no longer applies and the
path is parked as a particle for the rest of the window.  The flight
itself decides how it is computed: fixed coefficients and no subleading
amplitudes give the exact closed-form flight, anything else steps DP5;
no caller switch selects between them, so a path is the same whoever
draws it.

The emission intensity is exactly 4 pi C_r / |psi0|^2 when C_r > 0, the
flux of |psi|^2 out of the source; a track is "balanced" when
d|psi0|^2/dt = -4 pi C_r(t), which is the bookkeeping under which the
two-sector probability flow closes (validate_balance checks it).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    BalanceViolation,
    DomainError,
    MajorantError,
    VacuumEmpty,
)
from .params import PhysParams
from .trajectory import (
    Absorbed,
    R_SEED_FACTOR,
    SphericalState,
    TrajectorySegment,
    emit_trajectory,
    integrate,
    time_from_radius,
)
from .wavefunction import ModelFamily, current_coeffs

#: Safety factor on the per-interval rate majorant used in thinning.
MAJORANT_MARGIN = 1.1
#: Number of probe points per grid interval when bounding the rate.
_MAJORANT_PROBES = 17
#: A sampled majorant above this is treated as an unbounded rate.
_MAJORANT_CAP = 1e12

BALANCE_TOL = 1e-6


# =====================================================================
# coefficient tracks
# =====================================================================

class CoefficientTrack:
    """Time-dependent data of the process: c_minus(t), c_plus(t) and the
    vacuum amplitude psi0(t) on a strictly increasing grid, interpolated
    piecewise-cubically in each real/imaginary part."""

    def __init__(self, params: PhysParams, times, c_minus, c_plus, psi0):
        self.params = params
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise DomainError("track needs a one-dimensional, nonempty time grid")
        if len(t) > 1 and np.any(np.diff(t) <= 0.0):
            raise DomainError("track grid must be strictly increasing")
        cm = np.asarray(c_minus, dtype=complex)
        cp = np.asarray(c_plus, dtype=complex)
        p0 = np.asarray(psi0, dtype=complex)
        if not (cm.shape == cp.shape == p0.shape == t.shape):
            raise DomainError("track arrays must share the grid shape")
        self.times = t
        self.c_minus_values = cm
        self.c_plus_values = cp
        self.psi0_values = p0
        # constant-coefficient tracks are common and hot (every accepted
        # integrator step refreshes); skip the spline for them
        self._const_pair = None
        if np.all(cm == cm[0]) and np.all(cp == cp[0]):
            self._const_pair = (complex(cm[0]), complex(cp[0]))
        self._cm = self._interpolant(t, cm)
        self._cp = self._interpolant(t, cp)
        self._p0 = self._interpolant(t, p0)

    @staticmethod
    def _interpolant(t, y):
        if len(t) == 1:
            value = complex(y[0])
            return lambda s: np.full(np.shape(s), value)
        from scipy.interpolate import CubicSpline

        kind = "not-a-knot" if len(t) >= 4 else "natural"
        return CubicSpline(t, y, bc_type=kind)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _clamp(self, t: float) -> float:
        return min(max(t, self.t_start), self.t_end)

    @property
    def constant_coefficients(self) -> tuple[complex, complex] | None:
        """(c_minus, c_plus) when the track holds them fixed, else None."""
        return self._const_pair

    def coefficients(self, t: float) -> tuple[complex, complex]:
        if self._const_pair is not None:
            return self._const_pair
        t = self._clamp(t)
        return complex(self._cm(t)), complex(self._cp(t))

    def psi0(self, t: float) -> complex:
        return complex(self._p0(self._clamp(t)))

    def vacuum_weight(self, t: float) -> float:
        return abs(self.psi0(t)) ** 2

    def im_cross(self, t: float) -> float:
        cm, cp = self.coefficients(t)
        return (cm.conjugate() * cp).imag

    def rate_profile(self, times):
        """The emission rate law Gamma at a time or an array of times
        (clamped to the grid): 8 (1+q) B max{0, Im[conj(c_minus) c_plus]}
        / |psi0|^2, and inf where psi0 vanishes under positive flux."""
        t = np.clip(times, self.t_start, self.t_end)
        cm, cp = self._const_pair or (self._cm(t), self._cp(t))
        im = (cm.conjugate() * cp).imag
        weight = np.abs(self._p0(t)) ** 2
        p = self.params
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(im > 0.0, 8.0 * (1.0 + p.q) * p.B * im / weight, 0.0)

    @functools.cached_property
    def majorant_table(self) -> tuple[tuple[float, float, float], ...]:
        """Thinning pieces (start, end, majorant), in time order, for the
        grid intervals whose rate bound is positive; built once, on first
        use.  The bound is the largest rate_profile value at
        _MAJORANT_PROBES evenly spaced times, the majorant MAJORANT_MARGIN
        times it, or inf where no bound can be trusted (psi0 vanishes at a
        probe, or the bound exceeds _MAJORANT_CAP)."""
        g = self.times
        probes = np.linspace(g[:-1], g[1:], _MAJORANT_PROBES, axis=1)
        bound = np.max(self.rate_profile(probes), axis=1)
        trusted = bound <= _MAJORANT_CAP
        majorant = np.where(trusted, MAJORANT_MARGIN * bound, math.inf)
        keep = ~trusted | (bound > 0.0)
        return tuple(
            zip(g[:-1][keep].tolist(), g[1:][keep].tolist(), majorant[keep].tolist())
        )

    @classmethod
    def constant(
        cls,
        params: PhysParams,
        c_minus: complex,
        c_plus: complex,
        psi0: complex,
        t_start: float,
        t_end: float,
        n: int = 33,
    ) -> "CoefficientTrack":
        t = np.linspace(t_start, t_end, n)
        ones = np.ones(n)
        return cls(params, t, c_minus * ones, c_plus * ones, psi0 * ones)

    @classmethod
    def balanced_constant_flux(
        cls,
        params: PhysParams,
        c_minus: complex,
        c_plus: complex,
        p0_init: float,
        t_start: float,
        t_end: float,
        n: int = 129,
    ) -> "CoefficientTrack":
        """Constant coefficients with |psi0(t)|^2 = p0_init - 4 pi C_r (t -
        t_start): the unique balanced vacuum weight for a constant flux.
        The weight must stay in [0, 1] over the window."""
        c_r = current_coeffs(params, c_minus, c_plus).C_r
        t = np.linspace(t_start, t_end, n)
        weight = p0_init - 4.0 * math.pi * c_r * (t - t_start)
        if np.any(weight < 0.0) or np.any(weight > 1.0):
            raise DomainError(
                "balanced vacuum weight leaves [0, 1] on this window; "
                "shorten the window or change p0_init"
            )
        ones = np.ones(n)
        return cls(params, t, c_minus * ones, c_plus * ones, np.sqrt(weight))


# =====================================================================
# configurations and paths
# =====================================================================

@dataclass(frozen=True)
class Vacuum:
    """The empty configuration."""


@dataclass(frozen=True)
class Particle:
    """A single particle at a nonzero position."""

    position: tuple[float, float, float]

    def __post_init__(self):
        pos = tuple(float(v) for v in self.position)
        if pos == (0.0, 0.0, 0.0):
            raise DomainError("particle position must be nonzero")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class VacuumInterval:
    t_start: float
    t_end: float


@dataclass(frozen=True)
class EmissionEvent:
    t0: float
    theta0: float
    phi0: float


@dataclass(frozen=True)
class AbsorptionEvent:
    t0: float


@dataclass
class ProcessPath:
    """One realization: alternating vacuum intervals and flight segments,
    with the jump events in time order."""

    t_span: tuple[float, float]
    entries: tuple
    events: tuple

    def __post_init__(self):
        last_kind = None
        for entry in self.entries:
            kind = isinstance(entry, VacuumInterval)
            if last_kind is not None and kind == last_kind:
                raise ValueError("entries must alternate vacuum and flight")
            last_kind = kind
        times = [
            e.t0 for e in self.events
        ]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("events must be time-ordered")

    @property
    def vacuum_spans(self) -> tuple[tuple[float, float], ...]:
        """The closed VacuumInterval spans (at a jump time itself the
        configuration is the vacuum, on both jump kinds)."""
        return tuple(
            (e.t_start, e.t_end) for e in self.entries if isinstance(e, VacuumInterval)
        )

    def occupancy(self, times) -> np.ndarray:
        """Boolean array: configuration is the vacuum at each time."""
        times = np.asarray(times, dtype=float)
        out = np.zeros(times.shape, dtype=bool)
        for a, b in self.vacuum_spans:
            out |= (times >= a) & (times <= b)
        return out

    @property
    def emissions(self) -> tuple[EmissionEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, EmissionEvent))

    @property
    def absorptions(self) -> tuple[AbsorptionEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, AbsorptionEvent))

    @property
    def segments(self) -> tuple[TrajectorySegment, ...]:
        return tuple(e for e in self.entries if isinstance(e, TrajectorySegment))


# =====================================================================
# the rate law
# =====================================================================

def jump_rate_density(track: CoefficientTrack, t0: float, theta0: float) -> float:
    """Emission rate per (d theta0 d phi0) at time t0; independent of phi0."""
    return total_jump_rate(track, t0) * math.sin(theta0) / (4.0 * math.pi)


def total_jump_rate(track: CoefficientTrack, t0: float) -> float:
    """Total rate of leaving the vacuum at t0, track.rate_profile at one
    time (equals 4 pi C_r/|psi0|^2 when C_r > 0)."""
    rate = float(track.rate_profile(t0))
    if rate == math.inf:
        raise VacuumEmpty(f"psi0({t0!r}) = 0 with positive emission flux")
    return rate


# =====================================================================
# sampling
# =====================================================================

def sample_waiting_time(
    track: CoefficientTrack, t_start: float, rng: np.random.Generator
) -> float | None:
    """First-event time of the inhomogeneous Poisson process with
    intensity total_jump_rate, from t_start; None if the track ends
    first.  Thinning against track.majorant_table, from its first piece
    that ends after t_start."""
    pieces = track.majorant_table
    first = bisect.bisect_right(pieces, t_start, key=itemgetter(1))
    for a, b, majorant in itertools.islice(pieces, first, None):
        if majorant == math.inf:
            raise MajorantError(
                f"no trusted rate majorant on [{a!r}, {b!r}]: psi0 vanishes "
                f"or the rate bound exceeds {_MAJORANT_CAP!r}"
            )
        t = max(a, t_start)
        while (t := t + rng.exponential(1.0 / majorant)) <= b:
            rate = total_jump_rate(track, t)
            if rate > majorant:
                raise MajorantError(
                    f"rate {rate!r} exceeds majorant {majorant!r} at t = {t!r}"
                )
            if rng.random() * majorant < rate:
                return float(t)
    return None


def sample_emission_angles(rng: np.random.Generator) -> tuple[float, float]:
    """(theta0, phi0) uniform over the sphere: density sin(theta0)/(4 pi).

    theta0 = arccos(1 - 2u), phi0 = 2 pi v; the cosine is nudged off
    +-1 so the labels never sit exactly on the coordinate poles.
    """
    u = rng.random()
    v = rng.random()
    c = min(max(1.0 - 2.0 * u, -1.0 + 1e-15), 1.0 - 1e-15)
    return math.acos(c), 2.0 * math.pi * v


# =====================================================================
# the path state machine
# =====================================================================

def _to_spherical_config(position) -> tuple[float, float, float]:
    from .spinor_basis import to_spherical

    return to_spherical(np.asarray(position, dtype=float))


def simulate_path(
    model_family: ModelFamily,
    track: CoefficientTrack,
    q_init: Vacuum | Particle,
    t_span: tuple[float, float],
    rng: np.random.Generator | None = None,
    *,
    tol: float = 1e-8,
    probe_radii: tuple[float, ...] = (),
) -> ProcessPath:
    """One realization of the process on t_span.

    In flight the coefficients are re-read from the track at every
    accepted integrator step (quasi-static update) unless they cannot
    change over a flight: the family is frozen (each segment keeps the
    coefficients of its start time) or the track holds them constant.
    Such flights of a subleading-free model are evaluated in closed form;
    the others step DP5.  Flights end at model_family.r_min.  Identical
    (inputs, rng state) give identical paths.
    """
    if rng is None:
        rng = np.random.default_rng()
    t_a, t_b = float(t_span[0]), float(t_span[1])
    if not (track.t_start <= t_a and t_b <= track.t_end):
        raise DomainError("track does not cover the requested time span")
    if not t_b > t_a:
        raise DomainError("empty time span")
    r_seed = R_SEED_FACTOR * model_family.r_min

    entries: list = []
    events: list = []

    fixed = model_family.frozen or track.constant_coefficients is not None

    def refresh_for(cm: complex, cp: complex):
        if not fixed:
            return track.coefficients
        if (cm.conjugate() * cp).imag == 0.0:
            # no radial motion (Im = 0): the particle circles at its start
            # radius, which the closed forms do not cover and integrate
            # rejects without a refresh; refreshing the fixed pair keeps
            # such flights on the integrator
            return lambda _t: (cm, cp)
        return None

    t = t_a
    config: Vacuum | Particle = q_init
    while t < t_b:
        if isinstance(config, Vacuum):
            t_jump = sample_waiting_time(track, t, rng)
            if t_jump is None or t_jump >= t_b:
                entries.append(VacuumInterval(t, t_b))
                t = t_b
                break
            theta0, phi0 = sample_emission_angles(rng)
            entries.append(VacuumInterval(t, t_jump))
            events.append(EmissionEvent(t_jump, theta0, phi0))
            cm, cp = track.coefficients(t_jump)
            model = model_family.at(cm, cp)
            t_seed = t_jump + time_from_radius(track.params, cm, cp, r_seed)
            if t_seed >= t_b:
                # emitted just before the window closes: the particle is
                # still inside the seed radius at t_b, no flight recorded
                t = t_b
                break
            segment = emit_trajectory(
                model,
                t_jump,
                theta0,
                phi0,
                r_seed,
                tol,
                t_end=t_b,
                probe_radii=probe_radii,
                refresh=refresh_for(cm, cp),
                dense=False,
            )
        else:
            r0, th0, ph0 = _to_spherical_config(config.position)
            cm, cp = track.coefficients(t)
            model = model_family.at(cm, cp)
            segment = integrate(
                model,
                SphericalState(t, r0, th0, ph0),
                t_b,
                tol,
                probe_radii=probe_radii,
                refresh=refresh_for(cm, cp),
                dense=False,
            )
        entries.append(segment)
        if isinstance(segment.terminal, Absorbed) and segment.terminal.t0 < t_b:
            t0 = segment.terminal.t0
            events.append(AbsorptionEvent(t0))
            config = Vacuum()
            t = t0
        else:
            # LeftInnerRegion: parked as a particle outside the modeled
            # region; TimeExhausted (or absorption completing past t_b):
            # window over while in flight.
            t = t_b
            break

    return ProcessPath(
        t_span=(t_a, t_b),
        entries=tuple(entries),
        events=tuple(events),
    )


# =====================================================================
# balance validation
# =====================================================================

@dataclass(frozen=True)
class BalanceReport:
    max_residual: float
    scale: float
    tol: float
    worst_times: tuple[float, ...]
    passed: bool

    @property
    def relative_residual(self) -> float:
        return self.max_residual / self.scale


def validate_balance(
    track: CoefficientTrack, balance_tol: float = BALANCE_TOL
) -> BalanceReport:
    """Check d|psi0|^2/dt = -4 pi C_r(t) on the track grid (second-order
    finite differences).  Returns the report on success; raises
    BalanceViolation carrying the report otherwise."""
    t = track.times
    if len(t) < 3:
        raise DomainError("balance check needs at least 3 grid times")
    weight = np.abs(track.psi0_values) ** 2
    lhs = np.gradient(weight, t, edge_order=2)
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
        tol=balance_tol,
        worst_times=worst,
        passed=bool(np.max(resid) <= balance_tol * scale),
    )
    if not report.passed:
        raise BalanceViolation(
            f"balance residual {report.relative_residual:.3e} exceeds "
            f"{balance_tol:.1e}; worst at t = {worst}",
            report=report,
        )
    return report
