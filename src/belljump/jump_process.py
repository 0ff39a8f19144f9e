"""The Markov jump process: coefficient tracks, the emission rate law,
waiting-time sampling by thinning, and the path-level state machine.

A path alternates deterministic pieces with jumps.  In the vacuum the
process waits with time-dependent intensity

    Gamma(t) = 8 (1+q) B max{0, Im[conj(c_minus) c_plus](t)} / |psi0(t)|^2,

then jumps onto an outgoing trajectory whose labels (theta0, phi0) are
uniform over the sphere; the per-solid-angle form is

    sigma(theta0) = (2(1+q)B/pi) max{0, Im[...]} sin(theta0) / |psi0|^2,

independent of phi0.  The law is coded once, in CoefficientTrack._rate,
which CoefficientTrack.rate_profile applies at one time or an array of
times (cross_and_rate with the Im it reads); total_jump_rate and
jump_rate_density evaluate it there, and the thinning majorants
(CoefficientTrack.majorant_table) bound it exactly on each grid interval
from the same coefficient table.  A particle, held at (r, theta, phi)
like every position in the package, follows the guiding field
until its radius falls below the model's r_min (absorption: the
configuration becomes the vacuum at the arrival time t0) or until it
leaves the inner region r < r_cut/2, after which the near-source model
no longer applies and the path is parked as a particle for the rest of
the window.  Every flight, of a path, of `trace` or of `simulate
--trace-dir`, is launched by fly, the one place that picks its model and
field: between jumps the particle follows psi_t, so the field is the
track's coefficients at each time unless they cannot change over the
flight.  The segment it returns keeps the contract of
trajectory.TrajectorySegment, which also lists the routes; the path
sampler never sets dense, so a path is the same whoever draws it.  Each
DP5 stage reads its coefficients from a cubic piece in one Python call:
a psi_t flight's from the track itself, with the bits of
CoefficientTrack.coefficients.

The emission intensity is exactly 4 pi C_r / |psi0|^2 when C_r > 0, the
flux of |psi|^2 out of the source; a track is "balanced" when
d|psi0|^2/dt = -4 pi C_r(t), which is the bookkeeping under which the
two-sector probability flow closes (balanced_constant_flux builds such a
track).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cubic import (
    cubic_table,
    cubic_values,
    poly_product,
    poly_range,
    unit_pieces,
)
from .errors import (
    DomainError,
    MajorantError,
    VacuumEmpty,
    WindowClosed,
    integer_at_least,
)
from .params import PhysParams
from .trajectory import (
    Absorbed,
    SphericalState,
    TrajectorySegment,
    emit_trajectory,
    integrate,
)
from .wavefunction import ModelFamily, current_coeffs

#: Safety factor on the per-interval rate majorant used in thinning.
MAJORANT_MARGIN = 1.1
#: A rate bound above this is treated as an unbounded rate.
_MAJORANT_CAP = 1e12
#: Relative rounding allowed for the evaluated Im and |psi0|^2 (64 ulp).
_ROUNDING = 64.0 * 2.0**-52


class MajorantTable(NamedTuple):
    """Thinning pieces in time order: the grid intervals whose rate bound
    is positive, each with its majorant (inf where no bound can be
    trusted).  hazard holds the cumulative majorant integral H at the
    piece boundaries, hazard[k] at the start of piece k and hazard[k+1]
    at its end (an untrusted piece adds 0), and untrusted[k] the index of
    the first untrusted piece at or after piece k (the piece count if
    none)."""

    starts: tuple[float, ...]
    ends: tuple[float, ...]
    majorants: tuple[float, ...]
    hazard: tuple[float, ...]
    untrusted: tuple[int, ...]


# =====================================================================
# coefficient tracks
# =====================================================================

class CoefficientTrack:
    """Time-dependent data of the process: c_minus(t), c_plus(t) and the
    vacuum amplitude psi0(t) on a strictly increasing grid, interpolated
    piecewise-cubically in each real/imaginary part by one coefficient
    table (cubic.cubic_table) over the six real columns."""

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
        if not all(np.isfinite(a).all() for a in (t, cm, cp, p0)):
            raise DomainError("track times and values must be finite")
        self.times = t
        # fixed coefficients: flights under them are evaluated in closed
        # form, flux_report and the master-equation oracle read the pair,
        # and coefficients() returns it without the table
        self._const_pair = None
        if np.all(cm == cm[0]) and np.all(cp == cp[0]):
            self._const_pair = (complex(cm[0]), complex(cp[0]))
        # columns Re/Im of c_minus, c_plus and psi0
        columns = np.stack([cm.real, cm.imag, cp.real, cp.imag, p0.real, p0.imag], -1)
        self._table = cubic_table(t, columns)
        # the same table as Python floats, for scalar evaluation: per
        # piece one flat list of (a, b, c, d) for each column in turn
        self._knots = t.tolist()
        pieces = self._table.transpose(0, 2, 1)
        self._pieces = pieces.reshape(len(pieces), 24).tolist()
        self._gain = 8.0 * (1.0 + params.q) * params.B

    @property
    def t_start(self) -> float:
        return self._knots[0]

    @property
    def t_end(self) -> float:
        return self._knots[-1]

    @property
    def constant_coefficients(self) -> tuple[complex, complex] | None:
        """(c_minus, c_plus) when the track holds them fixed, else None."""
        return self._const_pair

    @functools.cached_property
    def _pair_pieces(self) -> list[list[float]]:
        # the c+- columns of each piece, all that a flight's stages read;
        # built at the first psi_t flight, never for fixed coefficients
        return [piece[:16] for piece in self._pieces]

    def pair_pieces(self) -> tuple[list[float], list[list[float]], Callable]:
        """What a psi_t flight reads (trajectory._make_rhs): (knots,
        pieces, read).  pieces[i] holds the four c+- columns of the piece
        [knots[i], knots[i+1]] flat, (a, b, c, d) for each of Re c_minus,
        Im c_minus, Re c_plus, Im c_plus in that order, sliced once per
        track; each column is ((a x + b) x + c) x + d at the offset x =
        t - knots[i] of a time t clamped to the grid, the bits that
        coefficients(t) holds.  read(t) gives the same bits as the first
        four of the table's six columns at t."""
        return self._knots, self._pair_pieces, self._columns_at

    def _columns_at(self, t: float) -> list[float]:
        """The six real columns at one time (clamped to the grid): Horner
        on Python floats."""
        knots = self._knots
        t = float(t)
        if t < knots[0]:
            t = knots[0]
        elif t > knots[-1]:
            t = knots[-1]
        i = bisect.bisect_right(knots, t) - 1
        if i == len(self._pieces):  # t on the last knot
            i -= 1
        x = t - knots[i]
        p = self._pieces[i]
        return [
            ((p[k] * x + p[k + 1]) * x + p[k + 2]) * x + p[k + 3] for k in range(0, 24, 4)
        ]

    def coefficients(self, t: float) -> tuple[complex, complex]:
        """(c_minus, c_plus) at one time (clamped to the grid), from the
        c+- columns _columns_at evaluates.  A psi_t flight reads them once,
        at launch; its stages evaluate the same columns with the same bits
        in trajectory._make_rhs."""
        if self._const_pair is not None:
            return self._const_pair
        cmr, cmi, cpr, cpi, _, _ = self._columns_at(t)
        return complex(cmr, cmi), complex(cpr, cpi)

    def psi0(self, t: float) -> complex:
        _, _, _, _, pr, pi = self._columns_at(t)
        return complex(pr, pi)

    def _cross_and_weight(self, times):
        """(Im[conj(c_minus) c_plus], |psi0|^2) at a time or an array of
        times, clamped to the grid."""
        if isinstance(times, (int, float)):
            cmr, cmi, cpr, cpi, pr, pi = self._columns_at(times)
        else:
            values = cubic_values(self.times, self._table, times)
            cmr, cmi, cpr, cpi, pr, pi = np.moveaxis(values, -1, 0)
        return cmr * cpi - cmi * cpr, pr * pr + pi * pi

    def vacuum_weight(self, times):
        """|psi0|^2 at a time or an array of times."""
        return self._cross_and_weight(times)[1]

    def im_cross(self, times):
        """Im[conj(c_minus) c_plus] at a time or an array of times."""
        return self._cross_and_weight(times)[0]

    def rate_profile(self, times):
        """The emission rate law Gamma at a time or an array of times
        (clamped to the grid): 8 (1+q) B max{0, Im[conj(c_minus) c_plus]}
        / |psi0|^2, and inf where psi0 vanishes under positive flux."""
        return self._rate(*self._cross_and_weight(times))

    def cross_and_rate(self, times):
        """(im_cross, rate_profile) at a time or an array of times, from
        one evaluation of the table."""
        im, weight = self._cross_and_weight(times)
        return im, self._rate(im, weight)

    def _rate(self, im, weight):
        """The rate law from Im and |psi0|^2, floats or arrays: 0 unless
        Im > 0, else inf unless the weight is > 0."""
        if isinstance(im, float):
            if not im > 0.0:
                return 0.0
            return self._gain * im / weight if weight > 0.0 else math.inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rate = np.where(weight > 0.0, self._gain * im / weight, math.inf)
        return np.where(im > 0.0, rate, 0.0)

    @functools.cached_property
    def majorant_table(self) -> MajorantTable:
        """Thinning pieces, built once, on first use.  On each grid
        interval Im[conj(c_minus) c_plus] and |psi0|^2 are polynomials of
        degree 6 read from the table; the rate bound is 8 (1+q) B times
        the largest Im over the smallest weight, both exact (taken at the
        interval ends and the derivative's roots).  The majorant is
        MAJORANT_MARGIN times the bound, or inf where no bound can be
        trusted (the weight reaches 0, or the bound exceeds
        _MAJORANT_CAP).  Intervals where Im <= 0 throughout carry no rate
        and are left out, and the weight is ranged only on the others, so
        a track whose flux is ingoing throughout ranges no weight."""
        g = self.times
        cols = unit_pieces(g, self._table)
        cmr, cmi, cpr, cpi, pr, pi = cols
        # both ranges widened by the rounding of either evaluation; the sum
        # of a cubic's |coefficients| bounds it on [0, 1]
        n_cmr, n_cmi, n_cpr, n_cpi, n_pr, n_pi = np.abs(cols).sum(axis=-1)
        _, im_max = poly_range(poly_product(cmr, cpi) - poly_product(cmi, cpr))
        im_max += _ROUNDING * (n_cmr * n_cpi + n_cmi * n_cpr)
        # the weight is ranged only where the rate can be positive; each
        # row's range is its own, so the kept rows read as they would in
        # the whole table
        keep = im_max > 0.0
        w_min, _ = poly_range((poly_product(pr, pr) + poly_product(pi, pi))[keep])
        w_min -= _ROUNDING * (n_pr[keep] ** 2 + n_pi[keep] ** 2)
        im_max = im_max[keep]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bound = self._gain * im_max / w_min
        trusted = (w_min > 0.0) & (bound <= _MAJORANT_CAP)
        majorant = np.where(trusted, MAJORANT_MARGIN * bound, math.inf)
        width = np.diff(g)[keep]
        hazard = np.cumsum(np.where(trusted, majorant * width, 0.0))
        n = len(majorant)
        first = np.where(trusted, n, np.arange(n))
        return MajorantTable(
            starts=tuple(g[:-1][keep].tolist()),
            ends=tuple(g[1:][keep].tolist()),
            majorants=tuple(majorant.tolist()),
            hazard=(0.0, *hazard.tolist()),
            untrusted=tuple(np.minimum.accumulate(first[::-1])[::-1].tolist()),
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
        """Fixed coefficients and psi0 on n >= 2 knots over [t_start, t_end]."""
        n = integer_at_least("n", n, 2)
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
        t_start): the unique balanced vacuum weight for a constant flux,
        on n >= 2 knots over [t_start, t_end].  The weight must stay in
        [0, 1] over the window."""
        n = integer_at_least("n", n, 2)
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

class Particle(NamedTuple):
    """A single particle at spherical position (r, theta, phi), the
    coordinates every flight runs in.  Its flight checks the radius:
    simulate_path raises DomainError unless r_min < r < r_cut/2."""

    r: float
    theta: float
    phi: float


class VacuumInterval(NamedTuple):
    t_start: float
    t_end: float


class EmissionEvent(NamedTuple):
    t0: float
    theta0: float
    phi0: float


@dataclass
class ProcessPath:
    """One realization: alternating vacuum intervals and flight segments,
    with the jump events in time order: an EmissionEvent for each
    emission, and for each absorption the Absorbed terminal of the flight
    it ends."""

    t_span: tuple[float, float]
    entries: tuple
    events: tuple

    @property
    def vacuum_spans(self) -> tuple[tuple[float, float], ...]:
        """The closed VacuumInterval spans (at a jump time itself the
        configuration is the vacuum, on both jump kinds)."""
        return tuple(
            (e.t_start, e.t_end) for e in self.entries if isinstance(e, VacuumInterval)
        )

    @property
    def emissions(self) -> tuple[EmissionEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, EmissionEvent))

    @property
    def absorptions(self) -> tuple[Absorbed, ...]:
        return tuple(e for e in self.events if isinstance(e, Absorbed))

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
    first.  Thinning against track.majorant_table (Lewis and Shedler):
    each proposal adds one Exp(1) draw to the cumulative majorant
    integral H, bisects for the piece that H reaches and maps back to a
    time, which is accepted with probability rate / majorant."""
    table = track.majorant_table
    n = len(table.ends)
    k = bisect.bisect_right(table.ends, t_start)
    if k == n:
        return None
    # the wait cannot pass H = hazard[stop]: the end of the last piece, or
    # the start of the first untrusted one, whose rate has no bound
    stop = table.untrusted[k]
    hazard = table.hazard[k]
    if stop > k and t_start > table.starts[k]:
        hazard += table.majorants[k] * (t_start - table.starts[k])
    while (hazard := hazard + rng.standard_exponential()) <= table.hazard[stop]:
        k = bisect.bisect_left(table.hazard, hazard, k + 1) - 1
        a, majorant = table.starts[k], table.majorants[k]
        t = min(max(a + (hazard - table.hazard[k]) / majorant, t_start), table.ends[k])
        rate = total_jump_rate(track, t)
        if rate > majorant:
            raise MajorantError(
                f"rate {rate!r} exceeds majorant {majorant!r} at t = {t!r}"
            )
        if rng.random() * majorant < rate:
            return t
    if stop == n:
        return None
    raise MajorantError(
        f"no trusted rate majorant on [{table.starts[stop]!r}, "
        f"{table.ends[stop]!r}]: psi0 vanishes or the rate bound exceeds "
        f"{_MAJORANT_CAP!r}"
    )


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

def fly(
    model_family: ModelFamily,
    track: CoefficientTrack,
    launch: EmissionEvent | SphericalState,
    t_end: float,
    tol: float,
    *,
    probe_radius: float | None = None,
    dense: bool = False,
) -> TrajectorySegment:
    """The flight from `launch` to t_end: emitted from the source
    (an EmissionEvent, seeded and flown by emit_trajectory) or started at
    a SphericalState (flown by integrate).

    Its model holds the track's coefficients at the launch time (for an
    emitted flight, its emission time), from the flight's one
    CoefficientTrack.coefficients call.  Its field is psi_t, the track's
    coefficients at each time, unless the track holds them constant, and
    the flight keeps the model's coefficients.  Either way each DP5
    stage reads a cubic piece: the track's at the stage's time under
    psi_t (the integrator's `refresh`), or the model's fixed pair.
    `probe_radius` and `dense` as in integrate; the segment keeps the
    contract of TrajectorySegment.
    """
    emitted = isinstance(launch, EmissionEvent)
    model = model_family.at(*track.coefficients(launch.t0 if emitted else launch.t))
    field = None if track.constant_coefficients is not None else track
    if emitted:
        return emit_trajectory(
            model,
            launch.t0,
            launch.theta0,
            launch.phi0,
            tol,
            t_end=t_end,
            probe_radius=probe_radius,
            refresh=field,
            dense=dense,
        )
    return integrate(
        model, launch, t_end, tol, probe_radius=probe_radius, refresh=field, dense=dense
    )


def simulate_path(
    model_family: ModelFamily,
    track: CoefficientTrack,
    q_init: Particle | None,
    t_span: tuple[float, float],
    rng: np.random.Generator,
    *,
    tol: float = 1e-8,
    probe_radius: float | None = None,
) -> ProcessPath:
    """One realization of the process on t_span, from q_init: None for
    the vacuum, the empty configuration, or a Particle whose first flight
    starts at (t_span[0], r, theta, phi).

    Each flight, after an emission or from the initial particle, is
    fly's: it follows psi_t unless the track's coefficients are
    constant, and is evaluated in closed form where that is exact.
    Flights end at model_family.r_min and record their crossings of
    probe_radius, if given.  Identical (inputs, rng state)
    give identical paths.  The track and the family must share one
    PhysParams.
    """
    # identity first: a path pays the dataclass comparison only for two
    # equal but distinct PhysParams
    if track.params is not model_family.params and track.params != model_family.params:
        raise DomainError("track and model family carry different params")
    t_a, t_b = float(t_span[0]), float(t_span[1])
    if not (track.t_start <= t_a and t_b <= track.t_end):
        raise DomainError("track does not cover the requested time span")
    if not t_b > t_a:
        raise DomainError("empty time span")
    entries: list = []
    events: list = []
    t, config = t_a, q_init
    while True:
        if config is None:
            t_jump = sample_waiting_time(track, t, rng)
            if t_jump is None or t_jump >= t_b:
                entries.append(VacuumInterval(t, t_b))
                break
            entries.append(VacuumInterval(t, t_jump))
            launch = EmissionEvent(t_jump, *sample_emission_angles(rng))
            events.append(launch)
        else:
            launch = SphericalState(t, *config)
        try:
            segment = fly(
                model_family, track, launch, t_b, tol, probe_radius=probe_radius
            )
        except WindowClosed:
            # emitted just before the window closes: the particle is
            # still inside the seed radius at t_b, no flight recorded
            break
        entries.append(segment)
        terminal = segment.terminal
        if not (isinstance(terminal, Absorbed) and terminal.t0 < t_b):
            # LeftInnerRegion: parked as a particle outside the modeled
            # region; TimeExhausted (or absorption completing past t_b):
            # window over while in flight.
            break
        events.append(terminal)
        t, config = terminal.t0, None

    return ProcessPath(
        t_span=(t_a, t_b),
        entries=tuple(entries),
        events=tuple(events),
    )
