"""Ensembles of process paths and the statistical machinery on top:
occupancy curves, emission-angle goodness of fit, probe-sphere flux, and
an independently coded master-equation oracle for the vacuum weight.

Initial conditions.  A path starts in the vacuum with probability
|psi0(tau)|^2; otherwise the particle position is drawn from the sector-1
density rho/(1 - |psi0|^2).  rho depends on the radius only (the angular
bilinears of the boundary spinors are constant on the sphere), so the
draw is an inverse-CDF in the substituted radial variable s = r^(1-2B)
times a uniform direction, and is exact up to the quadrature grid of the
cumulative mass.  Draws are conditioned away from a thin shell at the
model's r_min (relative mass ~ (r_min/r_cut)^(1-2B), far below Monte
Carlo noise);
draws outside the inner region r < r_cut/2 are parked: they stay in
sector 1 for the whole window, which is exact for outgoing fields and
for windows shorter than their travel time to the probe region.

The oracle.  p0(t) solves dp0/dt = -Gamma(t) p0 + A(t): Gamma is the
emission rate, and A is the absorption influx.  For ingoing constant
coefficients every arriving shell carries flux 4 pi |C_r| (r^2 j_r is
exactly constant), so A(t) = 4 pi |C_r| until the shell that started at
r_cut/2 arrives, and 0 after.  Without absorption the solution is
p0(t) = p0(t_a) exp(-Lambda(t)), with Lambda the integral of Gamma
(Gauss-Legendre on every piece of the track grid); the oracle shares
only the rate law with the path sampler, read with the Im it checks
through CoefficientTrack.cross_and_rate.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DomainError,
    InsufficientEvents,
    NormalizationError,
    VacuumEmpty,
    integer_at_least,
)
from .jump_process import (
    CoefficientTrack,
    EmissionEvent,
    Particle,
    ProcessPath,
    Vacuum,
    VacuumInterval,
    sample_emission_angles,
    simulate_path,
)
from .params import PhysParams
from .trajectory import time_from_radius
from .wavefunction import (
    ModelFamily,
    ModelWavefunction,
    current_coeffs,
    particle_sector_mass,
    radial_mass_profile,
)

NORMALIZATION_TOL = 1e-6
#: Particle draws are conditioned to r >= this multiple of r_min.
DRAW_FLOOR_FACTOR = 1.5
#: The master-equation oracle's rule on each piece of its hazard: 16-point
#: Gauss-Legendre on [-1, 1], nodes ascending, with the bits of
#: numpy.polynomial.legendre.leggauss(16), whose import the oracle skips.
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499,
])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176,
])


# =====================================================================
# statistics container (mergeable)
# =====================================================================

#: The EnsembleStats fields that hold one value per event, merged by
#: concatenation.
_EVENT_ARRAYS = (
    "emission_times",
    "absorption_times",
    "emission_cos_theta",
    "emission_phi",
    "inward_crossing_times",
    "outward_crossing_times",
    "snapshot_radii",
)


def _no_events():
    return field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True)
class EnsembleStats:
    """Accumulated ensemble records; merge is associative with empty()
    as the unit, so partial runs can be combined freely."""

    n_paths: int
    time_grid: np.ndarray
    vacuum_counts: np.ndarray
    emission_times: np.ndarray = _no_events()
    absorption_times: np.ndarray = _no_events()
    emission_cos_theta: np.ndarray = _no_events()
    emission_phi: np.ndarray = _no_events()
    probe_radius: float | None = None
    inward_crossing_times: np.ndarray = _no_events()
    outward_crossing_times: np.ndarray = _no_events()
    snapshot_time: float | None = None
    snapshot_radii: np.ndarray = _no_events()

    def __post_init__(self):
        if self.n_paths and len(self.vacuum_counts):
            if np.any(self.vacuum_counts < 0) or np.any(
                self.vacuum_counts > self.n_paths
            ):
                raise ValueError("vacuum counts outside [0, n_paths]")

    @classmethod
    def empty(
        cls,
        time_grid,
        probe_radius: float | None = None,
        snapshot_time: float | None = None,
    ) -> "EnsembleStats":
        grid = np.asarray(time_grid, dtype=float)
        return cls(
            n_paths=0,
            time_grid=grid,
            vacuum_counts=np.zeros(len(grid), dtype=np.int64),
            probe_radius=probe_radius,
            snapshot_time=snapshot_time,
        )

    @property
    def p0_hat(self) -> np.ndarray:
        if self.n_paths == 0:
            return np.full(len(self.time_grid), np.nan)
        return self.vacuum_counts / self.n_paths

    def merge(self, other: "EnsembleStats") -> "EnsembleStats":
        if not np.array_equal(self.time_grid, other.time_grid):
            raise DomainError("cannot merge stats on different time grids")
        if self.probe_radius != other.probe_radius:
            raise DomainError("cannot merge stats with different probe radii")
        if self.snapshot_time != other.snapshot_time:
            raise DomainError("cannot merge stats with different snapshots")
        return replace(
            self,
            n_paths=self.n_paths + other.n_paths,
            vacuum_counts=self.vacuum_counts + other.vacuum_counts,
            **{
                name: np.concatenate([getattr(self, name), getattr(other, name)])
                for name in _EVENT_ARRAYS
            },
        )


# =====================================================================
# initial-condition sampling
# =====================================================================

class _InitialSampler:
    """The initial draw at one time: the vacuum weight |psi0|^2 and the
    inverse-CDF draw of the radius from the sector-1 mass."""

    def __init__(self, vac_weight: float, model: ModelWavefunction):
        self.vac_weight = vac_weight
        s_grid, cum = radial_mass_profile(model)
        self.total_mass = float(cum[-1])
        one = 1.0 - 2.0 * model.params.B
        self.inv_exponent = 1.0 / one
        s_floor = (DRAW_FLOOR_FACTOR * model.r_min) ** one
        self.lo = float(np.interp(s_floor, s_grid, cum))
        self.s_grid = s_grid.tolist()
        self.cum = cum.tolist()

    def draw_radius(self, u: float) -> float:
        """np.interp(target, cum, s_grid) on Python floats, with numpy's
        branches: clamped ends, the knot value on a knot, else the chord."""
        c, s = self.cum, self.s_grid
        target = self.lo + u * (c[-1] - self.lo)
        j = bisect.bisect_right(c, target) - 1
        if j < 0 or j == len(c) - 1 or c[j] == target:
            x = s[max(j, 0)]
        else:
            x = (s[j + 1] - s[j]) / (c[j + 1] - c[j]) * (target - c[j]) + s[j]
        return x**self.inv_exponent


def make_initial_sampler(
    model_family: ModelFamily,
    track: CoefficientTrack,
    t: float,
) -> _InitialSampler:
    """The initial draw at time t, with the two-sector normalization
    checked."""
    if track.params != model_family.params:
        raise DomainError("track and model family carry different params")
    cm, cp = track.coefficients(t)
    sampler = _InitialSampler(track.vacuum_weight(t), model_family.at(cm, cp))
    total = sampler.vac_weight + sampler.total_mass
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(
            f"|psi0|^2 + sector-1 mass = {total!r} at t = {t!r}; "
            "the ensemble draw needs a normalized two-sector state"
        )
    return sampler


def _stream_key(seed: int, index: int) -> tuple[int, int]:
    """The Philox key (seed, index) as two Python ints; DomainError unless
    both are integers in [0, 2**64)."""
    try:
        seed, index = operator.index(seed), operator.index(index)
    except TypeError:
        raise DomainError(
            f"seed and path index must be integers, not {seed!r} and {index!r}"
        ) from None
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise DomainError(
            f"seed {seed!r} and path index {index!r} must lie in [0, 2**64)"
        )
    return seed, index


def _path_stream(seed: int, index: int, rng: np.random.Generator | None):
    """The generator of path `index`: Philox keyed (seed, index) at
    counter 0.  A given Philox generator is re-keyed in place to exactly
    that state, from the two Python ints, at a fraction of the cost of
    building a new one; without one, a new generator is built and
    re-keyed the same way."""
    seed, index = _stream_key(seed, index)
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def draw_path(
    model_family: ModelFamily,
    track: CoefficientTrack,
    t_span: tuple[float, float],
    seed: int,
    index: int,
    *,
    sampler: _InitialSampler,
    tol: float = 1e-6,
    probe_radius: float | None = None,
    rng: np.random.Generator | None = None,
) -> ProcessPath:
    """One realization on the per-index Philox stream keyed (seed, index).
    A Philox generator given as rng is re-keyed to that stream, so one
    generator serves every path of a run."""
    t_a, t_b = float(t_span[0]), float(t_span[1])
    rng = _path_stream(seed, index, rng)
    r_top = 0.5 * model_family.r_cut
    if rng.random() < sampler.vac_weight:
        config: Vacuum | Particle = Vacuum()
    else:
        r0 = sampler.draw_radius(rng.random())
        theta0, phi0 = sample_emission_angles(rng)
        if r0 >= r_top:
            # parked outside the modeled region: sector 1 throughout
            return ProcessPath(t_span=(t_a, t_b), entries=(), events=())
        config = Particle(r0, theta0, phi0)
    return simulate_path(
        model_family,
        track,
        config,
        (t_a, t_b),
        rng,
        tol=tol,
        probe_radius=probe_radius,
    )


def run_ensemble(
    model_family: ModelFamily,
    track: CoefficientTrack,
    n_paths: int,
    t_span: tuple[float, float],
    seed: int,
    *,
    time_grid_n: int = 101,
    tol: float = 1e-6,
    probe_radius: float | None = None,
    snapshot_time: float | None = None,
) -> EnsembleStats:
    """n_paths independent realizations with |psi_tau|^2-distributed
    initial configurations, indices 0..n_paths-1.  Path i draws from its
    own Philox stream keyed by (seed, i), so draw_path(..., index=i)
    replays it alone, bitwise (one generator, re-keyed, serves them
    all).  The seed must be an integer in [0, 2**64), n_paths an integer
    >= 0, time_grid_n an integer >= 2 and tol in (0, inf); snapshot_time,
    when given, must lie in t_span, and probe_radius in (0, r_cut/2).
    """
    n_paths = integer_at_least("n_paths", n_paths, 0)
    time_grid_n = integer_at_least("time_grid_n", time_grid_n, 2)
    _stream_key(seed, 0)  # a bad seed is refused even when no path is drawn
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol = {tol!r} outside (0, inf)")
    t_a, t_b = float(t_span[0]), float(t_span[1])
    if snapshot_time is not None and not t_a <= snapshot_time <= t_b:
        raise DomainError(
            f"snapshot_time = {snapshot_time!r} outside the run window "
            f"[{t_a!r}, {t_b!r}]"
        )
    r_top = 0.5 * model_family.r_cut
    if probe_radius is not None and not 0.0 < probe_radius < r_top:
        raise DomainError(
            f"probe_radius = {probe_radius!r} outside (0, {r_top!r})"
        )
    grid = np.linspace(t_a, t_b, time_grid_n)
    if n_paths == 0:
        return EnsembleStats.empty(grid, probe_radius, snapshot_time)

    sampler = make_initial_sampler(model_family, track, t_a)
    rng = np.random.Generator(np.random.Philox(0))  # re-keyed per path
    # per-path values are collected in lists and turned into arrays once;
    # a vacuum span (a, b) marks +1 at the first grid time >= a and -1 past
    # the last <= b: the running sum counts vacuum paths (spans are disjoint)
    times = grid.tolist()
    marks = [0] * (len(times) + 1)
    emissions, absorptions, inward, outward, snapshots = [], [], [], [], []
    for index in range(n_paths):
        path = draw_path(
            model_family,
            track,
            (t_a, t_b),
            seed,
            index,
            sampler=sampler,
            tol=tol,
            probe_radius=probe_radius,
            rng=rng,
        )
        # one walk over the entries and one over the events, in time
        # order: the entries are vacuum intervals and flight segments, the
        # events emissions and the Absorbed terminals of flights
        for e in path.entries:
            if type(e) is VacuumInterval:
                marks[bisect.bisect_left(times, e.t_start)] += 1
                marks[bisect.bisect_right(times, e.t_end)] -= 1
                continue
            for pc in e.probe_crossings:
                (outward if pc.direction > 0 else inward).append(pc.t)
            if snapshot_time is not None:
                # flights are disjoint in time: at most one covers the snapshot
                r = e.radius_at(snapshot_time)
                if r is not None:
                    snapshots.append(r)
        for ev in path.events:
            if type(ev) is EmissionEvent:
                emissions.append(ev)
            else:
                absorptions.append(ev.t0)

    def floats(values):
        return np.array(values, dtype=float)

    return EnsembleStats(
        n_paths=n_paths,
        time_grid=grid,
        vacuum_counts=np.cumsum(marks[:-1], dtype=np.int64),
        emission_times=floats([e.t0 for e in emissions]),
        absorption_times=floats(absorptions),
        emission_cos_theta=floats([math.cos(e.theta0) for e in emissions]),
        emission_phi=floats([e.phi0 for e in emissions]),
        probe_radius=probe_radius,
        inward_crossing_times=floats(inward),
        outward_crossing_times=floats(outward),
        snapshot_time=snapshot_time,
        snapshot_radii=floats(snapshots),
    )


def normalized_amplitudes(
    params: PhysParams,
    c_minus: complex,
    c_plus: complex,
    r_cut: float,
    target_mass: float,
) -> tuple[complex, complex]:
    """Scale (c_minus, c_plus) jointly so the sector-1 mass of the pure
    model over the cutoff ball equals target_mass (the mass is quadratic
    in the overall scale)."""
    if target_mass <= 0.0:
        raise DomainError("target mass must be positive")
    base = ModelWavefunction(params, c_minus, c_plus, r_cut)
    mass = particle_sector_mass(base)
    if mass <= 0.0:
        raise DomainError("reference amplitudes carry no mass")
    gamma = math.sqrt(target_mass / mass)
    return gamma * complex(c_minus), gamma * complex(c_plus)


# =====================================================================
# master-equation oracle
# =====================================================================

def master_equation_occupancy(
    track: CoefficientTrack,
    model_family: ModelFamily,
    t_span: tuple[float, float],
    time_grid_n: int = 101,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve dp0/dt = -Gamma(t) p0 + A(t) on t_span from the track's
    vacuum weight at its start.

    Supported regimes (both exercised by the acceptance suite):
    emission-only tracks (Im >= 0 everywhere: A = 0, arbitrary time
    dependence), and ingoing constant-coefficient tracks (Im < 0:
    Gamma = 0 and A = 4 pi |C_r| until the shell from r_cut/2 arrives).
    Im is checked at the output times and at every quadrature node, so a
    track whose Im dips below 0 between output times is refused too.
    """
    t_a, t_b = float(t_span[0]), float(t_span[1])
    times = np.linspace(t_a, t_b, time_grid_n)
    p0_init = track.vacuum_weight(t_a)

    ims = track.im_cross(times)
    if np.all(ims >= 0.0):
        # Lambda(t), the integral of Gamma from t_a, by Gauss-Legendre on
        # each piece between consecutive track knots and output times;
        # the edges are the sorted union of both, each value once
        inner = track.times[(track.times > t_a) & (track.times < t_b)]
        edges = np.concatenate((times, inner))
        edges.sort()
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        node_ims, rates = track.cross_and_rate(mid + half * _GL_NODES)
        if np.any(node_ims < 0.0):
            raise DomainError(
                "oracle supports emission-only tracks: Im[conj(c_minus) "
                "c_plus] < 0 between the output times"
            )
        if np.any(np.isinf(rates)):
            raise VacuumEmpty("psi0 vanishes with positive emission flux")
        hazard = np.concatenate(([0.0], np.cumsum((half * rates) @ _GL_WEIGHTS)))
        return times, p0_init * np.exp(-hazard[np.searchsorted(edges, times)])

    if track.constant_coefficients is None or np.any(ims > 0.0):
        raise DomainError(
            "oracle supports emission-only tracks or ingoing "
            "constant-coefficient tracks"
        )
    cm, cp = track.constant_coefficients
    p = track.params
    c_r = current_coeffs(p, cm, cp).C_r
    influx = 4.0 * math.pi * abs(c_r)
    # the last simulated shell starts at r_cut/2; it reaches the source
    # after |t(r_cut/2)|
    t_stop = t_a + abs(
        time_from_radius(p, cm, cp, 0.5 * model_family.r_cut)
    )
    p0 = p0_init + influx * np.maximum(0.0, np.minimum(times, t_stop) - t_a)
    if np.any(p0 > 1.0 + 1e-9):
        raise DomainError("oracle occupancy left [0, 1]; window too long")
    return times, np.clip(p0, 0.0, 1.0)


# =====================================================================
# reports
# =====================================================================

@dataclass(frozen=True)
class SectorComparison:
    expected: np.ndarray
    z_scores: np.ndarray
    fraction_exceeding: float
    passed: bool


def sector0_comparison(
    stats: EnsembleStats,
    track: CoefficientTrack,
    expected: np.ndarray | None = None,
    z_limit: float = 3.0,
) -> SectorComparison:
    """Pointwise z-scores of the empirical vacuum occupancy against
    |psi0(t)|^2 (or a supplied expectation, e.g. the master-equation
    oracle); passes iff at most 1% of grid times exceed |z| = z_limit."""
    if expected is None:
        expected = track.vacuum_weight(stats.time_grid)
    expected = np.asarray(expected, dtype=float)
    p_hat = stats.p0_hat
    n = stats.n_paths
    if n == 0:
        raise InsufficientEvents("no paths in the ensemble")
    sigma = np.sqrt(np.clip(expected * (1.0 - expected), 0.0, None) / n)
    z = np.zeros_like(expected)
    interior = sigma > 0.0
    z[interior] = (p_hat[interior] - expected[interior]) / sigma[interior]
    exact = ~interior
    z[exact] = np.where(p_hat[exact] == expected[exact], 0.0, np.inf)
    frac = float(np.mean(np.abs(z) > z_limit))
    return SectorComparison(
        expected=expected,
        z_scores=z,
        fraction_exceeding=frac,
        passed=frac <= 0.01,
    )


@dataclass(frozen=True)
class FluxReport:
    estimate: float
    expected: float
    sigma: float
    z_score: float
    n_inward: int
    n_outward: int
    passed: bool


def flux_report(stats: EnsembleStats, track: CoefficientTrack) -> FluxReport:
    """Compare the empirical signed flux through the probe sphere,
    (outward - inward crossings) / (n_paths * window), with 4 pi C_r of
    the track coefficients (constant-coefficient tracks); passes iff
    |z| <= 3.  InsufficientEvents for an ensemble with no paths."""
    if track.constant_coefficients is None:
        raise DomainError("flux comparison needs a constant-coefficient track")
    cm, cp = track.constant_coefficients
    expected = 4.0 * math.pi * current_coeffs(track.params, cm, cp).C_r
    if stats.probe_radius is None:
        raise DomainError("ensemble was run without a probe radius")
    n = stats.n_paths
    if n == 0:
        raise InsufficientEvents("no paths in the ensemble")
    n_in = len(stats.inward_crossing_times)
    n_out = len(stats.outward_crossing_times)
    window = float(stats.time_grid[-1] - stats.time_grid[0])
    estimate = (n_out - n_in) / (n * window)
    count = n_in + n_out
    # crossings are near-Bernoulli per path; binomial width on the count
    p_hat = min(count / n, 1.0)
    sigma = math.sqrt(max(count * (1.0 - p_hat), 1.0)) / (n * window)
    z = (estimate - expected) / sigma if sigma > 0 else math.inf
    return FluxReport(
        estimate=estimate,
        expected=expected,
        sigma=sigma,
        z_score=z,
        n_inward=n_in,
        n_outward=n_out,
        passed=bool(abs(z) <= 3.0),
    )


@dataclass(frozen=True)
class AngleUniformityReport:
    n_events: int
    chi2: float
    dof: int
    chi2_p_value: float
    ks_p_value: float
    passed: bool


def angle_arrays_report(
    cos_theta: np.ndarray, phi: np.ndarray
) -> AngleUniformityReport:
    """Chi-square over 10 x 10 cells of (cos theta0, phi0 mod 2 pi) plus a
    KS test of cos theta0 against uniform on [-1, 1]; passes iff both
    p-values exceed 0.01."""
    cos_theta = np.asarray(cos_theta, dtype=float)
    phi = np.mod(np.asarray(phi, dtype=float), 2.0 * math.pi)
    n = len(cos_theta)
    if n < 1000:
        raise InsufficientEvents(f"need at least 1000 emissions, got {n}")
    from scipy import stats as sps  # imported here: only this report needs scipy

    bins = 10
    hist, _, _ = np.histogram2d(
        cos_theta,
        phi,
        bins=bins,
        range=[[-1.0, 1.0], [0.0, 2.0 * math.pi]],
    )
    expected = n / (bins * bins)
    chi2 = float(np.sum((hist - expected) ** 2) / expected)
    dof = bins * bins - 1
    chi2_p = float(sps.chi2.sf(chi2, dof))
    ks = sps.kstest(cos_theta, sps.uniform(loc=-1.0, scale=2.0).cdf)
    passed = bool(chi2_p > 0.01 and ks.pvalue > 0.01)
    return AngleUniformityReport(
        n_events=n,
        chi2=chi2,
        dof=dof,
        chi2_p_value=chi2_p,
        ks_p_value=float(ks.pvalue),
        passed=passed,
    )


def angle_uniformity_test(stats: EnsembleStats) -> AngleUniformityReport:
    """Uniformity of the recorded emission labels over the sphere."""
    return angle_arrays_report(stats.emission_cos_theta, stats.emission_phi)
