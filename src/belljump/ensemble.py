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
r_cut/2 arrives, and 0 after.  The solver (scipy RK45 on this scalar
ODE) shares only the rate law, total_jump_rate, with the path sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InsufficientEvents, NormalizationError
from .jump_process import (
    CoefficientTrack,
    Particle,
    ProcessPath,
    Vacuum,
    sample_emission_angles,
    simulate_path,
    total_jump_rate,
)
from .params import PhysParams
from .spinor_basis import from_spherical
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


# =====================================================================
# statistics container (mergeable)
# =====================================================================

@dataclass(frozen=True)
class EnsembleStats:
    """Accumulated ensemble records; merge is associative with empty()
    as the unit, so partial runs can be combined freely."""

    n_paths: int
    time_grid: np.ndarray
    vacuum_counts: np.ndarray
    emission_times: np.ndarray
    absorption_times: np.ndarray
    emission_cos_theta: np.ndarray
    emission_phi: np.ndarray
    probe_radius: float | None = None
    inward_crossing_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    outward_crossing_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    snapshot_time: float | None = None
    snapshot_radii: np.ndarray = field(default_factory=lambda: np.empty(0))

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
            emission_times=np.empty(0),
            absorption_times=np.empty(0),
            emission_cos_theta=np.empty(0),
            emission_phi=np.empty(0),
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
        cat = np.concatenate
        return replace(
            self,
            n_paths=self.n_paths + other.n_paths,
            vacuum_counts=self.vacuum_counts + other.vacuum_counts,
            emission_times=cat([self.emission_times, other.emission_times]),
            absorption_times=cat([self.absorption_times, other.absorption_times]),
            emission_cos_theta=cat(
                [self.emission_cos_theta, other.emission_cos_theta]
            ),
            emission_phi=cat([self.emission_phi, other.emission_phi]),
            inward_crossing_times=cat(
                [self.inward_crossing_times, other.inward_crossing_times]
            ),
            outward_crossing_times=cat(
                [self.outward_crossing_times, other.outward_crossing_times]
            ),
            snapshot_radii=cat([self.snapshot_radii, other.snapshot_radii]),
        )


# =====================================================================
# initial-condition sampling
# =====================================================================

class _RadialSampler:
    """Inverse-CDF draw of the initial radius from the sector-1 mass."""

    def __init__(self, model: ModelWavefunction):
        s_grid, cum = radial_mass_profile(model)
        self.total_mass = float(cum[-1])
        one = 1.0 - 2.0 * model.params.B
        self.inv_exponent = 1.0 / one
        s_floor = (DRAW_FLOOR_FACTOR * model.r_min) ** one
        lo = float(np.interp(s_floor, s_grid, cum))
        self.s_grid = s_grid
        self.cum = cum
        self.lo = lo

    def draw_radius(self, u: float) -> float:
        target = self.lo + u * (self.cum[-1] - self.lo)
        s = float(np.interp(target, self.cum, self.s_grid))
        return s**self.inv_exponent


def make_initial_sampler(
    model_family: ModelFamily,
    track: CoefficientTrack,
    t: float,
) -> tuple[float, _RadialSampler]:
    """Vacuum weight and radial sampler at time t, with the two-sector
    normalization checked."""
    vac_weight = track.vacuum_weight(t)
    cm, cp = track.coefficients(t)
    sampler = _RadialSampler(model_family.at(cm, cp))
    total = vac_weight + sampler.total_mass
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(
            f"|psi0|^2 + sector-1 mass = {total!r} at t = {t!r}; "
            "the ensemble draw needs a normalized two-sector state"
        )
    return vac_weight, sampler


def draw_path(
    model_family: ModelFamily,
    track: CoefficientTrack,
    t_span: tuple[float, float],
    seed: int,
    index: int,
    *,
    vac_weight: float,
    sampler: _RadialSampler,
    tol: float = 1e-6,
    probe_radii: tuple[float, ...] = (),
) -> ProcessPath:
    """One realization on the per-index Philox stream keyed (seed, index)."""
    t_a, t_b = float(t_span[0]), float(t_span[1])
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )
    r_top = 0.5 * model_family.r_cut
    if rng.random() < vac_weight:
        config: Vacuum | Particle = Vacuum()
    else:
        r0 = sampler.draw_radius(rng.random())
        theta0, phi0 = sample_emission_angles(rng)
        if r0 >= r_top:
            # parked outside the modeled region: sector 1 throughout
            return ProcessPath(t_span=(t_a, t_b), entries=(), events=())
        config = Particle(tuple(from_spherical(r0, theta0, phi0)))
    return simulate_path(
        model_family,
        track,
        config,
        (t_a, t_b),
        rng,
        tol=tol,
        probe_radii=probe_radii,
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
    initial configurations; per-path counter-based RNG streams keyed by
    (seed, path index), so any subset of indices reproduces bitwise.
    """
    t_a, t_b = float(t_span[0]), float(t_span[1])
    grid = np.linspace(t_a, t_b, time_grid_n)
    if n_paths == 0:
        return EnsembleStats.empty(grid, probe_radius, snapshot_time)

    vac_weight, sampler = make_initial_sampler(model_family, track, t_a)
    probes = (probe_radius,) if probe_radius is not None else ()
    # per-path values are collected in lists and turned into arrays once
    vacuum_counts = np.zeros(len(grid), dtype=np.int64)
    emissions, absorptions, inward, outward, snapshots = [], [], [], [], []
    for index in range(n_paths):
        path = draw_path(
            model_family,
            track,
            (t_a, t_b),
            seed,
            index,
            vac_weight=vac_weight,
            sampler=sampler,
            tol=tol,
            probe_radii=probes,
        )
        vacuum_counts += path.occupancy(grid)
        emissions.extend(path.emissions)
        absorptions.extend(a.t0 for a in path.absorptions)
        for seg in path.segments:
            for pc in seg.probe_crossings:
                (outward if pc.direction > 0 else inward).append(pc.t)
        if snapshot_time is not None:
            # flights are disjoint in time: at most one covers the snapshot
            radii = (seg.radius_at(snapshot_time) for seg in path.segments)
            snapshots.extend(r for r in radii if r is not None)

    def floats(values):
        return np.array(values, dtype=float)

    return EnsembleStats(
        n_paths=n_paths,
        time_grid=grid,
        vacuum_counts=vacuum_counts,
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
    subleading_amp: tuple[complex, complex] = (0j, 0j),
) -> tuple[complex, complex]:
    """Scale (c_minus, c_plus) jointly so the sector-1 mass over the
    cutoff ball equals target_mass (the mass is quadratic in the overall
    scale; subleading amplitudes are scaled along)."""
    if target_mass <= 0.0:
        raise DomainError("target mass must be positive")
    base = ModelWavefunction(params, c_minus, c_plus, r_cut, subleading_amp)
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
    p0_init: float | None = None,
    rtol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve dp0/dt = -Gamma(t) p0 + A(t) on t_span.

    Supported regimes (both exercised by the acceptance suite):
    emission-only tracks (Im >= 0 everywhere: A = 0, arbitrary time
    dependence), and ingoing constant-coefficient tracks (Im < 0:
    Gamma = 0 and A = 4 pi |C_r| until the shell from r_cut/2 arrives).
    """
    from scipy.integrate import solve_ivp

    t_a, t_b = float(t_span[0]), float(t_span[1])
    times = np.linspace(t_a, t_b, time_grid_n)
    if p0_init is None:
        p0_init = track.vacuum_weight(t_a)

    ims = np.array([track.im_cross(t) for t in times])
    if np.all(ims >= 0.0):
        def rhs(t, y):
            return [-total_jump_rate(track, t) * y[0]]

        sol = solve_ivp(
            rhs,
            (t_a, t_b),
            [p0_init],
            t_eval=times,
            rtol=rtol,
            atol=1e-13,
            dense_output=False,
            method="RK45",
        )
        return times, sol.y[0]

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
    p0 = np.empty_like(times)
    for i, t in enumerate(times):
        reach = min(t, t_stop)
        p0[i] = p0_init + influx * max(0.0, reach - t_a)
    if np.any(p0 > 1.0 + 1e-9):
        raise DomainError("oracle occupancy left [0, 1]; window too long")
    return times, np.clip(p0, 0.0, 1.0)


# =====================================================================
# reports
# =====================================================================

@dataclass(frozen=True)
class SectorComparison:
    times: np.ndarray
    p0_hat: np.ndarray
    expected: np.ndarray
    z_scores: np.ndarray
    fraction_exceeding: float
    passed: bool


def sector0_comparison(
    stats: EnsembleStats,
    track: CoefficientTrack,
    expected: np.ndarray | None = None,
    z_limit: float = 3.0,
    max_fraction: float = 0.01,
) -> SectorComparison:
    """Pointwise z-scores of the empirical vacuum occupancy against
    |psi0(t)|^2 (or a supplied expectation, e.g. the master-equation
    oracle); passes iff at most max_fraction of grid times exceed
    |z| = z_limit."""
    times = stats.time_grid
    if expected is None:
        expected = np.array([track.vacuum_weight(t) for t in times])
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
        times=times,
        p0_hat=p_hat,
        expected=expected,
        z_scores=z,
        fraction_exceeding=frac,
        passed=frac <= max_fraction,
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


def flux_estimate(stats: EnsembleStats, r_probe: float) -> float:
    """Signed empirical probability flux through the probe sphere,
    (outward - inward crossings) / (n_paths * window)."""
    if stats.probe_radius is None:
        raise DomainError("ensemble was run without a probe radius")
    if not math.isclose(r_probe, stats.probe_radius, rel_tol=1e-12):
        raise DomainError(
            f"stats carry probe radius {stats.probe_radius!r}, not {r_probe!r}"
        )
    if stats.n_paths == 0:
        return 0.0
    window = float(stats.time_grid[-1] - stats.time_grid[0])
    net = len(stats.outward_crossing_times) - len(stats.inward_crossing_times)
    return net / (stats.n_paths * window)


def flux_report(
    stats: EnsembleStats, track: CoefficientTrack, z_limit: float = 3.0
) -> FluxReport:
    """Compare the empirical signed flux at the probe radius with
    4 pi C_r of the track coefficients (constant-coefficient tracks)."""
    if track.constant_coefficients is None:
        raise DomainError("flux comparison needs a constant-coefficient track")
    cm, cp = track.constant_coefficients
    expected = 4.0 * math.pi * current_coeffs(track.params, cm, cp).C_r
    estimate = flux_estimate(stats, stats.probe_radius)
    n_in = len(stats.inward_crossing_times)
    n_out = len(stats.outward_crossing_times)
    window = float(stats.time_grid[-1] - stats.time_grid[0])
    n = stats.n_paths
    count = n_in + n_out
    # crossings are near-Bernoulli per path; binomial width on the count
    p_hat = min(count / n, 1.0) if n else 0.0
    sigma = (
        math.sqrt(max(count * (1.0 - p_hat), 1.0)) / (n * window)
        if n
        else math.inf
    )
    z = (estimate - expected) / sigma if sigma > 0 else math.inf
    return FluxReport(
        estimate=estimate,
        expected=expected,
        sigma=sigma,
        z_score=z,
        n_inward=n_in,
        n_outward=n_out,
        passed=bool(abs(z) <= z_limit),
    )


@dataclass(frozen=True)
class AngleUniformityReport:
    n_events: int
    chi2: float
    dof: int
    chi2_p_value: float
    ks_statistic: float
    ks_p_value: float
    passed: bool


def angle_arrays_report(
    cos_theta: np.ndarray,
    phi: np.ndarray,
    bins: int = 10,
    significance: float = 0.01,
) -> AngleUniformityReport:
    """Chi-square over bins x bins cells of (cos theta0, phi0 mod 2 pi)
    plus a KS test of cos theta0 against uniform on [-1, 1]."""
    from scipy import stats as sps

    cos_theta = np.asarray(cos_theta, dtype=float)
    phi = np.mod(np.asarray(phi, dtype=float), 2.0 * math.pi)
    n = len(cos_theta)
    if n < 1000:
        raise InsufficientEvents(f"need at least 1000 emissions, got {n}")
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
    passed = bool(chi2_p > significance and ks.pvalue > significance)
    return AngleUniformityReport(
        n_events=n,
        chi2=chi2,
        dof=dof,
        chi2_p_value=chi2_p,
        ks_statistic=float(ks.statistic),
        ks_p_value=float(ks.pvalue),
        passed=passed,
    )


def angle_uniformity_test(
    stats: EnsembleStats, bins: int = 10, significance: float = 0.01
) -> AngleUniformityReport:
    """Uniformity of the recorded emission labels over the sphere."""
    return angle_arrays_report(
        stats.emission_cos_theta, stats.emission_phi, bins, significance
    )


# =====================================================================
# stationary-window density check
# =====================================================================

@dataclass(frozen=True)
class RadialKsReport:
    n_samples: int
    ks_statistic: float
    p_value: float
    r_max: float
    passed: bool


def radial_snapshot_ks(
    stats: EnsembleStats,
    model_family: ModelFamily,
    track: CoefficientTrack,
    r_max: float,
    significance: float = 0.01,
) -> RadialKsReport:
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
    s_max = r_max**one
    cum_max = float(np.interp(s_max, s_grid, cum))

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
