"""Ensemble runs: mergeable statistics, initial-condition sampling, the
occupancy oracle, and the statistical reports."""

import math

import numpy as np
import pytest

from belljump import (
    DomainError,
    InsufficientEvents,
    NormalizationError,
    canonical_params,
)
from belljump.ensemble import (
    DRAW_FLOOR_FACTOR,
    EnsembleStats,
    angle_arrays_report,
    angle_uniformity_test,
    draw_path,
    flux_estimate,
    flux_report,
    make_initial_sampler,
    master_equation_occupancy,
    normalized_amplitudes,
    radial_snapshot_ks,
    run_ensemble,
    sector0_comparison,
)
from belljump.jump_process import CoefficientTrack
from belljump.wavefunction import ModelFamily, ModelWavefunction, particle_sector_mass
from oracles import in_vacuum

P96 = canonical_params(0.96)


def _balanced_setup():
    # outgoing flux, mass 0.3 in flight, |psi0(0)|^2 = 0.7
    fam = ModelFamily(P96, 1.0)
    cm, cp = normalized_amplitudes(P96, 1.0, 1j, 1.0, 0.3)
    track = CoefficientTrack.balanced_constant_flux(P96, cm, cp, 0.7, 0.0, 3.0)
    return fam, track


def _ingoing_setup():
    # absorbing flux, mass 0.7 in flight, probe sphere inside
    fam = ModelFamily(P96, 1.0)
    cm, cp = normalized_amplitudes(P96, 1.0, -1j, 1.0, 0.7)
    track = CoefficientTrack.balanced_constant_flux(P96, cm, cp, 0.3, 0.0, 3.0)
    return fam, track, cm, cp


# ---------------------------------------------------------------------
# mergeable statistics
# ---------------------------------------------------------------------

def _stats_equal(a, b):
    import dataclasses

    for f in dataclasses.fields(EnsembleStats):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def test_merge_unit_and_associativity():
    fam, track = _balanced_setup()
    grid = np.linspace(0.0, 3.0, 11)
    parts = [
        run_ensemble(fam, track, 15, (0.0, 3.0), seed, time_grid_n=11)
        for seed in (60, 61, 62)
    ]
    a, b, c = parts
    unit = EnsembleStats.empty(grid)
    assert _stats_equal(unit.merge(a), a)
    assert _stats_equal(a.merge(unit), a)
    assert _stats_equal(a.merge(b).merge(c), a.merge(b.merge(c)))
    merged = a.merge(b)
    assert merged.n_paths == 30
    assert np.all(merged.vacuum_counts == a.vacuum_counts + b.vacuum_counts)


def _single_path_stats(path, grid, probe_radius, snapshot_time):
    """Stats of one path, built independently of run_ensemble."""
    inward = [
        pc.t for seg in path.segments for pc in seg.probe_crossings
        if pc.direction < 0
    ]
    outward = [
        pc.t for seg in path.segments for pc in seg.probe_crossings
        if pc.direction > 0
    ]
    snap = [seg.radius_at(snapshot_time) for seg in path.segments]
    return EnsembleStats(
        n_paths=1,
        time_grid=grid,
        vacuum_counts=path.occupancy(grid).astype(np.int64),
        emission_times=np.array([e.t0 for e in path.emissions], dtype=float),
        absorption_times=np.array([a.t0 for a in path.absorptions], dtype=float),
        emission_cos_theta=np.array(
            [math.cos(e.theta0) for e in path.emissions], dtype=float
        ),
        emission_phi=np.array([e.phi0 for e in path.emissions], dtype=float),
        probe_radius=probe_radius,
        inward_crossing_times=np.array(inward, dtype=float),
        outward_crossing_times=np.array(outward, dtype=float),
        snapshot_time=snapshot_time,
        snapshot_radii=np.array([r for r in snap if r is not None], dtype=float),
    )


@pytest.mark.parametrize("setup", ["balanced", "ingoing"])
def test_run_equals_fold_of_single_path_stats(setup):
    if setup == "balanced":
        fam, track = _balanced_setup()
        span, probe, snapshot = (0.0, 3.0), 0.2, 1.5
    else:
        fam, track, _, _ = _ingoing_setup()
        span, probe, snapshot = (0.0, 1.0), 0.05, 0.5
    n, seed = 40, 66
    stats = run_ensemble(
        fam, track, n, span, seed, time_grid_n=11,
        probe_radius=probe, snapshot_time=snapshot,
    )
    grid = np.linspace(*span, 11)
    vac_weight, sampler = make_initial_sampler(fam, track, span[0])
    folded = EnsembleStats.empty(grid, probe, snapshot)
    for index in range(n):
        path = draw_path(
            fam, track, span, seed, index, vac_weight=vac_weight,
            sampler=sampler, probe_radii=(probe,),
        )
        folded = folded.merge(_single_path_stats(path, grid, probe, snapshot))
    assert _stats_equal(stats, folded)
    assert len(stats.snapshot_radii) > 0
    assert len(stats.inward_crossing_times) + len(stats.outward_crossing_times) > 0
    assert len(stats.emission_times) + len(stats.absorption_times) > 0


def test_merge_rejects_mismatched_layouts():
    base = EnsembleStats.empty(np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError):
        base.merge(EnsembleStats.empty(np.linspace(0.0, 2.0, 5)))
    with pytest.raises(DomainError):
        base.merge(EnsembleStats.empty(np.linspace(0.0, 1.0, 5), probe_radius=0.1))
    with pytest.raises(DomainError):
        base.merge(
            EnsembleStats.empty(np.linspace(0.0, 1.0, 5), snapshot_time=0.5)
        )


def test_empty_stats():
    stats = EnsembleStats.empty(np.linspace(0.0, 1.0, 5))
    assert stats.n_paths == 0
    assert np.all(np.isnan(stats.p0_hat))
    assert len(stats.emission_times) == 0


# ---------------------------------------------------------------------
# initial-condition sampling
# ---------------------------------------------------------------------

def test_run_reproducible_by_seed():
    fam, track = _balanced_setup()
    a = run_ensemble(fam, track, 40, (0.0, 3.0), 63, time_grid_n=11)
    b = run_ensemble(fam, track, 40, (0.0, 3.0), 63, time_grid_n=11)
    c = run_ensemble(fam, track, 40, (0.0, 3.0), 64, time_grid_n=11)
    assert _stats_equal(a, b)
    assert not _stats_equal(a, c)


def test_balanced_run_digest_is_stable():
    # occupancy, emission times and labels do not depend on how flights
    # are evaluated: this digest was recorded with every flight integrated
    import hashlib

    fam, track = _balanced_setup()
    stats = run_ensemble(fam, track, 300, (0.0, 3.0), 808, tol=1e-6)
    h = hashlib.sha256()
    for values in (stats.vacuum_counts, stats.emission_times, stats.emission_phi):
        h.update(values.tobytes())
    assert len(stats.emission_times) == 66
    assert h.hexdigest() == (
        "df71a0572ebc821038dddba069b0c52ef9590940a52042cddb2a122cb12d0964"
    )


def test_run_zero_paths():
    fam, track = _balanced_setup()
    stats = run_ensemble(fam, track, 0, (0.0, 3.0), 1, time_grid_n=7)
    assert stats.n_paths == 0


def test_unnormalized_state_rejected():
    fam = ModelFamily(P96, 1.0)
    track = CoefficientTrack.constant(P96, 1.0, 1j, 1.0, 0.0, 1.0)
    with pytest.raises(NormalizationError):
        make_initial_sampler(fam, track, 0.0)


def test_sampler_honours_draw_floor():
    _, track = _balanced_setup()
    r_min = 1e-6
    fam = ModelFamily(P96, 1.0, r_min=r_min)
    _, sampler = make_initial_sampler(fam, track, 0.0)
    for u in (0.0, 1e-9, 0.5, 1.0):
        assert sampler.draw_radius(u) >= DRAW_FLOOR_FACTOR * r_min * (1.0 - 1e-9)
    assert sampler.draw_radius(1.0) <= 1.0


def test_normalized_amplitudes():
    cm, cp = normalized_amplitudes(P96, 1.0, 1j, 1.0, 0.3)
    mass = particle_sector_mass(ModelWavefunction(P96, cm, cp, 1.0))
    assert abs(mass - 0.3) < 1e-9
    assert abs(cp / cm - 1j) < 1e-14  # joint scaling keeps the ratio
    with pytest.raises(DomainError):
        normalized_amplitudes(P96, 1.0, 1j, 1.0, 0.0)
    with pytest.raises(DomainError):
        normalized_amplitudes(P96, 0.0, 0.0, 1.0, 0.3)


def test_parked_draws_outside_modeled_region():
    # the ingoing state carries mass beyond r_cut/2; such draws park
    fam, track, _, _ = _ingoing_setup()
    vac_weight, sampler = make_initial_sampler(fam, track, 0.0)
    parked = in_flight = 0
    for index in range(60):
        path = draw_path(
            fam, track, (0.0, 0.01), 65, index,
            vac_weight=vac_weight, sampler=sampler,
        )
        if path.entries == () and path.vacuum_spans == ():
            parked += 1
            assert path.events == ()
            assert not in_vacuum(path, 0.005)
        elif path.segments:
            in_flight += 1
    assert parked > 0 and in_flight > 0


# ---------------------------------------------------------------------
# occupancy oracle and equivariance at small n
# ---------------------------------------------------------------------

def test_master_equation_matches_balanced_weight():
    fam, track = _balanced_setup()
    times, p0 = master_equation_occupancy(track, fam, (0.0, 3.0), time_grid_n=31)
    want = np.array([track.vacuum_weight(t) for t in times])
    assert np.max(np.abs(p0 - want)) < 1e-9


def test_balanced_run_tracks_weight():
    fam, track = _balanced_setup()
    stats = run_ensemble(fam, track, 400, (0.0, 3.0), 66, time_grid_n=31)
    # grid z-scores are strongly correlated (the same 400 paths enter
    # every time), so gate on |z| < 4 at this ensemble size
    comp = sector0_comparison(stats, track, z_limit=4.0)
    assert comp.passed, f"fraction beyond 4 sigma: {comp.fraction_exceeding}"
    # same run against the oracle curve instead of the exact weight
    _, oracle = master_equation_occupancy(track, fam, (0.0, 3.0), time_grid_n=31)
    assert sector0_comparison(stats, track, expected=oracle, z_limit=4.0).passed


def test_unbalanced_expectation_detected():
    # negative control: a flat 0.7 expectation must be rejected
    fam, track = _balanced_setup()
    stats = run_ensemble(fam, track, 400, (0.0, 3.0), 66, time_grid_n=31)
    flat = np.full(31, 0.7)
    comp = sector0_comparison(stats, track, expected=flat)
    assert not comp.passed
    assert comp.fraction_exceeding > 0.3


def test_sector0_comparison_guards():
    fam, track = _balanced_setup()
    stats = EnsembleStats.empty(np.linspace(0.0, 3.0, 5))
    with pytest.raises(InsufficientEvents):
        sector0_comparison(stats, track)


def test_master_equation_oracle_regimes():
    fam = ModelFamily(P96, 1.0)
    # mixed flux sign: not supported
    t = np.linspace(0.0, 1.0, 33)
    mixed = CoefficientTrack(P96, t, np.ones(33), 1j * (t - 0.5), np.full(33, 0.8))
    with pytest.raises(DomainError):
        master_equation_occupancy(mixed, fam, (0.0, 1.0))
    # ingoing with varying coefficients: not supported either
    varying = CoefficientTrack(P96, t, np.ones(33), -1j * (1.0 + t), np.full(33, 0.8))
    with pytest.raises(DomainError):
        master_equation_occupancy(varying, fam, (0.0, 1.0))


# ---------------------------------------------------------------------
# the ingoing window: flux, snapshot, oracle
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def ingoing_run():
    fam, track, cm, cp = _ingoing_setup()
    from belljump.trajectory import time_from_radius

    t_half = abs(time_from_radius(P96, cm, cp, 0.5))
    from belljump.wavefunction import current_coeffs

    drain = abs(4.0 * math.pi * current_coeffs(P96, cm, cp).C_r)
    window = min(0.8 * t_half, 0.6 / drain)
    stats = run_ensemble(
        fam,
        track,
        1500,
        (0.0, window),
        909,
        time_grid_n=31,
        probe_radius=1e-4,
        snapshot_time=0.5 * window,
    )
    return fam, track, stats, window


def test_ingoing_flux_matches_rate(ingoing_run):
    fam, track, stats, _ = ingoing_run
    report = flux_report(stats, track)
    assert report.n_inward > 200
    assert report.n_outward == 0
    assert report.expected < 0.0
    assert report.passed is True, f"z = {report.z_score}"


def test_ingoing_occupancy_matches_linear_oracle(ingoing_run):
    fam, track, stats, window = ingoing_run
    times, oracle = master_equation_occupancy(
        track, fam, (0.0, window), time_grid_n=31
    )
    # oracle grows linearly at the absorption rate on this short window
    drain = abs(track.vacuum_weight(0.0) - oracle[-1])
    assert oracle[0] == track.vacuum_weight(0.0)
    assert drain > 0.0
    comp = sector0_comparison(stats, track, expected=oracle)
    assert comp.passed, f"fraction beyond 3 sigma: {comp.fraction_exceeding}"


def test_ingoing_snapshot_radial_law(ingoing_run):
    fam, track, stats, _ = ingoing_run
    # r_max deep enough inside that its flow pre-image over the window
    # stays below r_cut/2 (draws beyond that are parked, not simulated)
    report = radial_snapshot_ks(stats, fam, track, r_max=0.1)
    assert report.n_samples >= 100
    assert report.passed, f"KS p = {report.p_value}"


def test_flux_estimate_guards(ingoing_run):
    fam, track, stats, _ = ingoing_run
    with pytest.raises(DomainError):
        flux_estimate(stats, 0.5)  # probe mismatch
    bare = EnsembleStats.empty(np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError):
        flux_estimate(bare, 0.1)
    varying = CoefficientTrack(
        P96,
        np.linspace(0.0, 1.0, 33),
        1.0 + np.linspace(0.0, 1.0, 33),
        -1j * np.ones(33),
        np.full(33, 0.5),
    )
    with pytest.raises(DomainError):
        flux_report(stats, varying)


def test_radial_ks_guards(ingoing_run):
    fam, track, stats, _ = ingoing_run
    no_snap = EnsembleStats.empty(np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError):
        radial_snapshot_ks(no_snap, fam, track, r_max=0.4)
    with pytest.raises(InsufficientEvents):
        radial_snapshot_ks(stats, fam, track, r_max=2e-5)


# ---------------------------------------------------------------------
# angular uniformity report
# ---------------------------------------------------------------------

def test_angle_report_on_synthetic_uniform():
    rng = np.random.default_rng(67)
    n = 5000
    report = angle_arrays_report(
        rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
    )
    assert report.n_events == n and report.dof == 99
    assert report.passed is True  # a plain bool: the CLI writes it as JSON


def test_angle_report_detects_clustering():
    rng = np.random.default_rng(68)
    n = 5000
    report = angle_arrays_report(
        rng.uniform(0.0, 1.0, n),  # only the upper hemisphere
        rng.uniform(0.0, 2.0 * math.pi, n),
    )
    assert report.passed is False
    assert report.chi2_p_value < 1e-6


def test_angle_report_insufficient_events():
    with pytest.raises(InsufficientEvents):
        angle_arrays_report(np.zeros(10), np.zeros(10))
    stats = EnsembleStats.empty(np.linspace(0.0, 1.0, 3))
    with pytest.raises(InsufficientEvents):
        angle_uniformity_test(stats)
