"""Ensemble runs: mergeable statistics, initial-condition sampling, the
occupancy oracle, and the statistical reports."""

import math

import numpy as np
import pytest

from belljump import (
    DomainError,
    InsufficientEvents,
    NormalizationError,
    VacuumEmpty,
    canonical_params,
)
from belljump import ensemble
from belljump.ensemble import (
    DRAW_FLOOR_FACTOR,
    EnsembleStats,
    angle_arrays_report,
    angle_uniformity_test,
    draw_path,
    flux_report,
    make_initial_sampler,
    master_equation_occupancy,
    normalized_amplitudes,
    run_ensemble,
    sector0_comparison,
)
from belljump.jump_process import (
    CoefficientTrack,
    ProcessPath,
    VacuumInterval,
    sample_emission_angles,
)
from belljump.trajectory import Absorbed, TrajectorySegment, time_from_radius
from belljump.wavefunction import (
    ModelFamily,
    ModelWavefunction,
    current_coeffs,
    particle_sector_mass,
)
from oracles import cumulative_hazard, in_vacuum, occupancy, radial_snapshot_ks

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
        vacuum_counts=occupancy(path, grid).astype(np.int64),
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
    sampler = make_initial_sampler(fam, track, span[0])
    folded = EnsembleStats.empty(grid, probe, snapshot)
    for index in range(n):
        path = draw_path(
            fam, track, span, seed, index, sampler=sampler, probe_radius=probe
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


def test_stats_refuse_vacuum_counts_outside_the_path_count():
    grid = np.linspace(0.0, 1.0, 3)
    for counts in ([0, 3, 1], [0, -1, 0]):
        with pytest.raises(ValueError, match="vacuum counts"):
            EnsembleStats(n_paths=2, time_grid=grid, vacuum_counts=np.array(counts))


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
    # occupancy, emission times and labels at a fixed seed; recorded with
    # the cumulative-majorant sampler and the package's cubic table
    import hashlib

    fam, track = _balanced_setup()
    stats = run_ensemble(fam, track, 300, (0.0, 3.0), 808, tol=1e-6)
    h = hashlib.sha256()
    for values in (stats.vacuum_counts, stats.emission_times, stats.emission_phi):
        h.update(values.tobytes())
    assert len(stats.emission_times) == 57
    assert h.hexdigest() == (
        "36a338ded4d4b9c7117619c98298eb4f43de089eb99af42d9b4bbc79a3c11d97"
    )


def _ingoing_window(cm, cp):
    """The ingoing run's window: short of the shell from r_cut/2 and of
    draining 60% of the flight mass."""
    t_half = abs(time_from_radius(P96, cm, cp, 0.5))
    drain = abs(4.0 * math.pi * current_coeffs(P96, cm, cp).C_r)
    return min(0.8 * t_half, 0.6 / drain)


@pytest.mark.parametrize(
    "setup, digest",
    [
        ("ingoing", "91608f01f79da0357ce852c4adc43ed3405938b58fec4f0207447bd6aff5eb5b"),
        ("balanced", "d49df85855dfb578976bd41767d100c84ed52de25f98aadddfc7ece05a78a266"),
    ],
)
def test_run_digest_pins_every_field(setup, digest):
    # every per-path record a run accumulates, bitwise, at a fixed seed:
    # the vacuum counts and every event array in EnsembleStats order
    import hashlib

    if setup == "ingoing":
        fam, track, cm, cp = _ingoing_setup()
        window = _ingoing_window(cm, cp)
        span, probe, snapshot = (0.0, window), 1e-4, 0.5 * window
    else:
        fam, track = _balanced_setup()
        span, probe, snapshot = (0.0, 3.0), 0.2, 1.5
    stats = run_ensemble(
        fam, track, 300, span, 4242, time_grid_n=31, tol=1e-6,
        probe_radius=probe, snapshot_time=snapshot,
    )
    h = hashlib.sha256(stats.vacuum_counts.tobytes())
    for name in ensemble._EVENT_ARRAYS:
        values = getattr(stats, name)
        assert values.dtype == np.float64
        h.update(name.encode())
        h.update(values.tobytes())
    crossings = len(stats.inward_crossing_times) + len(stats.outward_crossing_times)
    assert crossings > 0
    assert len(stats.snapshot_radii) > 0
    if setup == "ingoing":
        assert len(stats.absorption_times) > 0
    else:
        assert len(stats.emission_times) > 0
    assert h.hexdigest() == digest


def test_run_zero_paths():
    fam, track = _balanced_setup()
    stats = run_ensemble(fam, track, 0, (0.0, 3.0), 1, time_grid_n=7)
    assert stats.n_paths == 0


@pytest.mark.parametrize(
    "seed, n_paths, options",
    [(-1, 0, {}), (1.5, 0, {}), (2**64, 0, {}), ("1", 0, {}),
     (1, 2.5, {}), (1, 0, {"time_grid_n": 2.5}),
     (1, 0, {"tol": -1.0}), (1, 0, {"tol": 0.0}), (1, 0, {"tol": math.nan}),
     (1, 0, {"tol": math.inf})],
)
def test_run_checks_its_arguments_before_any_path(seed, n_paths, options):
    # a bad seed once passed unseen when no path was drawn, and a
    # fractional count raised a bare TypeError
    fam, track = _balanced_setup()
    with pytest.raises(DomainError):
        run_ensemble(fam, track, n_paths, (0.0, 3.0), seed, **options)


def _path_fingerprint(path):
    """Every number of a path, bitwise: arrays as bytes, floats by repr."""
    parts = [repr(path.t_span), repr(path.events)]
    for entry in path.entries:
        if isinstance(entry, TrajectorySegment):
            parts += [a.tobytes() for a in (entry.t, entry.r, entry.phi)]
            parts.append(repr((
                entry.theta, entry.terminal, entry.probe_crossings, entry.n_accepted,
                entry.n_rejected, entry.model,
            )))
        else:
            parts.append(repr(entry))
    return parts


def test_run_paths_equal_fresh_generator_replays(monkeypatch):
    # one re-keyed generator carries the run; each path equals its replay
    # on a fresh Philox(key=[seed, index]), whatever the paths before it drew
    fam, track = _balanced_setup()
    span, probe, seed = (0.0, 3.0), 0.2, 71
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(draw_path(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(ensemble, "draw_path", recording)
    run_ensemble(fam, track, 40, span, seed, time_grid_n=11, probe_radius=probe)
    sampler = make_initial_sampler(fam, track, span[0])
    for index, path in enumerate(drawn):
        replay = draw_path(
            fam, track, span, seed, index, sampler=sampler, probe_radius=probe
        )
        assert _path_fingerprint(path) == _path_fingerprint(replay)
    starts = {type(p.entries[0]).__name__ if p.entries else "parked" for p in drawn}
    assert {"VacuumInterval", "TrajectorySegment"} <= starts
    assert any(p.emissions for p in drawn)


def test_rekeyed_generator_matches_fresh_philox():
    seed, index = 2**63 + 7, 2**40
    used = np.random.Generator(np.random.Philox(5))
    used.random()
    used.integers(0, 10, dtype=np.uint32)  # leaves half a word buffered
    assert used.bit_generator.state["has_uint32"] == 1
    fresh = np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )
    for rng in (ensemble._path_stream(seed, index, used), fresh):
        assert rng.bit_generator.state["has_uint32"] == 0
    for _ in range(3):
        assert used.random() == fresh.random()
        assert used.standard_exponential() == fresh.standard_exponential()
        assert used.integers(0, 2**62) == fresh.integers(0, 2**62)
        assert used.integers(0, 10, dtype=np.uint32) == fresh.integers(
            0, 10, dtype=np.uint32
        )


#: Philox keys at the edges of the (seed, index) range and inside it.
_KEYS = [
    (0, 0), (808, 5), (2**63 + 7, 2**40), (2**64 - 1, 2**64 - 1),
    (1, 2**64 - 1), (2**64 - 1, 0),
    (np.uint64(2**64 - 1), 3), (np.int64(2**62), np.int64(9)),
]


def _philox_state(rng):
    """A Philox state with its arrays as lists, comparable with ==."""
    state = rng.bit_generator.state
    return {
        k: {i: np.asarray(w).tolist() for i, w in v.items()} if isinstance(v, dict)
        else np.asarray(v).tolist()
        for k, v in state.items()
    }


@pytest.mark.parametrize("seed, index", _KEYS)
def test_tuple_key_matches_fresh_philox(seed, index):
    used = np.random.Generator(np.random.Philox(5))
    used.standard_exponential()
    rekeyed = ensemble._path_stream(seed, index, used)
    fresh = np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )
    replay = ensemble._path_stream(seed, index, None)
    for rng in (rekeyed, replay):
        assert _philox_state(rng) == _philox_state(fresh)
    first = [rekeyed.random() for _ in range(9)] + [rekeyed.standard_exponential()]
    again = [replay.random() for _ in range(9)] + [replay.standard_exponential()]
    expected = [fresh.random() for _ in range(9)] + [fresh.standard_exponential()]
    assert first == expected and again == expected


@pytest.mark.parametrize(
    "seed, index",
    [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (np.int64(-1), 0),
     (1.5, 0), (1.0, 0), ("1", 0), (None, 0), (1, 0.5)],
)
def test_path_stream_refuses_keys_outside_the_range(seed, index):
    for rng in (None, np.random.Generator(np.random.Philox(0))):
        with pytest.raises(DomainError):
            ensemble._path_stream(seed, index, rng)


def test_run_refuses_a_non_integer_seed_and_keeps_numpy_integers():
    # a truncated 1.5 would replay seed 1's paths
    fam, track = _balanced_setup()
    for seed in (1.5, 1.9):
        with pytest.raises(DomainError, match="integer"):
            run_ensemble(fam, track, 20, (0.0, 3.0), seed, time_grid_n=11)
    base = run_ensemble(fam, track, 60, (0.0, 3.0), 12, time_grid_n=11)
    for seed in (np.int64(12), np.uint64(12)):
        same = run_ensemble(fam, track, 60, (0.0, 3.0), seed, time_grid_n=11)
        assert _stats_equal(base, same)


def test_run_refuses_counts_the_config_refuses():
    fam, track = _balanced_setup()
    with pytest.raises(DomainError, match="n_paths"):
        run_ensemble(fam, track, -3, (0.0, 3.0), 1)
    for n in (0, 1):
        with pytest.raises(DomainError, match="time_grid_n"):
            run_ensemble(fam, track, 10, (0.0, 3.0), 1, time_grid_n=n)


def test_run_builds_one_generator(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(args or kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    fam, track = _balanced_setup()
    run_ensemble(fam, track, 40, (0.0, 3.0), 9, time_grid_n=11)
    assert len(built) == 1


def test_vacuum_counts_equal_oracle_occupancy(monkeypatch):
    # hand-made paths on the run's grid 0, 0.1, ..., 1: spans ending on
    # grid points, zero-length spans on and off a grid point, spans that
    # touch t_a and t_b
    fam, track = _balanced_setup()
    grid = np.linspace(0.0, 1.0, 11)
    flight = TrajectorySegment(
        t=np.array([0.0, 1.0]), r=np.array([0.1, 0.1]), theta=0.0,
        phi=np.zeros(2), terminal=Absorbed(1.0), model=fam.at(1.0, 1j),
    )
    span_sets = [
        [(0.0, 1.0)],
        [(0.0, 0.0)],
        [(1.0, 1.0)],
        [(grid[3], grid[3])],
        [(0.35, 0.35)],
        [(0.0, grid[2]), (grid[4], grid[7])],
        [(0.05, 0.25), (grid[6], grid[6]), (0.95, 1.0)],
        [(0.0, 0.3), (0.7, 0.7), (np.nextafter(grid[8], 2.0), 1.0)],
        [(np.nextafter(grid[5], 0.0), grid[5])],
        [],
    ]
    paths = []
    for spans in span_sets:
        entries = []
        for a, b in spans:
            entries += [VacuumInterval(a, b), flight]
        paths.append(ProcessPath((0.0, 1.0), tuple(entries[:-1]), ()))

    monkeypatch.setattr(
        ensemble, "draw_path", lambda fam, track, span, seed, index, **kw: paths[index]
    )
    stats = run_ensemble(fam, track, len(paths), (0.0, 1.0), 1, time_grid_n=11)
    want = sum(occupancy(p, grid).astype(np.int64) for p in paths)
    assert np.array_equal(stats.vacuum_counts, want)
    assert stats.vacuum_counts.dtype == np.int64


def test_draw_radius_equals_numpy_interp():
    for cp in (1j, -1j, 0.3 + 1j):
        fam = ModelFamily(P96, 1.0)
        cm, cp = normalized_amplitudes(P96, 1.0, cp, 1.0, 0.3)
        track = CoefficientTrack.constant(P96, cm, cp, math.sqrt(0.7), 0.0, 1.0)
        sampler = make_initial_sampler(fam, track, 0.0)
        cum, s_grid = np.array(sampler.cum), np.array(sampler.s_grid)
        us = [0.0, 1.0, *np.random.default_rng(3).random(4000)]
        for u in us:
            target = sampler.lo + u * (cum[-1] - sampler.lo)
            want = float(np.interp(target, cum, s_grid)) ** sampler.inv_exponent
            assert sampler.draw_radius(u) == want
    # a target on a knot whose chord slope overflows: the knot value, not
    # inf * 0
    sampler.cum, sampler.s_grid, sampler.lo = [0.0, 5e-324, 1.0], [0.0, 1.0, 2.0], 0.0
    want = np.interp(0.0, sampler.cum, sampler.s_grid)
    assert sampler.draw_radius(0.0) == 0.0 == want


def test_snapshot_outside_window_rejected():
    fam, track = _balanced_setup()
    with pytest.raises(DomainError, match="snapshot_time"):
        run_ensemble(fam, track, 10, (0.0, 3.0), seed=1, snapshot_time=99.0)


def test_probe_radius_outside_ball_rejected():
    fam, track = _balanced_setup()
    for n_paths in (0, 10):
        with pytest.raises(DomainError, match="probe_radius"):
            run_ensemble(fam, track, n_paths, (0.0, 3.0), seed=1, probe_radius=-1e-4)


def test_mismatched_track_params_rejected():
    _, track = _balanced_setup()
    with pytest.raises(DomainError, match="params"):
        make_initial_sampler(ModelFamily(canonical_params(-0.93), 1.0), track, 0.0)


def test_unnormalized_state_rejected():
    fam = ModelFamily(P96, 1.0)
    track = CoefficientTrack.constant(P96, 1.0, 1j, 1.0, 0.0, 1.0)
    with pytest.raises(NormalizationError):
        make_initial_sampler(fam, track, 0.0)


def test_sampler_honours_draw_floor():
    _, track = _balanced_setup()
    r_min = 1e-6
    fam = ModelFamily(P96, 1.0, r_min=r_min)
    sampler = make_initial_sampler(fam, track, 0.0)
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


def test_first_flight_starts_at_the_drawn_position():
    # replay each path's stream (the vacuum draw, the radius, the angles):
    # a particle path's first flight starts exactly at (t_a, r0, theta0, phi0)
    span, seed = (0.0, 0.5), 77
    for fam, track in (_balanced_setup(), _ingoing_setup()[:2]):
        sampler = make_initial_sampler(fam, track, span[0])
        started = 0
        for index in range(80):
            rng = ensemble._path_stream(seed, index, None)
            if rng.random() < sampler.vac_weight:
                continue
            r0 = sampler.draw_radius(rng.random())
            theta0, phi0 = sample_emission_angles(rng)
            if r0 >= 0.5 * fam.r_cut:
                continue
            path = draw_path(fam, track, span, seed, index, sampler=sampler)
            flight = path.entries[0]
            assert isinstance(flight, TrajectorySegment)
            start = (flight.t[0], flight.r[0], flight.theta, flight.phi[0])
            assert start == (span[0], r0, theta0, phi0), index
            started += 1
        assert started >= 15


def _criterion_9_setup():
    # criterion 9's track: absorbing flux over the window in which the
    # influx at the probe radius 1e-4 holds steady
    fam, _, cm, cp = _ingoing_setup()
    t_half = abs(time_from_radius(P96, cm, cp, 0.5 * fam.r_cut))
    t_probe = abs(time_from_radius(P96, cm, cp, 1e-4))
    c_r = current_coeffs(P96, cm, cp).C_r
    window = min(0.8 * (t_half - t_probe), 0.6 / abs(4.0 * math.pi * c_r))
    track = CoefficientTrack.balanced_constant_flux(P96, cm, cp, 0.3, 0.0, window)
    return fam, track


def test_closed_form_segment_digest_is_stable():
    # the arrays, dtypes, terminals, crossings and step counts of the
    # closed-form segments draw_path returns: criterion 8's balanced
    # track with a probe at 0.2 (launched and emitted flights leaving the
    # inner region or running out of time) and criterion 9's ingoing
    # track with a probe at 1e-4 (absorptions through the probe)
    import hashlib

    h = hashlib.sha256()
    kinds, emitted, crossed = set(), 0, 0
    for (fam, track), probe in ((_balanced_setup(), 0.2), (_criterion_9_setup(), 1e-4)):
        span = (track.t_start, track.t_end)
        sampler = make_initial_sampler(fam, track, span[0])
        for index in range(100):
            path = draw_path(
                fam, track, span, 31, index, sampler=sampler, probe_radius=probe
            )
            emitted += len(path.emissions)
            for seg in path.segments:
                assert seg.n_accepted == 0
                kinds.add(type(seg.terminal).__name__)
                crossed += len(seg.probe_crossings)
                for values in (seg.t, seg.r, seg.phi):
                    h.update(values.dtype.str.encode())
                    h.update(values.tobytes())
                h.update(repr(
                    (seg.terminal, seg.probe_crossings, seg.n_accepted)
                ).encode())
    assert kinds == {"Absorbed", "LeftInnerRegion", "TimeExhausted"}
    assert emitted > 0 and crossed > 0
    assert h.hexdigest() == (
        "7911ee04990948773c45aeb8f6006304fcd3e42138677f13c44b7414fa6bc6f8"
    )


def test_parked_draws_outside_modeled_region():
    # the ingoing state carries mass beyond r_cut/2; such draws park
    fam, track, _, _ = _ingoing_setup()
    sampler = make_initial_sampler(fam, track, 0.0)
    parked = in_flight = 0
    for index in range(60):
        path = draw_path(fam, track, (0.0, 0.01), 65, index, sampler=sampler)
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
    z = sector0_comparison(stats, track).z_scores
    beyond = float(np.mean(np.abs(z) > 4.0))
    assert beyond <= 0.01, f"fraction beyond 4 sigma: {beyond}"
    # same run against the oracle curve instead of the exact weight
    _, oracle = master_equation_occupancy(track, fam, (0.0, 3.0), time_grid_n=31)
    z = sector0_comparison(stats, track, expected=oracle).z_scores
    assert float(np.mean(np.abs(z) > 4.0)) <= 0.01


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


def test_master_equation_matches_ode_solver_on_drifting_track():
    # an emission-only spline track whose phase drifts inside every grid
    # interval; the window starts and ends off the knots
    from scipy.integrate import solve_ivp

    from belljump.jump_process import total_jump_rate

    fam = ModelFamily(P96, 1.0)
    t = np.linspace(0.0, 3.0, 33)
    phase = 0.5 * math.pi + 0.7 * np.sin(2.0 * math.pi * t / 1.5)
    track = CoefficientTrack(
        P96, t, np.full(33, 0.2), 0.2 * np.exp(1j * phase), np.sqrt(0.9 - 0.05 * t)
    )
    span = (0.2, 2.9)
    times, p0 = master_equation_occupancy(track, fam, span, time_grid_n=41)
    sol = solve_ivp(
        lambda s, y: [-total_jump_rate(track, s) * y[0]],
        span,
        [track.vacuum_weight(span[0])],
        t_eval=times,
        rtol=1e-12,
        atol=1e-14,
    )
    assert p0[-1] < 0.9 * p0[0]  # the hazard is not negligible
    assert np.max(np.abs(p0 - sol.y[0])) < 1e-9
    # exact up to rounding: the survival from adaptive quadrature
    exact = p0[0] * np.exp(-cumulative_hazard(track, span[0], times))
    assert np.max(np.abs(p0 - exact)) < 1e-14


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


def test_master_equation_refuses_an_empty_vacuum_and_an_overfull_one():
    fam = ModelFamily(P96, 1.0)
    # psi0 = 0 under positive flux: the emission rate is unbounded
    empty = CoefficientTrack.constant(P96, 1.0, 1j, 0.0, 0.0, 1.0)
    with pytest.raises(VacuumEmpty):
        master_equation_occupancy(empty, fam, (0.0, 1.0))
    # ingoing flux into a vacuum weight of 0.99: p0 would pass 1 long
    # before the last shell arrives
    full = CoefficientTrack.constant(P96, 1.0, -1j, math.sqrt(0.99), 0.0, 1.0)
    with pytest.raises(DomainError, match="window too long"):
        master_equation_occupancy(full, fam, (0.0, 1.0))


def test_master_equation_refuses_inflow_between_output_times():
    # Im dips to -1.0e-3 between the 11 output times and is +2.5e-3 at
    # each of them: the ingoing stretches carry influx the oracle omits
    fam = ModelFamily(P96, 1.0)
    t = np.linspace(0.0, 3.0, 401)
    phase = 0.5 * math.pi - 2.0 * np.sin(math.pi * t / 0.1) ** 2
    track = CoefficientTrack(
        P96, t, np.full(401, 0.05), 0.05 * np.exp(1j * phase), np.sqrt(0.9 - 0.05 * t)
    )
    assert np.all(track.im_cross(np.linspace(0.0, 3.0, 11)) > 0.0)
    assert np.min(track.im_cross(t)) < -1e-3
    with pytest.raises(DomainError, match="between the output times"):
        master_equation_occupancy(track, fam, (0.0, 3.0), time_grid_n=11)


def _drifting_track(n, amp=0.2):
    t = np.linspace(0.0, 3.0, n)
    phase = 0.5 * math.pi + 0.7 * np.sin(2.0 * math.pi * t / 1.5)
    return CoefficientTrack(
        P96, t, np.full(n, amp), amp * np.exp(1j * phase), np.sqrt(0.9 - 0.05 * t)
    )


def test_drifting_snapshot_radii_digest_is_stable():
    # snapshot radii of a psi_t run, whose flights are DP5 flights: each
    # is radius_at on the flight that covers the snapshot time, read from
    # DP5's continuous extension over the step that holds it.  Sector
    # mass 0.1 at t = 0, so the two-sector state is normalized there
    import hashlib

    amp = abs(normalized_amplitudes(P96, 1.0, 1j, 1.0, 0.1)[0])
    stats = run_ensemble(
        ModelFamily(P96, 1.0), _drifting_track(33, amp), 300, (0.0, 3.0), 4242,
        time_grid_n=31, tol=1e-6, snapshot_time=1.5,
    )
    assert len(stats.snapshot_radii) == 23
    assert hashlib.sha256(stats.snapshot_radii.tobytes()).hexdigest() == (
        "88f61856c13e239a33bcbc95f3a1c8f1350a6ab737fe3d0b88c944eae2d15012"
    )


@pytest.mark.parametrize(
    "track, n_times, digest",
    [
        # criterion 8's track: 3 of its 127 inner knots are output times
        (_balanced_setup()[1], 101, "71c4ca86980239ca"),
        # every inner knot is an output time, so each edge comes twice
        (_drifting_track(33), 65, "6dad0cf7f48144d1"),
    ],
    ids=["criterion_8", "shared_knots"],
)
def test_master_equation_occupancy_bits_are_pinned(track, n_times, digest):
    import hashlib

    fam = ModelFamily(P96, 1.0)
    times, p0 = master_equation_occupancy(track, fam, (0.0, 3.0), n_times)
    got = hashlib.sha256(times.tobytes() + p0.tobytes()).hexdigest()[:16]
    assert got == digest


def test_oracle_rule_is_numpys_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert ensemble._GL_NODES.tobytes() == nodes.tobytes()
    assert ensemble._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_equivariance_check_loads_no_lazy_numpy_submodule():
    # numpy.ma (through np.unique) and numpy.polynomial (through leggauss)
    # are imported on first use; the criterion-8 check uses neither
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "from belljump import canonical_params\n"
        "from belljump.ensemble import (master_equation_occupancy,\n"
        "    normalized_amplitudes, run_ensemble, sector0_comparison)\n"
        "from belljump.jump_process import CoefficientTrack\n"
        "from belljump.wavefunction import ModelFamily\n"
        "p = canonical_params(0.96)\n"
        "fam = ModelFamily(p, 1.0)\n"
        "cm, cp = normalized_amplitudes(p, 1.0, 1j, 1.0, 0.3)\n"
        "track = CoefficientTrack.balanced_constant_flux(p, cm, cp, 0.7, 0.0, 3.0)\n"
        "stats = run_ensemble(fam, track, 50, (0.0, 3.0), seed=808, tol=1e-6)\n"
        "_, oracle = master_equation_occupancy(track, fam, (0.0, 3.0), 101)\n"
        "sector0_comparison(stats, track, expected=oracle)\n"
        "sector0_comparison(stats, track)\n"
        "print([n for n in ('numpy.ma', 'numpy.polynomial') if n in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# ---------------------------------------------------------------------
# the ingoing window: flux, snapshot, oracle
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def ingoing_run():
    fam, track, cm, cp = _ingoing_setup()
    t_half = abs(time_from_radius(P96, cm, cp, 0.5))
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
    bare = EnsembleStats.empty(np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError, match="without a probe radius"):
        flux_report(bare, track)
    varying = CoefficientTrack(
        P96,
        np.linspace(0.0, 1.0, 33),
        1.0 + np.linspace(0.0, 1.0, 33),
        -1j * np.ones(33),
        np.full(33, 0.5),
    )
    with pytest.raises(DomainError):
        flux_report(stats, varying)


def test_flux_report_refuses_an_empty_ensemble(ingoing_run):
    # no paths carry no flux estimate: both reports refuse, rather than
    # an estimate of 0 or a report passing with z = 0 and sigma = inf
    fam, track, _, window = ingoing_run
    empty = run_ensemble(fam, track, 0, (0.0, window), 1, probe_radius=1e-4)
    for report in (flux_report, sector0_comparison):
        with pytest.raises(InsufficientEvents, match="no paths"):
            report(empty, track)


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
