"""The benchmark's tracer patches package attributes by name; a rename in
the package, or a flight that bypasses the names the tracer counts, must
fail here, not only in traced benchmark runs."""

import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from belljump import canonical_params, ensemble
from belljump.jump_process import CoefficientTrack
from belljump.wavefunction import ModelFamily

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_restore():
    tracer = _load_tracer().Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def _draws(family, track, n_paths, probe_radius):
    # through ensemble.draw_path as it is bound now, a tracer's wrapper
    # when one is installed
    span = (track.t_start, track.t_end)
    sampler = ensemble.make_initial_sampler(family, track, span[0])
    return [
        ensemble.draw_path(
            family, track, span, 5, i, sampler=sampler, probe_radius=probe_radius
        )
        for i in range(n_paths)
    ]


def test_tracer_counts_every_flight_the_paths_hold():
    # every flight of a path is a call through one of the two names the
    # tracer counts flights at; a flight routed around them would show
    # here as a path segment the tracer missed.  Closed-form flights,
    # launched and emitted, on a balanced fixed track with a probe;
    # radial DP5 flights on a drifting grid track
    p = canonical_params(0.96)
    family = ModelFamily(p, 1.0)
    cm, cp = ensemble.normalized_amplitudes(p, 1.0, 1j, 1.0, 0.3)
    fixed = CoefficientTrack.balanced_constant_flux(p, cm, cp, 0.7, 0.0, 3.0)
    # sector mass 0.1 at t = 0, where the phase of c_plus is pi/2
    scale = abs(ensemble.normalized_amplitudes(p, 1.0, 1j, 1.0, 0.1)[0])
    t = np.linspace(0.0, 3.0, 33)
    phase = 0.5 * math.pi + 0.7 * np.sin(2.0 * math.pi * t / 1.5)
    drifting = CoefficientTrack(
        p, t, np.full(33, scale), scale * np.exp(1j * phase), np.sqrt(0.9 - 0.05 * t)
    )

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        paths = _draws(family, fixed, 300, 0.2)
        paths += _draws(family, drifting, 200, None)
    finally:
        tracer.restore()

    segments = [seg for path in paths for seg in path.segments]
    closed = [seg for seg in segments if seg.n_accepted == 0]
    assert closed and len(closed) < len(segments)
    assert any(seg.probe_crossings for seg in closed)
    assert any(path.emissions for path in paths)
    got = tracer.metrics()
    assert got["ensemble.paths"] == len(paths)
    assert got["trajectory.flights"] == len(segments)
    kinds = Counter(type(seg.terminal).__name__ for seg in segments)
    assert (
        got["trajectory.flights_absorbed"],
        got["trajectory.flights_left_inner"],
        got["trajectory.flights_time_exhausted"],
    ) == (kinds["Absorbed"], kinds["LeftInnerRegion"], kinds["TimeExhausted"])
    assert got["trajectory.steps_accepted"] == sum(seg.n_accepted for seg in segments)
    assert got["trajectory.steps_rejected"] == sum(seg.n_rejected for seg in segments)
    assert got["trajectory.probe_crossings"] == sum(
        len(seg.probe_crossings) for seg in segments
    )


@pytest.mark.parametrize("flux", ["outgoing", "ingoing"])
def test_tracer_counts_what_run_ensemble_reports(flux):
    # the traced bench run checks its counts against the totals of an
    # untraced run of the same seed (bench/run.py's cross_check); a
    # run_ensemble that drew its paths around ensemble.draw_path, or
    # flew them around the names the tracer wraps, would fail it.  The
    # balanced outgoing track emits and crosses its probe outward, the
    # ingoing one absorbs and crosses inward
    p = canonical_params(0.96)
    family = ModelFamily(p, 1.0)
    sector = {"outgoing": (1j, 0.3), "ingoing": (-1j, 0.7)}[flux]
    cm, cp = ensemble.normalized_amplitudes(p, 1.0, sector[0], 1.0, sector[1])
    track = CoefficientTrack.balanced_constant_flux(p, cm, cp, 1.0 - sector[1], 0.0, 1.0)
    n_paths = 60

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        stats = ensemble.run_ensemble(
            family, track, n_paths, (0.0, 1.0), 7, probe_radius=0.05
        )
    finally:
        tracer.restore()

    got = tracer.metrics()
    crossings = len(stats.inward_crossing_times) + len(stats.outward_crossing_times)
    events = len(stats.emission_times) + len(stats.absorption_times)
    assert crossings > 0 and events > 0
    assert got["ensemble.paths"] == n_paths
    assert got["ensemble.emissions"] == len(stats.emission_times)
    assert got["ensemble.absorptions"] == len(stats.absorption_times)
    assert got["trajectory.probe_crossings"] == crossings
