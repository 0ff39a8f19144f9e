"""Deterministic flights: exact rates, closed-form primitives, the
adaptive integrator, and the power-law fitter."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belljump import (
    DegenerateError,
    DomainError,
    FitError,
    OriginError,
    StepFailure,
    canonical_params,
    circling_sign,
)
from belljump import trajectory
from belljump.trajectory import (
    Absorbed,
    LeftInnerRegion,
    SphericalState,
    TimeExhausted,
    TrajectorySegment,
    _make_rhs,
    azimuth_from_radius,
    emit_trajectory,
    fit_power_law,
    integrate,
    time_from_radius,
)
from belljump.jump_process import CoefficientTrack
from belljump.wavefunction import (
    ModelFamily,
    ModelWavefunction,
    current_weights,
    overlap_parts,
    reduced_amplitudes,
    span_currents,
)
from oracles import (
    PoleError,
    SignError,
    asymptotic_solution,
    ode_rhs,
    phi_rate_correction,
    radius_from_time,
    time_dependent_flight,
    velocity_field,
)


# ---------------------------------------------------------------------
# exact rates
# ---------------------------------------------------------------------

def test_ode_rhs_frozen_example():
    # q = 0.96, c = (1, i), r = 1e-4: dr/dt = 2 B u/(1 + u^2), u = r^2B
    p = canonical_params(0.96)
    state = SphericalState(0.0, 1e-4, math.pi / 2, 0.0)
    dr, dtheta, dphi = ode_rhs(p, 1.0, 1j, state)
    assert dr == 0.003222356946821116
    assert dtheta == 0.0
    # leading azimuthal rate is -q sgn / r
    assert abs(dphi + p.q * p.sign_mk / 1e-4) < 5e-3 * abs(dphi)
    assert math.copysign(1, dphi) == circling_sign(p)


def test_ode_rhs_guards():
    p = canonical_params(0.96)
    with pytest.raises(OriginError):
        ode_rhs(p, 1.0, 1j, SphericalState(0.0, 0.0, 1.0, 0.0))
    with pytest.raises(DegenerateError):
        ode_rhs(p, 1.0, 2.0, SphericalState(0.0, 1e-4, 1.0, 0.0))
    with pytest.raises(PoleError):
        ode_rhs(p, 1.0, 1j, SphericalState(0.0, 1e-4, 1e-13, 0.0))


def test_phi_rate_correction_matches_series():
    # dphi/dt * r + q sgn ~= correction * r^2B for small r
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = canonical_params(math.copysign(rng.uniform(0.87, 0.999), rng.normal()))
        cm = complex(rng.normal(), rng.normal())
        cp = complex(rng.normal(), rng.normal())
        if (cm.conjugate() * cp).imag == 0.0:
            continue
        corr = phi_rate_correction(p, cm, cp)
        # truncation error is O(r^2B); place r so that r^2B = 1e-7
        r = 10.0 ** (-7.0 / (2.0 * p.B))
        _, _, dphi = ode_rhs(p, cm, cp, SphericalState(0.0, r, 1.0, 0.0))
        got = (dphi * r + p.q * p.sign_mk) / r ** (2.0 * p.B)
        assert abs(got - corr) < 1e-4 * (1.0 + abs(corr))
    with pytest.raises(DegenerateError):
        phi_rate_correction(canonical_params(0.9), 0.0, 1j)


def test_integrator_rhs_matches_oracles():
    # the integrator's (ds/dt, dphi/dt) pointwise, ds/dt = (1-2B) r^(-2B)
    # dr/dt: without subleading terms against the pure-model rates,
    # componentwise; with them against the spinor-contraction guiding
    # field v = j/rho, relative to the speed |v| (the contraction loses
    # the small v_r near the source to cancellation against rho)
    rng = np.random.default_rng(43)
    labels = ((-0.5, -1), (-0.5, 1), (0.5, -1), (0.5, 1))
    worst = 0.0
    for k in range(40):
        p = canonical_params(
            math.copysign(rng.uniform(0.87, 0.999), rng.normal()), *labels[k % 4]
        )
        cm = complex(rng.normal(), rng.normal())
        cp = complex(rng.normal(), rng.normal())
        r = math.exp(rng.uniform(math.log(1e-8), math.log(0.5)))
        theta = rng.uniform(0.1, math.pi - 0.1)
        u, one = r ** (2.0 * p.B), 1.0 - 2.0 * p.B
        if k % 2 == 0:
            ds_dt, dphi_dt = _make_rhs(p, (0j, 0j), (cm, cp))(0.0, r**one)
            dr_dt, _, want_phi = ode_rhs(p, cm, cp, SphericalState(0.0, r, theta, 0.0))
            want_s = one * dr_dt / u
            worst = max(
                worst,
                abs(ds_dt - want_s) / abs(want_s),
                abs(dphi_dt - want_phi) / abs(want_phi),
            )
        else:
            sub = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
            ds_dt, dphi_dt = _make_rhs(p, sub, (cm, cp))(0.0, r**one)
            model = ModelWavefunction(p, cm, cp, 1.0, sub)
            v_r, _, v_phi = velocity_field(model, r, theta, 0.3)
            speed = math.hypot(v_r, v_phi)
            worst = max(
                worst,
                abs(ds_dt * u / one - v_r) / speed,
                abs(dphi_dt * r * math.sin(theta) - v_phi) / speed,
            )
    assert worst < 1e-10


def _oracle_rhs(params, subleading, track):
    # the guiding field fed track.coefficients(t) at each stage, through
    # reduced_amplitudes and span_currents with the operations _make_rhs
    # applies to their results
    one = 1.0 - 2.0 * params.B
    weights = current_weights(params)

    def field(t, s):
        r = s ** (1.0 / one)
        a, c = reduced_amplitudes(params, *track.coefficients(t), r, subleading)
        j_r, j_phi_over_sin, rho = span_currents(
            weights, a.real, a.imag, c.real, c.imag
        )
        return one * r ** (-2.0 * params.B) * j_r / rho, j_phi_over_sin / (r * rho)

    return field


def test_track_field_gives_the_bits_of_coefficients(monkeypatch):
    # one psi_t field reads the track's pieces itself, keeping the piece
    # of its last read: at random times, on every knot, outside the grid
    # (clamped) and in falling order (the absorption extrapolation reads
    # behind the step) it gives the bits of the oracle fed
    # track.coefficients(t), and of the field of that fixed pair.  On the
    # rough track a piece's end rarely repeats the next knot's bits
    track = _drifting_track()
    p = track.params
    one = 1.0 - 2.0 * p.B
    rng = np.random.default_rng(97)
    grid = np.cumsum(rng.uniform(0.01, 0.1, 40))
    z = lambda: rng.normal(size=40) + 1j * rng.normal(size=40)
    rough = CoefficientTrack(p, grid, z(), z(), z())
    for tr in (track, rough):
        knots = tr.times
        a, b = knots[0], knots[-1]
        edges = (a - 1.0, a - 1e-12, b, b + 1e-12, b + 2.0, math.nextafter(b, a))
        times = np.concatenate((
            rng.uniform(a - 0.5, b + 0.5, 200), knots, knots[::-1], edges,
            np.sort(rng.uniform(a, b, 100))[::-1],
            knots[:-1] + 0.4 * np.diff(knots),
        ))
        for sub in ((0j, 0j), (0.05, 0.05j)):
            field = _make_rhs(p, sub, tr)
            oracle = _oracle_rhs(p, sub, tr)
            for t in times.tolist():
                s = rng.uniform(1e-8, 0.5) ** one
                got = repr(field(t, s))
                assert got == repr(oracle(t, s))
                assert got == repr(_make_rhs(p, sub, tr.coefficients(t))(t, s))
    # whole flights step the same bits on the oracle field: emitted, and
    # ingoing to absorption, whose extrapolation reads the field behind
    # the step
    inward = CoefficientTrack(
        p, track.times, track.c_minus_values, track.c_plus_values.conjugate(),
        track.psi0_values,
    )
    family = ModelFamily(p, 1.0)

    def flight(tr, start):
        model = family.at(*tr.coefficients(0.4))
        if start is None:
            seg = emit_trajectory(model, 0.4, 1.0, 0.3, 1e-8, t_end=3.0, refresh=tr)
        else:
            seg = integrate(model, start, 3.0, 1e-8, probe_radius=0.01, refresh=tr)
        return (
            seg.t.tobytes(), seg.r.tobytes(), seg.phi.tobytes(), seg.terminal,
            seg.probe_crossings, seg.n_accepted, seg.n_rejected,
        )

    cases = ((track, None), (inward, SphericalState(0.4, 0.05, 1.0, 0.3)))
    stepped = [flight(tr, start) for tr, start in cases]
    monkeypatch.setattr(trajectory, "_make_rhs", _oracle_rhs)
    assert stepped == [flight(tr, start) for tr, start in cases]
    assert all(got[5] > 10 for got in stepped)
    assert isinstance(stepped[1][3], Absorbed) and stepped[1][4]


# ---------------------------------------------------------------------
# closed-form primitives
# ---------------------------------------------------------------------

def test_time_from_radius_derivative_is_inverse_rate():
    p = canonical_params(-0.93, -0.5, 1)
    cm, cp = 0.8 - 0.3j, 0.4 + 0.9j
    h = 1e-6
    for r in (1e-3, 1e-2, 0.2):
        dt_dr = (
            time_from_radius(p, cm, cp, r * (1 + h))
            - time_from_radius(p, cm, cp, r * (1 - h))
        ) / (2.0 * h * r)
        dr_dt, _, _ = ode_rhs(p, cm, cp, SphericalState(0.0, r, 1.0, 0.0))
        assert abs(dt_dr * dr_dt - 1.0) < 1e-8


def test_time_sign_follows_flow_direction():
    p = canonical_params(0.96)
    assert time_from_radius(p, 1.0, 1j, 0.1) > 0.0  # outgoing
    assert time_from_radius(p, 1.0, -1j, 0.1) < 0.0  # ingoing
    with pytest.raises(OriginError):
        time_from_radius(p, 1.0, 1j, 0.0)
    with pytest.raises(DegenerateError):
        time_from_radius(p, 1.0, 1.0, 0.1)


def test_radius_time_round_trip():
    p = canonical_params(0.96)
    for cm, cp in ((1.0, 1j), (0.5 + 0.5j, -1j), (1.0, -0.7j)):
        for r in (1e-8, 1e-4, 0.3):
            dt = time_from_radius(p, cm, cp, r)
            back = radius_from_time(p, cm, cp, dt, r_max=0.5)
            assert abs(back - r) < 1e-12 * r
    assert radius_from_time(p, 1.0, 1j, 0.0, r_max=0.5) == 0.0


def test_radius_from_time_guards():
    p = canonical_params(0.96)
    with pytest.raises(SignError):
        radius_from_time(p, 1.0, 1j, -0.1, r_max=0.5)
    with pytest.raises(DomainError):
        radius_from_time(p, 1.0, 1j, 1e9, r_max=0.5)
    with pytest.raises(DegenerateError):
        radius_from_time(p, 1.0, 1.0, 0.1, r_max=0.5)


def test_azimuth_matches_integrated_rate():
    # independent route: quad of dphi/dr = (dphi/dt)/(dr/dt)
    from scipy.integrate import quad

    p = canonical_params(0.95, 0.5, -1)
    cm, cp = 1.0 - 0.2j, 0.3 + 1.1j

    def dphi_dr(r):
        dr_dt, _, dphi_dt = ode_rhs(p, cm, cp, SphericalState(0.0, r, 1.0, 0.0))
        return dphi_dt / dr_dt

    r1, r2 = 1e-4, 1e-2
    want, err = quad(dphi_dr, r1, r2, limit=400)
    got = azimuth_from_radius(p, cm, cp, r2) - azimuth_from_radius(p, cm, cp, r1)
    assert abs(got - want) < max(1e-8 * abs(want), 10.0 * abs(err))


def test_asymptotic_solution_prefactor():
    p = canonical_params(0.96)
    cm, cp = 1.0, 1j
    # the exact r(t) approaches the asymptotic power law as t -> 0+
    for dt in (1e-10, 1e-13):
        exact = radius_from_time(p, cm, cp, dt, r_max=0.4)
        asym = asymptotic_solution(p, cm, cp, 1.0, 0.0, dt)
        assert abs(asym.r - exact) < 2e-2 * exact * (dt / 1e-10) ** 0.1
        assert asym.theta == 1.0
    with pytest.raises(SignError):
        asymptotic_solution(p, cm, cp, 1.0, 0.0, -1e-6)
    with pytest.raises(DegenerateError):
        asymptotic_solution(p, 0.0, 1j, 1.0, 0.0, 1e-6)


# ---------------------------------------------------------------------
# the integrator
# ---------------------------------------------------------------------

def _model(q=0.96, cm=1.0, cp=1j, r_cut=1.0, **kw):
    return ModelWavefunction(canonical_params(q), cm, cp, r_cut, **kw)


def test_outgoing_integration_matches_closed_forms():
    m = _model()
    seg = emit_trajectory(m, t0=0.0, theta0=0.9, phi0=0.25, tol=1e-10)
    assert isinstance(seg.terminal, LeftInnerRegion)
    assert abs(seg.r[-1] - 0.5) < 1e-9
    # every accepted sample obeys t(r) and phi(r)
    p = m.params
    worst_t = worst_phi = 0.0
    rows = list(zip(seg.t, seg.r, seg.theta, seg.phi))
    for t, r, theta, phi in rows[:: max(1, len(seg.t) // 40)]:
        want_t = time_from_radius(p, m.c_minus, m.c_plus, r)
        worst_t = max(worst_t, abs(t - want_t) / max(abs(want_t), 1e-12))
        want_phi = 0.25 + azimuth_from_radius(p, m.c_minus, m.c_plus, r)
        worst_phi = max(worst_phi, abs(phi - want_phi) / max(abs(want_phi), 1.0))
        assert theta == 0.9
    assert worst_t < 1e-8
    assert worst_phi < 1e-6


def test_ingoing_integration_absorbed_at_closed_form_time():
    m = _model(cp=-1j, r_min=1e-9)
    p = m.params
    r0 = 1e-3
    start = SphericalState(0.0, r0, 1.2, 0.0)
    seg = integrate(m, start, t_end=10.0, tol=1e-10)
    assert isinstance(seg.terminal, Absorbed)
    # arrival time: |t(r0)| for the ingoing branch
    want = -time_from_radius(p, m.c_minus, m.c_plus, r0)
    assert abs(seg.terminal.t0 - want) < 1e-8 * want
    assert np.all(np.diff(seg.r) < 0.0)


def test_time_exhausted_terminal():
    m = _model()
    start = SphericalState(0.0, 0.01, 1.0, 0.0)
    t_half = time_from_radius(m.params, 1.0, 1j, 0.5)
    seg = integrate(m, start, t_end=0.1 * t_half, tol=1e-8)
    assert isinstance(seg.terminal, TimeExhausted)
    assert abs(seg.t[-1] - 0.1 * t_half) < 1e-12


def test_first_step_does_not_climb_the_growth_cap():
    # acceptance criterion 3's first flight; a first step ~tol too small
    # (h0 = 0.01/d1 without the d0 = |y0/sc| factor) opened it with six
    # steps that each grew by exactly the 10x cap
    rng = np.random.default_rng(303)
    alpha = 2.0 * math.pi * rng.random()
    beta = 0.5 + 0.5 * rng.random()
    cm = complex(math.cos(alpha), math.sin(alpha))
    p = canonical_params(math.sqrt(187.0 / 196.0))
    m = ModelWavefunction(p, cm, -1j * beta * cm, 1.0, r_min=1e-9)
    seg = integrate(m, SphericalState(0.0, 1e-4, 1.1, 0.0), math.inf, tol=1e-10)
    assert isinstance(seg.terminal, Absorbed)
    growth = np.diff(seg.t)[1:8] / np.diff(seg.t)[:7]
    capped = np.isclose(growth, 10.0, rtol=1e-12, atol=0.0)
    assert capped.sum() <= 1 and not capped[1:].any()


def test_step_budget_raises_step_failure(monkeypatch):
    m = _model()
    start = SphericalState(0.0, 0.01, 1.0, 0.0)
    monkeypatch.setattr(trajectory, "MAX_STEPS", 5)
    with pytest.raises(StepFailure, match="step budget 5"):
        integrate(m, start, t_end=1e9, tol=1e-8)


def test_probe_crossings_recorded():
    m = _model()
    p = m.params
    start_r = 0.01
    t_start = time_from_radius(p, 1.0, 1j, start_r)
    seg = integrate(
        m,
        SphericalState(t_start, start_r, 1.0, 0.0),
        t_end=1e9,
        tol=1e-9,
        probe_radius=0.2,
    )
    assert isinstance(seg.terminal, LeftInnerRegion)
    assert len(seg.probe_crossings) == 1
    hit = seg.probe_crossings[0]
    assert hit.direction == 1
    assert abs(hit.r - 0.2) < 1e-9
    want_t = time_from_radius(p, 1.0, 1j, 0.2)
    assert abs(hit.t - want_t) < 1e-8 * want_t


def test_dp5_tableau_constants_and_order_conditions():
    # the straight-line stages read module floats unpacked from the one
    # tableau; the tableau meets the Dormand-Prince order conditions
    t = trajectory
    assert (t._C2, t._C3, t._C4, t._C5, t._C6) == t._DP_C[1:]
    assert (
        (t._A21,),
        (t._A31, t._A32),
        (t._A41, t._A42, t._A43),
        (t._A51, t._A52, t._A53, t._A54),
        (t._A61, t._A62, t._A63, t._A64, t._A65),
    ) == t._DP_A[1:]
    assert (t._B1, t._B2, t._B3, t._B4, t._B5, t._B6) == t._DP_B
    assert (t._E1, t._E2, t._E3, t._E4, t._E5, t._E6, t._E7) == t._DP_E
    b, c = t._DP_B, t._DP_C
    for row, c_i in zip(t._DP_A[1:], c[1:]):
        assert abs(math.fsum(row) - c_i) <= 1e-15
    for power, want in enumerate((1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0)):
        assert abs(math.fsum(bi * ci**power for bi, ci in zip(b, c)) - want) <= 1e-15
    assert abs(math.fsum(t._DP_E)) <= 1e-15


def test_constant_refresh_reproduces_the_fixed_flight_bitwise():
    m = _model()
    start = SphericalState(0.0, 1e-3, 1.0, 0.0)
    plain = integrate(m, start, t_end=1e9, tol=1e-9)
    track = CoefficientTrack.constant(m.params, 1.0, 1j, 1.0, 0.0, 1.0)
    refreshed = integrate(m, start, t_end=1e9, tol=1e-9, refresh=track)
    for a, b in ((plain.t, refreshed.t), (plain.r, refreshed.r), (plain.phi, refreshed.phi)):
        assert np.array_equal(a, b)
    assert (plain.n_accepted, plain.n_rejected) == (
        refreshed.n_accepted, refreshed.n_rejected
    )


def test_fixed_coefficient_flight_digest_is_stable():
    # samples, terminal, crossings and step counts of DP5 flights under
    # fixed coefficients: outgoing and ingoing, with a probe, with
    # subleading amplitudes, emitted, and circling at Im = 0 (stepped
    # without a refresh).  Where the stages read the field does not
    # matter when it holds still, so these stay bitwise fixed
    import hashlib

    start = SphericalState(0.0, 1e-3, 1.0, 0.3)
    flights = (
        (_model(), start, 1e9, {"probe_radius": 0.2}),
        (_model(cp=-1j, r_min=1e-9), start, 10.0, {"probe_radius": 1e-5}),
        (_model(cp=-0.5 - 1j), start, 2e-4, {}),
        (_model(subleading_amp=(0.05, 0.05j)), start, 1e9, {}),
        (_model(cp=-1j, subleading_amp=(0.05j, -0.05)), start, 10.0, {}),
        (_model(cp=2.0), start, 1.0, {}),
    )
    h = hashlib.sha256()
    for tol in (1e-6, 1e-10):
        segments = [integrate(m, s, t_end, tol, **kw) for m, s, t_end, kw in flights]
        segments.append(emit_trajectory(_model(cp=0.3 + 1j), 0.1, 1.0, 0.2, tol))
        for seg in segments:
            for values in (seg.t, seg.r, seg.phi):
                h.update(values.tobytes())
            h.update(repr(
                (seg.terminal, seg.probe_crossings, seg.n_accepted, seg.n_rejected)
            ).encode())
    assert h.hexdigest() == (
        "b78102e31d75575a23ea5a3b88e646d8ffc9ad1f3a0ff23792f7cdfbfc354501"
    )


def test_time_dependent_flight_digest_is_stable():
    # samples, terminal, crossings and step counts of DP5 flights under
    # psi_t on the drifting track: emitted at three times, one leaving
    # the inner region past a probe, and one with subleading amplitudes;
    # the stage times, stage sums and field evaluations stay bitwise fixed.
    # The stages read the track's pieces themselves, the route fly takes
    import hashlib

    track = _drifting_track()
    family = ModelFamily(track.params, 1.0)
    sub = ModelFamily(track.params, 1.0, subleading_amp=(0.05, 0.05j))
    outer = SphericalState(0.4, 0.05, 1.0, 0.3)
    inner = SphericalState(0.4, 1e-3, 1.0, 0.3)
    h = hashlib.sha256()
    for tol in (1e-6, 1e-10):
        segments = [
            emit_trajectory(
                family.at(*track.coefficients(t0)), t0, 0.5 * math.pi, 0.1, tol,
                t_end=3.0, refresh=track,
            )
            for t0 in (0.3, 1.1, 2.0)
        ]
        segments.append(integrate(
            family.at(*track.coefficients(0.4)), outer, 3.0, tol,
            probe_radius=0.2, refresh=track,
        ))
        segments.append(integrate(
            sub.at(*track.coefficients(0.4)), inner, 3.0, tol,
            refresh=track,
        ))
        for seg in segments:
            for values in (seg.t, seg.r, seg.phi):
                h.update(values.tobytes())
            h.update(repr(
                (seg.terminal, seg.probe_crossings, seg.n_accepted, seg.n_rejected)
            ).encode())
    assert h.hexdigest() == (
        "fbd435044c72ee547ab3d4298faea4276fc54af06419e9f2024b348796878eed"
    )


def _drifting_track():
    # a spline track whose c_plus phase drifts as pi/2 + 0.7 sin(2 pi t/1.5)
    # on 256 intervals of [0, 3]: Im[conj(c-) c+] stays positive but
    # changes within every interval
    t = np.linspace(0.0, 3.0, 257)
    phase = 0.5 * math.pi + 0.7 * np.sin(2.0 * math.pi * t / 1.5)
    return CoefficientTrack(
        canonical_params(0.96), t, np.ones_like(t), np.exp(1j * phase),
        np.full_like(t, math.sqrt(0.97)),
    )


def test_track_reader_digest_is_stable():
    # every reader of a track's table, at scalar times and as arrays: the
    # launch reads, the thinning's rate law, the oracle's Im and weight,
    # and the psi_t field of _make_rhs.  Times are the knots, the grid
    # ends, times between knots and clamped times outside the grid, on
    # the drifting track and a 4-knot one; the scalar readers also run on
    # a 1-knot track
    import hashlib

    h = hashlib.sha256()

    def feed(value):
        if isinstance(value, tuple):
            for v in value:
                feed(v)
        elif isinstance(value, np.ndarray):
            h.update(value.dtype.str.encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())

    p = canonical_params(0.96)
    t4 = np.array([0.0, 0.3, 1.1, 2.0])
    four = CoefficientTrack(
        p, t4,
        [1.0, 0.9 + 0.1j, 1.1 - 0.2j, 1.0 + 0.05j],
        [1j, 0.2 + 1j, 0.6 - 0.1j, 0.3 + 1.1j],
        [0.9, 0.85 + 0.1j, 0.8, 0.7 - 0.05j],
    )
    one_knot = CoefficientTrack(p, [0.5], [1.0 + 0.2j], [0.3 + 1j], [0.9j])
    scalar_readers = ("coefficients", "psi0", "vacuum_weight", "rate_profile",
                      "im_cross", "cross_and_rate")
    array_readers = scalar_readers[2:]
    one = 1.0 - 2.0 * p.B
    for track in (_drifting_track(), four, one_knot):
        t = track.times
        between = 0.5 * (t[1:] + t[:-1]) if len(t) > 1 else t
        times = np.concatenate(
            [t, between, [t[0], t[-1], t[0] - 0.7, t[-1] + 0.7, t[0] - 1e-9]]
        )
        for name in scalar_readers:
            for tq in times.tolist():
                feed(getattr(track, name)(tq))
        if len(t) == 1:
            continue
        for name in array_readers:
            feed(getattr(track, name)(times))
        for r in (1e-3, 0.05):
            field = _make_rhs(p, (0j, 0j), track)
            for tq in [*times.tolist(), *times[::-1].tolist()]:
                feed(field(tq, r**one))
    assert h.hexdigest() == (
        "ff3ef33b13b9fbc95a0eba3feec97947da0c08e1578dd7b104af23e452bda76a"
    )


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_drifting_flights_follow_the_time_dependent_field(tol):
    # flights emitted at three times on a drifting track, against DOP853
    # at rtol 1e-12 on the time-dependent ODE at every accepted sample;
    # holding the field fixed over each step misses r by up to 8e-2
    track = _drifting_track()
    family = ModelFamily(track.params, 1.0)
    worst_r = worst_phi = 0.0
    for t0 in (0.3, 1.1, 2.0):
        model = family.at(*track.coefficients(t0))
        seg = emit_trajectory(
            model, t0, 0.5 * math.pi, 0.0, tol, t_end=3.0, refresh=track
        )
        # a terminal crossing is interpolated, not stepped to
        n = len(seg.t) - (not isinstance(seg.terminal, TimeExhausted))
        r_ref, phi_ref = time_dependent_flight(
            track.params, track.coefficients, seg.initial, seg.t[:n]
        )
        worst_r = max(worst_r, float(np.max(np.abs(seg.r[:n] / r_ref - 1.0))))
        worst_phi = max(
            worst_phi,
            float(np.max(np.abs(seg.phi[:n] - phi_ref) / np.max(np.abs(seg.phi)))),
        )
    assert worst_r < 10.0 * tol
    assert worst_phi < 10.0 * tol


def _flight_cases():
    # (model, start, t_end, probe): ingoing with a probe; ingoing cut off
    # by t_end before and after the probe; outgoing leaving the inner
    # region past a probe; outgoing cut off by t_end
    p = canonical_params(0.96)
    r0 = 1e-2
    t_abs = -time_from_radius(p, 1.0, -1j, r0)
    t_probe_in = t_abs + time_from_radius(p, 1.0, -1j, 1e-4)
    t_src_out = -time_from_radius(p, 1.0, 1j, r0)
    t_probe_out = t_src_out + time_from_radius(p, 1.0, 1j, 0.2)
    start = SphericalState(0.0, r0, 1.0, 0.3)
    return {
        "ingoing_probe": (_model(cp=-1j), start, 10.0, 1e-4),
        "ingoing_cut_before_probe": (_model(cp=-1j), start, 0.5 * t_probe_in, 1e-4),
        "ingoing_cut_after_probe": (
            _model(cp=-1j), start, 0.5 * (t_probe_in + t_abs), 1e-4
        ),
        "outgoing_leaves": (_model(), start, 100.0, 0.2),
        "outgoing_time_exhausted": (_model(), start, 0.5 * t_probe_out, 0.2),
    }


@pytest.mark.parametrize("case", sorted(_flight_cases()))
def test_closed_form_flight_agrees_with_integrator(case):
    m, start, t_end, probe = _flight_cases()[case]
    exact = integrate(m, start, t_end, probe_radius=probe, dense=False)
    stepped = integrate(m, start, t_end, tol=1e-9, probe_radius=probe, dense=True)
    assert exact.n_accepted == exact.n_rejected == 0
    assert stepped.n_accepted > 0
    assert type(exact.terminal) is type(stepped.terminal)
    if isinstance(exact.terminal, Absorbed):
        assert abs(exact.terminal.t0 - stepped.terminal.t0) < 1e-9 * exact.terminal.t0
    assert abs(exact.t[-1] - stepped.t[-1]) < 1e-7 * abs(stepped.t[-1])
    assert abs(exact.r[-1] - stepped.r[-1]) < 1e-7 * stepped.r[-1]
    assert len(exact.probe_crossings) == len(stepped.probe_crossings)
    for a, b in zip(exact.probe_crossings, stepped.probe_crossings):
        assert a.direction == b.direction
        assert abs(a.t - b.t) < 1e-7 * abs(b.t)
    # samples: start, each crossing, terminal
    assert len(exact.t) == 2 + len(exact.probe_crossings)
    assert exact.initial == start


def test_closed_form_radius_at_matches_integrator():
    m, start, t_end, probe = _flight_cases()["ingoing_probe"]
    exact = integrate(m, start, t_end, probe_radius=probe, dense=False)
    stepped = integrate(m, start, t_end, tol=1e-9, probe_radius=probe, dense=True)
    for frac in (0.0, 0.1, 0.5, 0.9, 0.999):
        t = exact.t[0] + frac * (exact.t[-1] - exact.t[0])
        r_exact = exact.radius_at(t)
        assert abs(r_exact - stepped.radius_at(t)) < 1e-6 * r_exact
    assert exact.radius_at(exact.t[-1] + 1.0) is None
    assert exact.radius_at(exact.t[0] - 1.0) is None


def test_integrated_radius_at_matches_scipy_spline():
    # integrated segments interpolate s = r^(1-2B) with the package's
    # cubic table: scipy's spline with the same end conditions agrees
    # within 1e-14 of the largest s
    from scipy.interpolate import CubicSpline

    one = 1.0 - 2.0 * canonical_params(0.96).B
    segments = []
    for case in ("ingoing_probe", "outgoing_leaves"):
        m, start, t_end, probe = _flight_cases()[case]
        segments.append(integrate(m, start, t_end, tol=1e-6, probe_radius=probe))
    for n in (2, 3):  # natural end conditions below four samples
        t = np.linspace(0.0, 1.0, n)
        r = 0.01 + 0.05 * t**2
        segments.append(
            TrajectorySegment(
                t=t, r=r, theta=np.ones(n), phi=np.zeros(n),
                terminal=TimeExhausted(), n_accepted=n - 1, model=_model(),
            )
        )
    for seg in segments:
        assert seg.n_accepted > 0
        kind = "not-a-knot" if len(seg.t) >= 4 else "natural"
        spline = CubicSpline(seg.t, seg.r**one, bc_type=kind)
        scale = np.max(seg.r**one)
        for t in np.linspace(seg.t[0], seg.t[-1], 97):
            assert abs(seg.radius_at(t) ** one - spline(t)) <= 1e-14 * scale


def test_integrated_radius_at_gives_the_bits_of_a_fresh_table():
    # repeated calls give the bits of the cubic table of s built afresh,
    # at the samples and between them
    from belljump.cubic import cubic_table, cubic_values

    m, start, t_end, probe = _flight_cases()["ingoing_probe"]
    seg = integrate(m, start, t_end, tol=1e-6, probe_radius=probe)
    one = 1.0 - 2.0 * m.params.B
    fresh = cubic_table(seg.t, (seg.r**one)[:, None])
    times = [*seg.t.tolist(), *(0.5 * (seg.t[1:] + seg.t[:-1])).tolist()]
    for _ in range(2):
        for t in times:
            want = float(cubic_values(seg.t, fresh, t)[0]) ** (1.0 / one)
            assert seg.radius_at(t) == want


def test_invert_time_matches_bisection():
    # the Newton inversion of t(r) against the oracle's bisection, on
    # pairs with q Re >= 0, so that no term of t(r) cancels another.
    # Near the source t ~ r^(1-2B): a rounding error in t moves the root
    # 1/(1-2B) times as much in r, so the check is 1e-14 relative in t
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 300:
        q = rng.choice([-1.0, 1.0]) * rng.uniform(0.87, 0.999)
        cm, cp = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        parts = overlap_parts(cm, cp)
        if q * parts[2] < 0.0:
            continue
        p = canonical_params(q)
        r_lo, r_hi = 10.0 ** rng.uniform(-9.0, -3.0), 0.5
        r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        dt = time_from_radius(p, cm, cp, r)
        got = trajectory._invert_time(p, parts, dt, r_lo, r_hi)
        want = radius_from_time(p, cm, cp, dt, r_hi)
        assert abs(got - want) * (1.0 - 2.0 * p.B) <= 1e-14 * want
        checked += 1


def test_subleading_flights_stay_on_the_integrator():
    m = _model(subleading_amp=(0.05, 0.05j))
    seg = integrate(m, SphericalState(0.0, 1e-2, 1.0, 0.0), 1e9, tol=1e-6, dense=False)
    assert seg.n_accepted > 0
    m = _model()
    track = CoefficientTrack.constant(m.params, 1.0, 1j, 1.0, 0.0, 1.0)
    refreshed = integrate(
        m, SphericalState(0.0, 1e-2, 1.0, 0.0), 1e9, tol=1e-6,
        refresh=track, dense=False,
    )
    assert refreshed.n_accepted > 0


def test_emit_bounds_any_infinite_end():
    # radial motion stops at t = 1e-3, where c_plus has turned from i to 1
    # and the track holds it past its end, so only the exit-time bound
    # that an infinite t_end is replaced with ends the flight
    m = _model()
    stall = CoefficientTrack(m.params, [0.0, 1e-3], [1.0, 1.0], [1j, 1.0], [1.0, 1.0])
    bound = 2.0 * time_from_radius(m.params, 1.0, 1j, 0.5) + 1.0
    for end in (math.inf, float("inf")):
        seg = emit_trajectory(m, 0.0, 1.0, 0.0, t_end=end, refresh=stall)
        assert isinstance(seg.terminal, TimeExhausted)
        assert abs(seg.t[-1] - bound) < 1e-2


def test_integrate_guards():
    m = _model()
    with pytest.raises(DomainError):
        integrate(m, SphericalState(0.0, 0.6, 1.0, 0.0), t_end=1.0)
    with pytest.raises(DomainError):
        integrate(
            _model(r_min=1e-6), SphericalState(0.0, 1e-10, 1.0, 0.0), t_end=1.0
        )
    with pytest.raises(DomainError):
        integrate(m, SphericalState(1.0, 0.01, 1.0, 0.0), t_end=0.5)
    for dense in (True, False):
        with pytest.raises(DomainError, match="probe_radius"):
            integrate(
                m, SphericalState(0.0, 0.01, 1.0, 0.0), t_end=1.0,
                probe_radius=-1e-4, dense=dense,
            )
    # no radial motion (Im = 0): the flight circles at its start radius
    # until t_end, and only an infinite t_end is refused
    circling = _model(cp=2.0)
    with pytest.raises(DegenerateError):
        integrate(circling, SphericalState(0.0, 0.01, 1.0, 0.0), t_end=math.inf)
    for dense in (True, False):
        seg = integrate(
            circling, SphericalState(0.0, 0.01, 1.0, 0.0), t_end=1.0, dense=dense
        )
        assert isinstance(seg.terminal, TimeExhausted)
        assert seg.t[-1] == 1.0 and seg.n_accepted > 0
        assert np.all(np.abs(seg.r / 0.01 - 1.0) <= 1e-12)
    with pytest.raises(DegenerateError):
        emit_trajectory(_model(cp=-1j), 0.0, 1.0, 0.0)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_integrate_refuses_a_tolerance_outside_the_positive_reals(tol):
    # 0 divided by zero, a negative tol underflowed the step and nan ran a
    # step of nan length; closed-form and DP5 flights refuse it alike
    m = _model()
    start = SphericalState(0.0, 1e-3, 1.0, 0.0)
    for dense in (True, False):
        with pytest.raises(DomainError, match="tol"):
            integrate(m, start, 1.0, tol, dense=dense)
        with pytest.raises(DomainError, match="tol"):
            emit_trajectory(m, 0.0, 1.0, 0.0, tol, dense=dense)
    seg = integrate(m, start, 1.0)
    assert isinstance(seg.terminal, TimeExhausted) and seg.n_accepted == 44


_PARAMS = (
    canonical_params(0.96),
    canonical_params(0.95, 0.5, -1),
    canonical_params(-0.93, -0.5, 1),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    params=st.sampled_from(_PARAMS),
    inward=st.booleans(),
    phase=st.floats(0.15, math.pi - 0.15),
    beta=st.floats(0.2, 3.0),
    log_r0=st.floats(-7.5, math.log10(0.49)),
    frac=st.floats(0.02, 2.0),
    log_probe=st.none() | st.floats(-7.9, math.log10(0.499)),
    dense=st.booleans(),
    drift=st.booleans(),
)
@example(  # ingoing start one float above r_min: t(r_min) - t(r0) rounds to 0
    params=_PARAMS[0], inward=True, phase=math.pi / 2, beta=1.0,
    log_r0=math.log10(math.nextafter(1e-8, 1.0)), frac=2.0, log_probe=None,
    dense=False, drift=False,
)
@example(  # outgoing start one float below r_cut/2
    params=_PARAMS[0], inward=False, phase=math.pi / 2, beta=1.0,
    log_r0=math.log10(math.nextafter(0.5, 0.0)), frac=2.0, log_probe=None,
    dense=False, drift=False,
)
def test_flights_produce_ordered_positive_samples(
    params, inward, phase, beta, log_r0, frac, log_probe, dense, drift
):
    # closed-form (dense=False) and DP5 flights, in and out, ended by
    # their terminal radius or by t_end, with and without a probe; with
    # drift, on a grid track whose c_plus phase turns by up to 0.1 over
    # [0, 3] (never through Im = 0), which keeps every flight on the
    # integrator
    cp = beta * complex(math.cos(phase), -math.sin(phase) if inward else math.sin(phase))
    refresh = None
    if drift:
        t = np.linspace(0.0, 3.0, 65)
        ones = np.ones_like(t)
        turn = np.exp(0.1j * np.sin(2.0 * math.pi * t / 1.5))
        refresh = CoefficientTrack(params, t, ones, cp * turn, ones)
    m = ModelWavefunction(params, 1.0, cp, 1.0)
    r0 = min(max(10.0**log_r0, math.nextafter(m.r_min, 1.0)), math.nextafter(0.5, 0.0))
    r_term = m.r_min if inward else 0.5
    span = abs(
        time_from_radius(params, 1.0, cp, r_term) - time_from_radius(params, 1.0, cp, r0)
    )
    t0 = 0.25
    t_end = max(t0 + frac * span, math.nextafter(t0, math.inf))
    probe = None if log_probe is None else 10.0**log_probe
    seg = integrate(
        m, SphericalState(t0, r0, 1.0, 0.3), t_end, tol=1e-6,
        probe_radius=probe, refresh=refresh, dense=dense,
    )
    arrays = (seg.t, seg.r, seg.theta, seg.phi)
    assert all(a.dtype == np.float64 and a.shape == seg.t.shape for a in arrays)
    assert len(seg.t) >= 2
    assert np.all(np.diff(seg.t) > 0.0)
    assert np.all(seg.r > 0.0)
    assert (seg.n_accepted == 0) == (not dense and not drift)
    assert len(seg.probe_crossings) <= (probe is not None)  # r is monotone


def test_segment_invariants():
    seg = TrajectorySegment(
        t=[0.0, 1.0], r=[0.1, 0.2], theta=[1.0, 1.0], phi=[0.0, 0.5],
        terminal=TimeExhausted(),
    )
    assert seg.initial == SphericalState(0.0, 0.1, 1.0, 0.0)
    assert (seg.t[-1], seg.r[-1], seg.theta[-1], seg.phi[-1]) == (1.0, 0.2, 1.0, 0.5)
    assert len(seg.t) == len(seg.r) == len(seg.theta) == len(seg.phi) == 2


# ---------------------------------------------------------------------
# power-law fitting
# ---------------------------------------------------------------------

def test_fit_power_law_exact_monomial():
    t = np.linspace(0.5, 2.0, 12)
    exponent, prefactor, r2 = fit_power_law(np.column_stack([t, 3.0 * t**2]))
    assert abs(exponent - 2.0) < 1e-12
    assert abs(prefactor - 3.0) < 1e-12
    assert abs(r2 - 1.0) < 1e-12


def test_fit_power_law_constant_series():
    t = np.linspace(1.0, 2.0, 10)
    exponent, prefactor, r2 = fit_power_law(np.column_stack([t, np.full(10, 5.0)]))
    assert abs(exponent) < 1e-12 and abs(prefactor - 5.0) < 1e-12
    assert r2 == 1.0


def test_fit_power_law_errors():
    good = np.column_stack([np.linspace(1, 2, 12), np.linspace(1, 2, 12)])
    with pytest.raises(FitError):
        fit_power_law(good[:7])
    with pytest.raises(FitError):
        fit_power_law(np.column_stack([np.linspace(-1, 2, 12), np.ones(12)]))
    with pytest.raises(FitError):
        fit_power_law(np.column_stack([np.linspace(1, 2, 12), -np.ones(12)]))
    with pytest.raises(FitError):
        fit_power_law(np.column_stack([np.ones(12), np.linspace(1, 2, 12)]))
    with pytest.raises(FitError):
        fit_power_law(np.ones((12, 3)))
