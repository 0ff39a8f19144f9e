"""Jump law, waiting times, the path state machine, balance checking."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from belljump import (
    DomainError,
    MajorantError,
    VacuumEmpty,
    WindowClosed,
    canonical_params,
)
from belljump import jump_process
from belljump.cubic import cubic_values, poly_range
from belljump.jump_process import (
    CoefficientTrack,
    EmissionEvent,
    Particle,
    Vacuum,
    VacuumInterval,
    fly,
    jump_rate_density,
    sample_emission_angles,
    sample_waiting_time,
    simulate_path,
    total_jump_rate,
)
from belljump.trajectory import (
    Absorbed,
    LeftInnerRegion,
    ProbeCrossing,
    SphericalState,
    TimeExhausted,
    emit_trajectory,
    integrate,
)
from belljump.wavefunction import ModelFamily, ModelWavefunction, current_coeffs
from oracles import (
    BalanceViolation,
    cumulative_hazard,
    in_vacuum,
    occupancy,
    validate_balance,
)

P96 = canonical_params(0.96)


def _constant_track(cm=1.0, cp=1j, psi0=1.0, t_end=3.0):
    return CoefficientTrack.constant(P96, cm, cp, psi0, 0.0, t_end)


# ---------------------------------------------------------------------
# the rate law
# ---------------------------------------------------------------------

def test_total_rate_frozen_example():
    tr = _constant_track()
    assert abs(total_jump_rate(tr, 1.0) - 4.3904) < 1e-12
    assert abs(jump_rate_density(tr, 1.0, math.pi / 2) - 0.3493769310753287) < 1e-15


def test_rate_equals_flux_over_weight():
    rng = np.random.default_rng(52)
    for _ in range(20):
        cm = complex(rng.normal(), rng.normal())
        cp = complex(rng.normal(), rng.normal())
        if (cm.conjugate() * cp).imag <= 0.0:
            cm, cp = cp, cm  # flip the cross term positive
            if (cm.conjugate() * cp).imag <= 0.0:
                continue
        w = rng.uniform(0.2, 1.0)
        tr = _constant_track(cm, cp, math.sqrt(w))
        want = 4.0 * math.pi * current_coeffs(P96, cm, cp).C_r / w
        assert abs(total_jump_rate(tr, 0.5) - want) < 1e-12 * want


def test_rate_density_integrates_to_total():
    from scipy.integrate import quad

    tr = _constant_track(0.6 - 0.1j, 0.8j, 0.9)
    polar, _ = quad(lambda th: jump_rate_density(tr, 1.0, th), 0.0, math.pi)
    total = 2.0 * math.pi * polar  # density carries no phi0 dependence
    assert abs(total - total_jump_rate(tr, 1.0)) < 1e-10 * total


def test_rate_zero_when_flux_ingoing():
    tr = _constant_track(cp=-1j)
    assert total_jump_rate(tr, 1.0) == 0.0
    assert jump_rate_density(tr, 1.0, 1.0) == 0.0


def test_vacuum_empty_raises():
    tr = _constant_track(psi0=0.0)
    with pytest.raises(VacuumEmpty):
        total_jump_rate(tr, 1.0)
    with pytest.raises(VacuumEmpty):
        jump_rate_density(tr, 1.0, 1.0)


# ---------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------

def test_waiting_time_exponential_law():
    from scipy import stats as sps

    tr = _constant_track()
    rate = total_jump_rate(tr, 0.0)
    rng = np.random.default_rng(51)
    draws = np.array([sample_waiting_time(tr, 0.0, rng) for _ in range(3000)])
    assert not np.any(np.equal(draws, None))
    draws = draws.astype(float)
    mean_z = (draws.mean() - 1.0 / rate) / (1.0 / rate / math.sqrt(len(draws)))
    assert abs(mean_z) < 4.0
    ks = sps.kstest(draws, sps.expon(scale=1.0 / rate).cdf)
    assert ks.pvalue > 1e-3  # measured 0.067 at this seed


def test_waiting_time_truncations():
    rng = np.random.default_rng(53)
    assert sample_waiting_time(_constant_track(cp=-1j), 0.0, rng) is None
    tr = _constant_track()
    assert sample_waiting_time(tr, 3.0, rng) is None  # at the track end
    single = CoefficientTrack(P96, [0.0], [1.0], [1j], [1.0])
    assert sample_waiting_time(single, 0.0, rng) is None
    # a window much shorter than the mean wait usually returns None
    short = CoefficientTrack.constant(P96, 1.0, 1j, 1.0, 0.0, 1e-6)
    nones = sum(sample_waiting_time(short, 0.0, rng) is None for _ in range(50))
    assert nones >= 45


def test_waiting_time_majorant_guards():
    t = np.linspace(0.0, 1.0, 21)
    ones = np.ones(21)
    rng = np.random.default_rng(54)
    # psi0 vanishing at a grid point under positive flux: unbounded rate
    with pytest.raises(MajorantError):
        sample_waiting_time(CoefficientTrack(P96, t, ones, 1j * ones, t), 0.0, rng)
    # bounded but absurd rates are refused rather than thinned forever
    with pytest.raises(MajorantError):
        sample_waiting_time(
            CoefficientTrack(P96, t, ones, 1j * ones, 1e-8 * ones), 0.0, rng
        )


def test_majorant_bounds_rate_between_grid_points():
    # psi0's spline crosses zero inside [0, 1/3] although no grid value
    # is small there: the rate is unbounded on that interval, which
    # probing the rate at sample points missed
    t = np.linspace(0.0, 1.0, 4)
    ones = np.ones(4)
    tr = CoefficientTrack(P96, t, 0.1 * ones, 0.1j * ones, [0.5, -0.37, 0.4, 0.5])
    assert tr.majorant_table.majorants[0] == math.inf
    with pytest.raises(MajorantError):
        sample_waiting_time(tr, 0.0, np.random.default_rng(0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(
            hnp.arrays(float, n, elements=st.floats(0.05, 1.0)),
            hnp.arrays(float, (n, 6), elements=st.floats(-1.0, 1.0)),
        )
    )
)
@example(  # Im's derivative spans 15 decades, too many for its companion matrix
    (
        np.array([0.05078125, 0.05078125]),
        np.array(
            [
                [0.0, -1.0, -0.75, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.11406281578525612, 0.0, 1.0, 0.0],
            ]
        ),
    )
)
def test_majorant_never_below_rate(grid):
    steps, values = grid
    t = np.cumsum(steps)
    cm = values[:, 0] + 1j * values[:, 1]
    cp = values[:, 2] + 1j * values[:, 3]
    p0 = values[:, 4] + 1j * values[:, 5]
    tr = CoefficientTrack(P96, t, cm, cp, p0)
    table = tr.majorant_table
    kept = dict(zip(table.starts, table.majorants))
    for a, b in zip(t[:-1].tolist(), t[1:].tolist()):
        rate = tr.rate_profile(np.linspace(a, b, 4001))
        if a not in kept:
            assert np.all(rate == 0.0)  # Im <= 0 on the whole interval
        else:
            assert np.all(rate <= kept[a])
    # H, the majorant integral, accumulates over the kept trusted pieces
    # only; untrusted[k] points at the first inf majorant from piece k on
    widths = np.subtract(table.ends, table.starts)
    terms = np.where(np.isinf(table.majorants), 0.0, np.multiply(table.majorants, widths))
    np.testing.assert_allclose(table.hazard, np.concatenate(([0.0], np.cumsum(terms))))
    n = len(table.majorants)
    for k in range(n):
        later = [j for j in range(k, n) if table.majorants[j] == math.inf]
        assert table.untrusted[k] == (later[0] if later else n)


def test_majorant_table_digest_is_stable():
    # every field of the thinning table on four tracks: criterion 8's
    # balanced track (every interval kept), a balanced track of criterion
    # 9's absorbing amplitudes (none kept), a 257-knot grid whose c_plus
    # phase drifts (Im > 0 throughout, changing in every interval), and a
    # 200-knot grid on which Im[conj(c_minus) c_plus] changes sign (part
    # kept)
    import hashlib

    from belljump.ensemble import normalized_amplitudes

    cm, cp = normalized_amplitudes(P96, 1.0, -1j, 1.0, 0.7)
    ingoing = CoefficientTrack.balanced_constant_flux(P96, cm, cp, 0.3, 0.0, 0.9)
    t = np.linspace(0.0, 3.0, 257)
    phase = 0.5 * math.pi + 0.7 * np.sin(2.0 * math.pi * t / 1.5)
    drifting = CoefficientTrack(
        P96, t, np.full_like(t, 0.1), 0.1 * np.exp(1j * phase), np.sqrt(0.97 - 0.01 * t)
    )
    t = np.linspace(0.0, 2.0, 200)
    phase = 0.3 * np.sin(2.0 * math.pi * t)
    signed = CoefficientTrack(
        P96, t, np.ones_like(t), np.exp(1j * phase), np.full(200, 0.9 + 0.1j)
    )
    h = hashlib.sha256()
    kept = []
    for track in (_balanced(), ingoing, drifting, signed):
        table = track.majorant_table
        kept.append(len(table.starts))
        h.update(repr(tuple(table)).encode())
    assert kept[:3] == [128, 0, 256]
    assert 0 < kept[3] < 199
    assert h.hexdigest() == (
        "99e120645b15ae22de12999445fbcb972ed24a5ed0fb1054868786234302678b"
    )


def test_majorant_table_ranges_the_weight_only_where_it_thins(monkeypatch):
    # poly_range sees every interval's Im, then only the kept intervals'
    # |psi0|^2: none on a track whose flux is ingoing throughout, six of
    # eight on the gapped track
    rows = []

    def recording(coeffs):
        rows.append(len(coeffs))
        return poly_range(coeffs)

    monkeypatch.setattr(jump_process, "poly_range", recording)
    _constant_track(cp=-1j).majorant_table
    assert rows == [32, 0]
    rows.clear()
    assert len(_gapped_track().majorant_table.starts) == 6
    assert rows == [8, 6]


def _gapped_track():
    # Im[conj(c_minus) c_plus] <= 0 on [0.75, 1.25] (zero majorant there)
    # and complex psi0
    t = np.linspace(0.0, 2.0, 9)
    im = np.array([0.6, 0.8, 0.5, -0.3, -0.6, -0.4, 0.2, 0.7, 0.9])
    return CoefficientTrack(P96, t, np.ones(9), 1j * im, 0.9 - 0.05 * t + 0.02j * t)


@pytest.mark.parametrize("case", ["balanced", "gapped"])
def test_waiting_time_law_matches_exact_survival(case):
    # the first-event time T from t0 has P(T > t) = exp(-Lambda(t)) up to
    # the track end, where None stands for "no event"; Lambda by
    # quadrature of the rate, independently of the majorant table
    from scipy import stats as sps

    tr, t0, seed = {
        "balanced": (_balanced(), 0.37, 61),
        "gapped": (_gapped_track(), 0.61, 62),
    }[case]
    rng = np.random.default_rng(seed)
    n = 4000
    draws = [sample_waiting_time(tr, t0, rng) for _ in range(n)]
    events = np.sort([d for d in draws if d is not None])
    assert np.all(events > t0)
    hazard = cumulative_hazard(tr, t0, np.append(events, tr.t_end))
    p_event = 1.0 - math.exp(-hazard[-1])
    z = (len(events) - n * p_event) / math.sqrt(n * p_event * (1.0 - p_event))
    assert abs(z) < 4.0
    # conditional on an event, F(T) = (1 - exp(-Lambda(T))) / p_event is uniform
    ks = sps.kstest(-np.expm1(-hazard[:-1]) / p_event, "uniform")
    assert ks.pvalue > 1e-3


def test_waiting_times_pinned_on_spline_track():
    # complex psi0 and a zero-majorant gap on [0.75, 1.25]; values
    # recorded with the cumulative-majorant sampler
    tr = _gapped_track()
    rng = np.random.default_rng(2024)
    starts = (0.0, 0.5, 0.61, 0.95, 1.3, 1.9)  # 0.5 is a grid node
    draws = [tuple(sample_waiting_time(tr, t0, rng) for _ in range(3)) for t0 in starts]
    assert draws == [
        (0.17394161796342444, 0.5039290689260953, 0.10585408518746946),
        (0.526616841381935, 0.6198699358470572, 1.982105562164643),
        (1.96379144260623, 1.5597850243403495, 1.4933600313299185),
        (1.6543820872119042, 1.7433545769155199, 1.6154950319486812),
        (1.683923759980174, 1.6567751223974512, None),
        (None, 1.9055963196377654, 1.9138855801518542),
    ]


def test_waiting_time_stops_at_untrusted_interval():
    # psi0 = 1 - t vanishes at t = 1: no majorant on [0.95, 1], while the
    # hazard up to 0.95 (about 83) makes a jump before it all but certain
    t = np.linspace(0.0, 1.0, 21)
    ones = np.ones(21)
    tr = CoefficientTrack(P96, t, ones, 1j * ones, 1.0 - t)
    rng = np.random.default_rng(56)
    for t0 in (0.0, 0.5, 0.9):
        assert t0 < sample_waiting_time(tr, t0, rng) < 0.95
    with pytest.raises(MajorantError):
        sample_waiting_time(tr, 0.97, rng)
    # psi0 = t - 0.5 vanishes mid-track, with no majorant on [0.45, 0.55]:
    # a wait from after those pieces runs on the later ones (hazard from
    # 0.7 to the end about 13)
    tr = CoefficientTrack(P96, t, ones, 1j * ones, t - 0.5)
    assert tr.majorant_table.untrusted[:11] == (9,) * 10 + (10,)
    for t0 in (0.55, 0.6, 0.7):
        assert t0 < sample_waiting_time(tr, t0, rng) <= 1.0


def test_waiting_time_without_rate_draws_nothing():
    rng = np.random.default_rng(57)
    state = rng.bit_generator.state
    tr = CoefficientTrack.balanced_constant_flux(P96, 0.1, -0.1j, 0.3, 0.0, 3.0)
    for t0 in (0.0, 1.0, 2.99):
        assert sample_waiting_time(tr, t0, rng) is None
    assert rng.bit_generator.state == state


def test_emission_angles_distribution():
    rng = np.random.default_rng(55)
    n = 20000
    cos_t, phis = [], []
    for _ in range(n):
        theta0, phi0 = sample_emission_angles(rng)
        assert 0.0 < theta0 < math.pi
        assert 0.0 <= phi0 < 2.0 * math.pi
        cos_t.append(math.cos(theta0))
        phis.append(phi0)
    cos_t = np.array(cos_t)
    # cos(theta0) uniform on [-1, 1]: mean 0 (sigma 1/sqrt(3n)), var 1/3
    assert abs(cos_t.mean()) < 4.0 / math.sqrt(3.0 * n)
    assert abs(cos_t.var() - 1.0 / 3.0) < 0.01
    assert abs(np.mean(phis) - math.pi) < 4.0 * math.pi / math.sqrt(3.0 * n)


def test_emission_angles_reproducible():
    a = np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))
    b = np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))
    for _ in range(10):
        assert sample_emission_angles(a) == sample_emission_angles(b)


# ---------------------------------------------------------------------
# coefficient tracks
# ---------------------------------------------------------------------

def test_track_validation():
    with pytest.raises(DomainError):
        CoefficientTrack(P96, [0.0, 0.0, 1.0], np.ones(3), np.ones(3), np.ones(3))
    with pytest.raises(DomainError):
        CoefficientTrack(P96, [0.0, 1.0], np.ones(3), np.ones(3), np.ones(3))
    with pytest.raises(DomainError):
        CoefficientTrack(P96, [], [], [], [])
    with pytest.raises(DomainError, match="finite"):
        CoefficientTrack(P96, [0.0, math.nan, 1.0], np.ones(3), np.ones(3), np.ones(3))


def test_constant_track_fast_path():
    tr = _constant_track(0.5, 0.7j, 0.9)
    assert tr.constant_coefficients == (0.5 + 0j, 0.7j)
    assert tr.coefficients(1.234) == (0.5 + 0j, 0.7j)
    assert abs(tr.psi0(2.0) - 0.9) < 1e-14
    assert abs(tr.vacuum_weight(2.0) - 0.81) < 1e-14
    assert abs(tr.im_cross(0.3) - 0.35) < 1e-15
    # clamping beyond the grid
    assert tr.coefficients(99.0) == (0.5 + 0j, 0.7j)


def test_varying_track_interpolates():
    t = np.linspace(0.0, 1.0, 33)
    tr = CoefficientTrack(P96, t, 1.0 + t, 1j * (1.0 + t), np.ones(33))
    assert tr.constant_coefficients is None
    cm, cp = tr.coefficients(0.5)
    assert abs(cm - 1.5) < 1e-10 and abs(cp - 1.5j) < 1e-10


def _random_track(n):
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.uniform(0.1, 1.0, n))
    cm, cp, p0 = (
        (0.5 + rng.normal(size=n)) + 1j * rng.normal(size=n),
        rng.normal(size=n) + 1j * (0.5 + rng.normal(size=n)),
        (0.6 + 0.1 * rng.normal(size=n)) + 0.2j * rng.normal(size=n),
    )
    return CoefficientTrack(P96, t, cm, cp, p0), (cm, cp, p0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 257])
def test_track_values_match_separate_splines(n):
    # the track's coefficient table against three independent scipy
    # splines with the same end conditions: each real column within
    # 1e-14 of its largest value, the rate law within 1e-12 relative
    from scipy.interpolate import CubicSpline

    tr, columns = _random_track(n)
    t = tr.times
    if n == 1:
        splines = [lambda s, v=complex(y[0]): np.full(np.shape(s), v) for y in columns]
    else:
        kind = "not-a-knot" if n >= 4 else "natural"
        splines = [CubicSpline(t, y, bc_type=kind) for y in columns]
    times = np.concatenate([np.linspace(t[0] - 0.5, t[-1] + 0.5, 301), t])
    clamped = np.clip(times, t[0], t[-1])
    sm, sp, s0 = (spline(clamped) for spline in splines)
    got = np.array([(*tr.coefficients(tq), tr.psi0(tq)) for tq in times.tolist()])
    for want, column in zip((sm, sp, s0), got.T):
        for part in (np.real, np.imag):
            scale = np.max(np.abs(part(want)))
            assert np.max(np.abs(part(column) - part(want))) <= 1e-14 * scale
    im = (np.conj(sm) * sp).imag
    want = np.where(im > 0.0, 8.0 * (1.0 + P96.q) * P96.B * im / np.abs(s0) ** 2, 0.0)
    np.testing.assert_allclose(tr.rate_profile(times), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 257])
def test_scalar_and_array_evaluation_agree(n):
    # one table, two evaluators: Horner on Python floats for one time,
    # numpy for arrays, with the same piece lookup and clamping
    tr, _ = _random_track(n)
    t = tr.times
    times = np.concatenate([np.linspace(t[0] - 0.5, t[-1] + 0.5, 401), t])
    columns = cubic_values(t, tr._table, times)
    scalar = np.array([(*tr.coefficients(tq), tr.psi0(tq)) for tq in times.tolist()])
    np.testing.assert_array_equal(scalar.real, columns[:, 0::2])
    np.testing.assert_array_equal(scalar.imag, columns[:, 1::2])
    rates = [tr.rate_profile(tq) for tq in times.tolist()]
    assert all(type(r) is float for r in rates)
    np.testing.assert_array_equal(rates, tr.rate_profile(times))
    weights = [tr.vacuum_weight(tq) for tq in times.tolist()]
    np.testing.assert_array_equal(weights, columns[:, 4] ** 2 + columns[:, 5] ** 2)
    np.testing.assert_array_equal(weights, tr.vacuum_weight(times))
    ims = [tr.im_cross(tq) for tq in times.tolist()]
    assert all(type(v) is float for v in ims + weights)
    np.testing.assert_array_equal(ims, tr.im_cross(times))


def test_rate_law_on_arrays_matches_the_scalar_law_bitwise():
    # the array form of the rate law against the scalar one, elementwise,
    # on its edge cases: Im <= 0 (signed zeros and nan included) gives 0,
    # a weight <= 0 (or nan) under Im > 0 gives inf, and a tiny weight
    # overflows to inf
    tr, _ = _random_track(5)
    nan, inf = math.nan, math.inf
    ims = [1.3, 1e-300, 0.0, -0.0, -2.0, nan, 0.7, 0.7, 0.7, 0.7, 0.7, inf, 1e300]
    weights = [0.4, 0.9, 0.4, 0.0, 0.4, 0.4, 0.0, -0.0, -1.0, nan, 1e-320, 0.5, 1e-300]
    rates = tr._rate(np.array(ims), np.array(weights))
    want = np.array([tr._rate(im, w) for im, w in zip(ims, weights)])
    assert rates.dtype == want.dtype == np.float64
    assert rates.tobytes() == want.tobytes()
    assert want[[2, 3, 4, 5]].tolist() == [0.0] * 4
    assert want[[6, 7, 8, 9, 10, 12]].tolist() == [inf] * 6


def test_balanced_constant_flux_track():
    tr = CoefficientTrack.balanced_constant_flux(P96, 0.1, 0.1j, 0.7, 0.0, 1.0)
    c_r = current_coeffs(P96, 0.1, 0.1j).C_r
    for t in (0.0, 0.4, 1.0):
        want = 0.7 - 4.0 * math.pi * c_r * t
        assert abs(tr.vacuum_weight(t) - want) < 1e-12
    report = validate_balance(tr)
    assert report.passed and report.relative_residual < 1e-9
    with pytest.raises(DomainError):
        CoefficientTrack.balanced_constant_flux(P96, 1.0, 1j, 0.7, 0.0, 1.0)


@pytest.mark.parametrize("n", [1, 0, 1.5, 2.0])
def test_fixed_coefficient_builders_need_an_integer_of_at_least_two_knots(n):
    # one knot would drop t_end: the grid would be [t_start]
    with pytest.raises(DomainError, match="n"):
        CoefficientTrack.constant(P96, 1.0, 1j, 1.0, 0.0, 2.0, n)
    with pytest.raises(DomainError, match="n"):
        CoefficientTrack.balanced_constant_flux(P96, 0.1, 0.1j, 0.7, 0.0, 1.0, n)
    for track in (
        CoefficientTrack.constant(P96, 1.0, 1j, 1.0, 0.0, 2.0, 2),
        CoefficientTrack.balanced_constant_flux(P96, 0.1, 0.1j, 0.7, 0.0, 1.0, 2),
    ):
        assert len(track.times) == 2 and track.t_end > track.t_start


def test_balance_violation_for_constant_weight():
    tr = _constant_track()  # constant psi0 under nonzero flux
    with pytest.raises(BalanceViolation) as info:
        validate_balance(tr)
    report = info.value.report
    assert report is not None and not report.passed
    assert report.relative_residual > 0.5


def test_balance_residual_is_second_order():
    # curved but exactly balanced: c_plus = i(1 + 0.3 sin t), weight
    # drains by the closed-form flux integral
    def curved(n):
        t = np.linspace(0.0, 0.1, n)
        im = 1.0 + 0.3 * np.sin(t)
        drain = 8.0 * (1.0 + P96.q) * P96.B * (t + 0.3 * (1.0 - np.cos(t)))
        return CoefficientTrack(P96, t, np.ones(n), 1j * im, np.sqrt(0.9 - drain))

    r51 = validate_balance(curved(51), 1.0).max_residual
    r101 = validate_balance(curved(101), 1.0).max_residual
    assert 3.0 < r51 / r101 < 5.0  # halving h quarters the residual


# ---------------------------------------------------------------------
# the path state machine
# ---------------------------------------------------------------------

def _family():
    return ModelFamily(P96, 1.0)


def _balanced():
    # mass 0.3 in flight, 0.7 vacuum, moderate emission rate
    from belljump.ensemble import normalized_amplitudes

    cm, cp = normalized_amplitudes(P96, 1.0, 1j, 1.0, 0.3)
    return CoefficientTrack.balanced_constant_flux(P96, cm, cp, 0.7, 0.0, 3.0)


def test_simulate_path_deterministic():
    fam, tr = _family(), _balanced()
    paths = [
        simulate_path(
            fam, tr, Vacuum(), (0.0, 3.0),
            np.random.Generator(np.random.Philox(key=np.array([9, 4], dtype=np.uint64))),
            tol=1e-6,
        )
        for _ in range(2)
    ]
    a, b = paths
    assert len(a.entries) == len(b.entries)
    assert a.events == b.events
    assert a.vacuum_spans == b.vacuum_spans


def test_simulate_path_alternation_and_spans():
    fam, tr = _family(), _balanced()
    found_events = False
    for seed in range(12):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([13, seed], dtype=np.uint64))
        )
        path = simulate_path(fam, tr, Vacuum(), (0.0, 3.0), rng, tol=1e-6)
        kinds = [isinstance(e, VacuumInterval) for e in path.entries]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        times = [e.t0 for e in path.events]
        assert times == sorted(times)
        for ev in path.events:
            if isinstance(ev, EmissionEvent):
                found_events = True
                assert 0.0 < ev.theta0 < math.pi
                assert 0.0 <= ev.phi0 < 2.0 * math.pi
                assert in_vacuum(path, ev.t0)
        # occupancy flags agree with the recorded spans
        grid = np.linspace(0.0, 3.0, 31)
        occ = occupancy(path, grid)
        for t, flag in zip(grid, occ):
            assert flag == in_vacuum(path, t)
    assert found_events


@pytest.mark.parametrize(
    "record, fields, text",
    [
        (
            VacuumInterval(0.5, 1.25),
            ("t_start", "t_end"),
            "VacuumInterval(t_start=0.5, t_end=1.25)",
        ),
        (
            EmissionEvent(0.2, 1.0, 0.3),
            ("t0", "theta0", "phi0"),
            "EmissionEvent(t0=0.2, theta0=1.0, phi0=0.3)",
        ),
        (Absorbed(0.75), ("t0",), "Absorbed(t0=0.75)"),
        (
            ProbeCrossing(0.5, 0.01, -1),
            ("t", "r", "direction"),
            "ProbeCrossing(t=0.5, r=0.01, direction=-1)",
        ),
    ],
    ids=["VacuumInterval", "EmissionEvent", "Absorbed", "ProbeCrossing"],
)
def test_path_records_are_immutable_with_named_fields(record, fields, text):
    assert record._fields == fields
    for i, field in enumerate(fields):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        assert getattr(record, field) == record[i]
    assert repr(record) == text


def test_empty_terminals_tell_each_other_apart():
    # the two terminals without fields are not tuples: two empty
    # NamedTuples would compare equal, to each other and to ()
    assert LeftInnerRegion() != TimeExhausted()
    assert LeftInnerRegion() != () and TimeExhausted() != ()
    assert LeftInnerRegion() == LeftInnerRegion()


def test_simulate_path_ingoing_absorbs_then_stays_vacuum():
    fam = ModelFamily(P96, 1.0, r_min=1e-9)
    tr = _constant_track(cp=-1j)  # ingoing: no emissions ever
    start = Particle(1e-3, 1.4, 0.0)
    rng = np.random.default_rng(56)
    path = simulate_path(fam, tr, start, (0.0, 3.0), rng, tol=1e-8)
    assert len(path.absorptions) == 1
    assert len(path.emissions) == 0
    t0 = path.absorptions[0].t0
    seg = path.segments[0]
    assert isinstance(seg.terminal, Absorbed)
    assert path.vacuum_spans == ((t0, 3.0),)
    assert not in_vacuum(path, 0.5 * t0)
    assert in_vacuum(path, 2.0)


def test_simulate_path_outgoing_particle_leaves_and_parks():
    fam = _family()
    tr = _constant_track()  # outgoing flux
    rng = np.random.default_rng(57)
    path = simulate_path(fam, tr, Particle(0.01, math.pi / 2, 0.0), (0.0, 3.0), rng)
    assert path.events == ()
    assert len(path.segments) == 1
    assert isinstance(path.segments[0].terminal, LeftInnerRegion)
    assert path.vacuum_spans == ()


def test_emission_inside_seed_time_of_window_end_records_no_flight(monkeypatch):
    # an emission so close to t_b that the particle is still inside the
    # seed radius when the window closes: the path ends with the emission
    fam, tr = _family(), _constant_track()
    t_b = 3.0
    t_jump = math.nextafter(t_b, 0.0)
    model = fam.at(*tr.coefficients(t_jump))
    with pytest.raises(WindowClosed):
        emit_trajectory(model, t_jump, 1.0, 0.0, t_end=t_b)
    monkeypatch.setattr(jump_process, "sample_waiting_time", lambda *a: t_jump)
    rng = np.random.default_rng(58)
    path = simulate_path(fam, tr, Vacuum(), (0.0, t_b), rng)
    assert path.vacuum_spans == ((0.0, t_jump),)
    assert len(path.emissions) == 1 and path.emissions[0].t0 == t_jump
    assert path.segments == ()


def test_simulate_path_flight_evaluation():
    # fixed coefficients (a constant track): closed form; a spline track
    # keeps refreshing them, so it stays on the integrator
    fam = _family()
    start = Particle(0.01, math.pi / 2, 0.0)
    varying = CoefficientTrack(
        P96, np.linspace(0.0, 3.0, 9), np.ones(9),
        1j * np.linspace(1.0, 1.5, 9), np.full(9, 0.5),
    )
    for family, track, stepped in (
        (fam, _constant_track(), False),
        (fam, varying, True),
    ):
        rng = np.random.default_rng(58)
        path = simulate_path(family, track, start, (0.0, 3.0), rng)
        seg = path.segments[0]
        assert isinstance(seg.terminal, LeftInnerRegion)
        assert (seg.n_accepted > 0) == stepped
    # no radial flux: the particle circles at its start radius to the end
    rng = np.random.default_rng(59)
    path = simulate_path(fam, _constant_track(cp=0.5), start, (0.0, 3.0), rng)
    seg = path.segments[0]
    assert isinstance(seg.terminal, TimeExhausted)
    assert seg.t[-1] == 3.0 and np.allclose(seg.r, 0.01, rtol=1e-12)


def test_fly_picks_each_flights_model_and_field():
    # the model holds the coefficients at the launch time; the field is
    # psi_t on a varying track, and those fixed coefficients on a
    # constant track
    fam = _family()
    t = np.linspace(0.0, 3.0, 9)
    varying = CoefficientTrack(
        P96, t, np.ones(9), np.exp(1j * (0.5 * math.pi + 0.7 * np.sin(t))),
        np.full(9, 0.5),
    )
    start = SphericalState(0.2, 0.01, math.pi / 2, 0.0)
    emission = EmissionEvent(0.2, 1.0, 0.3)

    def fingerprint(seg):
        return (
            seg.t.tobytes(), seg.r.tobytes(), seg.theta, seg.phi.tobytes(),
            seg.terminal, seg.probe_crossings, seg.n_accepted, seg.n_rejected,
            seg.model,
        )

    for family, track, field in (
        (fam, varying, varying),
        (fam, _constant_track(), None),
    ):
        model = family.at(*track.coefficients(0.2))
        for dense in (False, True):
            kw = {"probe_radius": 0.1, "dense": dense}
            got = fly(family, track, start, 2.5, 1e-8, **kw)
            want = integrate(model, start, 2.5, 1e-8, refresh=field, **kw)
            assert fingerprint(got) == fingerprint(want)
            got = fly(family, track, emission, 2.5, 1e-8, **kw)
            want = emit_trajectory(
                model, 0.2, 1.0, 0.3, 1e-8, t_end=2.5, refresh=field, **kw
            )
            assert fingerprint(got) == fingerprint(want)


def test_psi_t_flights_read_coefficients_only_at_launch(monkeypatch):
    # the stages read the track's pieces themselves; the one call to
    # CoefficientTrack.coefficients is fly's, for the launch-time model
    t = np.linspace(0.0, 3.0, 9)
    varying = CoefficientTrack(
        P96, t, np.ones(9), np.exp(1j * (0.5 * math.pi + 0.7 * np.sin(t))),
        np.full(9, 0.5),
    )
    read = CoefficientTrack.coefficients
    calls = []

    def counting(self, t):
        calls.append(t)
        return read(self, t)

    monkeypatch.setattr(CoefficientTrack, "coefficients", counting)
    for launch in (SphericalState(0.2, 0.01, math.pi / 2, 0.0), EmissionEvent(0.2, 1.0, 0.3)):
        for dense in (False, True):
            calls.clear()
            seg = fly(_family(), varying, launch, 2.5, 1e-8, probe_radius=0.1, dense=dense)
            assert seg.n_accepted > 10
            assert calls == [0.2]


def test_psi_t_flight_model_is_the_family_model_at_launch():
    # the family hands back its last model for an equal pair and builds a
    # new one for any other, so alternating launches never get a stale one
    t = np.linspace(0.0, 3.0, 9)
    varying = CoefficientTrack(
        P96, t, np.ones(9), np.exp(1j * (0.5 * math.pi + 0.7 * np.sin(t))),
        np.full(9, 0.5),
    )
    fam = _family()
    for t0 in (0.2, 1.3, 0.2, 0.2, 2.1):
        seg = fly(fam, varying, EmissionEvent(t0, 1.0, 0.3), 2.9, 1e-6)
        assert seg.n_accepted > 0
        pair = varying.coefficients(t0)
        assert seg.model is fam.at(*pair)
        assert seg.model == ModelWavefunction(P96, *pair, 1.0)


def test_fixed_flights_share_one_model():
    fam, tr = _family(), _constant_track()
    for t0 in (0.1, 0.7, 1.9):
        seg = fly(fam, tr, EmissionEvent(t0, 1.0, 0.3), 3.0, 1e-6)
        assert seg.n_accepted == 0 and seg.model is fam.at(1.0, 1j)


def test_simulate_path_guards():
    fam, tr, rng = _family(), _balanced(), np.random.default_rng(60)
    with pytest.raises(DomainError):
        simulate_path(fam, tr, Vacuum(), (0.0, 5.0), rng)  # beyond the track
    with pytest.raises(DomainError):
        simulate_path(fam, tr, Vacuum(), (1.0, 1.0), rng)
    # the flight checks a particle's radius: r_min < r < r_cut/2
    for r in (0.0, -1e-3, math.nan, 0.9):
        with pytest.raises(DomainError, match="initial radius"):
            simulate_path(fam, tr, Particle(r, 1.0, 0.5), (0.0, 1.0), rng)
    # the family must fly with the params the track's rate law uses
    other = ModelFamily(canonical_params(-0.93), 1.0)
    with pytest.raises(DomainError, match="params"):
        simulate_path(other, tr, Vacuum(), (0.0, 1.0), rng)

