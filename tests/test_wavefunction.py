"""Model wave function: dual-route currents, expansion coefficients,
speed bound, cutoff bridge, radial mass profile."""

import math

import numpy as np
import pytest

from belljump import (
    DegenerateError,
    DomainError,
    OriginError,
    canonical_params,
)
from belljump.wavefunction import (
    SUBLEADING_DELTA,
    CurrentCoeffs,
    ModelFamily,
    ModelWavefunction,
    current_coeffs,
    current_exact,
    current_weights,
    cutoff,
    eval_psi1,
    particle_sector_mass,
    radial_amplitudes,
    radial_mass_profile,
    overlap_parts,
    reduced_amplitudes,
    span_currents,
)
from oracles import density_exact, velocity_field

LABELS = ((-0.5, -1), (-0.5, 1), (0.5, -1), (0.5, 1))


def _random_model(rng, q=None, subleading=False):
    if q is None:
        q = math.copysign(rng.uniform(0.87, 0.999), rng.normal())
    m_tilde, kappa_tilde = LABELS[rng.integers(0, 4)]
    p = canonical_params(q, m_tilde, kappa_tilde)
    c_minus = complex(rng.normal(), rng.normal())
    c_plus = complex(rng.normal(), rng.normal())
    sub = (0j, 0j)
    if subleading:
        sub = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    return ModelWavefunction(p, c_minus, c_plus, 1.0, sub)


def _random_point(rng, r_lo=1e-6, r_hi=0.999):
    """(r, theta, phi), log-uniform in r and away from the poles."""
    r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
    theta = rng.uniform(0.1, math.pi - 0.1)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r, theta, phi


# ---------------------------------------------------------------------
# two evaluation routes for the same current
# ---------------------------------------------------------------------

def test_current_dual_route():
    # spinor contraction psi^dag alpha psi against the bilinear route
    # through the radial amplitudes; subleading and cutoff included
    rng = np.random.default_rng(31)
    worst = 0.0
    for k in range(60):
        m = _random_model(rng, subleading=(k % 2 == 1))
        r, theta, phi = _random_point(rng)
        j = current_exact(m, r, theta, phi)
        a, c = radial_amplitudes(m, r)
        j_r, j_phi_over_sin, rho = span_currents(
            current_weights(m.params), a.real, a.imag, c.real, c.imag
        )
        scale = max(np.max(np.abs(j)), abs(rho), 1e-300)
        worst = max(
            worst,
            abs(j[0] - j_r) / scale,
            abs(j[1]) / scale,
            abs(j[2] - j_phi_over_sin * math.sin(theta)) / scale,
            abs(density_exact(m, r, theta, phi) - rho) / scale,
        )
    assert worst < 1e-10


def _complex_form(params, a, c):
    # the kernel written with CPython's complex product X = conj(A) C
    q, B = params.q, params.B
    w = (1.0 + q) / math.pi
    x = a.conjugate() * c
    mod2 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    return (
        2.0 * w * B * x.imag,
        -w * params.sign_mk * (q * mod2 + 2.0 * x.real),
        w * (mod2 + 2.0 * q * x.real),
    )


def test_span_currents_real_parts_match_the_complex_product_bitwise():
    # the real-part kernel performs the IEEE operations of CPython's
    # complex product conj(A) C: equal bits for complex scalars, and on
    # numpy arrays (array with array, and a scalar A as the mass profile
    # passes it) the same bits elementwise, signed zeros included.  (numpy's
    # own complex product may fuse a multiply-add and differ in the last
    # bit, so it is not the reference.)
    rng = np.random.default_rng(33)
    values = np.concatenate([
        rng.normal(size=1000) * 10.0 ** rng.uniform(-8.0, 8.0, 1000),
        [0.0, -0.0, 1.0, -1.0],
    ])
    a_r, a_i, c_r, c_i = rng.choice(values, size=(4, 1000))
    a = [complex(x, y) for x, y in zip(a_r.tolist(), a_i.tolist())]
    c = [complex(x, y) for x, y in zip(c_r.tolist(), c_i.tolist())]
    for k, q in enumerate((0.9, -0.95, 0.999, -0.87)):
        p = canonical_params(q, *LABELS[k])
        weights = current_weights(p)
        want = np.array([_complex_form(p, ak, ck) for ak, ck in zip(a, c)]).T
        scalar = np.array([
            span_currents(weights, ak.real, ak.imag, ck.real, ck.imag)
            for ak, ck in zip(a, c)
        ]).T
        assert scalar.tobytes() == want.tobytes()
        assert np.array(span_currents(weights, a_r, a_i, c_r, c_i)).tobytes() == (
            want.tobytes()
        )
        a0 = a[k]
        want = np.array([_complex_form(p, a0, ck) for ck in c]).T
        got = np.array(span_currents(weights, a0.real, a0.imag, c_r, c_i))
        assert got.tobytes() == want.tobytes()


def test_polar_current_vanishes_pointwise():
    rng = np.random.default_rng(32)
    for k in range(30):
        m = _random_model(rng, subleading=(k % 3 == 0))
        j = current_exact(m, *_random_point(rng))
        assert abs(j[1]) <= 5e-14 * max(np.max(np.abs(j)), 1e-300)


# ---------------------------------------------------------------------
# closed-form expansion coefficients
# ---------------------------------------------------------------------

def test_current_coeffs_frozen_example():
    p = canonical_params(0.96)
    cc = current_coeffs(p, 1.0, 1j)
    # C_r = 2 (1+q) B Im[conj(c-) c+] / pi at q = 0.96, c = (1, i)
    assert abs(cc.C_r - 0.3493769310753287) < 1e-15
    assert abs(4.0 * math.pi * cc.C_r - 4.3904) < 1e-12


def test_current_coeffs_reproduce_exact_currents():
    # r^2 j_r = C_r and r^(2+2B) j_phi / sin(theta) is the stated
    # quadratic polynomial in r^(2B), exactly, at any radius below the
    # cutoff shoulder
    rng = np.random.default_rng(33)
    for _ in range(25):
        m = _random_model(rng)
        p = m.params
        cc = current_coeffs(p, m.c_minus, m.c_plus)
        for r in (1e-7, 1e-4, 0.049):
            _, theta, phi = _random_point(rng, r_lo=r, r_hi=r)
            j = current_exact(m, r, theta, phi)
            u = r ** (2.0 * p.B)
            assert abs(r * r * j[0] - cc.C_r) < 1e-9 * max(abs(cc.C_r), 1e-6)
            poly = cc.Cphi_leading + cc.Cphi_mid * u + cc.Cphi_sub * u * u
            got = r ** (2.0 + 2.0 * p.B) * j[2] / math.sin(theta)
            assert abs(got - poly) < 1e-8 * max(abs(poly), 1e-6)
            rho_poly = (
                cc.rho_leading
                + cc.rho_mid * u
                + abs(m.c_plus) ** 2 * (1.0 + p.q) / math.pi * u * u
            )
            got_rho = r ** (2.0 + 2.0 * p.B) * density_exact(m, r, theta, phi)
            assert abs(got_rho - rho_poly) < 1e-8 * max(rho_poly, 1e-6)


def test_radial_current_is_angle_independent():
    rng = np.random.default_rng(34)
    m = _random_model(rng, q=0.95)
    r = 1e-3
    values = []
    for _ in range(10):
        j = current_exact(m, *_random_point(rng, r_lo=r, r_hi=r))
        values.append(r * r * j[0])
    assert np.ptp(values) < 1e-12 * max(abs(v) for v in values)


# ---------------------------------------------------------------------
# speed bound and guards
# ---------------------------------------------------------------------

def test_speed_never_exceeds_light():
    rng = np.random.default_rng(35)
    for k in range(80):
        m = _random_model(rng, subleading=(k % 2 == 0))
        v = velocity_field(m, *_random_point(rng, r_hi=0.4999))
        assert np.linalg.norm(v) <= 1.0 + 1e-12


def test_velocity_guards():
    m = ModelWavefunction(canonical_params(0.9), 1.0, 1j, 1.0)
    with pytest.raises(OriginError):
        velocity_field(m, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        velocity_field(m, 0.7, 1.0, 0.0)  # outside the inner region
    for r in (0.0, -1e-3, math.nan):
        with pytest.raises(OriginError):
            eval_psi1(m, r, 1.0, 0.0)
        with pytest.raises(OriginError):
            current_exact(m, r, 1.0, 0.0)
    with pytest.raises(DomainError):
        ModelWavefunction(canonical_params(0.9), 1.0, 1j, -1.0)


# ---------------------------------------------------------------------
# cutoff bridge
# ---------------------------------------------------------------------

def test_cutoff_c1_bridge():
    r_cut = 2.0
    assert cutoff(0.3, r_cut) == 1.0
    assert cutoff(1.0, r_cut) == 1.0
    assert cutoff(2.0, r_cut) == 0.0
    assert cutoff(2.5, r_cut) == 0.0
    # continuity and flat slope at both joints
    h = 1e-7
    for joint in (1.0, 2.0):
        left = (cutoff(joint, r_cut) - cutoff(joint - h, r_cut)) / h
        right = (cutoff(joint + h, r_cut) - cutoff(joint, r_cut)) / h
        assert abs(left) < 1e-5 and abs(right) < 1e-5
    # monotone across the shoulder
    grid = np.linspace(1.0, 2.0, 101)
    vals = [cutoff(r, r_cut) for r in grid]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    # an array of radii gives the scalar values elementwise
    radii = np.concatenate(([0.0, 0.3], grid, [2.5]))
    scalars = [cutoff(float(r), r_cut) for r in radii]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(cutoff(radii, r_cut), scalars)


def test_reduced_amplitudes_limits():
    rng = np.random.default_rng(36)
    m = _random_model(rng, q=0.93)
    a0, c0 = reduced_amplitudes(m.params, m.c_minus, m.c_plus, 1e-12, m.subleading_amp)
    assert abs(a0 - m.c_minus) < 1e-12
    assert abs(c0) < 1e-6  # c_plus r^2B -> 0
    with pytest.raises(OriginError):
        radial_amplitudes(m, 0.0)
    # with subleading terms, elementwise on an array that includes r = 0:
    # times r^(-1-B) the pair is the model's c- r^(-1-B) + s- r^(-1/2+delta)
    # and c+ r^(-1+B) + s+ r^(-1/2+delta); at r = 0 it is (c_minus, 0)
    ms = _random_model(rng, q=-0.95, subleading=True)
    B, (s_minus, s_plus) = ms.params.B, ms.subleading_amp
    r = np.array([0.0, 1e-9, 1e-3, 0.2])
    a, c = reduced_amplitudes(ms.params, ms.c_minus, ms.c_plus, r, ms.subleading_amp)
    assert a[0] == ms.c_minus and c[0] == 0.0
    rr = r[1:]
    want_a = ms.c_minus * rr ** (-1.0 - B) + s_minus * rr ** (-0.5 + SUBLEADING_DELTA)
    want_c = ms.c_plus * rr ** (-1.0 + B) + s_plus * rr ** (-0.5 + SUBLEADING_DELTA)
    assert np.allclose(a[1:] * rr ** (-1.0 - B), want_a, rtol=1e-12, atol=0.0)
    assert np.allclose(c[1:] * rr ** (-1.0 - B), want_c, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------
# radial mass profile
# ---------------------------------------------------------------------

def test_mass_profile_against_weighted_quadrature():
    # independent route: peel off the r^-2B factor and hand the
    # algebraic endpoint weight to quadpack
    from scipy.integrate import quad

    p = canonical_params(0.96)
    m = ModelWavefunction(p, 0.7 + 0.2j, -0.5j, 1.0)
    B, w = p.B, (1.0 + p.q) / math.pi

    def shell(r):  # 4 pi r^2 |psi|^2; the density is angle-independent
        return 4.0 * math.pi * r * r * density_exact(m, r, math.pi / 2, 0.0)

    def peeled(r):
        if r == 0.0:
            return 4.0 * math.pi * w * abs(m.c_minus) ** 2
        return shell(r) * r ** (2.0 * B)

    inner, _ = quad(peeled, 0.0, 0.5, weight="alg", wvar=(-2.0 * B, 0.0), limit=200)
    outer, _ = quad(shell, 0.5, 1.0)
    ref = inner + outer
    mine = particle_sector_mass(m)
    assert abs(mine - ref) / ref < 5e-8  # measured 3.9e-9


def test_mass_profile_shape():
    rng = np.random.default_rng(37)
    m = _random_model(rng, q=-0.91)
    s_grid, cum = radial_mass_profile(m)
    assert s_grid[0] == 0.0 and cum[0] == 0.0
    assert np.all(np.diff(cum) >= 0.0)
    assert abs(s_grid[-1] - m.r_cut ** (1.0 - 2.0 * m.params.B)) < 1e-14
    assert abs(cum[-1] - particle_sector_mass(m)) == 0.0


def test_model_family_at():
    p = canonical_params(0.9)
    fam = ModelFamily(p, 2.0, (0.1j, 0.2))
    m = fam.at(1.0 - 1j, 0.5j)
    assert m.params is p and m.r_cut == 2.0
    assert m.c_minus == 1.0 - 1j and m.c_plus == 0.5j
    assert m.subleading_amp == (0.1j, 0.2 + 0j)
    assert m.has_subleading
    assert not fam.at(1.0, 1j).has_subleading or fam.subleading_amp != (0j, 0j)
    # the absorption radius defaults to 1e-8 r_cut and is passed on
    assert fam.r_min == m.r_min == 2e-8
    assert ModelFamily(p, 2.0, r_min=1e-6).at(1.0, 1j).r_min == 1e-6
    for r_min in (0.0, -1e-9, 0.6, 0.06):
        with pytest.raises(DomainError, match="r_min"):
            ModelFamily(p, r_cut=1.0, r_min=r_min)
        with pytest.raises(DomainError, match="r_min"):
            ModelWavefunction(p, 1.0, 1j, r_cut=1.0, r_min=r_min)


def test_model_family_reuses_only_an_equal_pair():
    p = canonical_params(0.9)
    fam = ModelFamily(p, 2.0, (0.1j, 0.2))
    for cm, cp in ((1.0 - 1j, 0.5j), (0.3, -0.2j), (1.0 - 1j, 0.5j), (0.3, -0.2j)):
        m = fam.at(cm, cp)
        assert m == ModelWavefunction(p, cm, cp, 2.0, (0.1j, 0.2))
        assert fam.at(cm, cp) is m
        assert fam.at(complex(cm), complex(cp)) is m
    # the memo is no field: families still compare by their fields
    assert fam == ModelFamily(p, 2.0, (0.1j, 0.2))


def test_overlap_parts_are_formed_once_per_model():
    m = ModelWavefunction(canonical_params(0.9), 0.7 + 0.2j, -0.5j, 1.0)
    parts = m.overlap_parts
    assert parts == overlap_parts(0.7 + 0.2j, -0.5j)
    assert m.overlap_parts is parts
    assert m == ModelWavefunction(canonical_params(0.9), 0.7 + 0.2j, -0.5j, 1.0)
    flat = ModelWavefunction(canonical_params(0.9), 1.0, 0.5, 1.0)
    with pytest.raises(DegenerateError):
        flat.overlap_parts
