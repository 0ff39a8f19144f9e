"""Basis spinors, boundary spinors and their closed-form overlaps.

The j = 1/2 basis spinors are checked against spinor harmonics built
from sympy's spherical harmonics and Clebsch-Gordan coefficients
(independent oracle); everything built on top is checked by quadrature
and by randomized pointwise grids against the closed forms.
"""

import math

import numpy as np
import pytest

from belljump import DomainError, canonical_params
from belljump.spinor_basis import (
    SpherePoint,
    alpha_component,
    basis_alpha_overlap_closed,
    basis_overlap_closed,
    boundary_alpha_overlap_closed,
    boundary_overlap_closed,
    f_boundary,
    frame_vectors,
    from_spherical,
    phi_basis,
    sphere_quadrature,
    to_spherical,
)

LABELS = ((-0.5, -1), (-0.5, 1), (0.5, -1), (0.5, 1))


def _points(rng, n):
    return [
        SpherePoint(rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(n)
    ]


def _sympy_ynm(l, m):
    """Y_l^m(theta, phi) from sympy.Ynm, lambdified to a complex function."""
    import sympy

    theta, phi = sympy.symbols("theta phi", real=True)
    expr = sympy.Ynm(l, m, theta, phi).expand(func=True)
    f = sympy.lambdify((theta, phi), expr, "cmath")
    return lambda pt: complex(f(pt.theta, pt.phi))


def _sympy_spinor_harmonic(l, m_j):
    """j = 1/2 two-spinor harmonic with orbital label l, coupled spin
    first: sum over m_s of <1/2 m_s; l m_j-m_s | 1/2 m_j> Y_l^(m_j-m_s)."""
    import sympy
    from sympy.physics.quantum.cg import CG

    half = sympy.Rational(1, 2)
    m = sympy.Rational(int(2 * m_j), 2)
    comps = []
    for m_s in (half, -half):
        m_l = m - m_s
        if abs(m_l) > l:
            comps.append(lambda pt: 0.0j)
            continue
        weight = complex(CG(half, m_s, l, m_l, half, m).doit())
        comps.append(lambda pt, y=_sympy_ynm(l, int(m_l)), w=weight: w * y(pt))
    return lambda pt: np.array([c(pt) for c in comps])


# ---------------------------------------------------------------------
# the basis against sympy
# ---------------------------------------------------------------------

def test_phi_basis_matches_sympy_spinor_harmonics():
    # kappa_j = -1: upper block l = 0, lower block l = 1; kappa_j = +1 swapped
    rng = np.random.default_rng(21)
    points = _points(rng, 6) + [SpherePoint(0.0, 0.4), SpherePoint(math.pi, 2.0)]
    zero = np.zeros(2)
    for m_j, kappa_j in LABELS:
        l_up, l_lo = (0, 1) if kappa_j < 0 else (1, 0)
        upper = _sympy_spinor_harmonic(l_up, m_j)
        lower = _sympy_spinor_harmonic(l_lo, m_j)
        for pt in points:
            want_plus = np.concatenate((1j * upper(pt), zero))
            want_minus = np.concatenate((zero, lower(pt)))
            got_plus = phi_basis(1, m_j, kappa_j, pt)
            got_minus = phi_basis(-1, m_j, kappa_j, pt)
            assert np.max(np.abs(got_plus - want_plus)) < 1e-14, (m_j, kappa_j, pt)
            assert np.max(np.abs(got_minus - want_minus)) < 1e-14, (m_j, kappa_j, pt)


# ---------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------

def test_sphere_quadrature_exact_on_harmonics():
    one = sphere_quadrature(lambda pt: 1.0, order=8)
    assert abs(one - 4.0 * math.pi) < 1e-13
    # harmonics integrate to zero, their squares to one
    for l, m in ((1, 0), (2, 1), (3, -2)):
        y = _sympy_ynm(l, m)
        mean = sphere_quadrature(y, order=8)
        norm = sphere_quadrature(lambda pt: abs(y(pt)) ** 2, order=8)
        assert abs(mean) < 1e-14
        assert abs(norm - 1.0) < 1e-13


def test_spinor_harmonics_orthonormal():
    # the eight basis spinors Phi^(+/-)_(m_j, kappa_j) of the j = 1/2 sector
    labels = [(s, m_j, kappa_j) for m_j, kappa_j in LABELS for s in (-1, 1)]
    for i, la in enumerate(labels):
        for lb in labels[i:]:
            val = sphere_quadrature(
                lambda pt: np.vdot(phi_basis(*la, pt), phi_basis(*lb, pt)),
                order=12,
            )
            want = 1.0 if la == lb else 0.0
            assert abs(val - want) < 1e-13, (la, lb)


# ---------------------------------------------------------------------
# pointwise identities against the closed forms
# ---------------------------------------------------------------------

def test_basis_overlaps_match_closed_forms():
    rng = np.random.default_rng(23)
    points = _points(rng, 12)
    worst = 0.0
    for m_j, kappa_j in LABELS:
        for pt in points:
            vecs = {s: phi_basis(s, m_j, kappa_j, pt) for s in (-1, 1)}
            for sa in (-1, 1):
                for sb in (-1, 1):
                    brute = np.vdot(vecs[sa], vecs[sb])
                    closed = basis_overlap_closed(sa, sb, m_j, kappa_j)
                    worst = max(worst, abs(brute - closed))
                    for k in ("r", "theta", "phi"):
                        brute_a = np.vdot(vecs[sa], alpha_component(k, pt) @ vecs[sb])
                        closed_a = basis_alpha_overlap_closed(
                            sa, sb, m_j, kappa_j, k, pt
                        )
                        worst = max(worst, abs(brute_a - closed_a))
    assert worst < 1e-12


def test_boundary_overlaps_match_closed_forms():
    rng = np.random.default_rng(24)
    points = _points(rng, 8)
    worst = 0.0
    for q in (0.95, -0.91, 0.88):
        for m_j, kappa_j in LABELS:
            p = canonical_params(q, m_j, kappa_j)
            for pt in points:
                vecs = {s: f_boundary(s, pt, p) for s in (-1, 1)}
                for sa in (-1, 1):
                    for sb in (-1, 1):
                        brute = np.vdot(vecs[sa], vecs[sb])
                        closed = boundary_overlap_closed(sa, sb, p)
                        worst = max(worst, abs(brute - closed))
                        for k in ("r", "theta", "phi"):
                            brute_a = np.vdot(
                                vecs[sa], alpha_component(k, pt) @ vecs[sb]
                            )
                            closed_a = boundary_alpha_overlap_closed(
                                sa, sb, p, k, pt
                            )
                            worst = max(worst, abs(brute_a - closed_a))
    assert worst < 1e-12


def test_boundary_spinors_are_basis_combinations():
    # f^+ = (1+q+B) Phi^+ - (1+q-B) Phi^-, and the mirrored f^-
    rng = np.random.default_rng(25)
    q = 0.9124
    for m_j, kappa_j in LABELS:
        p = canonical_params(q, m_j, kappa_j)
        for pt in _points(rng, 4):
            plus = phi_basis(1, m_j, kappa_j, pt)
            minus = phi_basis(-1, m_j, kappa_j, pt)
            f_plus = (1 + p.q + p.B) * plus - (1 + p.q - p.B) * minus
            f_minus = (1 + p.q - p.B) * plus - (1 + p.q + p.B) * minus
            assert np.max(np.abs(f_boundary(1, pt, p) - f_plus)) < 1e-13
            assert np.max(np.abs(f_boundary(-1, pt, p) - f_minus)) < 1e-13


def test_closed_forms_reject_higher_sectors():
    with pytest.raises(DomainError):
        basis_overlap_closed(1, 1, 1.5, 2)
    with pytest.raises(DomainError):
        phi_basis(1, 0.5, 3, SpherePoint(1.0, 0.0))  # j = 5/2
    with pytest.raises(DomainError):
        phi_basis(1, 1.5, 1, SpherePoint(1.0, 0.0))  # |m_j| > j
    with pytest.raises(DomainError):
        phi_basis(1, 0.5, 0, SpherePoint(1.0, 0.0))
    with pytest.raises(DomainError):
        phi_basis(2, 0.5, 1, SpherePoint(1.0, 0.0))


# ---------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------

def test_alpha_matrices_clifford_relations():
    rng = np.random.default_rng(26)
    eye = np.eye(4)
    for pt in _points(rng, 5):
        mats = {k: alpha_component(k, pt) for k in ("r", "theta", "phi")}
        for ka, ma in mats.items():
            assert np.max(np.abs(ma - ma.conj().T)) < 1e-14
            for kb, mb in mats.items():
                anti = ma @ mb + mb @ ma
                want = 2.0 * eye if ka == kb else 0.0 * eye
                assert np.max(np.abs(anti - want)) < 1e-13, (ka, kb)
    with pytest.raises(DomainError):
        alpha_component("x", SpherePoint(1.0, 0.0))


def test_frame_vectors_orthonormal_right_handed():
    rng = np.random.default_rng(27)
    for pt in _points(rng, 10):
        e_r, e_theta, e_phi = frame_vectors(pt)
        for v in (e_r, e_theta, e_phi):
            assert abs(np.dot(v, v) - 1.0) < 1e-14
        assert abs(np.dot(e_r, e_theta)) < 1e-14
        assert abs(np.dot(e_r, e_phi)) < 1e-14
        assert np.max(np.abs(np.cross(e_r, e_theta) - e_phi)) < 1e-14


def test_spherical_round_trip():
    rng = np.random.default_rng(28)
    for _ in range(20):
        x = rng.normal(size=3)
        r, theta, phi = to_spherical(x)
        assert r > 0.0 and 0.0 <= theta <= math.pi
        back = from_spherical(r, theta, phi)
        assert np.max(np.abs(back - x)) < 1e-13 * max(1.0, r)
    assert to_spherical((0.0, 0.0, 0.0))[0] == 0.0
