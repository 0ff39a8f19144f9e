"""Parameter validation: admissible band and labels; the circling sense."""

import math

import numpy as np
import pytest

from belljump import (
    ADMISSIBLE_LABELS,
    RangeError,
    SetError,
    canonical_params,
    circling_sign,
)

Q_LOW = math.sqrt(3.0) / 2.0


def test_admissible_band_both_signs():
    for q in (0.87, 0.96, 0.9999, -0.87, -0.96, -0.9999):
        p = canonical_params(q)
        assert p.q == q
        assert 0.0 < p.B < 0.5
        assert abs(p.B - math.sqrt(1.0 - q * q)) < 1e-15


@pytest.mark.parametrize("q", [0.0, 0.5, Q_LOW, -Q_LOW, 1.0, -1.0, 1.5, -2.0])
def test_band_edges_and_outside_rejected(q):
    with pytest.raises(RangeError):
        canonical_params(q)


def test_b_is_open_interval():
    # B = sqrt(1 - q^2) lands in (0, 1/2) exactly when sqrt(3)/2 < |q| < 1
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = math.copysign(rng.uniform(Q_LOW + 1e-6, 1.0 - 1e-6), rng.normal())
        p = canonical_params(q)
        assert 0.0 < p.B < 0.5


@pytest.mark.parametrize(
    "m_tilde,kappa_tilde",
    [(1.5, 1), (0.5, 2), (0.0, 1), (0.5, 0), (-0.5, 3), (0.25, -1)],
)
def test_inadmissible_labels_rejected(m_tilde, kappa_tilde):
    q = 0.9
    with pytest.raises(SetError):
        canonical_params(q, m_tilde, kappa_tilde)


def test_admissible_labels_accepted():
    q = 0.9
    assert len(ADMISSIBLE_LABELS) == 4
    for m_tilde, kappa_tilde in ADMISSIBLE_LABELS:
        p = canonical_params(q, m_tilde, kappa_tilde)
        assert p.sign_mk == (1 if m_tilde * kappa_tilde > 0 else -1)


def test_circling_sign_table():
    # -sgn(q) * sgn(m~ k~) over all four quadrants
    assert circling_sign(canonical_params(0.9, 0.5, 1)) == -1
    assert circling_sign(canonical_params(0.9, -0.5, 1)) == 1
    assert circling_sign(canonical_params(-0.9, 0.5, 1)) == 1
    assert circling_sign(canonical_params(0.9, -0.5, -1)) == -1
    assert circling_sign(canonical_params(-0.9, -0.5, -1)) == 1

