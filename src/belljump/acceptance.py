"""Headless acceptance suite: nine numbered checks covering the
boundary-spinor identities, the near-source current expansion, the
asymptotic trajectory laws (radial power, azimuthal winding, cone), the
emission-rate law, the uniformity of emission angles, equivariance of
the sampled process, and flux balance at a probe sphere.

Each check returns (passed, detail) against pinned tolerances; the
_criterion decorator gives it its number, name and wall-clock budget and
turns it into a timed AcceptanceResult.  run_all() executes them in order.
Seeds are fixed so every run is bit-reproducible.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import (
    angle_arrays_report,
    flux_report,
    master_equation_occupancy,
    normalized_amplitudes,
    run_ensemble,
    sector0_comparison,
)
from .errors import ValidationError, integer_at_least
from .jump_process import (
    CoefficientTrack,
    jump_rate_density,
    sample_emission_angles,
    total_jump_rate,
)
from .params import _Q_LOW, ADMISSIBLE_LABELS, canonical_params, circling_sign
from .spinor_basis import (
    SpherePoint,
    alpha_component,
    basis_alpha_overlap_closed,
    basis_overlap_closed,
    boundary_alpha_overlap_closed,
    boundary_overlap_closed,
    f_boundary,
    phi_basis,
    sphere_quadrature,
)
from .trajectory import (
    Absorbed,
    SphericalState,
    azimuth_from_radius,
    fit_power_law,
    integrate,
    time_from_radius,
)
from .wavefunction import (
    ModelFamily,
    ModelWavefunction,
    current_coeffs,
    current_exact,
    eval_psi1,
)


@dataclass(frozen=True)
class AcceptanceResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    @property
    def within_budget(self) -> bool:
        return self.elapsed < self.budget


#: Criterion number -> check returning an AcceptanceResult, filled by
#: the _criterion decorator in definition order.
_CRITERIA: dict[int, Callable[[], AcceptanceResult]] = {}


def _criterion(number: int, name: str, budget: float):
    """Register a check returning (passed, detail) as criterion `number`
    with a wall-clock budget in seconds; the registered function times
    the check and returns its AcceptanceResult."""

    def register(check):
        @functools.wraps(check)
        def run() -> AcceptanceResult:
            t0 = time.perf_counter()
            passed, detail = check()
            elapsed = time.perf_counter() - t0
            return AcceptanceResult(number, name, bool(passed), detail, elapsed, budget)

        _CRITERIA[number] = run
        return run

    return register


# =====================================================================
# 1. boundary-spinor identities
# =====================================================================

_QUANTITIES = ("overlap", "alpha_r", "alpha_theta", "alpha_phi")
_PAIRS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def _spinors(family, label, params, point):
    """The family's spinors of sign -1 and +1 at point, keyed by sign."""
    if family == "basis":
        return {s: phi_basis(s, *label, point) for s in (-1, 1)}
    return {s: f_boundary(s, point, params) for s in (-1, 1)}


def _residual(quantity, family, sa, sb, label, params, point, vecs):
    """Brute-force contraction of vecs[sa] and vecs[sb] at point minus
    the closed form of the identity (the basis pair ignores params)."""
    if quantity == "overlap":
        brute = complex(np.vdot(vecs[sa], vecs[sb]))
        if family == "basis":
            return brute - basis_overlap_closed(sa, sb, *label)
        return brute - boundary_overlap_closed(sa, sb, params)
    k = quantity.split("_", 1)[1]
    brute = complex(np.vdot(vecs[sa], alpha_component(k, point) @ vecs[sb]))
    if family == "basis":
        return brute - basis_alpha_overlap_closed(sa, sb, *label, k, point)
    return brute - boundary_alpha_overlap_closed(sa, sb, params, k, point)


def _identity_rows(q, label, family, params, check, over):
    """One row per quantity and sign pair; over(residual) reduces the
    identity's residual(point, spinors) to the row's residual."""
    return [
        {
            "q": q,
            "m_tilde": label[0],
            "kappa_tilde": label[1],
            "family": family,
            "quantity": quantity,
            "sign_a": sa,
            "sign_b": sb,
            "check": check,
            "residual": over(
                functools.partial(_residual, quantity, family, sa, sb, label, params)
            ),
        }
        for quantity in _QUANTITIES
        for sa, sb in _PAIRS
    ]


def _pointwise_rows(q, label, family, params, points):
    """Max |residual| over the points, the spinors computed once a point."""
    vecs = [_spinors(family, label, params, pt) for pt in points]
    return _identity_rows(
        q, label, family, params, "pointwise",
        lambda residual: max(abs(residual(pt, v)) for pt, v in zip(points, vecs)),
    )


def lemma_residual_rows(
    seed: int = 0, n_points: int = 100, n_q: int = 5, order: int = 0
):
    """Max |closed form - brute-force contraction| per identity, over a
    random point cloud and random admissible q; with order > 0, also
    whole-sphere quadrature checks against the exact integrals.

    Returns (rows, overall max residual); DomainError unless seed and
    order are integers >= 0 and n_points and n_q integers >= 1."""
    seed = integer_at_least("seed", seed, 0)
    n_points = integer_at_least("n_points", n_points, 1)
    n_q = integer_at_least("n_q", n_q, 1)
    order = integer_at_least("order", order, 0)
    rng = np.random.default_rng(seed)
    points = [
        SpherePoint(
            math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random()
        )
        for _ in range(n_points)
    ]
    q_values = [_Q_LOW + (1.0 - _Q_LOW) * rng.random() for _ in range(n_q)]

    rows = []
    for label in ADMISSIBLE_LABELS:
        # the free basis pair has no q dependence
        rows += _pointwise_rows(math.nan, label, "basis", None, points)
        for q in q_values:
            params = canonical_params(q, m_tilde=label[0], kappa_tilde=label[1])
            rows += _pointwise_rows(q, label, "boundary", params, points)

    if order > 0:
        # integral form of the same identities: quadrature of the
        # residual field (quadrature of sin(theta)-shaped closed forms
        # themselves converges only algebraically, so do not compare
        # against hand-evaluated integrals)
        label = ADMISSIBLE_LABELS[0]
        params = canonical_params(q_values[0], m_tilde=label[0], kappa_tilde=label[1])
        for family in ("basis", "boundary"):
            rows += _identity_rows(
                params.q, label, family, params, "quadrature",
                lambda residual: abs(sphere_quadrature(
                    lambda pt: residual(pt, _spinors(family, label, params, pt)),
                    order,
                )),
            )
    return rows, max(row["residual"] for row in rows)


@_criterion(1, "boundary-spinor identities", 5.0)
def criterion_1():
    _, worst = lemma_residual_rows(seed=101, n_points=100, n_q=5, order=0)
    return (
        worst < 1e-10,
        f"max pointwise residual {worst:.2e} (tol 1e-10)",
    )


# =====================================================================
# 2. near-source current expansion
# =====================================================================

@_criterion(2, "near-source current expansion", 5.0)
def criterion_2():
    rng = np.random.default_rng(202)
    worst_r = worst_phi = worst_theta = 0.0
    radii = np.geomspace(1e-6, 1e-3, 16)
    for q in (0.95, -0.92, 0.9124):
        for label in (ADMISSIBLE_LABELS[0], ADMISSIBLE_LABELS[1]):
            params = canonical_params(q, m_tilde=label[0], kappa_tilde=label[1])
            cm = complex(*rng.normal(size=2))
            cp = complex(*rng.normal(size=2))
            model = ModelWavefunction(params, cm, cp, r_cut=1.0)
            cc = current_coeffs(params, cm, cp)
            b2 = 2.0 * params.B
            for r in radii:
                for theta in (0.31, 1.2, 2.8):
                    j_r, j_th, j_ph = current_exact(model, r, theta, 0.0)
                    worst_r = max(worst_r, abs(r * r * j_r - cc.C_r) / abs(cc.C_r))
                    poly = (
                        cc.Cphi_leading
                        + cc.Cphi_mid * r**b2
                        + cc.Cphi_sub * r ** (2.0 * b2)
                    )
                    lhs = r ** (2.0 + b2) * j_ph / math.sin(theta)
                    worst_phi = max(worst_phi, abs(lhs - poly) / abs(poly))
                    # j_theta vanishes identically; scale against the
                    # local current magnitude
                    scale = max(abs(j_r), abs(j_ph))
                    worst_theta = max(worst_theta, abs(j_th) / scale)
    passed = worst_r < 1e-9 and worst_phi < 1e-8 and worst_theta < 5e-14
    return (
        passed,
        f"r^2 j_r rel {worst_r:.2e} (tol 1e-9), "
        f"j_phi poly rel {worst_phi:.2e} (tol 1e-8), "
        f"j_theta rel {worst_theta:.2e} (tol 5e-14)",
    )


# =====================================================================
# 3-5. near-source trajectory laws
# =====================================================================

_R0 = 1e-4  # start radius of every test flight


def _benign_pair(rng):
    """A unit c_minus at a uniform phase and c_plus = -i beta c_minus,
    beta in [0.5, 1): a purely imaginary cross term, so the log part of
    phi(r) drops out, and subleading contamination of the fit window far
    below the stated tolerances."""
    alpha = 2.0 * math.pi * rng.random()
    beta = 0.5 + 0.5 * rng.random()
    cm = complex(math.cos(alpha), math.sin(alpha))
    return cm, -1j * beta * cm


def _test_flight(params, cm, cp, theta, phi=0.0, subleading_amp=(0j, 0j)):
    """DP5 flight at tol 1e-10 from r = _R0 with no end time, absorbed at
    r_min = 1e-9 unless it goes astray."""
    model = ModelWavefunction(
        params, cm, cp, r_cut=1.0, subleading_amp=subleading_amp, r_min=1e-9
    )
    return integrate(
        model,
        SphericalState(t=0.0, r=_R0, theta=theta, phi=phi),
        t_end=math.inf,
        tol=1e-10,
    )


@_criterion(3, "radial absorption exponent", 30.0)
def criterion_3():
    q = math.sqrt(187.0 / 196.0)
    params = canonical_params(q)
    B = params.B
    expected_exp = 1.0 / (1.0 - 2.0 * B)
    rng = np.random.default_rng(303)
    worst_exp = worst_pref = 0.0
    for _ in range(10):
        cm, cp = _benign_pair(rng)
        seg = _test_flight(params, cm, cp, theta=1.1)
        if not isinstance(seg.terminal, Absorbed):
            return False, f"run ended {type(seg.terminal).__name__}, not absorbed"
        t_abs = seg.terminal.t0
        mask = (seg.r >= 1e-7) & (seg.r <= 1e-5)
        samples = np.column_stack([t_abs - seg.t[mask], seg.r[mask]])
        exponent, prefactor, _ = fit_power_law(samples)
        im = (cm.conjugate() * cp).imag
        d_expected = (
            2.0 * B * (1.0 - 2.0 * B) * abs(im) / abs(cm) ** 2
        ) ** expected_exp
        worst_exp = max(worst_exp, abs(exponent - expected_exp))
        worst_pref = max(worst_pref, abs(prefactor - d_expected) / d_expected)
    passed = worst_exp < 0.018 and worst_pref < 0.02
    return (
        passed,
        f"exponent 7/4 max dev {worst_exp:.2e} (tol 0.018), "
        f"prefactor max rel dev {worst_pref:.2e} (tol 0.02)",
    )


@_criterion(4, "azimuthal winding law", 30.0)
def criterion_4():
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    min_winding = math.inf
    signs_ok = True
    for _ in range(5):
        q = (_Q_LOW + (1.0 - _Q_LOW) * rng.random()) * (
            1.0 if rng.random() < 0.5 else -1.0
        )
        params = canonical_params(q)
        B = params.B
        cm, cp = _benign_pair(rng)
        seg = _test_flight(
            params, cm, cp, theta=1.3, phi=azimuth_from_radius(params, cm, cp, _R0)
        )
        if not isinstance(seg.terminal, Absorbed):
            return False, f"run ended {type(seg.terminal).__name__}, not absorbed"
        mask = (seg.r >= 1e-7) & (seg.r <= 1e-5)
        samples = np.column_stack([seg.r[mask], np.abs(seg.phi[mask])])
        exponent, _, _ = fit_power_law(samples)
        worst_rel = max(worst_rel, abs(exponent + 2.0 * B) / (2.0 * B))
        min_winding = min(min_winding, abs(seg.phi[-1] - seg.phi[0]))
        direction = circling_sign(params)
        if not np.all(direction * np.diff(seg.phi) > 0.0):
            signs_ok = False
    passed = worst_rel < 0.01 and min_winding > 20.0 * math.pi and signs_ok
    return (
        passed,
        f"exponent -2B max rel dev {worst_rel:.2e} (tol 0.01), "
        f"min |dphi| {min_winding / math.pi:.0f} pi (need > 20 pi), "
        f"circling sign {'consistent' if signs_ok else 'VIOLATED'}",
    )


@_criterion(5, "cone law", 10.0)
def criterion_5():
    """theta stays at theta0 in the last decade of radius before
    absorption, with and without subleading terms.  integrate keeps
    theta at its start value, so the check bounds the polar drift the
    field would cause there instead: the trapezoid integral of
    |dtheta/dt| = |j_theta / (r rho)| over the flight's samples, with j
    from the spinor contraction (current_exact) and rho = |psi|^2."""
    params = canonical_params(0.94)
    cm, cp = 0.8 + 0.1j, -0.6j
    theta0 = 0.77
    devs = []
    for sub in ((0j, 0j), (0.3 - 0.2j, 0.25j)):  # pure, perturbed
        seg = _test_flight(params, cm, cp, theta=theta0, subleading_amp=sub)
        # final decade of radius before absorption: [r_min, 10 r_min]
        mask = seg.r <= 1e-8
        rates = []
        for r, phi in zip(seg.r[mask], seg.phi[mask]):
            j_theta = current_exact(seg.model, r, theta0, phi)[1]
            psi = eval_psi1(seg.model, r, theta0, phi)
            rates.append(abs(j_theta) / (r * np.vdot(psi, psi).real))
        devs.append(float(np.trapezoid(rates, seg.t[mask])))
    passed = devs[0] < 1e-8 and devs[1] < 1e-2
    return (
        passed,
        f"max |theta - theta0|: pure {devs[0]:.2e} (tol 1e-8), "
        f"perturbed {devs[1]:.2e} (tol 1e-2)",
    )


# =====================================================================
# 6. emission-rate law
# =====================================================================

@_criterion(6, "emission-rate law", 1.0)
def criterion_6():
    params = canonical_params(0.96)
    track = CoefficientTrack.constant(
        params, 1.0, 1.0j, psi0=1.0, t_start=0.0, t_end=1.0
    )
    total = total_jump_rate(track, 0.5)
    # Gauss-Legendre in theta0, the phi0 integral is a flat 2 pi
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = 0.5 * math.pi * (nodes + 1.0)
    density = np.array([jump_rate_density(track, 0.5, th) for th in theta])
    integral = 2.0 * math.pi * 0.5 * math.pi * float(weights @ density)
    cc = current_coeffs(params, 1.0, 1.0j)
    flux = 4.0 * math.pi * cc.C_r / track.vacuum_weight(0.5)
    dev_quad = abs(integral - total)
    dev_value = abs(total - 4.3904)
    dev_flux = abs(total - flux)
    passed = dev_quad < 1e-10 and dev_value < 1e-12 and dev_flux < 1e-12
    return (
        passed,
        f"quadrature dev {dev_quad:.2e} (tol 1e-10), "
        f"total-4.3904 dev {dev_value:.2e}, "
        f"total vs 4 pi C_r dev {dev_flux:.2e} (tol 1e-12)",
    )


# =====================================================================
# 7. emission-angle distribution
# =====================================================================

@_criterion(7, "emission-angle distribution", 10.0)
def criterion_7():
    rng = np.random.Generator(np.random.Philox(key=np.array([42, 0], dtype=np.uint64)))
    n = 100_000
    cos_th = np.empty(n)
    phi = np.empty(n)
    for i in range(n):
        th, ph = sample_emission_angles(rng)
        cos_th[i] = math.cos(th)
        phi[i] = ph
    rep = angle_arrays_report(cos_th, phi)
    return (
        rep.passed,
        f"chi2 {rep.chi2:.1f}/dof {rep.dof} p {rep.chi2_p_value:.3f}, "
        f"KS p {rep.ks_p_value:.3f} (both need > 0.01)",
    )


# =====================================================================
# 8. equivariance at desk scale
# =====================================================================

def _balanced_setup():
    params = canonical_params(0.96)
    family = ModelFamily(params, r_cut=1.0)
    cm, cp = normalized_amplitudes(params, 1.0, 1.0j, 1.0, 0.3)
    span = (0.0, 3.0)
    track = CoefficientTrack.balanced_constant_flux(params, cm, cp, 0.7, *span)
    return params, family, (cm, cp), span, track


@_criterion(8, "equivariance at desk scale", 180.0)
def criterion_8():
    params, family, (cm, cp), span, track = _balanced_setup()
    stats = run_ensemble(family, track, 10_000, span, seed=808, tol=1e-6)
    _, oracle = master_equation_occupancy(track, family, span, 101)
    vs_oracle = sector0_comparison(stats, track, expected=oracle)
    vs_weight = sector0_comparison(stats, track)
    # negative control: same flux, psi0 deliberately held constant
    bad_track = CoefficientTrack.constant(
        params, cm, cp, psi0=math.sqrt(0.7), t_start=span[0], t_end=span[1]
    )
    bad_stats = run_ensemble(family, bad_track, 2000, span, seed=809, tol=1e-6)
    control = sector0_comparison(bad_stats, bad_track)
    passed = vs_oracle.passed and vs_weight.passed and not control.passed
    return (
        passed,
        f"vs oracle {100 * vs_oracle.fraction_exceeding:.1f}% beyond 3 sigma, "
        f"vs |psi0|^2 {100 * vs_weight.fraction_exceeding:.1f}% (allow 1%), "
        f"negative control {100 * control.fraction_exceeding:.0f}% "
        f"({'fails as required' if not control.passed else 'UNEXPECTEDLY PASSES'})",
    )


# =====================================================================
# 9. flux balance at a probe sphere
# =====================================================================

@_criterion(9, "flux balance at probe sphere", 120.0)
def criterion_9():
    params = canonical_params(0.96)
    family = ModelFamily(params, r_cut=1.0)
    cm, cp = normalized_amplitudes(params, 1.0, -1.0j, 1.0, 0.7)
    cc = current_coeffs(params, cm, cp)
    r_probe = 1e-4
    t_half = abs(time_from_radius(params, cm, cp, 0.5 * family.r_cut))
    t_probe = abs(time_from_radius(params, cm, cp, r_probe))
    # window with steady influx at the probe and |psi0|^2 inside [0, 1]
    T = min(0.8 * (t_half - t_probe), 0.6 / abs(4.0 * math.pi * cc.C_r))
    track = CoefficientTrack.balanced_constant_flux(params, cm, cp, 0.3, 0.0, T)
    stats = run_ensemble(
        family, track, 10_000, (0.0, T), seed=909, tol=1e-6, probe_radius=r_probe
    )
    rep = flux_report(stats, track)
    return (
        rep.passed,
        f"estimate {rep.estimate:.5f} vs 4 pi C_r {rep.expected:.5f}, "
        f"z = {rep.z_score:.2f} (|z| <= 3), "
        f"{rep.n_inward} inward / {rep.n_outward} outward crossings",
    )


def run_all(only=None) -> list[AcceptanceResult]:
    numbers = sorted(_CRITERIA) if only is None else sorted(only)
    results = []
    for k in numbers:
        if k not in _CRITERIA:
            raise ValidationError(f"no acceptance criterion {k}")
        results.append(_CRITERIA[k]())
    return results
