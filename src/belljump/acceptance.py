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
from .params import ADMISSIBLE_LABELS, canonical_params, circling_sign
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
)

_Q_LOW = math.sqrt(3.0) / 2.0


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


def _brute(quantity, vec_a, vec_b, point):
    if quantity == "overlap":
        return complex(np.vdot(vec_a, vec_b))
    k = quantity.split("_", 1)[1]
    return complex(np.vdot(vec_a, alpha_component(k, point) @ vec_b))


def _closed(quantity, family, sa, sb, label, params, point):
    m_t, k_t = label
    if family == "basis":
        if quantity == "overlap":
            return basis_overlap_closed(sa, sb, m_t, k_t)
        return basis_alpha_overlap_closed(
            sa, sb, m_t, k_t, quantity.split("_", 1)[1], point
        )
    if quantity == "overlap":
        return boundary_overlap_closed(sa, sb, params)
    return boundary_alpha_overlap_closed(
        sa, sb, params, quantity.split("_", 1)[1], point
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
    worst = 0.0

    def add(q, label, family, quantity, sa, sb, check, residual):
        nonlocal worst
        worst = max(worst, residual)
        rows.append(
            {
                "q": q,
                "m_tilde": label[0],
                "kappa_tilde": label[1],
                "family": family,
                "quantity": quantity,
                "sign_a": sa,
                "sign_b": sb,
                "check": check,
                "residual": residual,
            }
        )

    for label in ADMISSIBLE_LABELS:
        m_t, k_t = label
        basis_vecs = {
            (s, i): phi_basis(s, m_t, k_t, pt)
            for s in (-1, 1)
            for i, pt in enumerate(points)
        }
        # the free basis pair has no q dependence
        for quantity in _QUANTITIES:
            for sa, sb in _PAIRS:
                resid = max(
                    abs(
                        _brute(quantity, basis_vecs[sa, i], basis_vecs[sb, i], pt)
                        - _closed(quantity, "basis", sa, sb, label, None, pt)
                    )
                    for i, pt in enumerate(points)
                )
                add(math.nan, label, "basis", quantity, sa, sb, "pointwise", resid)
        for q in q_values:
            params = canonical_params(q, m_tilde=m_t, kappa_tilde=k_t)
            f_vecs = {
                (s, i): f_boundary(s, pt, params)
                for s in (-1, 1)
                for i, pt in enumerate(points)
            }
            for quantity in _QUANTITIES:
                for sa, sb in _PAIRS:
                    resid = max(
                        abs(
                            _brute(quantity, f_vecs[sa, i], f_vecs[sb, i], pt)
                            - _closed(
                                quantity, "boundary", sa, sb, label, params, pt
                            )
                        )
                        for i, pt in enumerate(points)
                    )
                    add(q, label, "boundary", quantity, sa, sb, "pointwise", resid)

    if order > 0:
        # integral form of the same identities: quadrature of the
        # residual field (quadrature of sin(theta)-shaped closed forms
        # themselves converges only algebraically, so do not compare
        # against hand-evaluated integrals)
        label = ADMISSIBLE_LABELS[0]
        m_t, k_t = label
        params = canonical_params(q_values[0], m_tilde=m_t, kappa_tilde=k_t)
        for family in ("basis", "boundary"):
            def vec(s, pt):
                if family == "basis":
                    return phi_basis(s, m_t, k_t, pt)
                return f_boundary(s, pt, params)

            for quantity in _QUANTITIES:
                for sa, sb in _PAIRS:
                    resid = abs(
                        sphere_quadrature(
                            lambda pt: _brute(
                                quantity, vec(sa, pt), vec(sb, pt), pt
                            )
                            - _closed(
                                quantity, family, sa, sb, label, params, pt
                            ),
                            order,
                        )
                    )
                    add(
                        params.q, label, family, quantity, sa, sb, "quadrature", resid
                    )
    return rows, worst


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
# 3. radial absorption exponent
# =====================================================================

@_criterion(3, "radial absorption exponent", 30.0)
def criterion_3():
    q = math.sqrt(187.0 / 196.0)
    params = canonical_params(q)
    B = params.B
    expected_exp = 1.0 / (1.0 - 2.0 * B)
    rng = np.random.default_rng(303)
    worst_exp = worst_pref = 0.0
    for _ in range(10):
        # benign amplitude draws keep the subleading contamination of the
        # fit window far below the stated tolerances
        alpha = 2.0 * math.pi * rng.random()
        beta = 0.5 + 0.5 * rng.random()
        cm = complex(math.cos(alpha), math.sin(alpha))
        cp = -1j * beta * cm
        model = ModelWavefunction(params, cm, cp, r_cut=1.0, r_min=1e-9)
        seg = integrate(
            model,
            SphericalState(t=0.0, r=1e-4, theta=1.1, phi=0.0),
            t_end=math.inf,
            tol=1e-10,
        )
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


# =====================================================================
# 4. azimuthal winding law
# =====================================================================

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
        alpha = 2.0 * math.pi * rng.random()
        beta = 0.5 + 0.5 * rng.random()
        cm = complex(math.cos(alpha), math.sin(alpha))
        # purely imaginary cross term: the log part of phi(r) drops out
        cp = -1j * beta * cm
        model = ModelWavefunction(params, cm, cp, r_cut=1.0, r_min=1e-9)
        r0 = 1e-4
        seg = integrate(
            model,
            SphericalState(
                t=0.0,
                r=r0,
                theta=1.3,
                phi=azimuth_from_radius(params, cm, cp, r0),
            ),
            t_end=math.inf,
            tol=1e-10,
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


# =====================================================================
# 5. cone law
# =====================================================================

@_criterion(5, "cone law", 10.0)
def criterion_5():
    params = canonical_params(0.94)
    cm, cp = 0.8 + 0.1j, -0.6j
    theta0 = 0.77
    pure = ModelWavefunction(params, cm, cp, r_cut=1.0, r_min=1e-9)
    perturbed = ModelWavefunction(
        params, cm, cp, r_cut=1.0, subleading_amp=(0.3 - 0.2j, 0.25j), r_min=1e-9
    )
    devs = []
    for model in (pure, perturbed):
        seg = integrate(
            model,
            SphericalState(t=0.0, r=1e-4, theta=theta0, phi=0.0),
            t_end=math.inf,
            tol=1e-10,
        )
        # final decade of radius before absorption: [r_min, 10 r_min]
        mask = seg.r <= 1e-8
        devs.append(float(np.max(np.abs(seg.theta[mask] - theta0))))
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
