"""The three benchmark workloads.

Each workload has four steps:

- make_inputs (benchmark process): turn the seed into the program's
  inputs, writing files into the run's work directory when the
  program reads files;
- setup (repetition process, counted in setup_s): build what the timed
  call needs through the public API;
- call (timed): the work a user waits for;
- check: correctness of the outputs, plus totals that must repeat
  bitwise for a fixed seed.

The statistical gates use a 5 sigma limit, so a correct program fails
one with probability below 1e-4 per repetition even over 101 grid
points.  The acceptance suite's own 3 sigma verdicts are recorded
alongside, for information; at arbitrary seeds they fail a correct
program on about one seed in a hundred.

No module of the package is imported at import time: the repetition
process times those imports itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

Z_GATE = 5.0
Q = 0.96


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _max_abs(values) -> float:
    return float(max((abs(v) for v in values), default=0.0))


def emission_z(n_emissions: int, n_vacuum_start: int, p_emit: float) -> float:
    """z-score of an emission count against Binomial(n_vacuum_start,
    p_emit), the count when each vacuum path emits at most once."""
    mean = n_vacuum_start * p_emit
    sigma = math.sqrt(n_vacuum_start * p_emit * (1.0 - p_emit))
    return (n_emissions - mean) / sigma if sigma > 0 else math.inf


class Equivariance:
    """Criterion 8's ensemble: balanced outgoing track, q = 0.96, sector
    mass 0.3, |psi0|^2 from 0.7 on [0, 3], tol 1e-6."""

    name = "equivariance"
    default_seed = 808
    n_paths = 1500
    modules = ("ensemble", "jump_process", "params", "wavefunction")

    def make_inputs(self, work: Path, seed: int, n_paths: int) -> dict:
        return {"seed": seed, "n_paths": n_paths}

    def setup(self, inputs):
        from belljump import ensemble, jump_process, params, wavefunction

        p = params.canonical_params(Q)
        family = wavefunction.ModelFamily(p, r_cut=1.0)
        cm, cp = ensemble.normalized_amplitudes(p, 1.0, 1.0j, 1.0, 0.3)
        span = (0.0, 3.0)
        track = jump_process.CoefficientTrack.balanced_constant_flux(
            p, cm, cp, 0.7, *span
        )
        return {"family": family, "track": track, "span": span, **inputs}

    def call(self, st):
        from belljump import ensemble

        family, track, span = st["family"], st["track"], st["span"]
        stats = ensemble.run_ensemble(
            family, track, st["n_paths"], span, seed=st["seed"], tol=1e-6
        )
        _, oracle = ensemble.master_equation_occupancy(track, family, span, 101)
        vs_oracle = ensemble.sector0_comparison(stats, track, expected=oracle)
        vs_weight = ensemble.sector0_comparison(stats, track)
        return stats, vs_oracle, vs_weight

    def check(self, st, outcome):
        stats, vs_oracle, vs_weight = outcome
        failures = []
        if stats.n_paths != st["n_paths"]:
            failures.append(f"n_paths {stats.n_paths} != {st['n_paths']}")
        if len(stats.absorption_times):
            failures.append("absorption on an outgoing track")
        z_oracle = _max_abs(vs_oracle.z_scores)
        z_weight = _max_abs(vs_weight.z_scores)
        if not z_oracle <= Z_GATE:
            failures.append(f"occupancy vs oracle max |z| {z_oracle:.2f} > {Z_GATE}")
        if not z_weight <= Z_GATE:
            failures.append(f"occupancy vs |psi0|^2 max |z| {z_weight:.2f} > {Z_GATE}")
        totals = {
            "emissions": len(stats.emission_times),
            "absorptions": len(stats.absorption_times),
            "probe_crossings": 0,
            "digest": _digest(
                stats.vacuum_counts, stats.emission_times, stats.emission_phi
            ),
        }
        info = {
            "max_abs_z_oracle": z_oracle,
            "max_abs_z_weight": z_weight,
            "acceptance_3sigma_passed": bool(vs_oracle.passed and vs_weight.passed),
        }
        return failures, totals, info


class ProbeFlux:
    """Criterion 9's ensemble: balanced ingoing track, sector mass 0.7,
    probe sphere at r = 1e-4, tol 1e-6."""

    name = "probe_flux"
    default_seed = 909
    n_paths = 1500
    modules = ("ensemble", "jump_process", "params", "wavefunction", "trajectory")
    r_probe = 1e-4

    def make_inputs(self, work: Path, seed: int, n_paths: int) -> dict:
        return {"seed": seed, "n_paths": n_paths}

    def setup(self, inputs):
        from belljump import ensemble, jump_process, params, trajectory, wavefunction

        p = params.canonical_params(Q)
        family = wavefunction.ModelFamily(p, r_cut=1.0)
        cm, cp = ensemble.normalized_amplitudes(p, 1.0, -1.0j, 1.0, 0.7)
        c_r = wavefunction.current_coeffs(p, cm, cp).C_r
        t_half = abs(trajectory.time_from_radius(p, cm, cp, 0.5 * family.r_cut))
        t_probe = abs(trajectory.time_from_radius(p, cm, cp, self.r_probe))
        window = min(0.8 * (t_half - t_probe), 0.6 / abs(4.0 * math.pi * c_r))
        track = jump_process.CoefficientTrack.balanced_constant_flux(
            p, cm, cp, 0.3, 0.0, window
        )
        return {"family": family, "track": track, "span": (0.0, window), **inputs}

    def call(self, st):
        from belljump import ensemble

        stats = ensemble.run_ensemble(
            st["family"],
            st["track"],
            st["n_paths"],
            st["span"],
            seed=st["seed"],
            tol=1e-6,
            probe_radius=self.r_probe,
        )
        return stats, ensemble.flux_report(stats, st["track"])

    def check(self, st, outcome):
        stats, report = outcome
        failures = []
        if stats.n_paths != st["n_paths"]:
            failures.append(f"n_paths {stats.n_paths} != {st['n_paths']}")
        if len(stats.emission_times):
            failures.append("emission on an ingoing track")
        if len(stats.outward_crossing_times):
            failures.append("outward probe crossing on an ingoing track")
        if report.n_inward == 0:
            failures.append("no inward probe crossings")
        if not abs(report.z_score) <= Z_GATE:
            failures.append(f"probe flux z {report.z_score:.2f} beyond {Z_GATE}")
        totals = {
            "emissions": len(stats.emission_times),
            "absorptions": len(stats.absorption_times),
            "probe_crossings": report.n_inward + report.n_outward,
            "digest": _digest(
                stats.vacuum_counts,
                stats.absorption_times,
                stats.inward_crossing_times,
            ),
        }
        info = {
            "flux_z": float(report.z_score),
            "acceptance_3sigma_passed": bool(report.passed),
        }
        return failures, totals, info


class DriftingCli:
    """`belljump ensemble` through cli.dispatch on a `kind = file` track.

    The track is balanced: c_minus is real and fixed, the phase of
    c_plus drifts as pi/2 + 0.7 sin(2 pi t / 1.5), so Im[conj(c-) c+]
    stays positive but changes inside every grid interval, and
    |psi0(t)|^2 drains from 0.97 by exactly the emitted flux.  The
    balance integral is computed here, independently of the package's
    current formulas; the package only scales the amplitudes to the
    sector mass 0.03 that the start of the window needs.

    |psi0|^2 only falls to about 0.95, which the occupancy z-scores
    alone cannot tell from no emission at all, so the emission count is
    gated too: a path in the vacuum at t = 0 emits by t_end with
    probability 1 - w(t_end)/w(0), w = |psi0|^2 of this track.
    """

    name = "drifting_cli"
    default_seed = 4242
    n_paths = 2000
    modules = ("cli",)
    t_end = 3.0
    intervals = 256
    p0_init = 0.97

    def track_rows(self):
        import numpy as np
        from belljump import ensemble, params

        p = params.canonical_params(Q)
        fine = np.linspace(0.0, self.t_end, 64 * self.intervals + 1)
        phase = 0.5 * math.pi + 0.7 * np.sin(2.0 * math.pi * fine / 1.5)
        cm, cp = ensemble.normalized_amplitudes(
            p, 1.0, complex(np.exp(1j * phase[0])), 1.0, 1.0 - self.p0_init
        )
        scale = abs(cm)  # |c_minus| = |c_plus| before and after scaling
        # d|psi0|^2/dt = -4 pi C_r with C_r = 2 (1+q) B Im[conj(c-) c+] / pi
        drain = 8.0 * (1.0 + p.q) * p.B * scale**2 * np.sin(phase)
        steps = 0.5 * (drain[1:] + drain[:-1]) * np.diff(fine)
        weight = self.p0_init - np.concatenate(([0.0], np.cumsum(steps)))
        keep = slice(None, None, 64)
        t, ph, w = fine[keep], phase[keep], weight[keep]
        c_plus = scale * np.exp(1j * ph)
        return np.column_stack(
            [
                t,
                np.full_like(t, scale),
                np.zeros_like(t),
                c_plus.real,
                c_plus.imag,
                np.sqrt(w),
                np.zeros_like(t),
            ]
        )

    def make_inputs(self, work: Path, seed: int, n_paths: int) -> dict:
        track = work / "drifting_track.csv"
        rows = self.track_rows()
        if not track.exists():
            lines = ["# t, c_minus re, im, c_plus re, im, psi0 re, im"]
            lines += [",".join(repr(float(v)) for v in row) for row in rows]
            track.write_text("\n".join(lines) + "\n", encoding="utf-8")
        weight = rows[:, 5] ** 2
        config = work / f"drifting_{seed}.conf"
        config.write_text(
            "\n".join(
                [
                    "[params]",
                    f"q = {Q}",
                    "[track]",
                    "kind = file",
                    f"file = {track.resolve()}",
                    "[run]",
                    f"seed = {seed}",
                    f"n_paths = {n_paths}",
                    "tol = 1e-6",
                    "",
                ]
            ),
            encoding="utf-8",
        )
        return {
            "seed": seed,
            "n_paths": n_paths,
            "argv": ["ensemble", "--config", str(config.resolve()),
                     "--output", str((work / f"out_{seed}").resolve())],
            "summary": str((work / f"out_{seed}" / "ensemble_summary.json").resolve()),
            "vacuum_survival": float(weight[-1] / weight[0]),
        }

    def setup(self, inputs):
        return dict(inputs)

    def call(self, st):
        from belljump import cli

        return cli.dispatch(st["argv"])

    def check(self, st, code):
        failures = []
        records = {}
        if code != 0:
            failures.append(f"exit code {code}")
        else:
            text = Path(st["summary"]).read_text(encoding="utf-8")
            for line in text.splitlines():
                record = json.loads(line)
                records[record["record"]] = record
        occupancy = records.get("occupancy", {"z_scores": [math.inf]})
        sector0 = records.get("sector0", {})
        totals_rec = records.get("totals", {})
        if "sector0" not in records:
            failures.append("summary has no sector0 record")
        if totals_rec.get("n_paths") != st["n_paths"]:
            failures.append(f"summary n_paths {totals_rec.get('n_paths')}")
        if totals_rec.get("n_absorptions"):
            failures.append("absorption on an outgoing track")
        z = _max_abs(occupancy["z_scores"])
        if not z <= Z_GATE:
            failures.append(f"occupancy vs |psi0|^2 max |z| {z:.2f} > {Z_GATE}")
        z_emit = emission_z(
            totals_rec.get("n_emissions", -1),
            round(occupancy.get("p0_hat", [0.0])[0] * st["n_paths"]),
            1.0 - st["vacuum_survival"],
        )
        if not abs(z_emit) <= Z_GATE:
            failures.append(f"emission count z {z_emit:.2f} beyond {Z_GATE}")
        totals = {
            "emissions": totals_rec.get("n_emissions", -1),
            "absorptions": totals_rec.get("n_absorptions", -1),
            "probe_crossings": 0,
            "digest": hashlib.sha256(
                json.dumps(occupancy.get("p0_hat")).encode()
            ).hexdigest()[:16],
        }
        info = {
            "max_abs_z_weight": z,
            "emission_z": z_emit,
            "acceptance_3sigma_passed": bool(sector0.get("passed")),
        }
        return failures, totals, info


WORKLOADS = {w.name: w for w in (Equivariance(), ProbeFlux(), DriftingCli())}
