"""Command-line front end.

Subcommands: validate-basis, coeffs, trace, simulate, ensemble,
selftest.  Exit codes: 0 success, 1 validation failure, 2 runtime
error, 64 usage.  Every output starts with a header (version, seed,
full resolved config) so a result file alone reproduces its run.  CSV
uses '.' decimals and re,im column pairs for complex values; JSON
records are line-delimited.  Relative output paths resolve against
$BELLJUMP_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, ensemble
from .config import RunConfig, _complex, parse_config, serialize
from .errors import (
    BelljumpError,
    InsufficientEvents,
    ParseError,
    ValidationError,
)
from .jump_process import CoefficientTrack, EmissionEvent, fly
from .params import canonical_params
from .spinor_basis import from_spherical
from .trajectory import Absorbed, LeftInnerRegion, SphericalState
from .wavefunction import ModelFamily, current_coeffs

USAGE_EXIT = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for runtime
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="belljump", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("validate-basis", help="dump boundary-lemma residuals")
    p.add_argument("--order", type=int, default=32, help="quadrature order")
    p.add_argument("--points", type=int, default=100, help="random sphere points")
    p.add_argument("--qs", type=int, default=5, help="random q values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="CSV path (default stdout)")

    p = sub.add_parser("coeffs", help="print current coefficients as JSON")
    p.add_argument(
        "--config",
        help="read q and amplitudes from a config file (no --q, --c-minus, --c-plus)",
    )
    p.add_argument("--q", type=float)
    p.add_argument("--c-minus", metavar="RE,IM", help="default 1, 0")
    p.add_argument("--c-plus", metavar="RE,IM", help="default 0, 1")
    p.add_argument("--output")

    p = sub.add_parser("trace", help="write one trajectory as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output")

    p = sub.add_parser("simulate", help="run one path, emit JSON event records")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.add_argument("--trace-dir", help="also write per-flight CSV traces here")

    p = sub.add_parser("ensemble", help="Monte Carlo ensemble summary")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="directory for summary + histograms")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument(
        "--only",
        help="comma-separated criterion numbers (default: all)",
    )
    return parser


# ---------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------

def _resolve(path_str: str | None) -> Path | None:
    if path_str is None:
        return None
    path = Path(path_str)
    outdir = os.environ.get("BELLJUMP_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(path_str: str) -> RunConfig:
    path = Path(path_str)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))


def _write_lines(path: Path | None, lines) -> None:
    """Write each line, newline-terminated, to path, or to stdout when
    path is None.  Every command output goes through here."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        fh.writelines(line + "\n" for line in lines)


def _csv_lines(cfg: RunConfig | None, seed, columns: str, rows):
    """Header comments (version, seed, config), the column names, rows."""
    yield f"# belljump {__version__}"
    yield f"# seed = {seed}"
    if cfg is not None:
        yield "# config:"
        yield from ("#   " + line for line in serialize(cfg).splitlines())
    yield columns
    yield from rows


def _jsonl_lines(cfg: RunConfig | None, seed, records):
    """The header record (version, seed, config), then the records."""
    header = {"record": "header", "version": __version__, "seed": seed}
    if cfg is not None:
        header["config"] = serialize(cfg)
    # strict JSON: a non-finite float raises instead of writing Infinity
    yield json.dumps(header, allow_nan=False)
    for record in records:
        yield json.dumps(record, allow_nan=False)


def _require_seed(cfg: RunConfig) -> int:
    if cfg.run.seed is None:
        raise ValidationError("run.seed is mandatory for stochastic commands")
    return cfg.run.seed


def _model_family(cfg: RunConfig) -> ModelFamily:
    mc = cfg.model
    sub = (mc.s_minus, mc.s_plus)
    return ModelFamily(cfg.params, r_cut=mc.r_cut, subleading_amp=sub, r_min=mc.r_min)


def _build_track(cfg: RunConfig) -> CoefficientTrack:
    tc = cfg.track
    if tc.kind == "constant":
        return CoefficientTrack.constant(
            cfg.params, tc.c_minus, tc.c_plus, tc.psi0, tc.t_start, tc.t_end, tc.n
        )
    if tc.kind == "balanced":
        return CoefficientTrack.balanced_constant_flux(
            cfg.params, tc.c_minus, tc.c_plus, tc.p0_init, tc.t_start, tc.t_end, tc.n
        )
    if tc.kind == "grid":
        return CoefficientTrack(
            cfg.params,
            np.array(tc.times),
            np.array(tc.c_minus_grid),
            np.array(tc.c_plus_grid),
            np.array(tc.psi0_grid),
        )
    try:
        rows = np.loadtxt(tc.file, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"track file {tc.file}: {exc}") from exc
    if rows.shape[1] != 7:
        raise ValidationError(
            "track file needs 7 columns: t, c_minus re,im, c_plus re,im, psi0 re,im"
        )
    return CoefficientTrack(
        cfg.params,
        rows[:, 0],
        rows[:, 1] + 1j * rows[:, 2],
        rows[:, 3] + 1j * rows[:, 4],
        rows[:, 5] + 1j * rows[:, 6],
    )


def _window(cfg: RunConfig, track: CoefficientTrack) -> tuple[float, float]:
    t_a = max(cfg.run.t0, track.t_start)
    t_b = cfg.run.t_end if cfg.run.t_end is not None else track.t_end
    t_b = min(t_b, track.t_end)
    if not t_b > t_a:
        raise ValidationError(f"empty run window [{t_a!r}, {t_b!r}]")
    return t_a, t_b


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def _cmd_validate_basis(ns) -> int:
    # imported here: only validate-basis and selftest use acceptance, and
    # `belljump ensemble` should not pay for loading it
    from .acceptance import lemma_residual_rows

    rows, max_resid = lemma_residual_rows(
        seed=ns.seed, n_points=ns.points, n_q=ns.qs, order=ns.order
    )
    _write_lines(
        _resolve(ns.output),
        _csv_lines(
            None,
            ns.seed,
            "q,m_tilde,kappa_tilde,family,quantity,sign_a,sign_b,check,residual",
            (
                f"{r['q']!r},{r['m_tilde']!r},{r['kappa_tilde']},{r['family']},"
                f"{r['quantity']},{r['sign_a']},{r['sign_b']},{r['check']},"
                f"{r['residual']:.3e}"
                for r in rows
            ),
        ),
    )
    print(f"max |residual| = {max_resid:.3e} over {len(rows)} rows")
    return 0 if max_resid < 1e-10 else 1


def _cmd_coeffs(ns) -> int:
    if ns.config:
        given = [
            flag
            for flag, value in (
                ("--q", ns.q), ("--c-minus", ns.c_minus), ("--c-plus", ns.c_plus)
            )
            if value is not None
        ]
        if given:
            raise _UsageError(
                f"coeffs --config reads q and the amplitudes from the file; "
                f"drop {', '.join(given)}"
            )
        cfg = _load_config(ns.config)
        params = cfg.params
        track = _build_track(cfg)
        cm, cp = track.coefficients(track.t_start)
    else:
        if ns.q is None:
            raise _UsageError("coeffs needs --config or --q")
        cfg = None
        params = canonical_params(ns.q)
        amplitudes = []
        for flag, raw, default in (
            ("--c-minus", ns.c_minus, "1, 0"),
            ("--c-plus", ns.c_plus, "0, 1"),
        ):
            try:
                amplitudes.append(_complex(default if raw is None else raw, None, None))
            except ParseError as exc:
                raise _UsageError(f"{flag}: {exc}") from None
        cm, cp = amplitudes
    record = {
        "record": "coeffs",
        "q": params.q,
        "B": params.B,
        "c_minus": [cm.real, cm.imag],
        "c_plus": [cp.real, cp.imag],
        **asdict(current_coeffs(params, cm, cp)),
    }
    _write_lines(_resolve(ns.output), _jsonl_lines(cfg, None, [record]))
    return 0


def _trace_lines(cfg: RunConfig, segment):
    """The CSV of one flight: every run.decimation-th sample and the last."""
    n = len(segment.t)
    keep = sorted(set(range(0, n, cfg.run.decimation)) | {n - 1})
    th = segment.theta
    rows = []
    for i in keep:
        t = float(segment.t[i])
        r = float(segment.r[i])
        ph = float(segment.phi[i])
        x, y, z = (float(v) for v in from_spherical(r, th, ph % (2.0 * math.pi)))
        rows.append(f"{t!r},{r!r},{th!r},{ph!r},{x!r},{y!r},{z!r}")
    return _csv_lines(cfg, cfg.run.seed, "t,r,theta,phi_unwrapped,x,y,z", rows)


def _cmd_trace(ns) -> int:
    cfg = _load_config(ns.config)
    run = cfg.run
    track = _build_track(cfg)
    if not track.t_start <= run.t0 <= track.t_end:
        raise ValidationError(
            f"run.t0 = {run.t0!r} lies outside the track "
            f"[{track.t_start!r}, {track.t_end!r}]"
        )
    if run.r0 is not None:
        # start at a given radius (ingoing runs trace to absorption)
        launch = SphericalState(run.t0, run.r0, run.theta0, run.phi0)
    else:
        launch = EmissionEvent(run.t0, run.theta0, run.phi0)
    segment = fly(
        _model_family(cfg),
        track,
        launch,
        run.t_end if run.t_end is not None else math.inf,
        run.tol,
        dense=True,
    )
    out = _resolve(ns.output if ns.output else run.output)
    _write_lines(out, _trace_lines(cfg, segment))
    terminal = type(segment.terminal).__name__
    where = out if out else "stdout"
    print(
        f"trace: {len(segment.t)} samples, terminal {terminal}, -> {where}",
        file=sys.stderr,
    )
    return 0


def _path_records(path):
    if not path.entries:
        yield {"record": "parked"}
    for span in path.vacuum_spans:
        yield {"record": "vacuum_span", "t_start": span[0], "t_end": span[1]}
    for event in path.events:
        if hasattr(event, "theta0"):
            yield {
                "record": "emission",
                "t0": event.t0,
                "theta0": event.theta0,
                "phi0": event.phi0,
            }
        else:
            yield {"record": "absorption", "t0": event.t0}
    for seg in path.segments:
        terminal = seg.terminal
        if isinstance(terminal, Absorbed):
            term = {"kind": "absorbed", "t0": terminal.t0}
        elif isinstance(terminal, LeftInnerRegion):
            term = {"kind": "left_inner_region"}
        else:
            term = {"kind": "time_exhausted"}
        yield {
            "record": "flight",
            "t_start": float(seg.t[0]),
            "t_end": float(seg.t[-1]),
            "samples": len(seg.t),
            "n_accepted": seg.n_accepted,
            "n_rejected": seg.n_rejected,
            "terminal": term,
            "probe_crossings": [
                {"t": pc.t, "r": pc.r, "direction": pc.direction}
                for pc in seg.probe_crossings
            ],
        }
    yield {
        "record": "end",
        "t_span": list(path.t_span),
        "n_emissions": len(path.emissions),
        "n_absorptions": len(path.absorptions),
    }


def _cmd_simulate(ns) -> int:
    cfg = _load_config(ns.config)
    seed = _require_seed(cfg)
    family = _model_family(cfg)
    track = _build_track(cfg)
    t_span = _window(cfg, track)
    path = ensemble.draw_path(
        family,
        track,
        t_span,
        seed,
        0,
        sampler=ensemble.make_initial_sampler(family, track, t_span[0]),
        tol=cfg.run.tol,
        probe_radius=cfg.run.probe_radius,
    )
    out = _resolve(ns.output if ns.output else cfg.run.output)
    _write_lines(out, _jsonl_lines(cfg, seed, _path_records(path)))
    if ns.trace_dir:
        trace_dir = _resolve(str(Path(ns.trace_dir) / "x")).parent
        for i, seg in enumerate(path.segments):
            # a path's flights carry no azimuth after their launch
            # (TrajectorySegment); each trace is the dense flight from
            # the flight's first sample, its launch state.  A trace writes
            # no crossings, and a probe changes no DP5 step
            replay = fly(family, track, seg.initial, t_span[1], cfg.run.tol, dense=True)
            _write_lines(trace_dir / f"flight_{i:03d}.csv", _trace_lines(cfg, replay))
    return 0


def _hist_rows(tables):
    for name, values, lo, hi, bins in tables:
        counts, edges = np.histogram(np.asarray(values), bins=bins, range=(lo, hi))
        for k in range(bins):
            yield (
                f"{name},{float(edges[k])!r},{float(edges[k + 1])!r},{int(counts[k])}"
            )


def _cmd_ensemble(ns) -> int:
    cfg = _load_config(ns.config)
    seed = _require_seed(cfg)
    family = _model_family(cfg)
    track = _build_track(cfg)
    t_span = _window(cfg, track)
    stats = ensemble.run_ensemble(
        family,
        track,
        cfg.run.n_paths,
        t_span,
        seed,
        time_grid_n=cfg.run.time_grid_n,
        tol=cfg.run.tol,
        probe_radius=cfg.run.probe_radius,
        snapshot_time=cfg.run.snapshot_time,
    )
    outdir = ns.output if ns.output else (cfg.run.output or ".")
    summary_path = _resolve(str(Path(outdir) / "ensemble_summary.json"))
    hist_path = _resolve(str(Path(outdir) / "ensemble_hist.csv"))

    comparison = ensemble.sector0_comparison(stats, track)
    records = [
        {
            "record": "occupancy",
            "times": stats.time_grid.tolist(),
            "p0_hat": stats.p0_hat.tolist(),
            "expected": comparison.expected.tolist(),
            # infinite where the expected occupancy is exactly 0 or 1
            "z_scores": [
                z if math.isfinite(z) else None
                for z in comparison.z_scores.tolist()
            ],
        },
        {
            "record": "sector0",
            "fraction_exceeding": comparison.fraction_exceeding,
            "passed": comparison.passed,
        },
    ]
    if stats.probe_radius is not None and track.constant_coefficients:
        fr = ensemble.flux_report(stats, track)
        records.append(
            {
                "record": "flux",
                "r_probe": stats.probe_radius,
                "estimate": fr.estimate,
                "expected": fr.expected,
                "sigma": fr.sigma,
                "z_score": fr.z_score,
                "passed": fr.passed,
            }
        )
    try:
        ar = ensemble.angle_uniformity_test(stats)
        records.append(
            {
                "record": "emission_angles",
                "n_events": ar.n_events,
                "chi2": ar.chi2,
                "dof": ar.dof,
                "chi2_p_value": ar.chi2_p_value,
                "ks_p_value": ar.ks_p_value,
                "passed": ar.passed,
            }
        )
    except InsufficientEvents as exc:
        records.append({"record": "emission_angles", "skipped": str(exc)})
    records.append(
        {
            "record": "totals",
            "n_paths": stats.n_paths,
            "n_emissions": len(stats.emission_times),
            "n_absorptions": len(stats.absorption_times),
        }
    )
    if stats.snapshot_time is not None:
        records.append(
            {
                "record": "snapshot",
                "time": stats.snapshot_time,
                "count": len(stats.snapshot_radii),
            }
        )

    t_a, t_b = t_span
    two_pi = 2.0 * math.pi
    tables = [  # (name, values, lo, hi, bins)
        ("emission_time", stats.emission_times, t_a, t_b, 20),
        ("absorption_time", stats.absorption_times, t_a, t_b, 20),
        ("emission_cos_theta", stats.emission_cos_theta, -1.0, 1.0, 10),
        ("emission_phi", np.mod(stats.emission_phi, two_pi), 0.0, two_pi, 10),
    ]
    if stats.snapshot_time is not None:
        tables.append(
            ("snapshot_radius", stats.snapshot_radii, 0.0, 0.5 * family.r_cut, 20)
        )

    _write_lines(summary_path, _jsonl_lines(cfg, seed, records))
    _write_lines(
        hist_path, _csv_lines(cfg, seed, "table,lo,hi,count", _hist_rows(tables))
    )
    print(
        f"ensemble: {stats.n_paths} paths, {len(stats.emission_times)} emissions, "
        f"{len(stats.absorption_times)} absorptions -> {summary_path}, {hist_path}"
    )
    return 0


def _cmd_selftest(ns) -> int:
    from .acceptance import run_all  # imported here, as in _cmd_validate_basis

    only = None
    if ns.only:
        try:
            only = tuple(int(tok) for tok in ns.only.split(","))
        except ValueError as exc:
            raise ValidationError(f"--only: {exc}") from exc
    results = run_all(only=only)
    all_passed = True
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.name} ({res.elapsed:.1f}s): {res.detail}")
        all_passed = all_passed and res.passed
    return 0 if all_passed else 1


_COMMANDS = {
    "validate-basis": _cmd_validate_basis,
    "coeffs": _cmd_coeffs,
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "selftest": _cmd_selftest,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_EXIT
        return _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"belljump: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BelljumpError as exc:
        # the package's ValueError subclasses mark bad input; a plain
        # ValueError is a broken internal invariant, a runtime failure
        if isinstance(exc, ValueError):
            print(f"belljump: validation error: {exc}", file=sys.stderr)
            return 1
        print(f"belljump: runtime error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"belljump: internal error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"belljump: runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
