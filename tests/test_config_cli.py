"""Config grammar, validation, serialization, and the CLI surface."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from belljump import (
    DomainError,
    ParseError,
    ValidationError,
    __version__,
    canonical_params,
)
from belljump import cli, config
from belljump.acceptance import lemma_residual_rows
from belljump.cli import dispatch
from belljump.config import parse_config, serialize
from belljump.ensemble import normalized_amplitudes
from belljump.trajectory import (
    SphericalState,
    emit_trajectory,
    fit_power_law,
    integrate,
    time_from_radius,
)
from belljump.wavefunction import ModelFamily, current_coeffs

MINIMAL = "[params]\nq = 0.9\n"


def _cfg(text):
    return parse_config(textwrap.dedent(text))


# ---------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------

def test_minimal_config_applies_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.params.q == 0.9
    assert cfg.params.m_tilde == 0.5 and cfg.params.kappa_tilde == 1
    assert cfg.model.r_cut == 1.0 and cfg.model.r_min is None
    assert cfg.track.kind == "constant" and cfg.track.c_plus == 1j
    assert cfg.run.seed is None and cfg.run.n_paths == 1000
    assert cfg.run.theta0 == math.pi / 2


def test_comments_case_and_value_forms():
    cfg = _cfg("""\
        ; full-line comment
        [PARAMS]
        Q = 0.92          # trailing comment

        [model]
        s_minus = 0.3, -0.2

        [run]
        seed = 0x10       ; hex is fine for integers
        """)
    assert cfg.params.q == 0.92
    assert cfg.model.s_minus == complex(0.3, -0.2)
    assert cfg.run.seed == 16


def test_dotted_key_and_dotted_section_agree():
    flat = _cfg(MINIMAL + "[run]\ntrace.decimation = 7\ntrace.output = out.csv\n")
    nested = _cfg(MINIMAL + "[run.trace]\ndecimation = 7\noutput = out.csv\n")
    assert flat == nested
    assert flat.run.decimation == 7 and flat.run.output == "out.csv"


def test_duplicate_key_carries_position():
    text = MINIMAL + "[run]\ntol = 1e-6\n\ntol = 1e-8\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert "duplicate" in str(err.value)
    assert err.value.line == 6
    # the alias spelling collides with the flat one too
    with pytest.raises(ParseError, match="duplicate"):
        _cfg(MINIMAL + "[run]\ndecimation = 2\ntrace.decimation = 3\n")


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ParseError, match="unknown key params.mass"):
        parse_config("[params]\nq = 0.9\nmass = 2\n")
    with pytest.raises(ParseError, match="unknown key run.colour"):
        parse_config(MINIMAL + "[run]\ncolour = red\n")
    with pytest.raises(ParseError, match="unknown key extras.x"):
        parse_config(MINIMAL + "[extras]\nx = 1\n")


def test_removed_boundary_condition_keys_are_unknown(tmp_path, capsys):
    # g and a1..a4 changed nothing any output depends on; a config or an
    # old output header that still sets them fails to parse
    for key in ("g", "a1"):
        with pytest.raises(ParseError, match=f"unknown key params.{key}"):
            parse_config(MINIMAL + f"{key} = 1.0\n")
    old = tmp_path / "old.conf"
    old.write_text(MINIMAL + "g = 1.0, 0.0\n")
    assert dispatch(["coeffs", "--config", str(old)]) == 1
    assert "unknown key params.g" in capsys.readouterr().err


def test_removed_frozen_key_is_unknown(tmp_path, capsys):
    # a flight's field is decided by its track alone; a config or an old
    # output header (serialize wrote `frozen = false`) that still sets
    # model.frozen fails to parse
    with pytest.raises(ParseError, match="unknown key model.frozen"):
        parse_config(MINIMAL + "[model]\nfrozen = false\n")
    old = tmp_path / "old.conf"
    old.write_text(MINIMAL + "[model]\nfrozen = false\n")
    assert dispatch(["coeffs", "--config", str(old)]) == 1
    assert "unknown key model.frozen" in capsys.readouterr().err


def test_malformed_values_report_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_config("[params]\nq = fast\n")
    assert "expected a number" in str(err.value)
    assert err.value.line == 2 and err.value.column == 4
    with pytest.raises(ParseError, match="expected an integer"):
        parse_config(MINIMAL + "[run]\nn_paths = 2.5\n")
    with pytest.raises(ParseError, match="'re, im'"):
        parse_config(MINIMAL + "[track]\nc_minus = 1\n")
    with pytest.raises(ParseError, match="even count"):
        parse_config(MINIMAL + "[track]\nkind = grid\ntimes = 0, 1\npsi0_grid = 1, 0, 2\n")
    # non-finite numbers, also inside complex values and lists
    for block, column in (
        ("[run]\nsnapshot_time = nan\n", 16),
        ("[track]\nc_plus = 0, inf\n", 9),
        ("[track]\ntimes = 0, -inf\n", 8),
    ):
        with pytest.raises(ParseError, match="expected a finite number") as err:
            parse_config(MINIMAL + block)
        assert err.value.line == 4 and err.value.column == column


def test_structural_errors():
    with pytest.raises(ParseError, match="before any"):
        parse_config("q = 0.9\n")
    with pytest.raises(ParseError, match="unterminated"):
        parse_config("[params\nq = 0.9\n")
    with pytest.raises(ParseError, match="empty section"):
        parse_config("[]\nq = 0.9\n")
    with pytest.raises(ParseError, match="missing key"):
        parse_config("[params]\n= 0.9\n")
    with pytest.raises(ParseError, match="key = value"):
        parse_config("[params]\njust words\n")


# ---------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------

def test_params_block_validation():
    with pytest.raises(ValidationError, match="must set params.q"):
        parse_config("[run]\ntol = 1e-6\n")
    # out-of-band q is rejected by the parameter constructor, wrapped
    with pytest.raises(ValidationError, match=r"bad \[params\] block"):
        parse_config("[params]\nq = 0.5\n")


def test_block_range_validation():
    bad = [
        ("[model]\nr_cut = 0.0\n", "r_cut"),
        ("[model]\nr_min = 0.6\n", "r_min"),
        ("[model]\nr_min = 0.06\n", "r_min"),
        ("[run]\ntol = -1e-8\n", "tol"),
        ("[run]\nn_paths = -3\n", "n_paths"),
        ("[run]\nn_paths = 0\n", "n_paths"),
        ("[run]\ndecimation = 0\n", "decimation"),
        ("[run]\ntime_grid_n = 1\n", "time_grid_n"),
        ("[run]\nprobe_radius = -0.1\n", "probe_radius"),
        ("[track]\nt_end = 0.0\n", "t_end"),
        ("[track]\nn = -1\n", "track.n"),
    ]
    for block, name in bad:
        with pytest.raises(ValidationError, match=name):
            parse_config(MINIMAL + block)


@pytest.mark.parametrize("kind", ["constant", "balanced"])
def test_a_one_knot_track_is_refused_before_it_drops_t_end(tmp_path, capsys, kind):
    # n = 1 built the grid [t_start], and simulate reported only an empty
    # run window [0.0, 0.0]
    conf = tmp_path / "one.conf"
    conf.write_text(
        MINIMAL + f"[track]\nkind = {kind}\np0_init = 0.7\nt_end = 2.0\nn = 1\n"
        "[run]\nseed = 1\nn_paths = 1\n"
    )
    assert dispatch(["simulate", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and "track.n must be at least 2" in err


def test_track_kind_validation(tmp_path):
    with pytest.raises(ValidationError, match="track.kind"):
        _cfg(MINIMAL + "[track]\nkind = spline\n")
    with pytest.raises(ValidationError, match="p0_init"):
        _cfg(MINIMAL + "[track]\nkind = balanced\n")
    with pytest.raises(ValidationError, match="needs track.file"):
        _cfg(MINIMAL + "[track]\nkind = file\n")
    with pytest.raises(ValidationError, match="track file not found"):
        _cfg(MINIMAL + f"[track]\nkind = file\nfile = {tmp_path}/nope.csv\n")
    with pytest.raises(ValidationError, match="needs track.times"):
        _cfg(MINIMAL + "[track]\nkind = grid\n")
    with pytest.raises(ValidationError, match="len\\(track.times\\)"):
        _cfg(
            MINIMAL
            + "[track]\nkind = grid\ntimes = 0, 1\n"
            + "c_minus_grid = 1, 0, 1, 0\nc_plus_grid = 0, 1, 0, 1\n"
            + "psi0_grid = 1, 0\n"
        )


# ---------------------------------------------------------------------
# the schema and the serialization round trip
# ---------------------------------------------------------------------

#: Every [model], [track] and [run] key, with the value ALL_KEYS_CONFIG
#: sets, none of them the default.
ALL_KEYS = {
    ("model", "r_cut"): 2.0,
    ("model", "r_min"): 1e-6,
    ("model", "s_minus"): 0.1 - 0.2j,
    ("model", "s_plus"): 0.25 - 0.125j,
    ("track", "kind"): "grid",
    ("track", "c_minus"): 0.5 + 0.1j,
    ("track", "c_plus"): 0.2 + 0.6j,
    ("track", "psi0"): 0.8 + 0.1j,
    ("track", "p0_init"): 0.6,
    ("track", "t_start"): 0.5,
    ("track", "t_end"): 2.5,
    ("track", "n"): 17,
    ("track", "file"): "unused.csv",
    ("track", "times"): (0.5, 1.5, 2.5),
    ("track", "c_minus_grid"): (1 + 0j, 0.9 + 0.1j, 0.8 + 0.2j),
    ("track", "c_plus_grid"): (1j, 1j, 1j),
    ("track", "psi0_grid"): (0.5 + 0j, 0.5 + 0j, 0.5 + 0j),
    ("run", "seed"): 12,
    ("run", "tol"): 1e-6,
    ("run", "n_paths"): 40,
    ("run", "t0"): 0.75,
    ("run", "theta0"): 1.1,
    ("run", "phi0"): 0.3,
    ("run", "r0"): 1e-4,
    ("run", "t_end"): 2.0,
    ("run", "decimation"): 3,
    ("run", "probe_radius"): 0.5,
    ("run", "time_grid_n"): 11,
    ("run", "snapshot_time"): 1.25,
    ("run", "output"): "out.jsonl",
}

ALL_KEYS_CONFIG = MINIMAL + textwrap.dedent("""\
    [model]
    r_cut = 2.0
    r_min = 1e-6
    s_minus = 0.1, -0.2
    s_plus = 0.25, -0.125

    [track]
    kind = grid
    c_minus = 0.5, 0.1
    c_plus = 0.2, 0.6
    psi0 = 0.8, 0.1
    p0_init = 0.6
    t_start = 0.5
    t_end = 2.5
    n = 17
    file = unused.csv
    times = 0.5, 1.5, 2.5
    c_minus_grid = 1, 0, 0.9, 0.1, 0.8, 0.2
    c_plus_grid = 0, 1, 0, 1, 0, 1
    psi0_grid = 0.5, 0, 0.5, 0, 0.5, 0

    [run]
    seed = 12
    tol = 1e-6
    n_paths = 40
    t0 = 0.75
    theta0 = 1.1
    phi0 = 0.3
    r0 = 1e-4
    t_end = 2.0
    decimation = 3
    probe_radius = 0.5
    time_grid_n = 11
    snapshot_time = 1.25
    output = out.jsonl
    """)

ROUND_TRIP_CONFIGS = [
    MINIMAL,
    MINIMAL
    + textwrap.dedent("""\
        [model]
        r_min = 1e-6
        s_plus = 0.25, -0.125

        [track]
        kind = balanced
        c_minus = 0.3, 0.0
        c_plus = 0.0, 0.3
        p0_init = 0.7
        t_end = 3.0

        [run]
        seed = 12
        n_paths = 40
        probe_radius = 1e-4
        """),
    MINIMAL
    + textwrap.dedent("""\
        [track]
        kind = grid
        times = 0.0, 0.5, 1.0
        c_minus_grid = 1, 0, 0.9, 0.1, 0.8, 0.2
        c_plus_grid = 0, 1, 0, 1, 0, 1
        psi0_grid = 0.5, 0, 0.5, 0, 0.5, 0
        """),
    ALL_KEYS_CONFIG,
]


def test_config_keys_are_pinned():
    # the accepted keys are exactly ALL_KEYS, each parsed to its type
    assert set(config._KEYS) == set(ALL_KEYS)
    cfg = parse_config(ALL_KEYS_CONFIG)
    for (section, key), want in ALL_KEYS.items():
        block = getattr(cfg, section)
        got = getattr(block, key)
        assert repr(got) == repr(want), f"{section}.{key}"
        assert got != getattr(type(block)(), key), f"{section}.{key} is its default"
    with pytest.raises(ParseError, match="unknown key run.r_seed"):
        parse_config(MINIMAL + "[run]\nr_seed = 1e-6\n")


def test_subleading_amplitudes_reach_the_model_family():
    # a nonzero amplitude switches the subleading terms on by itself; there
    # is no separate switch that could drop it
    family = cli._model_family(parse_config(MINIMAL + "[model]\ns_minus = 0.3, 0\n"))
    assert family.subleading_amp == (0.3 + 0j, 0j)
    assert family.at(1.0, 1j).has_subleading
    assert not cli._model_family(parse_config(MINIMAL)).at(1.0, 1j).has_subleading
    with pytest.raises(ParseError, match="unknown key model.subleading"):
        parse_config(MINIMAL + "[model]\nsubleading = true\n")


@pytest.mark.parametrize(
    "text", ROUND_TRIP_CONFIGS, ids=["minimal", "balanced", "grid", "all_keys"]
)
def test_serialize_reparses_equal(text):
    cfg = parse_config(text)
    again = parse_config(serialize(cfg))
    assert again == cfg
    assert serialize(again) == serialize(cfg)


# ---------------------------------------------------------------------
# dispatch: usage and error exits
# ---------------------------------------------------------------------

def test_usage_exits(tmp_path, capsys):
    assert dispatch([]) == 64
    assert dispatch(["frobnicate"]) == 64
    assert dispatch(["trace"]) == 64  # --config is required
    assert dispatch(["coeffs"]) == 64  # needs --config or --q
    err = capsys.readouterr().err
    assert "usage" in err


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as stop:
        dispatch(["--version"])
    assert stop.value.code == 0


def test_validation_failures_exit_1(tmp_path, capsys):
    assert dispatch(["trace", "--config", str(tmp_path / "nope.conf")]) == 1
    bad_q = tmp_path / "bad.conf"
    bad_q.write_text("[params]\nq = 0.5\n")
    assert dispatch(["coeffs", "--config", str(bad_q)]) == 1
    # stochastic commands insist on a seed
    no_seed = tmp_path / "noseed.conf"
    no_seed.write_text(MINIMAL)
    assert dispatch(["simulate", "--config", str(no_seed)]) == 1
    assert dispatch(["selftest", "--only", "99"]) == 1
    assert dispatch(["selftest", "--only", "x"]) == 1
    # a file track with a non-finite time
    track_csv = tmp_path / "nan.csv"
    track_csv.write_text(
        "0.0, 1.0, 0.0, 0.0, 1.0, 0.5, 0.0\n"
        "nan, 1.0, 0.0, 0.0, 1.0, 0.5, 0.0\n"
    )
    nan_track = tmp_path / "nan.conf"
    nan_track.write_text(MINIMAL + f"[track]\nkind = file\nfile = {track_csv}\n")
    assert dispatch(["coeffs", "--config", str(nan_track)]) == 1
    # a snapshot after the end of the [0, 3] run window
    late = tmp_path / "late.conf"
    late.write_text(ENSEMBLE_CONF + "snapshot_time = 99.0\n")
    assert dispatch(["ensemble", "--config", str(late), "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "seed" in err
    assert "finite" in err


def test_trace_refuses_a_launch_outside_the_track(tmp_path, capsys):
    # simulate refuses the empty window [5, 1]; trace would fly from t0 = 5
    # on the coefficients clamped to their t = 1 values
    conf = tmp_path / "late.conf"
    conf.write_text(
        MINIMAL
        + "[track]\nkind = grid\ntimes = 0, 1\n"
        + "c_minus_grid = 1, 0, 1, 0\nc_plus_grid = 0, 1, 0, 1\n"
        + "psi0_grid = 1, 0, 1, 0\n\n[run]\nseed = 1\nt0 = 5.0\n"
    )
    out = tmp_path / "trace.csv"
    assert dispatch(["trace", "--config", str(conf), "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "validation error" in err and "5.0" in err and "1.0" in err
    assert dispatch(["simulate", "--config", str(conf)]) == 1


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["ensemble", "simulate"])
def test_seed_outside_the_key_range_is_a_validation_error(tmp_path, capsys, command, seed):
    # a Philox key word holds [0, 2**64); the edges themselves are valid
    conf = tmp_path / "seed.conf"
    conf.write_text(ENSEMBLE_CONF.replace("seed = 79", f"seed = {seed}"))
    out = tmp_path / "out"
    assert dispatch([command, "--config", str(conf), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and "run.seed" in err
    assert "Traceback" not in err
    assert not out.exists()
    for edge in (0, 2**64 - 1):
        cfg = parse_config(ENSEMBLE_CONF.replace("seed = 79", f"seed = {edge}"))
        assert cfg.run.seed == edge


def test_internal_value_error_exits_2(monkeypatch, capsys):
    # a plain ValueError is a broken invariant, not a bad input
    def broken(ns):
        raise ValueError("samples must be strictly time-ordered")

    monkeypatch.setitem(cli._COMMANDS, "coeffs", broken)
    assert dispatch(["coeffs", "--q", "0.9"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_unnormalized_track_exits_2(tmp_path, capsys):
    conf = tmp_path / "vac.conf"
    conf.write_text(
        "[params]\nq = 0.96\n\n[track]\npsi0 = 1, 0\n\n[run]\nseed = 1\n"
    )
    assert dispatch(["simulate", "--config", str(conf)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    # an I/O failure is a runtime failure: here the output is a directory
    conf = tmp_path / "trace.conf"
    conf.write_text(TRACE_CONF.replace("tol = 1e-10", "tol = 1e-6"))
    out = tmp_path / "taken"
    out.mkdir()
    assert dispatch(["trace", "--config", str(conf), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("belljump: runtime error: [Errno 21] Is a directory")
    assert "Traceback" not in err


# ---------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------

def test_coeffs_json_matches_library(tmp_path):
    out = tmp_path / "coeffs.json"
    rc = dispatch(
        [
            "coeffs",
            "--q", "0.9",
            "--c-minus", "0.7,0.2",
            "--c-plus=-0.3,0.5",  # '=' form so argparse keeps the leading '-'
            "--output", str(out),
        ]
    )
    assert rc == 0
    header, body = [json.loads(line) for line in out.read_text().splitlines()]
    assert header["record"] == "header" and "version" in header
    cc = current_coeffs(canonical_params(0.9), 0.7 + 0.2j, -0.3 + 0.5j)
    assert body["record"] == "coeffs"
    assert body["C_r"] == cc.C_r
    assert body["Cphi_leading"] == cc.Cphi_leading
    assert body["Cphi_mid"] == cc.Cphi_mid
    assert body["Cphi_sub"] == cc.Cphi_sub
    assert body["rho_leading"] == cc.rho_leading
    assert body["rho_mid"] == cc.rho_mid
    assert body["B"] == canonical_params(0.9).B


def test_coeffs_amplitudes_must_be_finite(tmp_path, capsys):
    # JSON has no NaN or Infinity, so a non-finite amplitude is a usage error
    out = tmp_path / "coeffs.json"
    for flag in ("--c-minus=nan,0", "--c-plus=0,inf", "--c-minus=1"):
        assert dispatch(["coeffs", "--q", "0.9", flag, "--output", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--c-minus: expected a finite number, got 'nan'" in err
    assert "--c-plus: expected a finite number, got 'inf'" in err

    def strict(name):
        raise AssertionError(f"{name} is not JSON")

    assert dispatch(["coeffs", "--q", "0.9", "--output", str(out)]) == 0
    body = json.loads(out.read_text().splitlines()[1], parse_constant=strict)
    assert body["c_minus"] == [1.0, 0.0] and body["c_plus"] == [0.0, 1.0]


def test_coeffs_reads_file_track(tmp_path):
    track_csv = tmp_path / "track.csv"
    track_csv.write_text(
        "# t, c_minus re, im, c_plus re, im, psi0 re, im\n"
        "0.0, 1.0, 0.0, 0.0, 1.0, 0.5, 0.0\n"
        "1.0, 0.9, 0.0, 0.0, 1.1, 0.5, 0.0\n"
    )
    conf = tmp_path / "file.conf"
    conf.write_text(
        f"[params]\nq = 0.96\n\n[track]\nkind = file\nfile = {track_csv}\n"
    )
    out = tmp_path / "coeffs.json"
    assert dispatch(["coeffs", "--config", str(conf), "--output", str(out)]) == 0
    body = json.loads(out.read_text().splitlines()[1])
    assert body["c_minus"] == [1.0, 0.0] and body["c_plus"] == [0.0, 1.0]
    assert body["C_r"] == current_coeffs(canonical_params(0.96), 1.0, 1j).C_r
    # malformed track files are a validation failure
    track_csv.write_text("0.0, 1.0, 0.0, 0.0\n")
    assert dispatch(["coeffs", "--config", str(conf)]) == 1
    track_csv.write_text("0.0, 1.0, 0.0, 0.0, 1.0, 0.5, zero\n")
    assert dispatch(["coeffs", "--config", str(conf)]) == 1


def test_only_the_kinds_that_read_the_window_check_it(tmp_path, capsys):
    # a file track reads neither t_start nor t_end, so t_start = 3 above
    # the default t_end = 1 is no reason to refuse it; a constant track
    # builds its grid on that window and still refuses it
    track_csv = tmp_path / "track.csv"
    track_csv.write_text(
        "0.0, 1.0, 0.0, 0.0, 1.0, 0.5, 0.0\n"
        "1.0, 0.9, 0.0, 0.0, 1.1, 0.5, 0.0\n"
    )
    conf = tmp_path / "window.conf"
    out = tmp_path / "coeffs.json"
    conf.write_text(
        f"[params]\nq = 0.96\n\n[track]\nkind = file\nfile = {track_csv}\nt_start = 3\n"
    )
    assert dispatch(["coeffs", "--config", str(conf), "--output", str(out)]) == 0
    body = json.loads(out.read_text().splitlines()[1])
    assert body["c_minus"] == [1.0, 0.0] and body["c_plus"] == [0.0, 1.0]
    conf.write_text("[params]\nq = 0.96\n\n[track]\nkind = constant\nt_start = 3\n")
    assert dispatch(["coeffs", "--config", str(conf)]) == 1
    assert "track.t_end must exceed track.t_start" in capsys.readouterr().err


def test_coeffs_config_refuses_amplitude_flags(tmp_path, capsys):
    # the config's q and track give the amplitudes; a flag beside it would
    # be silently ignored, so any of the three is a usage error
    conf = tmp_path / "c.conf"
    conf.write_text("[params]\nq = 0.96\n")
    out = tmp_path / "coeffs.json"
    for flags in (
        ["--q", "0.9"],
        ["--c-minus", "0,1"],
        ["--c-plus=-1,0"],
        ["--q", "0.9", "--c-minus", "0,1", "--c-plus=-1,0"],
    ):
        args = ["coeffs", "--config", str(conf), *flags, "--output", str(out)]
        assert dispatch(args) == 64
        assert not out.exists()
    assert "drop --q, --c-minus, --c-plus" in capsys.readouterr().err
    assert dispatch(["coeffs", "--config", str(conf), "--output", str(out)]) == 0
    body = json.loads(out.read_text().splitlines()[1])
    assert body["q"] == 0.96


# ---------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------

FIG_Q = math.sqrt(187.0 / 196.0)  # makes the absorption exponent exactly 7/4

TRACE_CONF = f"""\
[params]
q = {FIG_Q!r}

[model]
r_cut = 1.0
r_min = 1e-9

[track]
c_minus = 1, 0
c_plus = 0, -0.8
psi0 = 1, 0
t_end = 10.0

[run]
theta0 = 1.1
r0 = 1e-4
tol = 1e-10
decimation = 4
"""


def _read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0], np.loadtxt(lines[1:], delimiter=",")


def test_trace_absorption_csv(tmp_path):
    conf = tmp_path / "trace.conf"
    conf.write_text(TRACE_CONF)
    out = tmp_path / "trace.csv"
    assert dispatch(["trace", "--config", str(conf), "--output", str(out)]) == 0

    header_lines = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert header_lines[0].startswith("# belljump ")
    assert header_lines[1].startswith("# seed = ")
    assert "# config:" in header_lines
    # the embedded config reparses to the run's parameters
    embedded = "\n".join(
        l[4:] for l in header_lines if l.startswith("#   ")
    )
    assert parse_config(embedded).params.q == FIG_Q

    columns, rows = _read_csv(out)
    assert columns == "t,r,theta,phi_unwrapped,x,y,z"
    assert 20 < len(rows) < 100  # decimation thinned the samples
    t, r, theta, phi = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    assert np.ptp(theta) == 0.0  # polar angle is conserved
    assert np.all(np.diff(r) < 0.0)
    # circling sense: q > 0, positive mass-coupling product
    assert np.all(np.diff(phi) < 0.0)
    assert abs(phi[-1] - phi[0]) > 20.0 * math.pi
    # cartesian columns agree with the spherical ones
    radius = np.sqrt(rows[:, 4] ** 2 + rows[:, 5] ** 2 + rows[:, 6] ** 2)
    assert np.max(np.abs(radius - r) / r) < 1e-12

    # fitted approach exponent: r ~ |t - t_abs|^(1/(1-2B)) = |dt|^(7/4)
    params = canonical_params(FIG_Q)
    t_abs = t[-1] - time_from_radius(params, 1.0, -0.8j, r[-1])
    window = (r >= 1e-7) & (r <= 1e-5)
    exponent, _, r_squared = fit_power_law(
        np.column_stack([t_abs - t[window], r[window]])
    )
    assert abs(exponent - 1.75) / 1.75 < 0.01
    assert r_squared > 0.999999


def test_trace_resolves_against_outdir(tmp_path, monkeypatch):
    conf = tmp_path / "trace.conf"
    conf.write_text(TRACE_CONF.replace("tol = 1e-10", "tol = 1e-6"))
    monkeypatch.setenv("BELLJUMP_OUTDIR", str(tmp_path / "results"))
    assert dispatch(["trace", "--config", str(conf), "--output", "sub/t.csv"]) == 0
    assert (tmp_path / "results" / "sub" / "t.csv").exists()


def _grid_trace_conf(case, r0):
    # seven knots on [0, 3]; the phase of c_plus drifts as
    # pi/2 + 0.7 sin(2 pi t/1.5), keeping Im[conj(c-) c+] positive,
    # except on the "constant" track, which holds it at pi/2 + 0.3
    times = [0.5 * k for k in range(7)]
    drift = [0.7 * math.sin(2.0 * math.pi * t / 1.5) for t in times]
    if case == "constant":
        drift = [0.3] * len(times)
    phases = [0.5 * math.pi + d for d in drift]
    return MINIMAL.replace("0.9", "0.96") + textwrap.dedent(f"""\
        [track]
        kind = grid
        times = {", ".join(map(repr, times))}
        c_minus_grid = {", ".join("1, 0" for _ in times)}
        c_plus_grid = {", ".join(f"{math.cos(p)!r}, {math.sin(p)!r}" for p in phases)}
        psi0_grid = {", ".join("0.5, 0" for _ in times)}

        [run]
        t0 = 0.2
        {r0}
        t_end = 2.5
        """)


@pytest.mark.parametrize("r0", ["r0 = 0.01", ""], ids=["from_r0", "emitted"])
@pytest.mark.parametrize("case", ["psi_t", "constant"])
def test_trace_flies_the_field_simulate_flies(tmp_path, case, r0):
    # psi_t on a drifting track; the coefficients at t0 throughout when
    # the track holds them constant
    text = _grid_trace_conf(case, r0)
    conf, out = tmp_path / "trace.conf", tmp_path / "trace.csv"
    conf.write_text(text)
    assert dispatch(["trace", "--config", str(conf), "--output", str(out)]) == 0
    _, rows = _read_csv(out)

    cfg = parse_config(text)
    track = cli._build_track(cfg)
    model = cli._model_family(cfg).at(*track.coefficients(0.2))
    field = track if case == "psi_t" else None
    if r0:
        start = SphericalState(0.2, 0.01, 0.5 * math.pi, 0.0)
        seg = integrate(model, start, 2.5, 1e-8, refresh=field)
    else:
        seg = emit_trajectory(
            model, 0.2, 0.5 * math.pi, 0.0, 1e-8, t_end=2.5, refresh=field
        )
    want = (seg.t, seg.r, np.full(len(seg.t), seg.theta), seg.phi)
    for column, values in enumerate(want):
        assert np.array_equal(rows[:, column], values)


# ---------------------------------------------------------------------
# simulate / ensemble
# ---------------------------------------------------------------------

ENSEMBLE_CONF = """\
[params]
q = 0.96

[track]
kind = balanced
c_minus = 0.1295635684153518, 0
c_plus = 0, 0.1295635684153518
p0_init = 0.7
t_end = 3.0
n = 129

[run]
seed = 79
n_paths = 300
tol = 1e-6
"""


#: A balanced track that drains the vacuum weight from 0.9995 to 9e-4
#: over its window: path 0 starts in the vacuum and emits with
#: probability 0.9986 (on a balanced track the emission time is uniform
#: on the window), so `simulate` writes emission and flight records at
#: whatever stream the seed gives
EMITTING_CONF = """\
[params]
q = 0.96

[track]
kind = balanced
c_minus = 0.005289410531196515, 0
c_plus = 0, 0.005289410531196515
p0_init = 0.9995
t_end = 8130.0
n = 129

[run]
seed = 79
n_paths = 300
tol = 1e-6
"""


def _simulate_with_traces(tmp_path, conf_text):
    """Run simulate without and with --trace-dir.  The records must be
    byte-identical, and each flight CSV must trace its record's flight to
    the same terminal.  Returns the records."""
    conf = tmp_path / "run.conf"
    conf.write_text(conf_text)
    plain, traced = tmp_path / "plain.jsonl", tmp_path / "traced.jsonl"
    args = ["simulate", "--config", str(conf), "--output"]
    assert dispatch(args + [str(plain)]) == 0
    assert dispatch(args + [str(traced), "--trace-dir", str(tmp_path / "flights")]) == 0
    assert traced.read_bytes() == plain.read_bytes()

    records = [json.loads(line) for line in plain.read_text().splitlines()]
    cfg = parse_config(conf_text)
    r_min = ModelFamily(cfg.params, cfg.model.r_cut, r_min=cfg.model.r_min).r_min
    r_top = 0.5 * cfg.model.r_cut
    t_b = records[-1]["t_span"][1]
    flights = [rec for rec in records if rec["record"] == "flight"]
    for i, flight in enumerate(flights):
        columns, rows = _read_csv(tmp_path / "flights" / f"flight_{i:03d}.csv")
        assert columns == "t,r,theta,phi_unwrapped,x,y,z"
        assert len(rows) > 2
        t_last, r_last = rows[-1][0], rows[-1][1]
        assert abs(t_last - flight["t_end"]) <= 1e-4 * abs(flight["t_end"])
        kind = flight["terminal"]["kind"]
        if kind == "absorbed":
            assert r_last == pytest.approx(r_min, rel=1e-9)
        elif kind == "left_inner_region":
            assert r_last == pytest.approx(r_top, rel=1e-9)
        else:
            assert kind == "time_exhausted"
            assert t_last == t_b and r_min < r_last < r_top
    return records


def test_simulate_event_records(tmp_path):
    records = _simulate_with_traces(tmp_path, EMITTING_CONF)
    kinds = [rec["record"] for rec in records]
    assert kinds[0] == "header" and kinds[-1] == "end"
    # a vacuum start, one emission, one flight
    assert "vacuum_span" in kinds and "emission" in kinds and "flight" in kinds
    emission = next(rec for rec in records if rec["record"] == "emission")
    assert set(emission) == {"record", "t0", "theta0", "phi0"}
    assert 0.0 <= emission["theta0"] <= math.pi
    flight = next(rec for rec in records if rec["record"] == "flight")
    # fixed coefficients: the record is the exact closed-form flight
    assert flight["samples"] == 2 and flight["n_accepted"] == 0
    assert flight["terminal"]["kind"] in (
        "absorbed", "left_inner_region", "time_exhausted"
    )
    end = records[-1]
    assert end["t_span"] == [0.0, 8130.0]
    assert end["n_emissions"] == 1 and end["n_absorptions"] == 0


INGOING_CONF = """\
[params]
q = 0.96

[track]
kind = balanced
c_minus = 0.19791161985731318, 0
c_plus = 0, -0.19791161985731318
p0_init = 0.3
t_end = 0.5
n = 129

[run]
seed = 3
tol = 1e-6
"""


def test_simulate_trace_dir_replays_absorbing_path(tmp_path):
    # sector mass 0.7 flowing into the source; seed 3 starts in flight
    # and is absorbed inside the window
    records = _simulate_with_traces(tmp_path, INGOING_CONF)
    absorption = next(rec for rec in records if rec["record"] == "absorption")
    flight = next(rec for rec in records if rec["record"] == "flight")
    assert flight["terminal"] == {"kind": "absorbed", "t0": absorption["t0"]}
    assert records[-1]["n_absorptions"] == 1


def test_simulate_parked_time_exhausted_and_probe_records(tmp_path):
    # ENSEMBLE_CONF (outgoing field, window [0, 3]) with a probe sphere at
    # r = 0.2: seed 46 draws the particle at r >= r_cut/2, where it is
    # parked; seed 3 starts in flight, crosses the probe outward and is
    # still inside r_cut/2 when the window ends
    def simulate(seed):
        run_dir = tmp_path / f"seed{seed}"
        run_dir.mkdir()
        conf_text = ENSEMBLE_CONF.replace("seed = 79", f"seed = {seed}")
        return _simulate_with_traces(run_dir, conf_text + "probe_radius = 0.2\n")

    records = simulate(46)
    assert [rec["record"] for rec in records] == ["header", "parked", "end"]
    assert records[1] == {"record": "parked"}
    assert records[-1]["n_emissions"] == records[-1]["n_absorptions"] == 0

    records = simulate(3)
    assert [rec["record"] for rec in records] == ["header", "flight", "end"]
    flight = records[1]
    assert flight["terminal"] == {"kind": "time_exhausted"}
    assert flight["t_end"] == 3.0
    (crossing,) = flight["probe_crossings"]
    assert set(crossing) == {"t", "r", "direction"}
    assert crossing["direction"] == 1
    assert crossing["r"] == pytest.approx(0.2, rel=1e-9)
    assert flight["t_start"] < crossing["t"] < flight["t_end"]


def test_ensemble_summary_and_histograms(tmp_path):
    conf = tmp_path / "ens.conf"
    conf.write_text(ENSEMBLE_CONF.replace("seed = 79", "seed = 77"))
    rc = dispatch(
        ["ensemble", "--config", str(conf), "--output", str(tmp_path / "out")]
    )
    assert rc == 0
    summary = tmp_path / "out" / "ensemble_summary.json"
    hist = tmp_path / "out" / "ensemble_hist.csv"
    records = {
        rec["record"]: rec
        for rec in map(json.loads, summary.read_text().splitlines())
    }
    assert records["header"]["seed"] == 77
    assert parse_config(records["header"]["config"]).run.seed == 77
    occ = records["occupancy"]
    assert len(occ["times"]) == len(occ["p0_hat"]) == 101
    assert np.all(np.isfinite(occ["z_scores"]))
    assert records["sector0"]["passed"] is True
    totals = records["totals"]
    assert totals["n_paths"] == 300 and totals["n_absorptions"] == 0
    # too few events for the angle tests at this ensemble size
    assert "skipped" in records["emission_angles"]

    lines = [l for l in hist.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "table,lo,hi,count"
    tables = {}
    for line in lines[1:]:
        name, lo, hi, count = line.split(",")
        tables.setdefault(name, []).append(int(count))
    assert set(tables) == {
        "emission_time", "absorption_time", "emission_cos_theta", "emission_phi"
    }
    assert len(tables["emission_time"]) == 20
    assert len(tables["emission_cos_theta"]) == 10
    assert sum(tables["emission_time"]) == totals["n_emissions"]
    assert sum(tables["emission_cos_theta"]) == totals["n_emissions"]
    assert "snapshot" not in records


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(line, parse_constant=reject)


def test_ensemble_summary_writes_infinite_z_scores_as_null(tmp_path):
    # no vacuum and an ingoing field: the expected occupancy is exactly 0,
    # and absorptions make the estimate positive after t0, where the
    # z-score is infinite.  The summary stays strict JSON
    conf = tmp_path / "ens.conf"
    conf.write_text(MINIMAL.replace("0.9", "0.96") + textwrap.dedent("""\
        [track]
        kind = constant
        psi0 = 0, 0
        c_minus = 0.2365496301731736, 0
        c_plus = 0, -0.2365496301731736

        [run]
        seed = 3
        n_paths = 200
        tol = 1e-6
        time_grid_n = 11
        """))
    out = tmp_path / "out"
    assert dispatch(["ensemble", "--config", str(conf), "--output", str(out)]) == 0
    summary = (out / "ensemble_summary.json").read_text().splitlines()
    records = {rec["record"]: rec for rec in map(_strict_json, summary)}
    occ = records["occupancy"]
    assert occ["expected"] == [0.0] * 11
    assert occ["p0_hat"][0] == 0.0 and min(occ["p0_hat"][1:]) > 0.0
    assert occ["z_scores"] == [0.0] + [None] * 10
    assert records["sector0"] == {
        "record": "sector0", "fraction_exceeding": 10 / 11, "passed": False
    }
    assert records["totals"]["n_absorptions"] == 56


def test_ensemble_writes_the_emission_angle_report(tmp_path):
    # EMITTING_CONF drains the vacuum over its window, so nearly every
    # one of 1100 paths emits once: enough emissions for the angle tests
    conf = tmp_path / "ens.conf"
    conf.write_text(EMITTING_CONF.replace("n_paths = 300", "n_paths = 1100"))
    out = tmp_path / "out"
    assert dispatch(["ensemble", "--config", str(conf), "--output", str(out)]) == 0
    records = {
        rec["record"]: rec
        for rec in map(
            json.loads, (out / "ensemble_summary.json").read_text().splitlines()
        )
    }
    angles = records["emission_angles"]
    assert set(angles) == {
        "record", "n_events", "chi2", "dof", "chi2_p_value", "ks_p_value", "passed"
    }
    assert angles["n_events"] == records["totals"]["n_emissions"] >= 1000
    assert angles["dof"] == 99
    assert 0.0 <= angles["chi2_p_value"] <= 1.0
    assert 0.0 <= angles["ks_p_value"] <= 1.0
    assert angles["passed"] == (
        angles["chi2_p_value"] > 0.01 and angles["ks_p_value"] > 0.01
    )


def test_ensemble_without_angle_report_skips_scipy_stats(tmp_path):
    # fewer than the 1000 emissions the angle report needs: the run must
    # not pay the scipy.stats import only to skip that report
    conf = tmp_path / "ens.conf"
    conf.write_text(ENSEMBLE_CONF.replace("n_paths = 300", "n_paths = 40"))
    out = tmp_path / "out"
    script = (
        "import sys\n"
        "from belljump.cli import dispatch\n"
        f"rc = dispatch(['ensemble', '--config', {str(conf)!r}, '--output', {str(out)!r}])\n"
        "print(rc, 'scipy.stats' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"
    records = [
        json.loads(line)
        for line in (out / "ensemble_summary.json").read_text().splitlines()
    ]
    angles = next(rec for rec in records if rec["record"] == "emission_angles")
    assert "skipped" in angles


def test_runs_import_no_scipy_solvers(tmp_path):
    # tracks are the package's own cubic tables, waits are thinned
    # against them, and t(r) is inverted by the package's root finder:
    # neither an ensemble on a file track (DP5 flights, snapshot radii)
    # nor a simulated path (closed-form flight) loads scipy's
    # interpolate, optimize or integrate
    p = canonical_params(0.96)
    t = np.linspace(0.0, 2.0, 17)
    phase = 0.5 * math.pi + 0.3 * np.sin(math.pi * t)
    amp = abs(normalized_amplitudes(p, 1.0, 1j, 1.0, 0.3)[0])
    drain = np.concatenate(
        ([0.0], np.cumsum(np.diff(t) * 8.0 * (1.0 + p.q) * p.B * amp**2 * 0.5
                          * (np.sin(phase[1:]) + np.sin(phase[:-1]))))
    )
    rows = [
        f"{a!r}, {amp!r}, 0.0, {amp * math.cos(ph)!r}, {amp * math.sin(ph)!r}, "
        f"{math.sqrt(0.7 - d)!r}, 0.0"
        for a, ph, d in zip(t.tolist(), phase.tolist(), drain.tolist())
    ]
    track_csv = tmp_path / "track.csv"
    track_csv.write_text("\n".join(rows) + "\n")
    file_conf = tmp_path / "file.conf"
    file_conf.write_text(
        f"[params]\nq = 0.96\n\n[track]\nkind = file\nfile = {track_csv}\n\n"
        "[run]\nseed = 3\nn_paths = 200\ntol = 1e-6\nsnapshot_time = 1.0\n"
    )
    sim_conf = tmp_path / "sim.conf"
    sim_conf.write_text(EMITTING_CONF)
    script = (
        "import sys\n"
        "from belljump.cli import dispatch\n"
        f"rc = [dispatch(['ensemble', '--config', {str(file_conf)!r}, "
        f"'--output', {str(tmp_path / 'out')!r}]),\n"
        f"      dispatch(['simulate', '--config', {str(sim_conf)!r}, "
        f"'--output', {str(tmp_path / 'path.jsonl')!r}])]\n"
        "names = ('scipy.interpolate', 'scipy.optimize', 'scipy.integrate')\n"
        "print(rc, [n for n in names if n in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0] []", run.stdout + run.stderr
    summary = (tmp_path / "out" / "ensemble_summary.json").read_text()
    records = [json.loads(line) for line in summary.splitlines()]
    totals = next(rec for rec in records if rec["record"] == "totals")
    snapshot = next(rec for rec in records if rec["record"] == "snapshot")
    assert totals["n_emissions"] > 0 and snapshot["count"] > 0
    flights = [
        json.loads(line)
        for line in (tmp_path / "path.jsonl").read_text().splitlines()
        if '"flight"' in line
    ]
    assert flights and flights[0]["samples"] == 2


def test_ensemble_snapshot_radii(tmp_path):
    conf = tmp_path / "ens.conf"
    conf.write_text(ENSEMBLE_CONF + "snapshot_time = 1.5\nprobe_radius = 0.2\n")
    rc = dispatch(
        ["ensemble", "--config", str(conf), "--output", str(tmp_path / "out")]
    )
    assert rc == 0
    summary = tmp_path / "out" / "ensemble_summary.json"
    hist = tmp_path / "out" / "ensemble_hist.csv"
    records = {
        rec["record"]: rec
        for rec in map(json.loads, summary.read_text().splitlines())
    }
    snapshot = records["snapshot"]
    assert snapshot["time"] == 1.5 and snapshot["count"] > 0
    assert records["flux"]["r_probe"] == 0.2
    rows = [
        line.split(",")
        for line in hist.read_text().splitlines()
        if line.startswith("snapshot_radius,")
    ]
    assert len(rows) == 20
    assert float(rows[0][1]) == 0.0 and float(rows[-1][2]) == 0.5  # r_cut = 1
    assert sum(int(row[3]) for row in rows) == snapshot["count"]


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (
            ["ensemble", "--config", "{ens}", "--output", "{tmp}/out"],
            "out/ensemble_hist.csv",
        ),
        (
            ["simulate", "--config", "{ens}", "--output", "{tmp}/p.jsonl",
             "--trace-dir", "{tmp}/flights"],
            "flights/flight_*.csv",
        ),
        (["validate-basis", "--order", "8", "--points", "5", "--qs", "2",
          "--output", "{tmp}/vb.csv"], "vb.csv"),
        (["coeffs", "--q", "0.9"], None),
        (["trace", "--config", "{trace}"], None),
        (["simulate", "--config", "{ens}"], None),
        (["validate-basis", "--order", "8", "--points", "5", "--qs", "2"], None),
    ],
    ids=[
        "ensemble_hist", "trace_dir", "validate_basis_csv", "coeffs_stdout",
        "trace_stdout", "simulate_stdout", "validate_basis_stdout",
    ],
)
def test_every_output_starts_with_header(tmp_path, capsys, argv, outputs):
    ens, trace = tmp_path / "ens.conf", tmp_path / "trace.conf"
    ens.write_text(EMITTING_CONF.replace("n_paths = 300", "n_paths = 40"))
    trace.write_text(TRACE_CONF.replace("tol = 1e-10", "tol = 1e-6"))
    argv = [arg.format(tmp=tmp_path, ens=ens, trace=trace) for arg in argv]
    assert dispatch(argv) == 0
    if outputs is None:
        texts = [capsys.readouterr().out]
    else:
        paths = sorted(tmp_path.glob(outputs))
        assert paths
        texts = [path.read_text() for path in paths]
    for text in texts:
        lines = text.splitlines()
        if lines[0].startswith("{"):
            header = json.loads(lines[0])
            assert header["record"] == "header"
            assert header["version"] == __version__
        else:
            assert lines[0] == f"# belljump {__version__}"
            assert lines[1].startswith("# seed = ")


# ---------------------------------------------------------------------
# validate-basis / selftest
# ---------------------------------------------------------------------

def test_validate_basis_residual_table(tmp_path, capsys):
    out = tmp_path / "residuals.csv"
    rc = dispatch(
        [
            "validate-basis",
            "--order", "8",
            "--points", "5",
            "--qs", "2",
            "--seed", "3",
            "--output", str(out),
        ]
    )
    assert rc == 0
    assert "max |residual|" in capsys.readouterr().out
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "q,m_tilde,kappa_tilde,family,quantity,sign_a,sign_b,check,residual"
    keys = [tuple(line.rsplit(",", 1)[0].split(",")) for line in lines[1:]]
    # per label: 16 basis rows and 16 boundary rows per q, then 32
    # quadrature rows at the first label and the first q
    q_first, q_second = "0.9184400426342396", "0.9352554610994912"
    pairs = [(a, b) for a in ("-1", "1") for b in ("-1", "1")]
    quantities = ("overlap", "alpha_r", "alpha_theta", "alpha_phi")
    labels = (("-0.5", "-1"), ("-0.5", "1"), ("0.5", "-1"), ("0.5", "1"))
    want = {
        (q, m, k, family, quantity, a, b, "pointwise")
        for m, k in labels
        for q, family in (("nan", "basis"), (q_first, "boundary"), (q_second, "boundary"))
        for quantity in quantities
        for a, b in pairs
    } | {
        (q_first, "-0.5", "-1", family, quantity, a, b, "quadrature")
        for family in ("basis", "boundary")
        for quantity in quantities
        for a, b in pairs
    }
    assert len(keys) == len(want) == 224
    assert set(keys) == want
    residuals = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert max(residuals) < 1e-10


def test_validate_basis_rejects_bad_counts(capsys):
    # an empty point cloud, no q values or a negative quadrature order is
    # bad input: exit 1 with a validation error, never a traceback or a
    # silently skipped check
    for args in (
        ["--points", "0"], ["--points", "-2"], ["--qs", "0"], ["--order", "-1"]
    ):
        assert dispatch(["validate-basis", *args]) == 1
        assert "belljump: validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "counts",
    [{"n_points": 2.5}, {"n_q": 2.0}, {"order": 1.5}, {"n_points": 0},
     {"n_q": 0}, {"order": -1}],
    ids=lambda counts: "-".join(f"{k}={v}" for k, v in counts.items()),
)
def test_lemma_residual_rows_checks_its_counts(counts):
    (name,) = counts
    with pytest.raises(DomainError, match=name):
        lemma_residual_rows(**{"n_points": 3, "n_q": 2, **counts})


def test_validate_basis_rejects_a_negative_seed(capsys):
    # numpy's own refusal once surfaced as an internal error (exit 2)
    args = ["validate-basis", "--seed", "-1", "--points", "3", "--qs", "2"]
    assert dispatch(args) == 1
    err = capsys.readouterr().err
    assert "belljump: validation error" in err and "seed" in err


def test_selftest_single_criterion(capsys):
    assert dispatch(["selftest", "--only", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS]")
    assert "emission-rate law" in out
