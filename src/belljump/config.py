"""Sectioned key=value run configuration.

Grammar: `[section]` headers, one `key = value` per line, `#` or `;`
comments (full-line or trailing), blank lines ignored.  Nesting is by
dotted keys (`trace.decimation = 10` inside `[run]`, or equivalently a
`[run.trace]` header).  Complex values are written as `re, im` pairs,
lists as comma-separated entries.  Unknown sections or keys, duplicate
keys, and malformed values are ParseErrors carrying line (and column)
positions; range and consistency violations are ValidationErrors.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ParseError, ValidationError
from .params import PhysParams, canonical_params
from .wavefunction import R_SEED_FACTOR


@dataclass(frozen=True)
class ModelConfig:
    r_cut: float = 1.0
    r_min: float | None = None
    s_minus: complex = 0j
    s_plus: complex = 0j
    frozen: bool = False


@dataclass(frozen=True)
class TrackConfig:
    kind: str = "constant"  # constant | balanced | grid | file
    c_minus: complex = 1.0 + 0j
    c_plus: complex = 1j
    psi0: complex = 0j
    p0_init: float | None = None
    t_start: float = 0.0
    t_end: float = 1.0
    n: int = 33
    file: str | None = None
    times: tuple[float, ...] = ()
    c_minus_grid: tuple[complex, ...] = ()
    c_plus_grid: tuple[complex, ...] = ()
    psi0_grid: tuple[complex, ...] = ()


@dataclass(frozen=True)
class RunBlock:
    seed: int | None = None
    tol: float = 1e-8
    n_paths: int = 1000
    t0: float = 0.0
    theta0: float = math.pi / 2
    phi0: float = 0.0
    r0: float | None = None
    t_end: float | None = None
    decimation: int = 1
    probe_radius: float | None = None
    time_grid_n: int = 101
    snapshot_time: float | None = None
    output: str | None = None


@dataclass(frozen=True)
class RunConfig:
    params: PhysParams
    model: ModelConfig = field(default_factory=ModelConfig)
    track: TrackConfig = field(default_factory=TrackConfig)
    run: RunBlock = field(default_factory=RunBlock)


# ---------------------------------------------------------------------
# value parsers
# ---------------------------------------------------------------------

def _float(raw, line, col):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"expected a number, got {raw!r}", line, col) from None
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {raw!r}", line, col)
    return value


def _int(raw, line, col):
    try:
        return int(raw, 0)
    except ValueError:
        raise ParseError(f"expected an integer, got {raw!r}", line, col) from None


def _bool(raw, line, col):
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ParseError(f"expected a boolean, got {raw!r}", line, col)


def _complex(raw, line, col):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ParseError(
            f"expected a complex value as 're, im', got {raw!r}", line, col
        )
    return complex(_float(parts[0], line, col), _float(parts[1], line, col))


def _float_list(raw, line, col):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(_float(p, line, col) for p in parts)


def _complex_list(raw, line, col):
    flat = _float_list(raw, line, col)
    if len(flat) % 2:
        raise ParseError(
            "complex list needs an even count of numbers (re, im pairs)",
            line,
            col,
        )
    return tuple(
        complex(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)
    )


def _str(raw, line, col):
    return raw.strip()


# [params] key -> parser; collected apart from the blocks because
# PhysParams is assembled through canonical_params
_PARAMS_KEYS = {"q": _float, "m_tilde": _float, "kappa_tilde": _float}

# the config sections after [params], each parsed into its dataclass
_BLOCKS = {"model": ModelConfig, "track": TrackConfig, "run": RunBlock}

# value parser by field annotation
_PARSERS = {
    float: _float,
    int: _int,
    bool: _bool,
    complex: _complex,
    str: _str,
    tuple[float, ...]: _float_list,
    tuple[complex, ...]: _complex_list,
}


def _parser(hint):
    """The parser of a field annotated `hint`; `X | None` parses as X."""
    if isinstance(hint, types.UnionType):
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    return _PARSERS[hint]


# (section, key) -> parser, one per field of the section's dataclass
_KEYS = {
    (section, name): _parser(hint)
    for section, block in _BLOCKS.items()
    for name, hint in typing.get_type_hints(block).items()
}

# nested spellings accepted by the grammar, normalized to flat fields
_ALIASES = {
    "run.trace.decimation": ("run", "decimation"),
    "run.trace.output": ("run", "output"),
}

_TRACK_KINDS = ("constant", "balanced", "grid", "file")


def _scan(text: str):
    """Yield (section, key, raw value, line, column) triples."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # strip trailing comment, then whitespace
        body = raw
        for mark in ("#", ";"):
            cut = body.find(mark)
            if cut >= 0:
                body = body[:cut]
        line = body.strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno, 1)
            section = line[1:-1].strip().lower()
            if not section:
                raise ParseError("empty section header", lineno, 1)
            continue
        if "=" not in line:
            raise ParseError(
                f"expected 'key = value', got {line!r}", lineno, 1
            )
        key, _, value = line.partition("=")
        col = raw.index("=") + 2
        key = key.strip().lower()
        if not key:
            raise ParseError("missing key before '='", lineno, 1)
        if section is None:
            raise ParseError(
                f"key {key!r} appears before any [section] header", lineno, 1
            )
        # dotted keys nest under the current section; a dotted section
        # header is the same thing spelled the other way round
        full = f"{section}.{key}"
        parts = full.split(".")
        yield ".".join(parts[:-1]), parts[-1], value.strip(), lineno, col


def parse_config(text: str) -> RunConfig:
    params_raw: dict[str, float] = {}
    blocks: dict[str, dict[str, object]] = {section: {} for section in _BLOCKS}
    seen: set[tuple[str, str]] = set()

    for section, key, value, lineno, col in _scan(text):
        if f"{section}.{key}" in _ALIASES:
            section, key = _ALIASES[f"{section}.{key}"]
        if (section, key) in seen:
            raise ParseError(f"duplicate key {section}.{key}", lineno, col)
        seen.add((section, key))
        if section == "params":
            if key not in _PARAMS_KEYS:
                raise ParseError(f"unknown key params.{key}", lineno, col)
            params_raw[key] = _PARAMS_KEYS[key](value, lineno, col)
        elif (section, key) in _KEYS:
            blocks[section][key] = _KEYS[(section, key)](value, lineno, col)
        else:
            raise ParseError(f"unknown key {section}.{key}", lineno, col)

    if "q" not in params_raw:
        raise ValidationError("config must set params.q")
    try:
        params = canonical_params(**params_raw)
    except ValueError as exc:
        raise ValidationError(f"bad [params] block: {exc}") from exc

    built = {section: _BLOCKS[section](**values) for section, values in blocks.items()}
    _validate(**built)
    return RunConfig(params=params, **built)


def _validate(model: ModelConfig, track: TrackConfig, run: RunBlock) -> None:
    if model.r_cut <= 0.0:
        raise ValidationError("model.r_cut must be positive")
    # emissions seed at R_SEED_FACTOR * r_min, which must lie below r_cut/2
    r_min_top = 0.5 * model.r_cut / R_SEED_FACTOR
    if model.r_min is not None and not 0.0 < model.r_min < r_min_top:
        raise ValidationError(
            f"model.r_min must lie in (0, r_cut/{2 * R_SEED_FACTOR:g})"
        )
    if run.probe_radius is not None and not 0.0 < run.probe_radius < 0.5 * model.r_cut:
        raise ValidationError("run.probe_radius must lie in (0, r_cut/2)")
    if track.kind not in _TRACK_KINDS:
        raise ValidationError(
            f"track.kind must be one of {', '.join(_TRACK_KINDS)}"
        )
    if track.kind in ("constant", "balanced") and track.n < 1:
        raise ValidationError("track.n must be at least 1")
    if track.kind == "balanced" and track.p0_init is None:
        raise ValidationError("balanced track needs track.p0_init")
    if track.kind == "file":
        if track.file is None:
            raise ValidationError("file track needs track.file")
        if not Path(track.file).exists():
            raise ValidationError(f"track file not found: {track.file}")
    if track.kind == "grid":
        m = len(track.times)
        if m == 0:
            raise ValidationError("grid track needs track.times")
        if not (
            len(track.c_minus_grid)
            == len(track.c_plus_grid)
            == len(track.psi0_grid)
            == m
        ):
            raise ValidationError(
                "grid track arrays must all have len(track.times) entries"
            )
    if track.kind != "grid" and track.t_end <= track.t_start:
        raise ValidationError("track.t_end must exceed track.t_start")
    if run.tol <= 0.0:
        raise ValidationError("run.tol must be positive")
    if run.seed is not None and not 0 <= run.seed < 2**64:
        raise ValidationError("run.seed must lie in [0, 2**64)")
    if run.n_paths < 1:
        raise ValidationError("run.n_paths must be at least 1")
    if run.decimation < 1:
        raise ValidationError("run.decimation must be at least 1")
    if run.time_grid_n < 2:
        raise ValidationError("run.time_grid_n must be at least 2")


# ---------------------------------------------------------------------
# serialization (round-trips through parse_config)
# ---------------------------------------------------------------------

def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return f"{value.real!r}, {value.imag!r}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, tuple):
        out = []
        for v in value:
            if isinstance(v, complex):
                out.append(f"{v.real!r}, {v.imag!r}")
            else:
                out.append(repr(float(v)))
        return ", ".join(out)
    return str(value)


def serialize(config: RunConfig) -> str:
    p = config.params
    lines = [
        "[params]",
        f"q = {p.q!r}",
        f"m_tilde = {p.m_tilde!r}",
        f"kappa_tilde = {p.kappa_tilde!r}",
    ]
    for name in _BLOCKS:
        block = getattr(config, name)
        lines.append("")
        lines.append(f"[{name}]")
        for f in fields(block):
            value = getattr(block, f.name)
            if value is None or (isinstance(value, tuple) and not value):
                continue
            lines.append(f"{f.name} = {_format(value)}")
    return "\n".join(lines) + "\n"
