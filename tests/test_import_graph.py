"""Which modules an import loads, each checked in a fresh interpreter.

The package root holds only the names README and the tests take from it,
so `import belljump` loads no numpy; a library run of the ensemble loads
no config parser, CLI or self-test; and the CLI holds the ensemble module
itself, where a tracer's wrappers installed on it are seen.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROOT_NAMES = {
    "__version__",
    "BelljumpError",
    "DegenerateError",
    "DomainError",
    "FitError",
    "InsufficientEvents",
    "MajorantError",
    "NormalizationError",
    "OriginError",
    "ParseError",
    "RangeError",
    "SetError",
    "StepFailure",
    "VacuumEmpty",
    "ValidationError",
    "WindowClosed",
    "ADMISSIBLE_LABELS",
    "PhysParams",
    "canonical_params",
    "circling_sign",
}


def _loaded_after(statement: str) -> dict:
    """The belljump modules, numpy's presence and the root's non-module
    names after running `statement` in a new interpreter."""
    probe = (
        f"{statement}\n"
        "import json, sys, types\n"
        "root = sys.modules['belljump']\n"
        "print(json.dumps({\n"
        "    'modules': sorted(m for m in sys.modules if m.split('.')[0] == 'belljump'),\n"
        "    'numpy': 'numpy' in sys.modules,\n"
        "    'names': sorted(k for k, v in vars(root).items()\n"
        "                    if not isinstance(v, types.ModuleType)\n"
        "                    and (not k.startswith('__') or k == '__version__')),\n"
        "}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_root_import_loads_only_errors_and_params():
    seen = _loaded_after("import belljump")
    assert seen["modules"] == ["belljump", "belljump.errors", "belljump.params"]
    assert not seen["numpy"]
    assert set(seen["names"]) == ROOT_NAMES


def test_ensemble_import_loads_no_parser_cli_or_selftest():
    seen = _loaded_after("import belljump.ensemble")
    assert "belljump.ensemble" in seen["modules"]
    for name in ("belljump.config", "belljump.cli", "belljump.acceptance"):
        assert name not in seen["modules"]


def test_cli_import_loads_the_ensemble_module():
    seen = _loaded_after("import belljump.cli")
    assert "belljump.ensemble" in seen["modules"]
    assert "belljump.acceptance" not in seen["modules"]
