"""Every name a package module imports or binds privately is used there.

No linter is a dependency of the project, so this parses each module of
src/belljump and lists the imported names that no expression references
(except in __init__.py, whose imports are its public surface) and the
module-level `_name` bindings that the module never reads.  It also lists
the parameter fields that only the config parser reads, and the fields of
the flight and report records that nothing in the package reads.
"""

import ast
from dataclasses import dataclass, fields
from pathlib import Path

from belljump import config
from belljump.ensemble import (
    AngleUniformityReport,
    EnsembleStats,
    FluxReport,
    SectorComparison,
)
from belljump.params import PhysParams
from belljump.trajectory import TrajectorySegment

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "belljump"


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [
                (node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def unread_private_names(source: str) -> list[tuple[int, str]]:
    """Module-level `_name` functions, classes and assignments (dunders
    aside) that no expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [
                (name.lineno, name.id)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        (line, name)
        for line, name in bound
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import pi, tau as TAU, e\n"
        "def f(x: e) -> osp:\n"
        "    from fractions import Fraction\n"
        "    return Fraction(TAU)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


def test_detector_flags_only_unread_private_names():
    source = (
        "__version__ = '1'\n"
        "_READ = 1\n"
        "_UNREAD = 2\n"
        "_pair, _spare = 3, 4\n"
        "_typed: int = 5\n"
        "def _helper() -> _Kind:\n"
        "    _local = _READ + _pair\n"
        "    return _local\n"
        "class _Kind: pass\n"
        "class _Dead: pass\n"
        "def public(): return _helper()\n"
    )
    assert unread_private_names(source) == [
        (3, "_UNREAD"), (4, "_spare"), (5, "_typed"), (10, "_Dead")
    ]


def test_package_modules_use_every_import():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_package_modules_read_every_private_name():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in unread_private_names(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def unread_fields(classes, sources) -> list[str]:
    """The fields of `classes` that no `obj.field` attribute in `sources`
    mentions."""
    read = {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
    }
    return [
        f"{cls.__name__}.{f.name}"
        for cls in classes
        for f in fields(cls)
        if f.name not in read
    ]


def test_detector_flags_only_unread_fields():
    @dataclass
    class Pair:
        kept: int
        dropped: int

    source = "def f(p):\n    dropped = 1\n    return p.kept + dropped\n"
    assert unread_fields([Pair], [source]) == ["Pair.dropped"]


def test_every_parameter_field_is_read_outside_the_parser():
    # config.py parses and echoes every field, so a field that only it
    # reads is a key that changes nothing
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py"
    ]
    classes = [PhysParams, config.ModelConfig, config.TrackConfig, config.RunBlock]
    assert unread_fields(classes, sources) == []


def test_every_record_field_is_read_in_the_package():
    # the match is by attribute name, on any object: `track.times` once
    # hid an unread SectorComparison.times, and `stats.p0_hat` an unread
    # SectorComparison.p0_hat
    sources = [
        path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    ]
    classes = [
        TrajectorySegment,
        EnsembleStats,
        SectorComparison,
        FluxReport,
        AngleUniformityReport,
    ]
    assert unread_fields(classes, sources) == []
