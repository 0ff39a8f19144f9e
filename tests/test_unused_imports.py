"""Every name a package module imports is used in that module.

No linter is a dependency of the project, so this parses each module of
src/belljump (except __init__.py, whose imports are its public surface)
and lists the imported names that no expression references.
"""

import ast
from pathlib import Path

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


def test_package_modules_use_every_import():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
