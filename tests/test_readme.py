"""README.md's library examples run against the current API, and its
config tables list the keys the parser accepts."""

import re
from pathlib import Path

import pytest

from belljump import config

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("section", ["params", "model", "track", "run"])
def test_readme_config_table_lists_the_schema(section):
    # the backticked names in the first column of the `[section]` table
    after = README.read_text().split(f"### `[{section}]`", 1)[1]
    body = re.split(r"\n##+ ", after)[0]
    cells = [row.split("|")[1] for row in body.splitlines() if row.startswith("| `")]
    listed = {key for cell in cells for key in re.findall(r"`(\w+)`", cell)}
    if section == "params":
        schema = set(config._PARAMS_KEYS)
    else:
        schema = {key for block, key in config._KEYS if block == section}
    assert listed == schema
