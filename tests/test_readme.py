"""README.md describes each public module by what it offers and the
contracts callers rely on, not by the private helpers that carry them,
and each CLI command by the flags its parser takes."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PUBLIC_MODULES = ["funcspace", "chebsys", "annihilator", "orthosynth", "curves",
                  "discrete", "fourvertex", "cli"]
ROW_WORDS = 120


def _module_rows():
    section = README.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    return {m[1]: m[0] for m in re.finditer(r"^\| `(\w+)` \|.*$", section, re.M)}


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_modules_table_row_is_short(module):
    row = _module_rows().get(module)
    assert row is not None, f"the Modules table has no row for {module}"
    assert len(row.split()) <= ROW_WORDS


def test_readme_names_no_private_function_or_constant():
    assert re.findall(r"`_\w+", README) == []


def test_cli_table_rows_are_the_parsers_flags(command_flags):
    # one row per command; a bold flag is one the parser requires
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = {m[1]: {flag: bool(bold) for bold, flag in
                   re.findall(r"(\*\*)?`(--[\w-]+)`", m[2])}
            for m in re.finditer(r"^\| `(verify|synth \w+|curve \w+)` \| ([^|]*) \|",
                                 section, re.M)}
    assert rows == command_flags
