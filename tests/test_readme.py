"""README tables that restate the code must match it: the cap table is
`limits.CAPS` and the harness-check table is `harness.CHECK_ORDER`. Every
name the package exports is loaded by one of its modules or named in the
README."""

import ast
import pathlib
import re

import pytest

from edgeideals.harness import CHECK_ORDER
from edgeideals.limits import CAPS

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "edgeideals"
CAP_HEADER = "| cap | limit | what it bounds |"
CHECK_HEADER = "| check id | claim checked |"


def _first_cells(text, header):
    """The first two cells of each body row of the table under header."""
    lines = text.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows.append((cells[0].strip("`"), cells[1]))
    return rows


def readme_drift(text):
    """Each way the README's cap and check tables disagree with the code."""
    out = []
    caps = [(name, f"{cap} {counts}") for name, (cap, counts, _) in CAPS.items()]
    if _first_cells(text, CAP_HEADER) != caps:
        out.append(f"cap table is not {caps}")
    checks = [name for name, _ in _first_cells(text, CHECK_HEADER)]
    if checks != list(CHECK_ORDER):
        out.append(f"check table is not {list(CHECK_ORDER)}")
    return out


def test_readme_tables_match_the_code():
    assert readme_drift(README) == []


@pytest.mark.parametrize("header", [CAP_HEADER, CHECK_HEADER])
def test_readme_drift_sees_a_removed_row(header):
    lines = README.splitlines()
    first = lines.index(header) + 2
    rows = len(_first_cells(README, header))
    assert rows >= 9
    for i in range(first, first + rows):
        assert readme_drift("\n".join(lines[:i] + lines[i + 1:]))


# exports no module of the package loads, each kept for the reason the
# README gives
UNCALLED = ["GF3", "alexander_dual", "minimal_nonfaces",
            "reduced_homology_ranks", "reducing_vertex",
            "validate_linear_quotients", "verify_dual_decomposition", "whisker"]


def export_drift(text):
    """The names edgeideals/__init__.py imports that no other module of the
    package loads and that text does not name in backticks (a backtick
    span that starts with the name, perhaps module-qualified)."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [a.asname or a.name for node in init.body
               if isinstance(node, ast.ImportFrom) for a in node.names]
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    named = set(re.findall(r"`(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)", text))
    return sorted(set(exports) - loaded - named)


def test_every_export_is_loaded_or_named_in_the_readme():
    assert export_drift(README) == []


def test_only_the_kept_exports_lack_a_caller():
    assert export_drift("") == UNCALLED
