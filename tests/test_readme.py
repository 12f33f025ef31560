"""README tables that restate the code must match it: the cap table is
`limits.CAPS` and the harness-check table is `harness.CHECK_ORDER`."""

import pathlib

import pytest

from edgeideals.harness import CHECK_ORDER
from edgeideals.limits import CAPS

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
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
