"""The configuration surface, as a structure gate.

Every ``ClusterConfig`` field is (i) set by an ablation, benchmark,
example or ledger cell, or (ii) a parameter the paper names; a value
nobody turns is a module constant next to its one reader.  DESIGN.md §2
keeps the survivors table ("`ClusterConfig` survivors"); this file holds
the code to it, so a new knob is a deliberate, documented edit — and so
is dropping one.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.config import ClusterConfig

ROOT = Path(__file__).resolve().parents[2]
#: where the file a kind-(i) row names may live
SWEEPER_DIRS = ("src/repro/analysis/", "benchmarks/", "examples/")
HEADING = "### `ClusterConfig` survivors"
ROW = re.compile(r"^\| `(\w+)` \| (i|ii) \| (.+) \|$")


def survivors():
    """``(field, kind, where)`` per row of DESIGN.md's survivors table."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split(HEADING, 1)[1].split("\n#", 1)[0]
    return [m.groups() for m in map(ROW.match, section.splitlines()) if m]


ROWS = survivors()


def sets_field(text, field):
    """``field=`` as a keyword, or ``["field"]`` as a config-dict key."""
    return re.search(rf"\b{field}=|\[[\"']{field}[\"']\]", text) is not None


def test_table_names_exactly_the_fields():
    names = [field for field, _, _ in ROWS]
    assert len(names) == len(set(names)), names
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(ClusterConfig))


@pytest.mark.parametrize(
    "field,where",
    [pytest.param(f, w, id=f) for f, kind, w in ROWS if kind == "i"],
)
def test_swept_field_is_set_where_the_table_says(field, where):
    path = re.search(r"`([\w/.]+\.py)`", where).group(1)
    assert path.startswith(SWEEPER_DIRS), path
    assert sets_field((ROOT / path).read_text(encoding="utf-8"), field), (
        f"{path} does not set {field}"
    )


@pytest.mark.parametrize(
    "field,where",
    [pytest.param(f, w, id=f) for f, kind, w in ROWS if kind == "ii"],
)
def test_paper_parameter_cites_its_passage(field, where):
    assert "§" in where, f"{field}: no paper passage named"
