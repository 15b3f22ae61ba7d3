"""The configuration surface, as a structure gate.

Every ``ClusterConfig`` field, and every field of the sub-configs it
carries, is (i) set by an ablation, benchmark, example or ledger cell,
or (ii) a parameter the paper names; a value nobody turns is a module
constant next to its one reader.  DESIGN.md §2 keeps the two survivors
tables ("`ClusterConfig` survivors", "Sub-config survivors"); this file
holds the code to them, so a new knob is a deliberate, documented edit —
and so is dropping one.  ``FaultConfig`` holds only the fault model
since ROADMAP item 1a's census made the recovery timing constants of
``repro.faults.recovery``; it is left out by name because
``partition_duration`` is turned only by item 17's long-partition sweep.
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
SUB_HEADING = "### Sub-config survivors"
ROW = re.compile(r"^\| `(\w+)` \| (i|ii) \| (.+) \|$")
SUB_ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| (i|ii) \| (.+) \|$")
#: sub-configs left out of the census, and the ROADMAP item they wait on
EXCLUDED = {"FaultConfig": "item 17"}


def section(heading):
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split("\n#", 1)[0]


def survivors():
    """``(field, kind, where)`` per row of DESIGN.md's survivors table."""
    return [m.groups() for m in map(ROW.match, section(HEADING).splitlines()) if m]


def sub_survivors():
    """``(class, field, kind, where)`` per row of the sub-config table."""
    lines = section(SUB_HEADING).splitlines()
    return [m.groups() for m in map(SUB_ROW.match, lines) if m]


ROWS = survivors()
SUB_ROWS = sub_survivors()
#: the sub-config classes ClusterConfig carries, by name
SUB_CONFIGS = {
    type(f.default).__name__: type(f.default)
    for f in dataclasses.fields(ClusterConfig)
    if dataclasses.is_dataclass(f.default)
}


def sets_field(text, field):
    """``field=`` as a keyword, or ``["field"]`` / ``"field":`` as a
    config-dict key."""
    return re.search(
        rf"\b{field}=|\[[\"']{field}[\"']\]|[\"']{field}[\"']\s*:", text
    ) is not None


def sweeper_sets(where, field):
    path = re.search(r"`([\w/.]+\.py)`", where).group(1)
    assert path.startswith(SWEEPER_DIRS), path
    return sets_field((ROOT / path).read_text(encoding="utf-8"), field)


def test_table_names_exactly_the_fields():
    names = [field for field, _, _ in ROWS]
    assert len(names) == len(set(names)), names
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(ClusterConfig))


@pytest.mark.parametrize(
    "field,where",
    [pytest.param(f, w, id=f) for f, kind, w in ROWS if kind == "i"],
)
def test_swept_field_is_set_where_the_table_says(field, where):
    assert sweeper_sets(where, field), f"{where} does not set {field}"


@pytest.mark.parametrize(
    "field,where",
    [pytest.param(f, w, id=f) for f, kind, w in ROWS if kind == "ii"],
)
def test_paper_parameter_cites_its_passage(field, where):
    assert "§" in where, f"{field}: no paper passage named"


def test_sub_table_names_exactly_the_censused_fields():
    names = [f"{cls}.{field}" for cls, field, _, _ in SUB_ROWS]
    assert len(names) == len(set(names)), names
    assert sorted(names) == sorted(
        f"{name}.{f.name}"
        for name, cls in SUB_CONFIGS.items() if name not in EXCLUDED
        for f in dataclasses.fields(cls)
    )


@pytest.mark.parametrize("name,item", EXCLUDED.items())
def test_excluded_sub_config_is_named_with_its_roadmap_item(name, item):
    assert name in SUB_CONFIGS
    text = section(SUB_HEADING)
    assert f"`{name}`" in text and f"ROADMAP {item}" in text


@pytest.mark.parametrize(
    "field,where",
    [pytest.param(f, w, id=f"{c}.{f}") for c, f, kind, w in SUB_ROWS if kind == "i"],
)
def test_swept_sub_field_is_set_where_the_table_says(field, where):
    assert sweeper_sets(where, field), f"{where} does not set {field}"


def test_paper_sub_parameters_cite_their_passage():
    for cls, field, kind, where in SUB_ROWS:
        assert kind != "ii" or "§" in where, f"{cls}.{field}: no paper passage named"

