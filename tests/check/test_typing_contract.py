"""The pyproject mypy override promises `disallow_untyped_defs` for
`repro.check.*`, `repro.sim.*`, `repro.dstm.*`, `repro.scheduler.*`,
`repro.faults.*`, `repro.net.*`, `repro.rpc.*`, `repro.core.*`,
`repro.traffic.*`, `repro.prof.*`, `repro.util.*`, `repro.par.*`,
`repro.obs.*`, `repro.workloads.*` and `repro.analysis.*` — every
package.  The
container this repo tests in does not ship mypy, so this test enforces
the same contract with a small AST walk: every def in those packages
annotates every parameter and its return type.  (When mypy IS available the `[[tool.mypy.overrides]]`
block makes it the stricter referee; this test keeps the floor.)"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
#: packages held to it (every module under them)
STRICT_PACKAGES = (
    "check", "sim", "dstm", "scheduler", "faults", "net", "rpc", "core",
    "traffic", "prof", "util", "par", "obs", "workloads", "analysis",
)


def _untyped_defs(path: Path) -> list:
    """All (lineno, name, what-is-missing) triples for defs in ``path``
    that violate the disallow_untyped_defs / disallow_incomplete_defs
    contract."""
    bad = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        missing = [
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            bad.append((node.lineno, node.name, missing))
    return bad


def test_pyproject_declares_the_strict_override():
    text = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert "[[tool.mypy.overrides]]" in text
    assert '"repro.check.*"' in text and '"repro.sim.*"' in text
    assert '"repro.dstm.*"' in text
    assert '"repro.scheduler.*"' in text
    assert '"repro.faults.*"' in text
    assert '"repro.net.*"' in text and '"repro.rpc.*"' in text
    assert '"repro.core.*"' in text
    assert '"repro.traffic.*"' in text and '"repro.prof.*"' in text
    assert '"repro.util.*"' in text and '"repro.par.*"' in text
    assert '"repro.obs.*"' in text and '"repro.workloads.*"' in text
    assert "disallow_untyped_defs = true" in text
    assert "disallow_incomplete_defs = true" in text


@pytest.mark.parametrize("package", STRICT_PACKAGES)
def test_every_def_is_fully_annotated(package):
    offenders = {}
    for path in sorted((SRC / package).rglob("*.py")):
        bad = _untyped_defs(path)
        if bad:
            offenders[str(path.relative_to(SRC.parents[1]))] = bad
    assert not offenders, (
        f"unannotated defs in strict package repro.{package}: {offenders}"
    )
