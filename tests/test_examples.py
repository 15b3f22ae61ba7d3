"""Every script under ``examples/`` runs to completion.

The examples drive the public API end to end; a change that removes or
renames something they use must fail here, not in a reader's terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES, "no examples/*.py found"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
