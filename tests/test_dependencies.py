"""The package's runtime dependencies are numpy and nothing else.

Importing every ``repro.*`` module must not load ``networkx``: it left
``pyproject.toml``'s ``dependencies`` when its last importer went.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CODE = """
import importlib, pkgutil, sys
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names), "networkx" in sys.modules)
"""


def test_no_module_imports_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", CODE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    count, loaded = proc.stdout.split()
    assert int(count) > 50  # the walk really reached the subpackages
    assert loaded == "False"
