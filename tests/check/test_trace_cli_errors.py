"""The three trace-reading CLIs refuse bad input with one line, no traceback.

``repro.obs.report`` exits 1; ``repro.check.races`` and
``repro.check.explore --replay`` exit 2, so bad input is not confused
with their 1 ("races found" / "did not reproduce").
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

CLIS = {
    "report": (["-m", "repro.obs.report"], 1),
    "races": (["-m", "repro.check.races"], 2),
    "replay": (["-m", "repro.check.explore", "--replay"], 2),
}

EVENT = '{"t":0.1,"cat":"obs.queue","sub":"o1","node":"n0","len":1}\n'
BAD_INPUTS = {
    "missing": None,
    # a log cut mid-line, as a killed run leaves it
    "truncated": EVENT + '{"t":0.2,"cat":"obs.queue","sub":"o1","no',
    # schema-invalid for the readers; not a counterexample for --replay
    "invalid": '{"t":1,"cat":"span.begin","sub":"x"}\n',
}


@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_bad_input_is_one_line_without_traceback(tmp_path, cli, kind):
    path = tmp_path / f"{kind}.jsonl"
    if BAD_INPUTS[kind] is not None:
        path.write_text(BAD_INPUTS[kind])
    args, code = CLIS[cli]
    proc = subprocess.run(
        [sys.executable, *args, str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == code, output
    assert "Traceback" not in output
    assert output.count("\n") == 1 and str(path) in output, output
