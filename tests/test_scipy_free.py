"""The scenarios that need no scipy never load it: importing the CLI leaves
scipy out of sys.modules, and power-sweep, sparse-scaling and
commutator-bound print the same verdict lines with scipy blocked.  Each run
is a fresh interpreter, since this one has scipy loaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import besselweights

SRC = Path(besselweights.__file__).resolve().parent.parent
BLOCK = "import sys; sys.modules['scipy'] = None; "  # any scipy import then raises ImportError
CLI = "from besselweights.cli import main; main()"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )


def test_cli_import_loads_no_scipy():
    run = _python("import sys, besselweights.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("scenario", ["power-sweep", "sparse-scaling", "commutator-bound"])
def test_scenario_runs_with_scipy_blocked(scenario, tmp_path):
    args = (scenario, "--seed", "1", "--out", str(tmp_path))  # one directory: same artifact lines
    blocked, plain = _python(BLOCK + CLI, *args), _python(CLI, *args)
    assert blocked.returncode == plain.returncode == 0, blocked.stderr
    assert "[PASS]" in plain.stdout and blocked.stdout == plain.stdout
