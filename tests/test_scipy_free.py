"""The scenarios that need no scipy never load it: importing the CLI leaves
scipy out of sys.modules, a bmo-equivalence run leaves it out too, and
power-sweep, sparse-scaling, commutator-bound and bmo-equivalence print the
same verdict lines with scipy blocked.  The kernel scenarios, endpoint and
counterexample, and the C9 layered mass bound need scipy.special only: they
run the same with scipy.integrate blocked.  Each run is a fresh interpreter,
since this one has scipy loaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import besselweights

SRC = Path(besselweights.__file__).resolve().parent.parent
BLOCK = "import sys; sys.modules['scipy'] = None; "  # any scipy import then raises ImportError
BLOCK_INTEGRATE = "import sys; sys.modules['scipy.integrate'] = None; "
CLI = "from besselweights.cli import main; main()"
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )


def test_cli_import_loads_no_scipy():
    run = _python(f"import sys, besselweights.cli; print({SCIPY_MODULES})")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_bmo_equivalence_run_loads_no_scipy(tmp_path):
    # printed at exit, after the CLI's sys.exit
    run = _python(f"import atexit, sys; atexit.register(lambda: print({SCIPY_MODULES})); " + CLI,
                  "bmo-equivalence", "--seed", "1", "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert "[PASS]" in run.stdout and run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("scenario", ["power-sweep", "sparse-scaling", "commutator-bound", "bmo-equivalence"])
def test_scenario_runs_with_scipy_blocked(scenario, tmp_path):
    args = (scenario, "--seed", "1", "--out", str(tmp_path))  # one directory: same artifact lines
    blocked, plain = _python(BLOCK + CLI, *args), _python(CLI, *args)
    assert blocked.returncode == plain.returncode == 0, blocked.stderr
    assert "[PASS]" in plain.stdout and blocked.stdout == plain.stdout


@pytest.mark.parametrize("scenario", ["endpoint", "counterexample"])
def test_kernel_scenario_runs_with_scipy_integrate_blocked(scenario, tmp_path):
    args = (scenario, "--seed", "1", "--out", str(tmp_path))
    blocked, plain = _python(BLOCK_INTEGRATE + CLI, *args), _python(CLI, *args)
    assert blocked.returncode == plain.returncode, blocked.stderr  # counterexample exits 2
    assert "[PASS]" in plain.stdout and blocked.stdout == plain.stdout


C9_INSTANCE = """
from besselweights.dyadic import canonical_major_subsets, level_sets, zero_chain
from besselweights.measure import BesselMeasure, FuncExpr, Interval
from besselweights.operators import sparse_layer_mass_bound
from besselweights.orlicz import llogl
from besselweights.weights import Weight

m, phi = BesselMeasure(1.0), llogl(1.0)
S = canonical_major_subsets(zero_chain([0, 2, 3, 7, 10]), m)
f = FuncExpr.indicator(Interval(0.0, 1.0), phi.inverse(1.0) / 16.0)
bands, _ = level_sets(S.cubes, f, phi, m)
band, cubes = min(bands.items())
for w in (Weight.power(2.0), Weight.one(), Weight.power(1.0)):  # densities 1, x^-2, x^-1
    lhs, rhs, _ = sparse_layer_mass_bound(
        canonical_major_subsets(cubes, m), f, phi, phi, w, [Interval(0.0, 0.3)], m, band
    )
    print(lhs <= rhs)
"""


def test_c9_layered_mass_bound_with_scipy_integrate_blocked():
    run = _python(BLOCK_INTEGRATE + C9_INSTANCE)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True"] * 3
