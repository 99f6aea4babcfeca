"""Tests of the scripts under scripts/.

runpy with a run_name other than "__main__" executes each script's imports
and definitions but not its main block, so a public name that a script
imports and the package no longer provides fails here.
"""

import csv
import runpy
import warnings
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["import_cost.py", "run_examples.py", "rwa_sweep.py"])
def test_script_imports(name):
    namespace = runpy.run_path(str(SCRIPTS / name), run_name="smoke")
    assert callable(namespace["run"])


def test_rwa_sweep_gaps(tmp_path):
    # the lab-frame vs RWA gap falls as the carrier grows, and the RWA
    # Hamiltonian reproduces the engineered one to rounding
    run = runpy.run_path(str(SCRIPTS / "rwa_sweep.py"), run_name="smoke")["run"]
    out = tmp_path / "rwa.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # detuning spread at scale 1e2
        assert run(["--scales", "1e2", "3e2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [float(r["scale"]) for r in rows] == [1e2, 3e2]
    gaps = [float(r["lab_vs_rwa_gap"]) for r in rows]
    assert 0.0 < gaps[1] < gaps[0]
    assert all(float(r["rwa_vs_engineered_gap"]) <= 1e-12 for r in rows)


def test_import_cost_times_the_import_from_source_and_from_bytecode():
    # one fresh interpreter each: a copy with no __pycache__, and a copy
    # whose bytecode compileall writes first
    import_self_seconds = runpy.run_path(str(SCRIPTS / "import_cost.py"), run_name="smoke")["import_self_seconds"]
    for cached in (False, True):
        assert import_self_seconds(SCRIPTS.parent / "src", cached) > 0.0
