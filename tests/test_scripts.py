"""Import smoke test for the scripts under scripts/.

runpy with a run_name other than "__main__" executes each script's imports
and definitions but not its main block, so a public name that a script
imports and the package no longer provides fails here.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["run_examples.py", "rwa_sweep.py"])
def test_script_imports(name):
    namespace = runpy.run_path(str(SCRIPTS / name), run_name="smoke")
    assert callable(namespace["run"])
