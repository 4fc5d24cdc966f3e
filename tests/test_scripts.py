import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["ablation_sweep.py", "run_experiment.py"])
def test_script_imports_and_prints_help(script):
    """Each script imports the package's config and pipeline; --help runs the imports."""
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "--workdir" in done.stdout
