import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hmic.datagen import generate

from conftest import make_tiny_config, make_tiny_spec

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["ablation_sweep.py", "run_experiment.py"])
def test_script_imports_and_prints_help(script):
    """Each script imports the package's config and pipeline; --help runs the imports."""
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "--workdir" in done.stdout


def _script(name):
    """The script at scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiment_reports_carry_the_config_digest(tmp_path):
    config = make_tiny_config()
    _script("run_experiment").run_corpus("tiny", make_tiny_spec(), config, tmp_path)
    for report in ("report_agc.json", "report_dc.json"):
        data = json.loads((tmp_path / "tiny" / report).read_text())
        assert data["config_digest"] == config.semantic_digest(), report


def test_sweep_reports_carry_each_setting_digest(tmp_path):
    corpus = tmp_path / "corpus"
    generate(make_tiny_spec(), corpus)
    base = make_tiny_config()
    digests = []
    for weight in (0.0, 1.0):
        config = replace(base, model=replace(base.model, id_loss_weight=weight))
        rundir = tmp_path / f"weight_{weight:g}"
        _script("ablation_sweep").run_setting(config, corpus, rundir)
        digests.append(json.loads((rundir / "report.json").read_text())["config_digest"])
        assert digests[-1] == config.semantic_digest()
    assert digests[0] != digests[1]
