"""Smoke-run the examples that exercise the sweep executor and the
``repro.api.advanced`` surface, each in a fresh interpreter that turns
any ``DeprecationWarning`` into an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["anatomy_of_a_violation.py",
                                    "design_space_autopilot.py"])
def test_example_runs_clean(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(REPO_ROOT / "examples" / script), str(tmp_path / "ledger.jsonl")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
