"""Smoke tests for the scripts under ``examples/``.

Each example runs as a subprocess at toy scale, the way a reader would run
it (``PYTHONPATH=src python examples/<name>.py``), with the working
directory and the result store redirected into a temporary directory.  The
examples use the public experiment API, so these tests catch a narrowed or
renamed entry point that the unit tests would not.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Arguments small enough for the quick lane (about 15 s for all five).
EXAMPLE_ARGS = {
    "quickstart.py": ["--nodes", "80", "--runs", "1", "--seed", "3"],
    "fig3_comparison.py": [
        "--nodes", "80", "--runs", "1", "--seeds", "3", "--measuring-nodes", "1",
        "--no-save",
    ],
    "threshold_tuning.py": [
        "--nodes", "80", "--runs", "1", "--seeds", "3", "--thresholds-ms", "25", "50",
    ],
    "attack_analysis.py": ["--nodes", "80", "--seeds", "3", "--races", "1"],
    "report_generation.py": ["--nodes", "20", "--runs", "1", "--seeds", "3"],
}


def _run_example(name: str, tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_RESULTS_DIR=str(tmp_path / "results"),
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / name), *EXAMPLE_ARGS[name]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_example_is_covered():
    assert sorted(EXAMPLE_ARGS) == sorted(p.name for p in (ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("name", sorted(set(EXAMPLE_ARGS) - {"fig3_comparison.py"}))
def test_example_runs_cleanly(name, tmp_path):
    completed = _run_example(name, tmp_path)
    output = completed.stdout + completed.stderr
    assert completed.returncode == 0, output
    assert "Traceback" not in output


def test_fig3_comparison_prints_its_verdict(tmp_path):
    # The exit code is the paper_ordering verdict, which this toy scale
    # does not reproduce: 0 or 1 are both a clean run.
    completed = _run_example("fig3_comparison.py", tmp_path)
    output = completed.stdout + completed.stderr
    assert completed.returncode in (0, 1), output
    assert "Traceback" not in output
    assert "Paper ordering (BCBPT < LBC < Bitcoin in mean and variance):" in completed.stdout
