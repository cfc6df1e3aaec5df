"""The runnable examples work on the current public API without deprecations.

Each example runs in a fresh interpreter with ``DeprecationWarning`` turned
into an error, so an example that still calls a deprecated or removed entry
point fails here instead of in a reader's terminal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The examples fast enough for the unit-test budget (paper_experiments.py
#: drives the full experiment harness and is left to the benchmarks).
EXAMPLES = ("quickstart", "community_search", "protein_complexes",
            "community_detection")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_without_deprecation_warnings(name):
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(REPO_ROOT / "examples" / f"{name}.py")],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout
