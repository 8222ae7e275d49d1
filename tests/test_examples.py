"""Smoke test: the scripts under ``examples/`` run end to end.

Each example runs in a fresh interpreter against the in-tree package, on a
small field so the whole module stays within a few seconds, and must exit 0
and print its SPMS-vs-SPIN energy line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: (script, small arguments, text of the energy-saving line it prints).
EXAMPLES = [
    ("quickstart.py", ["16", "15"], "SPMS energy saving over SPIN"),
    ("cluster_monitoring.py", ["16", "15"], "SPMS saves"),
    ("mobile_network.py", ["16", "1"], "SPMS energy saving, mobility"),
]


@pytest.mark.parametrize(
    "script, args, marker", EXAMPLES, ids=[script for script, _, _ in EXAMPLES]
)
def test_example_runs(script, args, marker):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert marker in completed.stdout, completed.stdout
