"""The first two demos run end to end against the current API."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_skeleton_and_deltas.py",
                                  "02_intention_features.py"])
def test_demo_runs(name):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    r = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
