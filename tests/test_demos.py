"""Demos 01 to 03 run end to end against the current API; 04 and 05 take
longer and are run by hand."""
import os
import pathlib
import subprocess
import sys

import pytest

from reachgen.model import load_checkpoint

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_demo(name, cwd=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


@pytest.mark.parametrize("name", ["01_skeleton_and_deltas.py",
                                  "02_intention_features.py"])
def test_demo_runs(name):
    r = run_demo(name)
    assert r.returncode == 0, r.stderr


def test_train_demo_writes_a_loadable_checkpoint(tmp_path):
    # demo 03 trains through training.train and writes demo_model.ckpt
    # into its working directory
    r = run_demo("03_train_desk_model.py", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    model, adam = load_checkpoint(tmp_path / "demo_model.ckpt")
    assert adam.step > 0
    assert model.meta["train"]["epochs"] == 15
