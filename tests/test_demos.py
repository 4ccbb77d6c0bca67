"""Every demo runs end to end against the current API. Demos 04 and 05
refine latents on and benchmark the checkpoint demo 03 trains, in the same
temporary directory; 03 takes 2-5 s, 04 3-6 s and 05 1-2 s on 2 cores."""
import os
import pathlib
import re
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


@pytest.fixture(scope="module")
def trained_demo_dir(tmp_path_factory):
    """Demo 03 trains through training.train and writes demo_model.ckpt into
    its working directory; (directory, demo 03's result)."""
    cwd = tmp_path_factory.mktemp("demos")
    return cwd, run_demo("03_train_desk_model.py", cwd=cwd)


def test_train_demo_writes_a_loadable_checkpoint(trained_demo_dir):
    cwd, r = trained_demo_dir
    assert r.returncode == 0, r.stderr
    model = load_checkpoint(cwd / "demo_model.ckpt")
    assert model.meta["train"]["epochs"] == 15


def test_benchmark_demo_runs_on_the_trained_checkpoint(trained_demo_dir):
    cwd, r = trained_demo_dir
    assert r.returncode == 0, r.stderr
    r = run_demo("05_benchmark.py", cwd=cwd)
    assert r.returncode == 0, r.stderr
    assert "-> 162 rollouts" in r.stdout
    assert (cwd / "demo_report" / "report.csv").exists()


def test_optimize_demo_runs_on_the_trained_checkpoint(trained_demo_dir):
    cwd, r = trained_demo_dir
    assert r.returncode == 0, r.stderr
    r = run_demo("04_generate_and_optimize.py", cwd=cwd)
    assert r.returncode == 0, r.stderr
    before = re.search(r"generated 90 frames, final wrist-goal distance ([0-9.]+) cm",
                       r.stdout)
    after = re.search(r"after optimization: ([0-9.]+) cm", r.stdout)
    assert before and after, r.stdout
    # the 80 refinement steps pull the wrist toward the goal
    assert float(after.group(1)) < float(before.group(1))
    assert "time-scaled rollout: 45 frames" in r.stdout
