import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from reachgen import cli
from reachgen.dataset import load_motion, standing_pose
from reachgen.intention import GoalSpec
from reachgen.latent_opt import OptObjective, optimize_latents
from reachgen.model import load_checkpoint
from reachgen.rollout import GoalSchedule, generate

CLI = [sys.executable, "-m", "reachgen.cli"]
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def cli_env(env_extra=None):
    env = os.environ.copy()
    # the checkout's package, also when it is not installed
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(env_extra or {})
    return env


def run_cli(*args, env_extra=None, cwd=None, preexec_fn=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=cli_env(env_extra), cwd=cwd, preexec_fn=preexec_fn)


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps({
        "data": {"n_locomotion": 8, "n_reaching": 5, "n_walk_reach": 2},
        "train": {"epochs": 2, "batch_size": 8, "windows_per_sequence": 1},
        "eval": {"n_angles": 2, "n_heights": 1, "n_distances": 1,
                 "height_range": [1.0, 1.0], "distance_range": [0.8, 0.8],
                 "n_initial_poses": 1, "samples_per_pair": 2, "duration": 20},
    }))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, tiny_config):
    out = str(tmp_path_factory.mktemp("runs") / "data")
    r = run_cli("gen-data", "--config", tiny_config, "--seed", "3", "--out", out)
    assert r.returncode == 0, r.stderr
    return out


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, tiny_config, data_dir):
    out = str(tmp_path_factory.mktemp("runs") / "train")
    r = run_cli("train", "--config", tiny_config, "--seed", "3",
                "--data", data_dir, "--out", out)
    assert r.returncode == 0, r.stderr
    return os.path.join(out, "checkpoint.ckpt")


def test_gen_data_outputs(data_dir):
    manifest = json.loads(open(os.path.join(data_dir, "manifest.json")).read())
    assert len(manifest["sequences"]) >= 10
    assert os.path.exists(os.path.join(data_dir, "resolved_config.json"))
    assert os.path.exists(os.path.join(data_dir, "skeleton.json"))


def test_gen_data_reports_planned_and_dropped(tmp_path, tiny_config, capsys):
    out = tmp_path / "data"
    assert cli.dispatch(["gen-data", "--config", tiny_config, "--seed", "3",
                         "--out", str(out)]) == 0
    kept = len(json.loads((out / "manifest.json").read_text())["sequences"])
    assert capsys.readouterr().out == (f"wrote {kept} of 15 planned sequences to {out} "
                                       f"({15 - kept} dropped as floating)\n")


def test_train_outputs(checkpoint):
    out = os.path.dirname(checkpoint)
    log = open(os.path.join(out, "train_log.csv")).read()
    assert "epoch,s,rec,kl,joint,total,lr" in log
    resolved = json.loads(open(os.path.join(out, "resolved_config.json")).read())
    assert resolved["resolved"]["seed"] == 3
    assert "manifest" in resolved["input_hashes"]


def test_generate_writes_exactly_its_outputs(tmp_path, checkpoint):
    out = tmp_path / "gen"
    r = run_cli("generate", "--checkpoint", checkpoint, "--goal", "1.0,0.5,1.2",
                "--duration", "15", "--seed", "7", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert sorted(os.listdir(out)) == ["motion.csv", "motion.mot", "resolved_config.json"]


def test_optimize_writes_exactly_its_outputs(tmp_path, checkpoint):
    out = tmp_path / "opt"
    assert cli.dispatch(["optimize", "--checkpoint", checkpoint, "--goal", "0.8,0.5,1.1",
                         "--duration", "12", "--steps", "2", "--seed", "5",
                         "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["initial.mot", "opt_report.csv", "optimized.mot",
                                       "resolved_config.json"]
    flags = json.loads((out / "resolved_config.json").read_text())["flags"]
    assert flags == {"goal": [[0.8, 0.5, 1.1]], "duration": 12, "steps": 2, "lr": 1e-2,
                     "prior_weight": 1e-3}
    # the refined record the command computes, rebuilt through the library
    model = load_checkpoint(checkpoint)
    goal = GoalSpec(np.array([0.8, 0.5, 1.1]), 12)
    record = generate(standing_pose(model.skeleton), GoalSchedule.single(goal), 12,
                      model, np.random.default_rng(5))
    refined, _ = optimize_latents(record, goal, OptObjective(prior_weight=1e-3), model,
                                  steps=2, lr=1e-2)
    for name, rec in (("initial.mot", record), ("optimized.mot", refined)):
        back = load_motion(out / name, model.skeleton)
        np.testing.assert_array_equal(back.poses, rec.sequence.poses)
    assert not np.array_equal(refined.sequence.poses, record.sequence.poses)


def test_generate_repeats_from_its_run_directory(tmp_path, checkpoint):
    first, second = tmp_path / "first", tmp_path / "second"
    r = run_cli("generate", "--checkpoint", checkpoint, "--goal", "1.0,0.5,1.2",
                "--goal", "0.3,0.9,1.0", "--duration", "20", "--switch-policy", "on_reach",
                "--radius", "0.15", "--seed", "4", "--out", str(first))
    assert r.returncode == 0, r.stderr
    recorded = json.loads((first / "resolved_config.json").read_text())
    assert recorded["flags"] == {"goal": [[1.0, 0.5, 1.2], [0.3, 0.9, 1.0]],
                                 "goal_frame": [10, 20], "duration": 20, "mode": "sample",
                                 "switch_policy": "on_reach", "radius": 0.15}
    argv = ["--seed", str(recorded["resolved"]["seed"])]
    for flag, value in recorded["flags"].items():
        for v in value if isinstance(value, list) else [value]:
            argv += [f"--{flag.replace('_', '-')}",
                     ",".join(map(repr, v)) if isinstance(v, list) else str(v)]
    r = run_cli("generate", "--checkpoint", checkpoint, *argv, "--out", str(second))
    assert r.returncode == 0, r.stderr
    assert (first / "motion.mot").read_bytes() == (second / "motion.mot").read_bytes()
    assert json.loads((second / "resolved_config.json").read_text()) == recorded


def test_generate_deterministic(tmp_path, checkpoint):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        r = run_cli("generate", "--checkpoint", checkpoint, "--goal", "1.0,0.5,1.2",
                    "--duration", "12", "--seed", "9", "--out", out)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    a = open(os.path.join(outs[0], "motion.mot"), "rb").read()
    b = open(os.path.join(outs[1], "motion.mot"), "rb").read()
    assert a == b


def test_evaluate_same_bytes_on_one_cpu_and_all(tmp_path, checkpoint):
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("one usable CPU: no run to compare against")
    # 36 rollouts, two chunks: one per process where two CPUs are usable
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"eval": {
        "n_angles": 3, "n_heights": 2, "n_distances": 2, "n_initial_poses": 1,
        "samples_per_pair": 3, "duration": 10}}))
    one_cpu = min(cpus)
    outputs = []
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {one_cpu})), ("all", None)):
        out = tmp_path / name
        r = run_cli("evaluate", "--config", str(config), "--checkpoint", checkpoint,
                    "--seed", "11", "--out", str(out), preexec_fn=pin)
        assert r.returncode == 0, r.stderr
        outputs.append([(out / f).read_bytes() for f in ("report.csv", "aggregates.csv")])
    assert outputs[0] == outputs[1]


def test_inspect_prints_summary(tmp_path, checkpoint, data_dir):
    manifest = json.loads(open(os.path.join(data_dir, "manifest.json")).read())
    labeled = next(e for e in manifest["sequences"] if e["labeled"])
    motion = os.path.join(data_dir, "motions", f"{labeled['ident']}.mot")
    r = run_cli("inspect", motion)
    assert r.returncode == 0
    assert "fps: 30.0" in r.stdout
    assert "label: goal=" in r.stdout
    r2 = run_cli("inspect", motion, "--goal", "0.5,0.5,1.0")
    assert "dtg_m:" in r2.stdout


def test_inspect_corrupt_file_nonzero(tmp_path, data_dir):
    manifest = json.loads(open(os.path.join(data_dir, "manifest.json")).read())
    motion = os.path.join(data_dir, "motions", f"{manifest['sequences'][0]['ident']}.mot")
    raw = open(motion, "rb").read()
    for name, content, code in (("bad.mot", b"not a motion file", "error code="),
                                ("cut.mot", raw[:60], "error code=CorruptFileError")):
        bad = tmp_path / name
        bad.write_bytes(content)
        r = run_cli("inspect", str(bad))
        assert r.returncode != 0
        assert r.stderr.startswith(code)


def test_missing_checkpoint_nonzero(tmp_path):
    r = run_cli("generate", "--checkpoint", str(tmp_path / "nope.ckpt"),
                "--goal", "1,1,1", "--out", str(tmp_path / "o"))
    assert r.returncode != 0
    assert "error code=" in r.stderr


@pytest.mark.parametrize("argv, code", [
    (["generate", "--checkpoint", "{tmp}/nope.ckpt", "--goal", "1,1,1"], "FileNotFound"),
    (["gen-data", "--config", "{tmp}/nope.json"], "FileNotFound"),
    (["gen-data", "--config", "{tmp}/bad.json"], "InvalidInputError"),
    (["gen-data", "--config", "{tmp}"], "InvalidInputError"),
], ids=["missing-checkpoint", "missing-config", "bad-json-config", "directory-config"])
def test_unreadable_input_file_error_codes(tmp_path, capsys, argv, code):
    (tmp_path / "bad.json").write_text("{not json")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "o")]
    assert cli.dispatch(argv) == 1
    assert f"error code={code} " in capsys.readouterr().err


def test_flag_beats_env(tmp_path, tiny_config):
    # settings come from the preset, the config file and the flags alone:
    # variables named like the retired REACHGEN_* layer change nothing
    env = {"REACHGEN_SEED": "77", "REACHGEN_PRESET": "paper",
           "REACHGEN_CONFIG": str(tmp_path / "nope.json")}
    for flags, seed in ((("--seed", "5"), 5), ((), 0)):
        out = str(tmp_path / f"flag{seed}")
        r = run_cli("gen-data", "--config", tiny_config, *flags, "--out", out,
                    env_extra=env)
        assert r.returncode == 0, r.stderr
        with open(os.path.join(out, "resolved_config.json")) as f:
            resolved = json.load(f)["resolved"]
        assert (resolved["seed"], resolved["preset"]) == (seed, "desk")


def test_inspect_into_a_closed_pipe_is_quiet(data_dir):
    # `reachgen inspect x.mot | head -1`: the reader leaves before the output
    # is written, and the command exits 1 without a traceback
    manifest = json.loads(open(os.path.join(data_dir, "manifest.json")).read())
    motion = os.path.join(data_dir, "motions", f"{manifest['sequences'][0]['ident']}.mot")
    proc = subprocess.Popen(CLI + ["inspect", motion], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=cli_env())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_unknown_flag_usage_error():
    for argv in (("train", "--nonsense"), ("gen-data", "--workers", "2")):
        r = run_cli(*argv)
        assert r.returncode != 0


def test_gen_data_too_small_corpus_is_a_clean_error(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(
        {"data": {"n_locomotion": 2, "n_reaching": 1, "n_walk_reach": 1}}))
    out = tmp_path / "small"
    r = run_cli("gen-data", "--config", str(config), "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("error code=CorpusTooSmallError")
    assert not out.exists()


def test_config_file_preset_selects_its_values(tmp_path):
    config = tmp_path / "paper.json"
    config.write_text(json.dumps(
        {"preset": "paper",
         "data": {"n_locomotion": 8, "n_reaching": 5, "n_walk_reach": 2}}))
    out = tmp_path / "paper"
    r = run_cli("gen-data", "--config", str(config), "--out", str(out))
    assert r.returncode == 0, r.stderr
    resolved = json.loads((out / "resolved_config.json").read_text())["resolved"]
    assert resolved["preset"] == "paper"
    assert resolved["model"] == {"latent_dim": 64, "hidden_dim": 512,
                                 "n_layers": 15, "dropout": 0.1}
    assert resolved["train"]["batch_size"] == 512
    # the flag beats the file
    out = tmp_path / "desk"
    r = run_cli("gen-data", "--config", str(config), "--preset", "desk",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    resolved = json.loads((out / "resolved_config.json").read_text())["resolved"]
    assert resolved["preset"] == "desk"
    assert resolved["model"]["latent_dim"] == 16


def test_no_command_resolves_workers(tmp_path, tiny_config, data_dir, checkpoint):
    out = str(tmp_path / "eval")
    r = run_cli("evaluate", "--config", tiny_config, "--checkpoint", checkpoint,
                "--seed", "11", "--out", out)
    assert r.returncode == 0, r.stderr
    for run in (data_dir, os.path.dirname(checkpoint), out):
        resolved = json.loads(open(os.path.join(run, "resolved_config.json")).read())
        assert "workers" not in resolved["resolved"], run
    assert "--workers" not in run_cli("evaluate", "--help").stdout
    config = tmp_path / "workers.json"
    config.write_text(json.dumps({"workers": 2}))
    out = tmp_path / "bad"
    r = run_cli("evaluate", "--config", str(config), "--checkpoint", checkpoint,
                "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("error code=InvalidInputError"), r.stderr
    assert not out.exists()


def test_malformed_operator_input_is_a_clean_error(tmp_path, checkpoint):
    gen = ("generate", "--checkpoint", checkpoint)
    opt = ("optimize", "--checkpoint", checkpoint, "--goal", "1,1,1", "--steps", "1")
    for k, argv in enumerate((
            gen + ("--goal", "1,x,1"),
            gen + ("--goal", "1,1,1", "--goal", "1,2,1", "--duration", "1"),
            gen + ("--goal", "1,1,1", "--radius", "-1"),
            gen + ("--goal", "1,1,1", "--radius", "nan", "--switch-policy", "on_reach"),
            gen + ("--goal", "1,1,1", "--radius", "inf"),
            gen + ("--goal", "1,1,1", "--duration", "0"),
            gen,
            gen + ("--goal", "1,1,1", "--goal-frame", "10", "--goal-frame", "20"),
            gen + ("--goal", "1,1,1", "--goal-frame", "-5"),
            opt + ("--goal", "1,2,1"),
            opt + ("--prior-weight", "-1"),
            opt + ("--prior-weight", "nan"),
            opt + ("--prior-weight", "inf"),
            opt + ("--steps", "-2"),
            opt + ("--lr", "0"),
            opt + ("--lr", "nan"))):
        out = tmp_path / f"bad{k}"
        r = run_cli(*argv, "--out", str(out))
        assert r.returncode == 1, (argv, r.stderr)
        assert r.stderr.startswith("error code=InvalidInputError"), (argv, r.stderr)
        assert not out.exists()


def test_inspect_takes_one_goal(data_dir):
    manifest = json.loads(open(os.path.join(data_dir, "manifest.json")).read())
    motion = os.path.join(data_dir, "motions", f"{manifest['sequences'][0]['ident']}.mot")
    r = run_cli("inspect", motion, "--goal", "0.5,0.5,1.0", "--goal", "1,1,1")
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error code=InvalidInputError"), r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("command,settings,manifest,code", [
    ("gen-data", {"data": {"n_reaching": -1}}, None, "InvalidInputError"),
    ("gen-data", {"data": {"bogus": 1}}, None, "InvalidInputError"),
    ("train", {"train": {"bogus": 1}}, None, "InvalidInputError"),
    ("train", {"model": {"bogus": 1}}, None, "InvalidInputError"),
    ("evaluate", {"eval": {"bogus": 1}}, None, "InvalidInputError"),
    ("train", {}, "not json", "CorruptFileError"),
    ("train", {}, "{}", "CorruptFileError"),
    ("gen-data", {"seed": "x"}, None, "InvalidInputError"),
    ("gen-data", {"seed": True}, None, "InvalidInputError"),
    ("generate", {"seed": "x"}, None, "InvalidInputError"),
    ("evaluate", {"seed": "x"}, None, "InvalidInputError"),
    ("train", {"seed": "x"}, None, "InvalidInputError"),
    ("evaluate", {"workers": "x"}, None, "InvalidInputError"),
    ("evaluate", {"workers": False}, None, "InvalidInputError"),
    ("evaluate", {"eval": 5}, None, "InvalidInputError"),
    ("train", {"train": 5}, None, "InvalidInputError"),
    ("gen-data", {"data": [1]}, None, "InvalidInputError"),
    ("gen-data", [1], None, "InvalidInputError"),
    ("train --epochs 0", {}, None, "InvalidInputError"),
    ("train", {"train": {"batch_size": 0}}, None, "InvalidInputError"),
    ("train", {"train": {"window_len": 0}}, None, "InvalidInputError"),
    ("train", {"train": {"window_len": 5000}}, None, "CorpusTooSmallError"),
    ("train", {"train": {"windows_per_sequence": 0}}, None, "InvalidInputError"),
    ("train", {"train": {"hindsight_horizon": [150, 15]}}, None, "InvalidInputError"),
    ("gen-data", {"sed": 3}, None, "InvalidInputError"),
    ("gen-data", {"workers": 2}, None, "InvalidInputError"),
    ("gen-data", {"data": {"turn_rate_range": [-0.5, 0.5]}}, None, "InvalidInputError"),
    ("gen-data", {"data": {"fps": 0}}, None, "InvalidInputError"),
    ("gen-data", {"data": {"fps": -30}}, None, "InvalidInputError"),
    ("gen-data", {"data": {"reach_radius_range": [0.15, 0.46]}}, None,
     "InvalidInputError"),
    ("evaluate", {"eval": {"temperature": "x"}}, None, "InvalidInputError"),
    ("evaluate", {"eval": {"height_range": [1.0]}}, None, "InvalidInputError"),
    ("train", {"train": {"batch_size": 32.5}}, None, "InvalidInputError"),
    ("train", {"train": {"s_max": 2.5}}, None, "InvalidInputError"),
    ("train", {"train": {"lr_base": "abc"}}, None, "InvalidInputError"),
    ("train", {"train": {"lr_final": -1}}, None, "InvalidInputError"),
    ("train", {"train": {"alpha": float("nan")}}, None, "InvalidInputError"),
    ("train", {"train": {"kl_direction": "as_written"}}, None, "InvalidInputError"),
    ("gen-data", {"data": {"n_locomotion": 8.5}}, None, "InvalidInputError"),
    ("train", {"model": {"latent_dim": 0}}, None, "InvalidInputError"),
    ("train", {"model": {"hidden_dim": 0}}, None, "InvalidInputError"),
    ("gen-data --seed -1", {}, None, "InvalidInputError"),
    ("generate --seed -1", {}, None, "InvalidInputError"),
    ("train", {"seed": -1}, None, "InvalidInputError"),
    ("gen-data", {"data": {"speed_range": [0.45, 0.75]}}, None, "InvalidInputError"),
    ("train", {"train": {"hindsight_horizon": [15.5, 150]}}, None, "InvalidInputError"),
    ("gen-data", {"data": {"fps": 30.0}}, None, "InvalidInputError"),
    ("evaluate", {"eval": {"temperature": 1.0}}, None, "InvalidInputError"),
    ("evaluate", {"eval": {"success_radius": 0.1}}, None, "InvalidInputError"),
    ("evaluate", {"eval": {"skate_threshold": 0.0066}}, None, "InvalidInputError"),
    ("train", {"train": {"hindsight_horizon": [15, 150]}}, None, "InvalidInputError"),
    ("train", {"train": {"lr_base": True}}, None, "InvalidInputError"),
    ("train", {"train": {"alpha": True}}, None, "InvalidInputError"),
    ("evaluate", {"eval": {"height_range": [False, True]}}, None, "InvalidInputError"),
], ids=["negative-count", "data-key", "train-key", "model-key", "eval-key",
        "manifest-not-json", "manifest-no-sequences",
        "gen-data-seed", "seed-bool", "generate-seed", "evaluate-seed", "train-seed",
        "workers-str", "workers-bool", "eval-not-object", "train-not-object",
        "data-not-object", "config-not-object", "epochs-zero", "batch-size-zero",
        "window-len-zero", "window-len-too-long", "windows-per-sequence-zero",
        "horizon-reversed", "unknown-key", "workers-not-evaluate",
        "turn-rate-range-retired", "fps-zero", "fps-negative", "reach-radius-retired",
        "eval-temperature-str", "eval-height-range-one", "batch-size-float",
        "s-max-float", "lr-base-str", "lr-final-negative", "alpha-nan",
        "kl-direction-retired", "count-float", "latent-dim-zero", "hidden-dim-zero",
        "gen-data-seed-negative", "generate-seed-negative", "train-seed-negative",
        "speed-range-retired", "horizon-float", "fps-retired", "eval-temperature-retired",
        "success-radius-retired", "skate-threshold-retired", "horizon-retired",
        "lr-base-bool", "alpha-bool", "eval-range-bool"])
def test_malformed_settings_are_a_clean_error(tmp_path, data_dir, checkpoint, command,
                                              settings, manifest, code):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps(settings))
    command, *flags = command.split()
    # --epochs writes into the 'train' section, so it must see a checked one
    inputs = {"gen-data": (), "train": ("--data", data_dir, "--epochs", "1"),
              "generate": ("--checkpoint", checkpoint, "--goal", "1,1,1"),
              "evaluate": ("--checkpoint", checkpoint)}[command]
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(manifest)
        inputs = ("--data", str(tmp_path))
    out = tmp_path / "out"
    # a repeated flag's last value wins
    r = run_cli(command, *inputs, *flags, "--config", str(config), "--out", str(out))
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith(f"error code={code}"), r.stderr
    if isinstance(settings, dict):
        # the message names the setting at fault
        assert all(repr(key) in r.stderr for key in settings), r.stderr
    assert not out.exists()
