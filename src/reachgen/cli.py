"""Operator command line: corpus generation, training, generation,
evaluation, latent optimization, and file inspection.

Each command resolves only the config sections it reads, merged as
defaults (preset) <- config file <- command-line flags; the resolved merge
is written into every run directory next to the outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .body import desk_skeleton
from .dataset import (FPS, MIN_SPLIT_SEQUENCES, SyntheticGenConfig, load_motion,
                      save_motion, save_motion_csv, split_dataset, standing_pose,
                      write_corpus, write_manifest)
from .errors import (CorpusTooSmallError, CorruptFileError, InvalidInputError,
                     ReachGenError, check_count)
from .evaluation import EvalConfig, emit_report, run_benchmark, distance_to_goal
from .intention import GoalSpec
from .latent_opt import OptObjective, optimize_latents, final_wrist_distance
from .model import fresh_model, load_checkpoint, save_checkpoint
from .rollout import GoalSchedule, generate as rollout_generate
from .training import TrainConfig, train, write_training_log

PRESETS = {
    "desk": {
        "data": {"n_locomotion": 150, "n_reaching": 100, "n_walk_reach": 60},
        "model": {"latent_dim": 16, "hidden_dim": 64, "n_layers": 4,
                  "dropout": 0.1},
        "train": {"alpha": 1e-2, "batch_size": 32, "epochs": 60,
                  "lr_base": 1e-3, "lr_final": 1e-4, "s_max": 10,
                  "ramp_epochs": 50, "window_len": 40,
                  "windows_per_sequence": 2},
        "eval": {"n_angles": 3, "n_heights": 3, "n_distances": 3,
                 "height_range": [0.7, 1.3], "distance_range": [0.4, 2.0],
                 "n_initial_poses": 2, "samples_per_pair": 3, "duration": 240},
    },
    "paper": {
        "data": {"n_locomotion": 1500, "n_reaching": 1000, "n_walk_reach": 600},
        "model": {"latent_dim": 64, "hidden_dim": 512, "n_layers": 15,
                  "dropout": 0.1},
        "train": {"alpha": 1e-2, "batch_size": 512, "epochs": 900,
                  "lr_base": 1e-4, "lr_final": 1e-5, "s_max": 10,
                  "ramp_epochs": 50, "window_len": 40,
                  "windows_per_sequence": 4},
        "eval": {"n_angles": 5, "n_heights": 5, "n_distances": 5,
                 "height_range": [0.0, 1.8], "distance_range": [0.5, 5.0],
                 "n_initial_poses": 6, "samples_per_pair": 5, "duration": 240},
    },
}


def _fail(code: str, message: str) -> int:
    print(f'error code={code} msg="{message}"', file=sys.stderr)
    return 1


def _deep_update(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


def resolve_config(args, sections: tuple) -> dict:
    """The seed and, for a command that reads config sections, the preset
    and those sections, merged as defaults(preset) <- config file <- flags.
    The preset comes from the flag, else the file, else desk. A file's
    sections the command does not read are neither checked nor recorded."""
    cfg = {"seed": 0}
    if sections:
        settings = _config_file(args.config) if args.config else {}
        preset = args.preset or settings.get("preset", "desk")
        if not isinstance(preset, str) or preset not in PRESETS:
            raise InvalidInputError(f"'preset' must name one of {sorted(PRESETS)}, "
                                    f"got {preset!r}")
        cfg["preset"] = preset
        cfg.update(json.loads(json.dumps({s: PRESETS[preset][s] for s in sections})))
        _deep_update(cfg, {k: v for k, v in settings.items() if k in ("seed", *sections)})
        for section in sections:
            if not isinstance(cfg[section], dict):
                raise InvalidInputError(f"{section!r} must be a JSON object, "
                                        f"got {cfg[section]!r}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    check_count("'seed'", cfg["seed"], 0)
    return cfg


def _config_file(path) -> dict:
    """The settings a config file holds: a JSON object whose top-level keys
    are `preset`, `seed` and the preset's sections."""
    try:
        with open(path) as f:
            settings = json.load(f)
    except FileNotFoundError as e:
        raise FileNotFoundError(f"config {path} does not exist") from e
    except (OSError, ValueError) as e:   # ValueError: bad JSON or text
        raise InvalidInputError(f"unreadable config {path}: {e}") from e
    if not isinstance(settings, dict):
        raise InvalidInputError(f"config {path} must hold a JSON object")
    unknown = sorted(set(settings) - {"preset", "seed", *PRESETS["desk"]})
    if unknown:
        raise InvalidInputError(f"config {path} has unknown settings "
                                f"{', '.join(map(repr, unknown))}")
    return settings


def _write_resolved(cfg: dict, out_dir: str, command: str, input_hashes: dict,
                    flags: dict) -> None:
    """resolved_config.json: the merged settings, the hashes of the input
    files, and the values of the command's own flags that the settings do
    not hold, so the run can be repeated from its directory."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {"command": command, "tool_version": __version__,
               "resolved": cfg, "input_hashes": input_hashes, "flags": flags}
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _from_settings(factory, section: str, settings: dict, **fixed):
    """factory(**fixed, **settings) for one section of the resolved config,
    where an unknown key (TypeError) or an out-of-range value (ValueError)
    is the operator's input error."""
    try:
        return factory(**fixed, **settings)
    except (TypeError, ValueError) as e:
        raise InvalidInputError(f"bad {section!r} settings: {e}") from e


def _parse_goal(text: str) -> np.ndarray:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise InvalidInputError(f"goal must be x,y,z meters, got {text!r}")
    return np.array(parts)


def _one_goal(args) -> np.ndarray:
    """The position of the single --goal that optimize and inspect take."""
    if len(args.goal) != 1:
        raise InvalidInputError(f"{args.command} takes one --goal x,y,z, "
                                f"got {len(args.goal)}")
    return _parse_goal(args.goal[0])


# ------------------------------------------------------------- subcommands

def cmd_gen_data(args) -> int:
    cfg = resolve_config(args, ("data",))
    out = args.out or "runs/gen-data"
    skeleton = desk_skeleton()
    gen_cfg = _from_settings(SyntheticGenConfig, "data", cfg["data"], seed=cfg["seed"])
    planned = gen_cfg.n_locomotion + gen_cfg.n_reaching + gen_cfg.n_walk_reach
    if planned < MIN_SPLIT_SEQUENCES:
        raise CorpusTooSmallError(f"config asks for {planned} sequences; the split "
                                  f"needs at least {MIN_SPLIT_SEQUENCES}")
    motion_dir = os.path.join(out, "motions")
    os.makedirs(motion_dir, exist_ok=True)
    manifest = os.path.join(out, "manifest.json")
    # clips are written as they are built, so a run that fails must not
    # leave an earlier run's manifest beside them, and no run may leave an
    # earlier run's clips its own manifest does not list
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest)
    for name in os.listdir(motion_dir):
        if name.endswith(".mot"):
            os.remove(os.path.join(motion_dir, name))
    entries = write_corpus(gen_cfg, skeleton, motion_dir)
    split = split_dataset(entries, cfg["seed"])
    write_manifest(entries, split, manifest)
    skeleton.save(os.path.join(out, "skeleton.json"))
    _write_resolved(cfg, out, "gen-data", {}, {})
    print(f"wrote {len(entries)} of {planned} planned sequences to {out} "
          f"({planned - len(entries)} dropped as floating)")
    return 0


def _load_corpus(data_dir: str, skeleton):
    manifest_path = os.path.join(data_dir, "manifest.json")
    with open(manifest_path) as f:
        try:
            idents = [e["ident"] for e in json.load(f)["sequences"]
                      if e["split"] == "train"]
        except (KeyError, TypeError, ValueError) as e:
            raise CorruptFileError(f"{manifest_path}: bad manifest ({e!r})") from e
    train_seqs = [load_motion(os.path.join(data_dir, "motions", f"{ident}.mot"), skeleton)
                  for ident in idents]
    return train_seqs, _file_hash(manifest_path)


def cmd_train(args) -> int:
    cfg = resolve_config(args, ("model", "train"))
    out = args.out or "runs/train"
    skeleton = desk_skeleton()
    sequences, manifest_hash = _load_corpus(args.data, skeleton)
    if args.epochs is not None:
        cfg["train"]["epochs"] = args.epochs
    train_cfg = _from_settings(TrainConfig, "train", cfg["train"], seed=cfg["seed"])
    model = _from_settings(fresh_model, "model", cfg["model"], skeleton=skeleton,
                           seed=cfg["seed"])
    model, rows = train(sequences, skeleton, train_cfg, model=model)
    os.makedirs(out, exist_ok=True)
    write_training_log(rows, os.path.join(out, "train_log.csv"))
    ckpt = os.path.join(out, "checkpoint.ckpt")
    save_checkpoint(model, ckpt)
    _write_resolved(cfg, out, "train", {"manifest": manifest_hash}, {})
    print(f"trained {train_cfg.epochs} epochs; final total loss {rows[-1][5]:.6f}; "
          f"checkpoint {ckpt}")
    return 0


def _load_model(args):
    if not args.checkpoint:
        raise InvalidInputError("missing --checkpoint path")
    if not os.path.exists(args.checkpoint):
        raise FileNotFoundError(f"checkpoint {args.checkpoint} does not exist")
    return load_checkpoint(args.checkpoint)


def cmd_generate(args) -> int:
    cfg = resolve_config(args, ())
    out = args.out or "runs/generate"
    model = _load_model(args)
    duration = args.duration
    positions = [_parse_goal(g) for g in args.goal]
    if not positions:
        raise InvalidInputError("at least one --goal x,y,z is required")
    frames = args.goal_frame or []
    if frames and len(frames) != len(positions):
        raise InvalidInputError("--goal-frame count must match --goal count")
    if not frames:
        step = duration // len(positions)
        frames = [step * (i + 1) for i in range(len(positions))]
    for frame in frames:
        check_count("--goal-frame", frame, 0)
    goals = tuple(GoalSpec(p, f) for p, f in zip(positions, frames))
    schedule = GoalSchedule(goals, policy=args.switch_policy, radius=args.radius)
    initial = standing_pose(model.skeleton)
    rng = np.random.default_rng(cfg["seed"])
    record = rollout_generate(initial, schedule, duration, model, rng,
                              mode=args.mode, ident="generated")
    os.makedirs(out, exist_ok=True)
    save_motion(record.sequence, os.path.join(out, "motion.mot"))
    save_motion_csv(record.sequence, os.path.join(out, "motion.csv"))
    _write_resolved(cfg, out, "generate", {"checkpoint": _file_hash(args.checkpoint)},
                    {"goal": [p.tolist() for p in positions], "goal_frame": frames,
                     "duration": duration, "mode": args.mode,
                     "switch_policy": args.switch_policy, "radius": args.radius})
    dtg = distance_to_goal(record.sequence, goals[-1], model.skeleton)
    print(f"generated {duration} frames; final-goal DTG {dtg * 100:.1f} cm; "
          f"outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args, ("eval",))
    out = args.out or "runs/evaluate"
    model = _load_model(args)
    eval_cfg = _from_settings(EvalConfig, "eval", cfg["eval"])
    report = run_benchmark(model, eval_cfg, seed=cfg["seed"])
    os.makedirs(out, exist_ok=True)
    emit_report(report, out)
    _write_resolved(cfg, out, "evaluate", {"checkpoint": _file_hash(args.checkpoint)}, {})
    print(f"{len(report.rows)} rollouts: SR {report.sr * 100:.1f}% "
          f"FS {report.fs * 100:.1f}% DTG {report.dtg_cm:.1f} cm; reports in {out}")
    return 0


def cmd_optimize(args) -> int:
    cfg = resolve_config(args, ())
    out = args.out or "runs/optimize"
    model = _load_model(args)
    goal = GoalSpec(_one_goal(args), args.duration)
    initial = standing_pose(model.skeleton)
    rng = np.random.default_rng(cfg["seed"])
    record = rollout_generate(initial, GoalSchedule.single(goal), args.duration,
                              model, rng, mode="sample")
    before = final_wrist_distance(record, goal, model)
    objective = OptObjective(goal_weight=1.0, prior_weight=args.prior_weight)
    refined, report = optimize_latents(record, goal, objective, model,
                                       steps=args.steps, lr=args.lr)
    os.makedirs(out, exist_ok=True)
    save_motion(record.sequence, os.path.join(out, "initial.mot"))
    save_motion(refined.sequence, os.path.join(out, "optimized.mot"))
    report.to_csv(os.path.join(out, "opt_report.csv"))
    _write_resolved(cfg, out, "optimize", {"checkpoint": _file_hash(args.checkpoint)},
                    {"goal": [goal.position.tolist()], "duration": args.duration,
                     "steps": args.steps, "lr": args.lr,
                     "prior_weight": args.prior_weight})
    print(f"optimized {args.steps} steps: final wrist distance "
          f"{before * 100:.1f} cm -> {report.final_distance * 100:.1f} cm; "
          f"outputs in {out}")
    return 0


def cmd_inspect(args) -> int:
    position = _one_goal(args) if args.goal else None
    skeleton = desk_skeleton()
    seq = load_motion(args.motion, skeleton)
    print(f"fps: {FPS}")
    print(f"frames: {seq.n_frames}")
    print(f"skeleton: {skeleton.hash}")
    print(f"provenance: {seq.provenance}")
    print(f"ident: {seq.ident}")
    if seq.label is not None:
        g = seq.label
        print(f"label: goal=({g.position[0]:.4f},{g.position[1]:.4f},"
              f"{g.position[2]:.4f}) frame={g.target_frame}")
    else:
        print("label: none")
    if position is not None:
        goal = GoalSpec(position, seq.n_frames - 1)
        dtg = distance_to_goal(seq, goal, skeleton)
        print(f"dtg_m: {dtg!r}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first call; callers must not
    change it. argparse keeps no state between parse_args calls, so
    in-process dispatches can share it."""
    parser = argparse.ArgumentParser(
        prog="reachgen",
        description="goal-conditioned motion generation engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, settings=True):   # settings: the command reads config sections
        if settings:
            p.add_argument("--config", help="JSON settings file")
            p.add_argument("--preset", choices=sorted(PRESETS), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("gen-data", help="generate the synthetic corpus")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train the motion model")
    common(p)
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="generate a goal-reaching motion")
    common(p, settings=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--goal", action="append", default=[],
                   help="x,y,z meters (repeatable for multi-goal)")
    p.add_argument("--goal-frame", action="append", type=int,
                   help="target frame per goal")
    p.add_argument("--duration", type=int, default=240)
    p.add_argument("--mode", choices=("sample", "mean"), default="sample")
    p.add_argument("--switch-policy", choices=("on_frame", "on_reach"),
                   default=GoalSchedule.policy)
    p.add_argument("--radius", type=float, default=GoalSchedule.radius)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="run the goal-reaching benchmark")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("optimize", help="latent-space refinement of a rollout")
    common(p, settings=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--goal", action="append", default=[], required=True)
    p.add_argument("--duration", type=int, default=90)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--prior-weight", type=float, default=OptObjective.prior_weight)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("inspect", help="summarize a motion container file")
    p.add_argument("motion", help="path to a .mot file")
    p.add_argument("--goal", action="append", default=[],
                   help="x,y,z to report DTG against")
    p.set_defaults(fn=cmd_inspect)
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReachGenError as e:
        return _fail(type(e).__name__, str(e))
    except FileNotFoundError as e:
        return _fail("FileNotFound", str(e))


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()   # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader left (`reachgen inspect x.mot | head -1`): send what is
        # still buffered to devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
