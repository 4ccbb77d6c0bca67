"""The benchmark's four workloads.

Each builds its inputs from the workload seed with a desk-preset model
(latent 16, hidden 64, 4 layers) and fresh weights: per-frame cost does not
depend on weight values, so set-up needs no training. Every call into
reachgen goes through a module attribute, so the tracer's wrappers see it.

A workload has `setup()` (timed as set-up, warm-up included), `checks()`
(untimed correctness checks) and `request(pause)`. A request times its own
phases, each a single public call of about a second or less, calls `pause()`
between them (the runner calibrates there), and checks its outputs after the
last one.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from reachgen import cli, dataset, evaluation, latent_opt, rollout, training
from reachgen.body import desk_skeleton
from reachgen.intention import GoalSpec
from reachgen.model import fresh_model
from reachgen.nn import AdamState

DESK = cli.PRESETS["desk"]
REFERENCE_SEED = 0     # fixed inputs of the reference checks
# Relative tolerance of reference floats. Scaling every decoder output by
# one ulp moved them by at most 1.1e-15; raising the layer-norm epsilon from
# 1e-5 to 1.1e-5 moved them by 8e-9 to 9e-7.
REL_TOL = 1e-9


@dataclass
class Request:
    phases_s: list                 # wall seconds of each timed phase; the
                                   # first is the request's lead call
    items: int
    failed: int = 0                # items the program reported as failed
    counters: dict = field(default_factory=dict)   # must repeat exactly
    problem: str | None = None     # a failed correctness check
    kind: int = 0                  # requests of one kind repeat their inputs
    ref_phases_s: list = field(default_factory=list)   # set by the runner

    @property
    def ref_s(self) -> float:
        return sum(self.ref_phases_s)


def desk_model(seed: int):
    return fresh_model(desk_skeleton(), seed=seed, **DESK["model"])


def desk_eval_config(**overrides) -> evaluation.EvalConfig:
    cfg = evaluation.EvalConfig(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in DESK["eval"].items()})
    return replace(cfg, **overrides)


def desk_train_config(seed: int, **overrides) -> training.TrainConfig:
    return training.TrainConfig(seed=seed, **{**DESK["train"], **overrides})


def compare(actual, expected, path="") -> str | None:
    """None when actual matches expected: floats within REL_TOL, the rest
    exactly; otherwise a description of the first difference."""
    if isinstance(expected, dict):
        for key in expected:
            bad = compare(actual.get(key), expected[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: length differs"
        for i, (a, e) in enumerate(zip(actual, expected)):
            bad = compare(a, e, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(expected, float):
        ok = (isinstance(actual, float) and np.isfinite(actual)
              and abs(actual - expected) <= REL_TOL * max(abs(expected), 1e-9))
    else:
        ok = actual == expected and type(actual) is type(expected)
    return None if ok else f"{path}: {actual!r} != reference {expected!r}"


def _repeat(first: list, values, what: str):
    """Keep the first request's outputs; later identical requests must
    reproduce them bit for bit (same code, same inputs)."""
    if not first:
        first.append(values)
        return None
    return None if values == first[0] else f"{what} differs between requests"


class GridEval:
    """Independent, tape-free, batch-1 sampled rollouts of 240 frames over the
    desk grid geometry (3 angles x 3 heights x 3 distances) around the desk
    initial poses. One request is one `run_benchmark` call over the 3 angles
    at one (height, distance): 3 rollouts. Requests cycle through the 18
    (pose, height, distance) triples, so each run covers the whole grid."""

    name = "grid-eval"
    phases = ("run_benchmark",)
    items_per_request = 3

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self) -> None:
        self.model = desk_model(self.seed)
        self.cfg = desk_eval_config(n_initial_poses=1, samples_per_pair=1)
        poses = evaluation.default_initial_poses(
            self.model.skeleton, DESK["eval"]["n_initial_poses"])
        heights = np.linspace(*self.cfg.height_range, self.cfg.n_heights)
        rings = np.linspace(*self.cfg.distance_range, self.cfg.n_distances)
        self.slices = [(pose, replace(self.cfg, n_heights=1, n_distances=1,
                                      height_range=(float(h), float(h)),
                                      distance_range=(float(d), float(d))))
                       for pose in poses for h in heights for d in rings]
        self._k = 0
        self._first = {}
        warm = replace(self.cfg, n_angles=1, n_heights=1, n_distances=1)
        evaluation.run_benchmark(self.model, warm, poses[:1], seed=self.seed)

    def request(self, pause) -> Request:
        kind = self._k % len(self.slices)
        self._k += 1
        pose, cfg = self.slices[kind]
        t0 = perf_counter()
        report = evaluation.run_benchmark(self.model, cfg, [pose],
                                          seed=self.seed, workers=1)
        wall = perf_counter() - t0
        rows = [(r.dtg_cm, r.success, r.fs) for r in report.rows]
        problem = ("non-finite DTG" if not all(np.isfinite(r[0]) for r in rows)
                   else _repeat(self._first.setdefault(kind, []), rows,
                                "SR/FS/DTG report"))
        return Request([wall], len(rows), report.n_failures,
                       {"rollouts": len(rows), "frames": len(rows) * cfg.duration},
                       problem, kind)

    def checks(self) -> dict:
        out = {}
        pose, cfg = self.slices[0]
        goal = replace(evaluation.build_goal_grid(pose, cfg).goals[0], target_frame=60)
        rec = rollout.generate(pose, rollout.GoalSchedule.single(goal), 60,
                               self.model, np.random.default_rng([self.seed, 1]))
        seq = rollout.replay(rec, self.model)
        out["replay_identical"] = (None if np.array_equal(seq.poses, rec.sequence.poses)
                                   else "replayed poses differ from the record")
        model = desk_model(REFERENCE_SEED)
        one = self.reference_report(model, workers=1)
        two = self.reference_report(model, workers=2)
        out["workers_1_equals_2"] = (None if one == two else
                                     "report differs between workers=1 and workers=2")
        out["reference_sr_fs_dtg"] = compare(one, load_reference()[self.name])
        return out

    @staticmethod
    def reference_report(model=None, workers: int = 1) -> dict:
        """Six 40-frame rollouts from the reference model: a small slice of
        the desk grid (3 angles, middle height and distance, 2 samples)."""
        model = model or desk_model(REFERENCE_SEED)
        lo, hi = DESK["eval"]["distance_range"]
        hlo, hhi = DESK["eval"]["height_range"]
        cfg = desk_eval_config(n_heights=1, n_distances=1, n_initial_poses=1,
                               samples_per_pair=2, duration=40,
                               height_range=((hlo + hhi) / 2,) * 2,
                               distance_range=((lo + hi) / 2,) * 2)
        pose = evaluation.default_initial_poses(model.skeleton, 1)
        report = evaluation.run_benchmark(model, cfg, pose, seed=REFERENCE_SEED,
                                          workers=workers)
        return {"sr": report.sr, "fs": report.fs, "dtg_cm": report.dtg_cm,
                "n_failures": report.n_failures,
                "rows": [[r.dtg_cm, bool(r.success), r.fs] for r in report.rows]}


class Train:
    """One request is one curriculum pair of `train_epoch` calls over one
    batch of 32 windows (W=40): first at s=0 (teacher forcing only), then at
    s=10 (ten sequential batched rollout steps under the tape). Weights and
    Adam state are reset before each request, so every request does the same
    arithmetic."""

    name = "train"
    phases = ("s0_epoch", "s10_epoch")
    n_windows = 32
    items_per_request = 2 * n_windows

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self) -> None:
        skeleton = desk_skeleton()
        self.model = desk_model(self.seed)
        self.cfg = desk_train_config(self.seed, windows_per_sequence=8)
        corpus = dataset.generate_synthetic_corpus(
            dataset.SyntheticGenConfig(seed=self.seed, n_locomotion=2,
                                       n_reaching=1, n_walk_reach=1), skeleton)
        self.windows = training.build_training_windows(corpus, self.cfg, skeleton)
        if len(self.windows) != self.n_windows:
            raise RuntimeError(f"expected {self.n_windows} windows, "
                               f"got {len(self.windows)}")
        self.epochs = (0, self.cfg.ramp_epochs)
        steps = [training.rollout_steps_for_epoch(e, self.cfg) for e in self.epochs]
        if steps != [0, 10]:
            raise RuntimeError(f"rollout steps {steps}, expected [0, 10]")
        batches = -(-self.n_windows // self.cfg.batch_size)
        adam = AdamState(self.cfg.lr_base, self.cfg.lr_final,
                         total_steps=self.cfg.epochs * batches)
        for epoch in self.epochs:
            training.train_epoch(self.windows, self.model, adam, epoch, self.cfg)
        self.params0 = self.model.params.copy()
        self.adam0 = adam
        self._first = []

    def request(self, pause) -> Request:
        self.model.params = self.params0.copy()
        adam = copy.deepcopy(self.adam0)
        t0 = perf_counter()
        s0 = training.train_epoch(self.windows, self.model, adam, self.epochs[0], self.cfg)
        t1 = perf_counter()
        pause()
        t2 = perf_counter()
        s10 = training.train_epoch(self.windows, self.model, adam, self.epochs[1], self.cfg)
        t3 = perf_counter()
        losses = [s0.rec, s0.kl, s0.joint, s0.total, s10.rec, s10.kl, s10.joint, s10.total]
        problem = (None if all(np.isfinite(losses)) else "non-finite loss") \
            or _repeat(self._first, losses, "losses")
        return Request([t1 - t0, t3 - t2], self.items_per_request, 0,
                       {"windows": self.items_per_request,
                        "adam_steps": adam.step - self.adam0.step}, problem)

    def checks(self) -> dict:
        return {"reference_losses": compare(self.reference_losses(),
                                            load_reference()[self.name])}

    @staticmethod
    def reference_losses() -> dict:
        """One s=0 and one s=10 epoch on 8 windows from 4 sequences."""
        skeleton = desk_skeleton()
        cfg = desk_train_config(REFERENCE_SEED)
        corpus = dataset.generate_synthetic_corpus(
            dataset.SyntheticGenConfig(seed=REFERENCE_SEED, n_locomotion=2,
                                       n_reaching=1, n_walk_reach=1), skeleton)
        windows = training.build_training_windows(corpus, cfg, skeleton)
        model = desk_model(REFERENCE_SEED)
        adam = AdamState(cfg.lr_base, cfg.lr_final, total_steps=cfg.epochs)
        out = {}
        for epoch in (0, cfg.ramp_epochs):
            lb = training.train_epoch(windows, model, adam, epoch, cfg)
            s = training.rollout_steps_for_epoch(epoch, cfg)
            out[f"s{s}"] = [lb.rec, lb.kl, lb.joint, lb.total]
        return out


class SingleGoal:
    """Repeated one-goal requests shaped like `reachgen optimize`: a 90-frame
    sampled `generate`, then one `optimize_latents` step under a deep tape.

    With fresh weights a 90-frame rollout is chaotic in its latents (one
    Adam step of lr 1e-6 can raise the loss), so "refinement lowers the
    final wrist distance" is checked on the 30-frame reference input only.
    """

    name = "single-goal"
    phases = ("generate", "optimize")
    duration = 90
    steps = 1
    items_per_request = steps

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self) -> None:
        self.model = desk_model(self.seed)
        rng = np.random.default_rng([self.seed, 7])
        angle = rng.uniform(0.0, 2.0 * np.pi)
        dist = rng.uniform(*DESK["eval"]["distance_range"])
        height = rng.uniform(*DESK["eval"]["height_range"])
        position = np.array([dist * np.cos(angle), dist * np.sin(angle), height])
        self.goal = GoalSpec(position, self.duration)
        self.initial = dataset.standing_pose(self.model.skeleton)
        self.objective = latent_opt.OptObjective(goal_weight=1.0, prior_weight=1e-3)
        warm_goal = GoalSpec(position, 30)
        rec = rollout.generate(self.initial, rollout.GoalSchedule.single(warm_goal),
                               30, self.model, np.random.default_rng(self.seed))
        latent_opt.optimize_latents(rec, warm_goal, self.objective, self.model,
                                    steps=1, lr=1e-2)
        self._first = []

    def request(self, pause) -> Request:
        rng = np.random.default_rng([self.seed, 1])
        t0 = perf_counter()
        rec = rollout.generate(self.initial, rollout.GoalSchedule.single(self.goal),
                               self.duration, self.model, rng, mode="sample")
        t1 = perf_counter()
        pause()
        t2 = perf_counter()
        _, report = latent_opt.optimize_latents(rec, self.goal, self.objective,
                                                self.model, steps=self.steps, lr=1e-2)
        t3 = perf_counter()
        losses = report.l_opt + [report.final_distance]
        problem = (None if all(np.isfinite(losses)) else "non-finite loss") \
            or _repeat(self._first, losses, "optimisation losses")
        return Request([t1 - t0, t3 - t2], self.steps, 0,
                       {"generated_frames": self.duration, "opt_steps": report.iterations},
                       problem)

    def checks(self) -> dict:
        ref = self.reference_refinement()
        out = {"reference_refinement": compare(ref, load_reference()[self.name])}
        out["reference_lowers_distance"] = (
            None if ref["final_distance"] < ref["initial_distance"]
            else "refinement did not lower the reference wrist distance")
        return out

    @staticmethod
    def reference_refinement() -> dict:
        """A 30-frame rollout of the reference model refined for 2 steps."""
        model = desk_model(REFERENCE_SEED)
        goal = GoalSpec(np.array([0.8, 0.6, 1.1]), 30)
        rec = rollout.generate(dataset.standing_pose(model.skeleton),
                               rollout.GoalSchedule.single(goal), 30, model,
                               np.random.default_rng(REFERENCE_SEED))
        _, report = latent_opt.optimize_latents(
            rec, goal, latent_opt.OptObjective(), model, steps=2, lr=1e-2)
        return {"l_opt": report.l_opt,
                "initial_distance": latent_opt.final_wrist_distance(rec, goal, model),
                "final_distance": report.final_distance}


class Corpus:
    """`reachgen gen-data` on a 16-sequence subset through `cli.dispatch`,
    then every written `.mot` read back with `dataset.load_motion`.

    Reach clips resample infeasible targets, so one subset can cost 20% more
    than another with as many frames. Requests cycle through 4 subsets with
    seeds derived from the workload seed, which evens that out per run."""

    name = "corpus"
    phases = ("gen_data", "load_back")
    subset = {"n_locomotion": 8, "n_reaching": 5, "n_walk_reach": 3}
    n_kinds = 4
    items_per_request = sum(subset.values())

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.root = os.path.join(out_dir, "corpus")

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.skeleton = desk_skeleton()
        self.config_path = os.path.join(self.root, "subset.json")
        with open(self.config_path, "w") as f:
            json.dump({"data": self.subset}, f)
        warm = dataset.generate_synthetic_corpus(
            dataset.SyntheticGenConfig(seed=self.seed, n_locomotion=1,
                                       n_reaching=1, n_walk_reach=1), self.skeleton)
        for seq in dataset.filter_floating(warm, self.skeleton):
            path = os.path.join(self.root, "warm.mot")
            dataset.save_motion(seq, path)
            dataset.load_motion(path, self.skeleton)
        self._k = 0
        self._first = {}

    def request(self, pause) -> Request:
        kind = self._k % self.n_kinds
        self._k += 1
        out = os.path.join(self.root, "gen")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["gen-data", "--config", self.config_path,
                "--seed", str(self.seed * self.n_kinds + kind), "--out", out]
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.dispatch(argv)
        t1 = perf_counter()
        pause()
        t2 = perf_counter()
        seqs, paths = [], []
        if code == 0:
            with open(os.path.join(out, "manifest.json")) as f:
                idents = [e["ident"] for e in json.load(f)["sequences"]]
            paths = [os.path.join(out, "motions", f"{i}.mot") for i in idents]
            seqs = [dataset.load_motion(p, self.skeleton) for p in paths]
        t3 = perf_counter()
        if code != 0:
            return Request([t1 - t0, t3 - t2], self.items_per_request,
                           self.items_per_request, problem=f"gen-data exited {code}",
                           kind=kind)
        digest = hashlib.sha256()
        for p in paths:
            with open(p, "rb") as f:
                digest.update(f.read())
        on_disk = len(os.listdir(os.path.join(out, "motions")))
        counters = {"sequences": len(seqs), "files": on_disk,
                    "frames": sum(s.n_frames for s in seqs),
                    "bytes": sum(os.path.getsize(p) for p in paths)}
        problem = None
        if not len(seqs) == on_disk >= 10:
            problem = f"{len(seqs)} sequences in the manifest, {on_disk} files"
        problem = problem or _repeat(self._first.setdefault(kind, []),
                                     digest.hexdigest(), "corpus digest")
        return Request([t1 - t0, t3 - t2], len(seqs), 0, counters, problem, kind)

    def checks(self) -> dict:
        return {"reference_corpus": compare(self.reference_corpus(self.root),
                                            load_reference()[self.name])}

    @staticmethod
    def reference_corpus(root: str) -> dict:
        """Four reference sequences filtered, written and read back."""
        skeleton = desk_skeleton()
        corpus = dataset.generate_synthetic_corpus(
            dataset.SyntheticGenConfig(seed=REFERENCE_SEED, n_locomotion=2,
                                       n_reaching=1, n_walk_reach=1), skeleton)
        kept = dataset.filter_floating(corpus, skeleton)
        out = {"kept": [s.ident for s in kept], "frames": [], "pose_sum": [],
               "reload_exact": True}
        os.makedirs(root, exist_ok=True)
        for seq in kept:
            path = os.path.join(root, "reference.mot")
            dataset.save_motion(seq, path)
            back = dataset.load_motion(path, skeleton)
            out["reload_exact"] &= bool(np.array_equal(back.poses, seq.poses))
            out["frames"].append(back.n_frames)
            out["pose_sum"].append(float(np.sum(back.poses)))
        return out


WORKLOADS = {w.name: w for w in (GridEval, Train, SingleGoal, Corpus)}
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def compute_reference(root: str) -> dict:
    """Reference values of the fixed-input checks at the current code."""
    return {GridEval.name: GridEval.reference_report(),
            Train.name: Train.reference_losses(),
            SingleGoal.name: SingleGoal.reference_refinement(),
            Corpus.name: Corpus.reference_corpus(root)}
