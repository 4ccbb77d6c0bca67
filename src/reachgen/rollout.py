"""Closed-loop autoregressive generation: recompute intention against the
active goal each frame, decode a delta, integrate, repeat. A record keeps
its latents and schedule in memory to replay bit-exactly or refine them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import autodiff as ag
from .body import _chain_walk, _integrated, _rotations, pose_dim
from .dataset import MotionSequence
from .errors import (DegenerateRotationError, InvalidInputError,
                     ModelMismatchError, NumericFault)
from .geometry import degenerate_sixd
from .intention import INTENTION_DIM, GoalSpec, _conditioned
from .model import MotionModel
from .nn import _mlp, mlp_params

# SeedSequence's hash constants (numpy/random/bit_generator.pyx), which
# NumPy's stream-compatibility policy (NEP 19) keeps fixed.
INIT_A = 0x43b0d7e5
MULT_A = 0x931e8875
INIT_B = 0x8b51f9dd
MULT_B = 0x58f38ded
MIX_MULT_L = 0xca01f9dd
MIX_MULT_R = 0x4973f715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class GoalSchedule:
    """Ordered goals with a switch policy.

    on_frame: advance once the clock passes the active goal's target frame.
    on_reach: advance once the wrist comes within `radius` of the active goal.
    The goals share one target joint, which each frame reads once for the
    switch test and the condition.
    """

    goals: tuple[GoalSpec, ...]
    policy: str = "on_frame"
    radius: float = 0.10

    def __post_init__(self):
        if not self.goals:
            raise InvalidInputError("schedule needs at least one goal")
        if self.policy not in ("on_frame", "on_reach"):
            raise InvalidInputError(f"unknown switch policy {self.policy!r}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidInputError(
                f"radius must be finite and positive, got {self.radius}")
        if len({g.target_joint for g in self.goals}) > 1:
            raise InvalidInputError("a schedule's goals need one target joint")
        frames = [np.asarray(g.target_frame) for g in self.goals]
        if any(np.any(b <= a) for a, b in zip(frames, frames[1:])):
            raise InvalidInputError("goal target frames must be strictly increasing")

    @classmethod
    def single(cls, goal: GoalSpec) -> "GoalSchedule":
        return cls((goal,))


@dataclass
class RolloutRecord:
    """A generated motion plus everything needed to reproduce it."""

    sequence: MotionSequence
    latents: np.ndarray        # (duration, latent_dim)
    intentions: np.ndarray     # (duration, 7)
    goal_indices: np.ndarray   # (duration,) active goal per generated frame
    schedule: GoalSchedule
    model_hash: str

    @property
    def duration(self) -> int:
        return self.latents.shape[0]


class Rollout(NamedTuple):
    """The rows of one closed-loop rollout. Each list holds one entry per
    frame, shaped like the rows, (B, ...) or one unbatched row: poses from
    the initial frame on, intentions and active goal indices from the first
    generated frame on. The lists stop early only when every row faulted.

    faults[r] is None, or (frame, error) for the first frame whose pose row
    r could not produce: a non-finite delta (NumericFault) or an integrated
    6D rotation that sixd_to_matrix rejects (DegenerateRotationError). From
    then on the row holds that frame's previous pose and a zero delta.
    """

    poses: list
    intentions: list
    goal_indices: list
    faults: list

    def raise_fault(self) -> None:
        """Raise the recorded fault of a single-row rollout, if any."""
        if self.faults[0] is not None:
            raise self.faults[0][1]


class _GoalRows:
    """A schedule's goals broadcast to the rows' leading shape, (B,) or (),
    for per-row goal switching."""

    def __init__(self, schedule: GoalSchedule, lead: tuple):
        self.schedule = schedule
        self.last = len(schedule.goals) - 1
        self.rows = (np.arange(lead[0]),) if lead else ()
        if self.last:
            self.positions = np.stack([np.broadcast_to(g.position, lead + (3,))
                                       for g in schedule.goals])
            self.frames = np.stack([np.broadcast_to(g.target_frame, lead)
                                    for g in schedule.goals])

    def goal(self, active) -> GoalSpec:
        """The active goal of every row; the schedule's own GoalSpec while
        all rows share one."""
        if not self.last:
            return self.schedule.goals[0]
        first = active.flat[0]
        if (active == first).all():
            return self.schedule.goals[first]
        at = (active,) + self.rows
        return GoalSpec(self.positions[at], self.frames[at],
                        self.schedule.goals[0].target_joint)

    def advance(self, active, wrist, current_frame: int):
        """Per-row active goal indices after the switch policy's test;
        `wrist` is the rows' target joint position."""
        if not self.last or (active >= self.last).all():
            return active
        if self.schedule.policy == "on_frame":
            while True:
                step = ((active < self.last)
                        & (current_frame >= self.frames[(active,) + self.rows]))
                if not step.any():
                    return active
                active = active + step
        dist = np.linalg.norm(wrist - self.positions[(active,) + self.rows], axis=-1)
        return active + ((active < self.last) & (dist <= self.schedule.radius))


def _degenerate_rows(pose, n_joints: int):
    """Mask of the pose rows holding a 6D rotation sixd_to_matrix rejects."""
    pd = ag.value(pose)
    return degenerate_sixd(
        pd[..., 3:].reshape(pd.shape[:-1] + (n_joints, 6))).any(axis=-1)


def _non_finite_fault(frame: int):
    return NumericFault("non-finite delta", where=f"rollout frame {frame}")


def _degenerate_fault(frame: int):
    return DegenerateRotationError(
        f"integrated 6D rotation is near-zero or collinear (at rollout frame {frame})")


class _FrameGrads:
    """What the frame nodes of one taped rollout share in their VJPs, which
    run in reverse frame order: per frame, the gradient that the next
    frame's condition sent its delta, and the latents' gradient, one buffer
    every frame writes its row into and frame 1's node hands over."""

    def __init__(self, latents, duration: int, at_frame: tuple):
        wants = isinstance(latents, ag.Tensor) and latents.requires_grad
        shape = ag.value(latents).shape
        self.latents = np.zeros(shape) if wants else None
        self.latent_dim = shape[-1]
        self.deltas = [None] * (duration + 1)
        self.at_frame = at_frame

    def frame_vjp(self, frame: int, vjps, wants_pose: bool):
        """The VJP of rollout frame `frame` from its helpers' VJPs, chained in
        the order the tape walked the nodes of the composition, so the
        gradients keep its bits.

        It returns the gradients of the frame node's inputs, (pose, pose,
        pose, latents, *decoder parameters). The pose is listed three times,
        so the tape adds its gradients from the integration, the condition
        and the chain walk with the decode in the composition's order, after
        any gradient the caller's objective gave it.
        """
        rotations_vjp, chain_vjp, condition_vjp, decode_vjp, integrate_vjp = vjps
        k = self.latent_dim

        def vjp(g):
            g_prev, g_delta = integrate_vjp(g)
            fed = self.deltas[frame]
            if fed is not None:
                g_delta = fed + g_delta
            g_input, *g_params = decode_vjp(g_delta)
            if g_input is None:    # only the decoder's parameters want gradients
                return (None, None, None, None, *g_params)
            if self.latents is not None:
                self.latents[self.at_frame + (frame - 1,)] = g_input[..., :k]
            g_cond, g_root, g_wrist, g_prev_delta = condition_vjp(g_input[..., k:])
            g_read = None
            if wants_pose:
                if frame > 1:
                    self.deltas[frame - 1] = g_prev_delta
                g_translation, g_local = chain_vjp(g_wrist)
                g_local[..., 0, :, :] += g_root
                g_read = np.empty(g_cond.shape)
                g_read[..., :3] = g_translation
                g_read[..., 3:] = rotations_vjp(g_local)
            return (g_prev, g_cond, g_read, self.latents if frame == 1 else None,
                    *g_params)

        return vjp


def rollout_poses(initial_pose, schedule_or_goal, duration: int,
                  model: MotionModel, latents) -> Rollout:
    """The closed-loop rollout of B rows, shared by generation, replay,
    latent optimization and evaluation.

    initial_pose: (B, pose_dim) and latents: (B, duration, latent_dim), or
    one unbatched row, (pose_dim,) and (duration, latent_dim); arrays or
    Tensor rows. A leading axis of 1 would cost numpy overhead on every op
    of every frame, so single-row callers pass the row unbatched. The
    schedule's goals may hold per-row (B, 3) positions and (B,) target
    frames; each row switches goals on its own. A row that faults is
    frozen (see Rollout) but keeps its row in every matmul, so its siblings
    keep their bits; the loop stops once every row faulted.

    A frame is one fused op. It decodes the pose's rotations, walks the
    target joint's chain, runs the goal switch, the condition, the decoder
    MLP and the integration on plain arrays through the helpers of those
    fused ops, so its poses have the bits of their composition. When a Tape
    is active and the latents, the initial pose or the decoder's parameters
    require gradients, each frame records one node, and every pose is
    differentiable in them; once a row is held, the frames record nothing.

    A degenerate 6D rotation is found where the next frame's decode rejects
    it, so the check costs nothing while no row faults; the last frame's
    poses are checked after the loop.
    """
    if isinstance(schedule_or_goal, GoalSpec):
        schedule = GoalSchedule.single(schedule_or_goal)
    else:
        schedule = schedule_or_goal
    skeleton = model.skeleton
    decoder = model.spec.decoder
    params = mlp_params(decoder, model.params, "dec")
    cur = initial_pose
    lead = ag.value(cur).shape[:-1]
    at_frame = (slice(None),) * len(lead)
    goals = _GoalRows(schedule, lead)
    lat = ag.value(latents)
    grads = _FrameGrads(latents, duration, at_frame)
    wants_latents = grads.latents is not None
    prev_delta = np.zeros(lead + (pose_dim(skeleton.n_rotated),))
    active = np.zeros(lead, dtype=np.int64)
    frozen = np.zeros(lead, dtype=bool)
    out = Rollout([cur], [], [], [None] * frozen.size)

    def freeze(bad, frame: int, fault) -> bool:
        """Record the first fault of the bad rows; True once all faulted."""
        for r in np.flatnonzero(bad & ~frozen):
            out.faults[r] = (frame, fault(frame))
        np.logical_or(frozen, bad, out=frozen)
        return bool(frozen.all())

    def hold_degenerate(bad, frame: int) -> bool:
        """Hold the bad rows, degenerate at `frame`, at the pose before it;
        True once all rows faulted."""
        nonlocal cur, prev_delta
        if freeze(bad, frame, _degenerate_fault):
            return True
        cur = np.where(bad[..., None], ag.value(out.poses[-2]), ag.value(cur))
        prev_delta = np.where(bad[..., None], 0.0, prev_delta)
        out.poses[-1] = cur
        return False

    joint = skeleton.joint_index(schedule.goals[0].target_joint)

    for i in range(1, duration + 1):
        current_frame = i - 1
        pd = ag.value(cur)
        try:
            local, rotations_vjp = _rotations(pd, skeleton)
        except DegenerateRotationError:
            bad = _degenerate_rows(pd, skeleton.n_joints)
            if i == 1 or not bad.any():
                raise   # the caller's input, not a pose the loop integrated
            if hold_degenerate(bad, current_frame):
                break
            pd = cur
            local, rotations_vjp = _rotations(pd, skeleton)
        wants_pose = isinstance(cur, ag.Tensor) and cur.requires_grad
        wrist, chain_vjp = _chain_walk(pd, local, skeleton, joint)
        active = goals.advance(active, wrist, current_frame)
        cond, condition_vjp = _conditioned(pd, local[..., 0, :, :], wrist, prev_delta,
                                           skeleton, goals.goal(active),
                                           current_frame, None)
        # the decoded delta is integrated now and conditions the next frame
        delta, decode_vjp = _mlp(decoder, params,
                                 np.concatenate([lat[at_frame + (i - 1,)], cond], axis=-1),
                                 wants_latents or wants_pose)
        if (not np.isfinite(delta).all()
                and freeze(~np.isfinite(delta).all(axis=-1), i, _non_finite_fault)):
            break
        nxt, integrate_vjp = _integrated(pd, delta, wants_pose)
        if any(out.faults):    # some row is held
            hold = frozen[..., None]
            delta = np.where(hold, 0.0, delta)
            nxt = np.where(hold, pd, nxt)
        else:
            vjp = grads.frame_vjp(i, (rotations_vjp, chain_vjp, condition_vjp,
                                      decode_vjp, integrate_vjp), wants_pose)
            nxt = ag.record(nxt, (cur, cur, cur, latents if i == 1 else None, *params),
                            vjp)
        prev_delta = delta
        cur = nxt
        out.poses.append(cur)
        out.intentions.append(cond[..., -INTENTION_DIM:].copy())
        out.goal_indices.append(active)
    else:
        bad = _degenerate_rows(cur, skeleton.n_joints)
        if bad.any():
            hold_degenerate(bad, duration)
    return out


def _generated_sequence(poses, fps: float, model: MotionModel,
                        ident: str) -> MotionSequence:
    return MotionSequence(fps, np.stack(poses), model.skeleton, None, "generated", ident)


def seed_words(seeds) -> np.ndarray:
    """`SeedSequence(int(s)).generate_state(4, np.uint64)` for every seed
    below 2**64 in `seeds`, as a C-contiguous `seeds.shape + (4,)` uint64
    array, in one vectorised pass.

    A seed's entropy is its little-endian uint32 words, one for a seed
    below 2**32 and two above, and the pool mixes in a zero for each word
    past the entropy, so every seed fills the 4-word pool as (low, high,
    0, 0). The hash constants advance
    the same way for every seed and stay Python ints; the data runs through
    uint32 arrays, which wrap as the C code does.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    u32 = np.uint32
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(MIX_MULT_L) * x - u32(MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    zero = np.zeros(seeds.shape, u32)
    pool = [hashmix(v) for v in ((seeds & np.uint64(_MASK32)).astype(u32),
                                 (seeds >> np.uint64(32)).astype(u32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = INIT_B
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ u32(hash_const)
        hash_const = hash_const * MULT_B & _MASK32
        value = value * u32(hash_const)
        halves.append((value ^ (value >> u32(16))).astype(np.uint64))
    words = np.empty(seeds.shape + (4,), dtype=np.uint64)
    for i in range(4):
        words[..., i] = halves[2 * i] | (halves[2 * i + 1] << np.uint64(32))
    return words


class _HashedSeed(ISeedSequence):
    """Hands PCG64 the state words `seed_words` computed for one seed, as
    the SeedSequence of that seed would. PCG64 reads the returned array's
    buffer as it is, so `words` is a C-contiguous (4,) uint64 array."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def draw_latents(rngs: list[Generator], duration: int, latent_dim: int,
                 mode: str = "sample", temperature: float = 1.0) -> np.ndarray:
    """Latents (len(rngs), duration, latent_dim), one row per generator;
    zeros in "mean" mode.

    In "sample" mode each row draws one u63 seed per frame from its
    generator, and frame t's latent is `temperature` times latent_dim
    normals from `default_rng(seed_t)`. All frames of all rows are hashed
    in one `seed_words` pass, and each frame's PCG64 is seeded from its
    words, so no SeedSequence is built.
    """
    if mode not in ("sample", "mean"):
        raise ValueError(f"unknown mode {mode!r}")
    latents = np.zeros((len(rngs), duration, latent_dim))
    if mode == "mean":
        return latents
    seeds = np.stack([rng.integers(0, 2**63 - 1, size=duration, dtype=np.uint64)
                      for rng in rngs])
    for words, row in zip(seed_words(seeds).reshape(-1, 4),
                          latents.reshape(-1, latent_dim)):
        Generator(PCG64(_HashedSeed(words))).standard_normal(out=row)
    latents *= temperature
    return latents


def generate(initial_pose, schedule: GoalSchedule, duration: int,
             model: MotionModel, rng: np.random.Generator,
             mode: str = "sample", temperature: float = 1.0,
             fps: float = 30.0, ident: str = "rollout") -> RolloutRecord:
    """Generate `duration` new frames from the initial pose."""
    if duration < 1:
        raise InvalidInputError("duration must be >= 1")
    latents = draw_latents([rng], duration, model.spec.latent_dim,
                           mode, temperature)[0]
    out = rollout_poses(initial_pose, schedule, duration, model, latents)
    out.raise_fault()
    return RolloutRecord(
        sequence=_generated_sequence(out.poses, fps, model, ident),
        latents=latents, intentions=np.stack(out.intentions),
        goal_indices=np.array(out.goal_indices),
        schedule=schedule, model_hash=model.hash())


def replay(record: RolloutRecord, model: MotionModel) -> MotionSequence:
    """Re-decode the recorded latents; reproduces the poses bit-exactly."""
    if record.model_hash != model.hash():
        raise ModelMismatchError("record was generated by a different model")
    return with_latents(record, record.latents, model).sequence


def with_latents(record: RolloutRecord, latents: np.ndarray,
                 model: MotionModel) -> RolloutRecord:
    """New record generated from the same start with different latents."""
    out = rollout_poses(record.sequence.poses[0], record.schedule,
                        record.duration, model, latents)
    out.raise_fault()
    seq = _generated_sequence(out.poses, record.sequence.fps, model,
                              record.sequence.ident)
    return replace(record, sequence=seq, latents=np.asarray(latents),
                   intentions=np.stack(out.intentions),
                   goal_indices=np.array(out.goal_indices))

