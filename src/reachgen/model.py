"""Conditional VAE over pose deltas: encoder/decoder assembly, the step
loss, model bundling, and checkpoint IO. A checkpoint stores the four model
settings (latent_dim, hidden_dim, n_layers, dropout), the skeleton and the
parameters; on load the spec is built from the settings and the skeleton,
and the parameters must have the names, order and shapes it defines, and
finite values.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ag
from .body import Skeleton, forward_kinematics, pose_dim, skeleton_from_text
from .container import read_container, write_container
from .errors import CorruptFileError, check_count
from .intention import condition_dim
from .nn import (GaussianParams, MlpConfig, ParameterStore, init_mlp_params,
                 mlp_forward)

CHECKPOINT_MAGIC = b"RGCK"
CHECKPOINT_VERSION = 5


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions of the delta autoencoder for one skeleton."""

    latent_dim: int
    encoder: MlpConfig
    decoder: MlpConfig

    def __post_init__(self):
        check_count("latent_dim", self.latent_dim)

    @classmethod
    def build(cls, n_rotated: int, latent_dim: int, hidden_dim: int,
              n_layers: int, dropout: float) -> "ModelSpec":
        d = pose_dim(n_rotated)
        c = condition_dim(n_rotated)
        enc = MlpConfig(in_dim=d + c, out_dim=2 * latent_dim, hidden_dim=hidden_dim,
                        n_layers=n_layers, dropout=dropout)
        dec = MlpConfig(in_dim=latent_dim + c, out_dim=d, hidden_dim=hidden_dim,
                        n_layers=n_layers, dropout=dropout)
        return cls(latent_dim, enc, dec)


def init_params(spec: ModelSpec, seed: int) -> ParameterStore:
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    init_mlp_params(spec.encoder, store, "enc", rng)
    init_mlp_params(spec.decoder, store, "dec", rng)
    return store


def encode(spec: ModelSpec, store: ParameterStore, delta_vec, cond_vec,
           dropout: tuple[int, tuple[int, int]] | None) -> GaussianParams:
    """MLP over (delta, condition), split into mean and clamped log-std;
    `dropout` as `nn._mlp` takes it."""
    x = ag.concatenate([delta_vec, cond_vec], axis=-1)
    out = mlp_forward(spec.encoder, store, x, "enc", dropout)
    return GaussianParams.from_stacked(out)


def decode(spec: ModelSpec, store: ParameterStore, z, cond_vec,
           dropout: tuple[int, tuple[int, int]] | None):
    """MLP over (latent, condition), returned in pose-delta vector layout;
    `dropout` as `nn._mlp` takes it."""
    x = ag.concatenate([z, cond_vec], axis=-1)
    return mlp_forward(spec.decoder, store, x, "dec", dropout)


def compute_loss(pred_pose, true_pose, target_joints, skeleton: Skeleton):
    """The step loss (rec, joint) of batched poses, each averaged over rows:
    the MSE of the predicted poses against the true ones, and the MSE of
    the FK joints of `pred_pose` against `target_joints` (..., n_joints, 3).
    Where both poses integrate a delta from one previous pose, rec is the
    delta MSE: a z turn by that pose's yaw keeps every xy pair's length.
    """
    diff = pred_pose - true_pose
    jdiff = forward_kinematics(pred_pose, skeleton) - target_joints
    return ag.mean(diff * diff), ag.mean(jdiff * jdiff)


@dataclass
class MotionModel:
    """A trained (or fresh) delta autoencoder bound to its skeleton."""

    spec: ModelSpec
    params: ParameterStore
    skeleton: Skeleton
    meta: dict = field(default_factory=dict)

    def hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(asdict(self.spec), sort_keys=True).encode())
        h.update(self.skeleton.hash.encode())
        for name in self.params.names():
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()


def fresh_model(skeleton: Skeleton, latent_dim=16, hidden_dim=64, n_layers=4,
                dropout=0.1, *, seed: int) -> MotionModel:
    spec = ModelSpec.build(skeleton.n_rotated, latent_dim=latent_dim,
                           hidden_dim=hidden_dim, n_layers=n_layers, dropout=dropout)
    return MotionModel(spec, init_params(spec, seed), skeleton)


def save_checkpoint(model: MotionModel, path) -> None:
    """Container with the model's parameters, settings, skeleton and meta.

    Byte-identical for identical contents; no timestamps.
    """
    spec, mlp = model.spec, model.spec.decoder
    arrays = {name: model.params[name].data for name in model.params.names()}
    header = {
        "model": {"latent_dim": spec.latent_dim, "hidden_dim": mlp.hidden_dim,
                  "n_layers": mlp.n_layers, "dropout": mlp.dropout},
        "skeleton_text": model.skeleton.to_text(),
        "meta": model.meta,
    }
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, arrays)


def load_checkpoint(path) -> MotionModel:
    """The model a checkpoint holds. Validates magic, version, size, that
    its settings are the four ModelSpec.build takes, and that its parameters
    are finite and have the names, order and shapes the spec built from
    those settings and its skeleton defines."""
    header, values = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    try:
        skeleton = skeleton_from_text(header["skeleton_text"])
        spec = ModelSpec.build(skeleton.n_rotated, **header["model"])
        expected = [(name, t.data.shape) for name, t in init_params(spec, 0).items()]
        if [(name, data.shape) for name, data in values.items()] != expected:
            raise CorruptFileError(f"{path}: parameters do not match the spec")
        if not all(np.isfinite(data).all() for data in values.values()):
            raise CorruptFileError(f"{path}: parameters are not finite")
        store = ParameterStore()
        for name, data in values.items():
            store.add(name, data)
        return MotionModel(spec, store, skeleton, meta=header.get("meta", {}))
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptFileError(f"{path}: bad checkpoint fields ({e!r})") from e
