"""Conditional VAE over pose deltas: encoder/decoder assembly, the step
loss, model bundling, and checkpoint IO.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ag
from .body import Skeleton, forward_kinematics, pose_dim, skeleton_from_text
from .container import read_container, write_container
from .errors import CorruptFileError, DimensionMismatchError, ModelMismatchError
from .intention import condition_dim
from .nn import (AdamState, GaussianParams, MlpConfig, ParameterStore,
                 init_mlp_params, mlp_forward)

CHECKPOINT_MAGIC = b"RGCK"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions of the delta autoencoder for one skeleton."""

    latent_dim: int
    n_rotated: int
    encoder: MlpConfig
    decoder: MlpConfig

    @property
    def condition_dim(self) -> int:
        return condition_dim(self.n_rotated)

    @classmethod
    def build(cls, n_rotated: int, latent_dim: int = 16, hidden_dim: int = 64,
              n_layers: int = 4, dropout: float = 0.1,
              layer_norm: bool = True) -> "ModelSpec":
        d = pose_dim(n_rotated)
        c = condition_dim(n_rotated)
        enc = MlpConfig(in_dim=d + c, out_dim=2 * latent_dim, hidden_dim=hidden_dim,
                        n_layers=n_layers, dropout=dropout, layer_norm=layer_norm)
        dec = MlpConfig(in_dim=latent_dim + c, out_dim=d, hidden_dim=hidden_dim,
                        n_layers=n_layers, dropout=dropout, layer_norm=layer_norm)
        return cls(latent_dim, n_rotated, enc, dec)

    def to_dict(self) -> dict:
        return {
            "latent_dim": self.latent_dim,
            "n_rotated": self.n_rotated,
            "encoder": asdict(self.encoder),
            "decoder": asdict(self.decoder),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(d["latent_dim"], d["n_rotated"],
                   MlpConfig(**d["encoder"]), MlpConfig(**d["decoder"]))


def init_params(spec: ModelSpec, seed: int) -> ParameterStore:
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    init_mlp_params(spec.encoder, store, "enc", rng)
    init_mlp_params(spec.decoder, store, "dec", rng)
    return store


def encode(spec: ModelSpec, store: ParameterStore, delta_vec, cond_vec,
           train: bool = False, dropout_seed: int | None = None,
           dropout_rows: tuple[int, int] | None = None) -> GaussianParams:
    """MLP over (delta, condition), split into mean and clamped log-std;
    `dropout_rows` as `nn._mlp` takes it."""
    x = ag.concatenate([delta_vec, cond_vec], axis=-1)
    if ag.value(x).shape[-1] != spec.encoder.in_dim:
        raise DimensionMismatchError("encoder input dim mismatch")
    out = mlp_forward(spec.encoder, store, x, prefix="enc", train=train,
                      dropout_seed=dropout_seed, dropout_rows=dropout_rows)
    return GaussianParams.from_stacked(out)


def decode(spec: ModelSpec, store: ParameterStore, z, cond_vec,
           train: bool = False, dropout_seed: int | None = None,
           dropout_rows: tuple[int, int] | None = None):
    """MLP over (latent, condition), returned in pose-delta vector layout;
    `dropout_rows` as `nn._mlp` takes it."""
    x = ag.concatenate([z, cond_vec], axis=-1)
    if ag.value(x).shape[-1] != spec.decoder.in_dim:
        raise DimensionMismatchError("decoder input dim mismatch")
    return mlp_forward(spec.decoder, store, x, prefix="dec", train=train,
                       dropout_seed=dropout_seed, dropout_rows=dropout_rows)


def compute_loss(true_delta_vec, pred_delta_vec, pred_pose, target_joints,
                 skeleton: Skeleton):
    """The step loss (rec, joint): the MSE of the predicted delta against the
    true one, and the MSE of the FK joints of `pred_pose`, the pose the
    predicted delta integrates to, against `target_joints` (..., n_joints, 3).

    Accepts batched inputs; both terms are averaged over batch rows. The
    caller integrates, so a rollout step feeds the same pose onward.
    """
    diff = pred_delta_vec - true_delta_vec
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
        h.update(json.dumps(self.spec.to_dict(), sort_keys=True).encode())
        h.update(self.skeleton.hash.encode())
        for name in self.params.names():
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()


def fresh_model(skeleton: Skeleton, latent_dim=16, hidden_dim=64, n_layers=4,
                dropout=0.1, seed=0) -> MotionModel:
    spec = ModelSpec.build(skeleton.n_rotated, latent_dim=latent_dim,
                           hidden_dim=hidden_dim, n_layers=n_layers, dropout=dropout)
    return MotionModel(spec, init_params(spec, seed), skeleton)


def save_checkpoint(model: MotionModel, path, adam_state=None,
                    train_meta: dict | None = None) -> None:
    """Container with params (+ optimizer moments) and configs.

    Byte-identical for identical contents; no timestamps.
    """
    arrays = {name: model.params[name].data for name in model.params.names()}
    adam_payload = None
    if adam_state is not None:
        adam_payload = {k: v for k, v in vars(adam_state).items() if k not in ("m", "v")}
        for name in model.params.names():
            if name in adam_state.m:
                arrays[f"adam.m.{name}"] = adam_state.m[name]
                arrays[f"adam.v.{name}"] = adam_state.v[name]
    header = {
        "spec": model.spec.to_dict(),
        "skeleton_text": model.skeleton.to_text(),
        "skeleton_hash": model.skeleton.hash,
        "meta": model.meta,
        "train_meta": train_meta,
        "adam": adam_payload,
    }
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, arrays)


def load_checkpoint(path, expected_skeleton_hash: str | None = None):
    """Returns (model, adam_state_or_None). Validates magic, version, size."""
    header, values = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    if expected_skeleton_hash is not None and header.get("skeleton_hash") != expected_skeleton_hash:
        raise ModelMismatchError(
            f"{path}: checkpoint skeleton {str(header.get('skeleton_hash'))[:12]} "
            f"does not match expected {expected_skeleton_hash[:12]}")
    try:
        skeleton = skeleton_from_text(header["skeleton_text"])
        spec = ModelSpec.from_dict(header["spec"])
        store = ParameterStore()
        param_names = [name for name in values if not name.startswith("adam.")]
        for name in param_names:
            store.add(name, values[name])
        model = MotionModel(spec, store, skeleton, meta=header.get("meta", {}))

        adam = None
        if header.get("adam"):
            adam = AdamState(**header["adam"])
            for name in param_names:
                if f"adam.m.{name}" in values:
                    adam.m[name] = values[f"adam.m.{name}"]
                    adam.v[name] = values[f"adam.v.{name}"]
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptFileError(f"{path}: bad checkpoint fields ({e!r})") from e
    return model, adam
