"""Span tracer that wraps reachgen's public functions from outside the package.

Modules bind names with `from .x import f`, so a function is replaced at
every import site: each loaded `reachgen.*` module attribute that is the
original function object. Spans (name, start, end, parent) stay in memory
until `write` is called; self time is a span's duration minus the part
its child spans cover.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time


def _rows_of(args, kwargs):
    z = kwargs["z"] if "z" in kwargs else args[2]
    shape = getattr(z, "shape", ())
    rows = 1
    for d in shape[:-1]:
        rows *= d
    return rows


def _bytes_written(args, kwargs):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


def _tape_nodes(args, kwargs):
    return len(args[0])


def _frames(args, kwargs):
    return kwargs["duration"] if "duration" in kwargs else args[2]


# (module, attribute, extra counter measured per call or None)
TARGETS = [
    ("autodiff", "Tape.backward", ("nodes", _tape_nodes)),
    ("geometry", "sixd_to_matrix", None),
    ("body", "joint_position", None),
    ("body", "forward_kinematics", None),
    ("body", "integrate_delta", None),
    ("intention", "compute_intention", None),
    ("intention", "assemble_condition", None),
    ("nn", "mlp_forward", None),
    ("nn", "adam_step", None),
    ("model", "decode", ("rows", _rows_of)),
    ("model", "encode", None),
    ("model", "compute_loss", None),
    ("rollout", "rollout_poses", ("frames", _frames)),
    ("rollout", "generate", None),
    ("latent_opt", "optimize_latents", None),
    ("training", "train_epoch", None),
    ("training", "build_training_windows", None),
    ("evaluation", "distance_to_goal", None),
    ("evaluation", "foot_skate", None),
    ("evaluation", "run_benchmark", None),
    ("dataset", "generate_synthetic_corpus", None),
    ("dataset", "filter_floating", None),
    ("dataset", "save_motion", ("bytes", _bytes_written)),
    ("dataset", "load_motion", None),
    ("cli", "dispatch", None),
]
NAMES = [f"{mod}.{attr}" for mod, attr, _ in TARGETS]


class Tracer:
    """Records spans while installed; `install`/`uninstall` bracket one scope."""

    def __init__(self):
        self.spans: list = []          # (name index, start ns, end ns, parent)
        self.extra = [0] * len(TARGETS)
        self._stack: list[int] = []
        self._patches: list = []       # (owner, attribute, original)
        self._scopes: list = []        # (label, first span, end span, extra)

    def _wrap(self, idx, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.extra
        measure = extra[1] if extra else None

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[slot] = (idx, t0, t1, parent)
            if measure is not None:
                counts[idx] += measure(args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, label: str) -> None:
        """Wrap every target at every import site and open a scope."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "reachgen" or name.startswith("reachgen.")]
        for idx, (mod_name, attr, extra) in enumerate(TARGETS):
            mod = importlib.import_module(f"reachgen.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(idx, orig, extra))
                self._patches.append((owner, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(idx, orig, extra)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, orig))
        self._scopes.append((label, len(self.spans), None, list(self.extra)))

    def uninstall(self) -> None:
        """Restore every original binding and close the open scope."""
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        label, first, _, extra0 = self._scopes[-1]
        extra = [b - a for a, b in zip(extra0, self.extra)]
        self._scopes[-1] = (label, first, len(self.spans), extra)

    def scope_summary(self, i: int) -> dict:
        """Per-function calls, self seconds and extra counter of scope i."""
        _, first, end, extra = self._scopes[i]
        calls = [0] * len(TARGETS)
        self_ns = [0] * len(TARGETS)
        for j in range(first, end):
            idx, t0, t1, parent = self.spans[j]
            calls[idx] += 1
            self_ns[idx] += t1 - t0
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= t1 - t0
        return {name: {"calls": calls[k], "self_s": self_ns[k] * 1e-9,
                       "extra": extra[k]}
                for k, name in enumerate(NAMES)}

    def scopes(self, label: str) -> list[int]:
        return [i for i, s in enumerate(self._scopes) if s[0] == label]

    def write(self, path) -> None:
        """Dump every span, columnar, times in ns from the first span."""
        base = self.spans[0][1] if self.spans else 0
        payload = {
            "names": NAMES,
            "scopes": [{"label": s[0], "first": s[1], "end": s[2]}
                       for s in self._scopes],
            "name": [s[0] for s in self.spans],
            "start_ns": [s[1] - base for s in self.spans],
            "end_ns": [s[2] - base for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, separators=(",", ":"))
        os.replace(tmp, path)
