"""Generate a small synthetic corpus and train the delta autoencoder on it.

Run: python demos/03_train_desk_model.py    (about 15 s)
"""
import numpy as np

from reachgen.body import desk_skeleton
from reachgen.dataset import (SyntheticGenConfig, filter_floating,
                              generate_synthetic_corpus, split_dataset)
from reachgen.model import save_checkpoint
from reachgen.training import TrainConfig, train

skel = desk_skeleton()
corpus = generate_synthetic_corpus(
    SyntheticGenConfig(n_locomotion=40, n_reaching=25, n_walk_reach=15, seed=0), skel)
corpus = filter_floating(corpus, skel)
split = split_dataset(corpus, seed=0)
train_set = [s for s in corpus if s.ident in split.train]
print(f"{len(corpus)} sequences, {len(train_set)} in the training split")

cfg = TrainConfig(epochs=15, batch_size=32, seed=0, windows_per_sequence=2)
model, rows = train(train_set, skel, cfg)
for epoch, s, rec, kl, joint, total, lr in rows[::3]:
    print(f"epoch {epoch:2d}  s={s:2d}  rec={rec:.5f}  kl={kl:.2f} "
          f" joint={joint:.5f}  total={total:.5f}  lr={lr:.2e}")

save_checkpoint(model, "demo_model.ckpt")
print("checkpoint written to demo_model.ckpt")
