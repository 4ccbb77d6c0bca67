"""Goal-reaching benchmark on the desk preset's grid: SR / FS / DTG plus
per-bucket success rates, written as CSV and SVG charts.

Run: python demos/03_train_desk_model.py first, then this (1-2 s on 2
cores: the 162 rollouts run 32 rows at a time through one batched loop).
"""
from reachgen.cli import PRESETS
from reachgen.evaluation import EvalConfig, emit_report, run_benchmark
from reachgen.model import load_checkpoint

model = load_checkpoint("demo_model.ckpt")

cfg = EvalConfig(**PRESETS["desk"]["eval"])
print(f"grid: {cfg.n_angles} angles x {cfg.n_heights} heights x "
      f"{cfg.n_distances} distances, {cfg.n_initial_poses} poses, "
      f"{cfg.samples_per_pair} samples -> {cfg.n_rollouts} rollouts")

report = run_benchmark(model, cfg, seed=0, workers=1)
print(f"SR  {report.sr * 100:.1f}%")
print(f"FS  {report.fs * 100:.1f}%")
print(f"DTG {report.dtg_cm:.1f} cm")
print(f"{report.n_failures} failed rollouts; FS over the rest "
      f"{report.fs_ok * 100:.1f}%")
print("SR by distance:", {f"{k:.2f}m": f"{v:.2f}" for k, v in
                          report.sr_by_distance.items()})

paths = emit_report(report, "demo_report")
print("report files:", *paths, sep="\n  ")
