"""Goal-conditioned human motion generation at desk scale.

Library layout:
  autodiff    reverse-mode AD over numpy float64 arrays
  geometry    6D rotation encoding/decoding, yaw, z-rotations
  body        skeletons, poses, yaw-canonical deltas, forward kinematics
  intention   goal-derived guidance features and condition assembly
  nn          MLP, Adam, Gaussian reparameterization, KL
  model       conditional VAE encode/decode, losses, checkpoints
  training    teacher-forcing + scheduled-rollout training loop
  dataset     synthetic corpus, preprocessing, window sampling, motion files
  container   the one versioned binary format behind .mot and .ckpt
  rollout     closed-loop autoregressive generation
  latent_opt  gradient refinement of rollout latents
  evaluation  goal grid, SR/FS/DTG metrics, report emission
  cli         operator command line
"""

__version__ = "0.1.0"
