#!/usr/bin/env python3
"""One-shot tickets: co-train soft masks, threshold, verify by retraining.

The co-training phase optimizes the weights together with real-valued
masks over edges and weight entries. Thresholding the trained masks at a
global magnitude cut produces a binary (subgraph, subnetwork) pair, which
counts as a winning ticket when retraining it from the original
initialization matches the dense model.
"""

from fastglt import (ExperimentConfig, generate_sbm, glorot_params,
                     intermediate_sparsity)
from fastglt.baselines import run_dense, run_oneshot_only
from fastglt.masks import init_soft_masks, one_shot_threshold, sparsity
from fastglt.train import train_oneshot_phase

ds = generate_sbm(3, 60, 0.12, 0.025, 10, seed=3, mean_scale=0.25)
# One config describes every arm: 40 co-training epochs, and a full budget
# of 40 + 80 = 120 epochs for the dense arm and each verification retrain.
# Its precision (f32 by default) sets the dtype of the shared weights and
# of the soft masks below.
cfg = ExperimentConfig(epochs=40, denoise_epochs=80, lr=0.01, hidden=24,
                       seed=1)
params0 = glorot_params(ds.num_features, 24, ds.num_classes, seed=1,
                        dtype=cfg.dtype)

# --- the co-training phase --------------------------------------------------
params = params0.fresh_copy()
soft = init_soft_masks(ds, params.theta0.shape, params.theta1.shape, seed=1,
                       dtype=cfg.dtype)
phase = train_oneshot_phase(ds, params, soft, epochs=40, lr=0.01)
print(f"co-training: best val acc {phase.best_val_acc:.3f} at epoch "
      f"{phase.best_epoch}; masks snapshotted there")
m = phase.best_soft.edges
print(f"trained edge-mask values: min {m.min():.3f}, mean {m.mean():.3f}, "
      f"max {m.max():.3f}")

# --- thresholding -----------------------------------------------------------
# The decay function backs the landing sparsity off the target a little;
# the denoising stage (demo 04) walks the rest of the way.
for s_tgt in (0.3, 0.6, 0.9):
    s_inm = intermediate_sparsity(s_tgt)
    bits = one_shot_threshold(m, s_inm)
    print(f"target {s_tgt:.2f} -> intermediate {s_inm:.4f} -> "
          f"kept {int(bits.sum())}/{bits.size} "
          f"(achieved {sparsity(bits):.4f})")

# --- one-shot-only tickets vs the dense reference ----------------------------
dense = run_dense(ds, cfg.replace(method="dense"), params0)
print(f"\ndense reference: test acc {dense.report.acc_retrained:.3f}")
for s_g in (0.2, 0.4, 0.6):
    res = run_oneshot_only(ds, cfg.replace(method="oneshot", s_g=s_g,
                                           s_theta=0.5), params0)
    r = res.report
    tick = "winning" if r.acc_retrained >= dense.report.acc_retrained \
        else "below dense"
    print(f"one-shot (s_g={s_g:.1f}, s_theta=0.5): retrained "
          f"{r.acc_retrained:.3f} [{tick}], inference cost "
          f"{r.macs / r.dense_macs:.0%} of dense")
