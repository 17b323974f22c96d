#!/usr/bin/env python3
"""Gradual denoising: the interval scheduler, swap quotas, and a full run.

After one-shot thresholding, training continues in fixed-length intervals.
Each boundary drops the lowest-magnitude kept elements and regrows a
smaller number of pruned ones - weights by accumulated gradient, edges by
edge degree - so the mask walks an exact integer staircase down to the
target sparsity while bad early decisions stay correctable.
"""

import numpy as np

from fastglt import DenoiseSchedule, ExperimentConfig, SparsityPlan, \
    generate_sbm, glorot_params, run_fastglt
from fastglt.baselines import run_dense
from fastglt.denoise import denoise_ratio, interval_quotas

# --- schedule arithmetic ------------------------------------------------------
plan = SparsityPlan(s_g_tgt=0.40, s_theta_tgt=0.60)
sched = DenoiseSchedule.build(delta_t=10, total_epochs=80, tau=0.1,
                              kappa=1.0, edge_universe=1000,
                              weight_universe=4000, plan=plan)
print(f"denoising: {sched.total_epochs} epochs in {sched.mu_end} intervals "
      f"of {sched.delta_t}")
print(f"graph mask: keep {sched.graph.kept_start} -> "
      f"{sched.graph.kept_target}  (net removals {sched.graph.n_net})")
kept_e, kept_w = sched.graph.kept_start, sched.weights.kept_start
for mu in range(1, sched.mu_end + 1):
    q_g, q_t = interval_quotas(mu, sched, kept_e, kept_w)
    print(f"  interval {mu}: ratio {denoise_ratio(mu, sched):.4f}  "
          f"edges -{q_g.n_noisy}/+{q_g.n_potential}  "
          f"weights -{q_t.n_noisy}/+{q_t.n_potential}")
    kept_e += q_g.n_potential - q_g.n_noisy
    kept_w += q_t.n_potential - q_t.n_noisy
print(f"landing: {kept_e} kept edges (target {sched.graph.kept_target}), "
      f"{kept_w} kept weights (target {sched.weights.kept_target})")

# --- a full search on a synthetic graph ---------------------------------------
ds = generate_sbm(3, 60, 0.12, 0.025, 10, seed=3, mean_scale=0.25)
# 40 one-shot epochs, then 80 denoising epochs in intervals of 10; the
# dense arm and the verification retrain each get the full 120
cfg = ExperimentConfig(s_g=0.4, s_theta=0.6, epochs=40, denoise_epochs=80,
                       interval=10, lr=0.01, hidden=24, seed=1)
# the shared initialization takes the config's precision (f32 by default)
params0 = glorot_params(ds.num_features, 24, ds.num_classes, seed=1,
                        dtype=cfg.dtype)
dense = run_dense(ds, cfg.replace(method="dense"), params0)

res = run_fastglt(ds, cfg, params0)
r = res.report
print(f"\nsearch finished: s_g={r.s_g:.4f}, s_theta={r.s_theta:.4f} "
      f"(targets 0.4 / 0.6, landed within one element)")
print(f"dense {dense.report.acc_retrained:.3f} vs retrained ticket "
      f"{r.acc_retrained:.3f}; inference cost {r.macs / r.dense_macs:.0%} "
      f"of dense")

print("\nper-interval swaps:")
for rec in res.swaps:
    print(f"  mu={rec.interval}: edges -{rec.edges_removed.size}"
          f"/+{rec.edges_regrown.size} -> s_g {rec.s_g_after:.4f}   "
          f"weights -{rec.weights_removed.size}"
          f"/+{rec.weights_regrown.size} -> s_theta "
          f"{rec.s_theta_after:.4f}")
