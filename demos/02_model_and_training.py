#!/usr/bin/env python3
"""The masked two-layer GCN engine: forward pass, gradients, training.

Shows that the sparse forward agrees with a dense-matrix evaluation, that
the analytic gradients agree with finite differences, and that the dense
reference model trains to a sensible accuracy on a synthetic graph.
"""

import numpy as np

from fastglt import generate_sbm, glorot_params
from fastglt.masks import BinaryMasks, init_soft_masks
from fastglt.nn import backward, gcn_forward, masked_loss
from fastglt.train import train_theta_only

ds = generate_sbm(3, 40, 0.2, 0.03, 8, seed=7)
params = glorot_params(ds.num_features, hidden=16,
                       num_classes=ds.num_classes, seed=0)
soft = init_soft_masks(ds, params.theta0.shape, params.theta1.shape, seed=0)

# --- forward vs a dense oracle --------------------------------------------
logits, cache = gcn_forward(params, soft, None, ds)
n = ds.num_nodes
ab = np.zeros((n, n))
for idx, (i, j) in enumerate(ds.edges):
    ab[i, j] = ab[j, i] = 1.0
a_tilde = ab + np.eye(n)
inv = np.diag(1.0 / np.sqrt(a_tilde.sum(1)))
norm = inv @ a_tilde @ inv
a_eff = norm.copy()
for idx, (i, j) in enumerate(ds.edges):
    a_eff[i, j] *= soft.edges[idx]
    a_eff[j, i] *= soft.edges[idx]
x = ds.features.astype(float)
dense = a_eff @ (np.maximum(a_eff @ x @ (params.theta0 * soft.theta0), 0)
                 @ (params.theta1 * soft.theta1))
print(f"forward vs dense oracle: max |diff| = "
      f"{np.abs(logits - dense).max():.2e}")

# --- gradients vs finite differences ---------------------------------------
grads = backward(cache, ds.labels, ds.train_idx)
eps = 1e-6
k = 3  # spot-check one edge coordinate
orig = soft.edges[k]
soft.edges[k] = orig + eps
up = masked_loss(gcn_forward(params, soft, None, ds)[0], ds.labels,
                 ds.train_idx)
soft.edges[k] = orig - eps
down = masked_loss(gcn_forward(params, soft, None, ds)[0], ds.labels,
                   ds.train_idx)
soft.edges[k] = orig
fd = (up - down) / (2 * eps)
print(f"edge-mask gradient[{k}]: analytic {grads.m_edges[k]:+.6e}, "
      f"finite diff {fd:+.6e}")

# --- a pruned weight still reports its dense-position gradient -------------
binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                              params.theta1.shape)
binary.theta0[2, 5] = False
_, cache = gcn_forward(params, soft, binary, ds)
g = backward(cache, ds.labels, ds.train_idx)
# weight-shaped gradients are pooled; params.layers views them per layer
d_theta0, dense0 = params.layers(g.theta)[0], params.layers(g.dense)[0]
print(f"pruned weight (2,5): d_theta={d_theta0[2, 5]:.1e} (masked), "
      f"dense-position gradient={dense0[2, 5]:+.3e}")

# --- dense training ---------------------------------------------------------
result = train_theta_only(ds, params, None, epochs=120, lr=0.01)
print(f"\ndense training: best val acc {result.best_val_acc:.3f} at epoch "
      f"{result.best_epoch}, test acc there {result.test_at_best:.3f}")
