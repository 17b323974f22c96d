import numpy as np
import pytest

import fastglt.nn as nn
from fastglt.masks import BinaryMasks, init_soft_masks
from fastglt.nn import (SoftMasks, backward, evaluate_accuracy,
                        gcn_forward, glorot_params, masked_loss)

from conftest import random_dataset, tiny_dataset


def make_instance(rng, n, f=5, h=4, c=3, edge_prob=0.4):
    ds = random_dataset(rng, n, num_features=f, num_classes=c,
                        edge_prob=edge_prob)
    params = glorot_params(f, h, c, seed=int(rng.integers(1 << 30)))
    soft = init_soft_masks(ds, (f, h), (h, c),
                           seed=int(rng.integers(1 << 30)))
    # stretch soft masks away from 1 so their gradients are non-trivial
    soft.edges += rng.normal(0, 0.2, soft.edges.shape)
    soft.theta0 += rng.normal(0, 0.2, soft.theta0.shape)
    soft.theta1 += rng.normal(0, 0.2, soft.theta1.shape)
    return ds, params, soft


def dense_forward_oracle(ds, params, soft, binary=None):
    """Dense-matrix evaluation of the masked two-layer model."""
    n = ds.num_nodes
    # normalization support: binary-masked graph plus self-loops
    ab = np.zeros((n, n))
    for idx, (i, j) in enumerate(ds.edges):
        if binary is None or binary.edges[idx]:
            ab[i, j] = ab[j, i] = 1.0
    a_tilde = ab + np.eye(n)
    d = a_tilde.sum(axis=1)
    inv = np.diag(1.0 / np.sqrt(d))
    norm = inv @ a_tilde @ inv
    # kept-edge entries are additionally scaled by the soft mask
    a_eff = norm.copy()
    for idx, (i, j) in enumerate(ds.edges):
        if binary is None or binary.edges[idx]:
            a_eff[i, j] = norm[i, j] * soft.edges[idx]
            a_eff[j, i] = norm[j, i] * soft.edges[idx]
    w0 = params.theta0 * soft.theta0
    w1 = params.theta1 * soft.theta1
    if binary is not None:
        w0 = w0 * binary.theta0
        w1 = w1 * binary.theta1
    x = ds.features.astype(np.float64)
    return a_eff @ (np.maximum(a_eff @ x @ w0, 0.0) @ w1)


def test_zero_weights_give_uniform_softmax():
    rng = np.random.default_rng(0)
    ds, params, soft = make_instance(rng, 8)
    params.theta0[:] = 0.0
    params.theta1[:] = 0.0
    logits, _ = gcn_forward(params, soft, None, ds)
    np.testing.assert_allclose(logits, 0.0)
    assert masked_loss(logits, ds.labels, ds.train_idx) == \
        pytest.approx(np.log(ds.num_classes))


def test_all_edges_masked_equals_mlp():
    rng = np.random.default_rng(1)
    ds, params, soft = make_instance(rng, 9)
    binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                  params.theta1.shape)
    binary = BinaryMasks(edges=np.zeros(ds.num_edges, dtype=bool),
                         theta0=binary.theta0, theta1=binary.theta1)
    logits, _ = gcn_forward(params, soft, binary, ds)
    x = ds.features.astype(np.float64)
    want = np.maximum(x @ (params.theta0 * soft.theta0), 0.0) \
        @ (params.theta1 * soft.theta1)
    np.testing.assert_allclose(logits, want, atol=1e-12)


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(8):
        ds, params, soft = make_instance(rng, 12)
        binary = BinaryMasks(
            edges=rng.random(ds.num_edges) < 0.7,
            theta0=rng.random(params.theta0.shape) < 0.8,
            theta1=rng.random(params.theta1.shape) < 0.8)
        logits, _ = gcn_forward(params, soft, binary, ds)
        want = dense_forward_oracle(ds, params, soft, binary)
        np.testing.assert_allclose(logits, want, atol=1e-10)


def test_forward_matches_dense_oracle_no_binary():
    rng = np.random.default_rng(3)
    for n in (5, 12, 30, 50):
        ds, params, soft = make_instance(rng, n)
        logits, _ = gcn_forward(params, soft, None, ds)
        want = dense_forward_oracle(ds, params, soft)
        np.testing.assert_allclose(logits, want, atol=1e-10)


def naive_loss_oracle(logits, labels, split):
    total = 0.0
    for i in split:
        p = np.exp(logits[i]) / np.exp(logits[i]).sum()
        total += -np.log(p[labels[i]])
    return total / len(split)


def test_loss_uniform_seven_classes():
    logits = np.zeros((10, 7))
    labels = np.arange(10) % 7
    split = np.arange(10)
    assert masked_loss(logits, labels, split) == pytest.approx(np.log(7.0))


def test_loss_saturates_to_zero():
    labels = np.array([0, 1, 2])
    logits = np.full((3, 3), -50.0)
    logits[np.arange(3), labels] = 50.0
    assert masked_loss(logits, labels, np.arange(3)) < 1e-12


def test_loss_matches_naive_oracle():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(20, 5))
    labels = rng.integers(0, 5, 20)
    split = rng.choice(20, size=9, replace=False)
    assert masked_loss(logits, labels, split) == \
        pytest.approx(naive_loss_oracle(logits, labels, split), abs=1e-12)


def test_loss_empty_split():
    with pytest.raises(ValueError, match="empty split"):
        masked_loss(np.zeros((3, 2)), np.zeros(3, dtype=int), np.array([]))


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def fd_check(ds, params, soft, binary, split, eps=1e-5):
    """Central finite differences for every parameter and mask entry.

    Returns the maximum relative error across d_theta, d_m_theta, d_m_g.
    Coordinates whose +/-eps stencil flips a ReLU activation state are
    excluded: the difference quotient measures nothing meaningful across
    the kink, while the analytic gradient uses the one-sided derivative.
    The error denominator is floored at 1e-6 so that coordinates with
    near-zero gradients are judged on that absolute scale, where the
    difference quotient is dominated by float cancellation noise.
    """
    logits, cache = gcn_forward(params, soft, binary, ds)
    grads = backward(cache, ds.labels, split)

    def probe():
        lg, cc = gcn_forward(params, soft, binary, ds)
        return masked_loss(lg, ds.labels, split), cc.s1 > 0

    checks = [
        (params.theta0, grads.theta0), (params.theta1, grads.theta1),
        (soft.theta0, grads.m_theta0), (soft.theta1, grads.m_theta1),
        (soft.edges, grads.m_edges),
    ]
    worst = 0.0
    for tensor, grad in checks:
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up, pat_up = probe()
            flat[k] = orig - eps
            down, pat_down = probe()
            flat[k] = orig
            if not np.array_equal(pat_up, pat_down):
                continue
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(gflat[k]), 1e-6)
            worst = max(worst, abs(fd - gflat[k]) / denom)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(4):
        n = int(rng.integers(6, 20))
        ds, params, soft = make_instance(rng, n, f=4, h=3, c=3)
        split = ds.train_idx
        assert fd_check(ds, params, soft, None, split) < 1e-4


def test_gradients_match_finite_differences_with_binary():
    rng = np.random.default_rng(6)
    ds, params, soft = make_instance(rng, 12, f=4, h=3, c=3)
    binary = BinaryMasks(
        edges=rng.random(ds.num_edges) < 0.7,
        theta0=rng.random(params.theta0.shape) < 0.7,
        theta1=rng.random(params.theta1.shape) < 0.7)
    assert fd_check(ds, params, soft, binary, ds.train_idx) < 1e-4


def test_edge_outside_receptive_field_has_zero_gradient():
    # path 0-1-2-3-4-5; labels only on node 0; edge (4,5) is more than
    # two hops from every labeled node, so its mask gradient vanishes
    import dataclasses
    ds = tiny_dataset([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 6,
                      labels=[0, 1, 0, 1, 0, 1])
    ds = dataclasses.replace(ds, train_idx=np.array([0]),
                             val_idx=np.array([1]), test_idx=np.array([2]))
    params = glorot_params(3, 4, 2, seed=0)
    soft = SoftMasks.identity(ds.num_edges, (3, 4), (4, 2))
    logits, cache = gcn_forward(params, soft, None, ds)
    grads = backward(cache, ds.labels, ds.train_idx)
    assert grads.m_edges[4] == 0.0          # edge (4,5)
    assert abs(grads.m_edges[0]) > 0.0      # edge (0,1) is in range


def test_pruned_weight_dense_gradient_survives():
    rng = np.random.default_rng(7)
    ds, params, soft = make_instance(rng, 10)
    binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                  params.theta1.shape)
    binary.theta0[1, 2] = False
    logits, cache = gcn_forward(params, soft, binary, ds)
    grads = backward(cache, ds.labels, ds.train_idx)
    assert grads.theta0[1, 2] == 0.0
    assert grads.theta0_dense[1, 2] != 0.0


def test_masking_consistency_loss_independent_of_pruned_weight():
    rng = np.random.default_rng(8)
    ds, params, soft = make_instance(rng, 10)
    binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                  params.theta1.shape)
    binary.theta0[2, 1] = False
    logits, _ = gcn_forward(params, soft, binary, ds)
    base = masked_loss(logits, ds.labels, ds.train_idx)
    params.theta0[2, 1] += 123.0
    logits, _ = gcn_forward(params, soft, binary, ds)
    assert masked_loss(logits, ds.labels, ds.train_idx) == pytest.approx(base)


def test_dense_gradient_equals_masked_gradient_relation():
    rng = np.random.default_rng(9)
    ds, params, soft = make_instance(rng, 10)
    binary = BinaryMasks(
        edges=np.ones(ds.num_edges, dtype=bool),
        theta0=rng.random(params.theta0.shape) < 0.6,
        theta1=rng.random(params.theta1.shape) < 0.6)
    _, cache = gcn_forward(params, soft, binary, ds)
    grads = backward(cache, ds.labels, ds.train_idx)
    np.testing.assert_allclose(
        grads.theta0, grads.theta0_dense * soft.theta0 * binary.theta0)


def test_evaluate_accuracy_one_hot_and_ties():
    ds = tiny_dataset([(0, 1)], 4, num_classes=3, labels=[0, 1, 2, 0])
    params = glorot_params(3, 4, 3, seed=0)
    soft = SoftMasks.identity(1, (3, 4), (4, 3))
    onehot = np.eye(3)[ds.labels]
    assert evaluate_accuracy(params, soft, None, ds, np.arange(4),
                             logits=onehot) == 1.0
    uniform = np.zeros((4, 3))
    # ties break to class 0: accuracy = frequency of class 0
    assert evaluate_accuracy(params, soft, None, ds, np.arange(4),
                             logits=uniform) == pytest.approx(0.5)


def test_evaluate_accuracy_empty_split():
    ds = tiny_dataset([(0, 1)], 2)
    params = glorot_params(3, 4, 2, seed=0)
    soft = SoftMasks.identity(1, (3, 4), (4, 2))
    with pytest.raises(ValueError):
        evaluate_accuracy(params, soft, None, ds, np.array([], dtype=int))


def test_forward_shape_mismatch():
    ds = tiny_dataset([(0, 1)], 2)
    params = glorot_params(3, 4, 2, seed=0)
    soft = SoftMasks.identity(99, (3, 4), (4, 2))
    with pytest.raises(ValueError):
        gcn_forward(params, soft, None, ds)


def reference_m_edges(cache, labels, split):
    """Edge-mask gradient from one einsum over every stored entry,
    self-loops included and dropped afterwards."""
    n, c = cache.logits.shape
    g2 = np.zeros((n, c))
    probs = nn._softmax_rows(cache.logits[split])
    probs[np.arange(split.size), labels[split]] -= 1.0
    g2[split] = probs / split.size
    dh1 = (cache.a_eff @ g2) @ cache.w1_eff.T
    ds1 = dh1 * (cache.s1 > 0)

    norm = cache.norm
    ri, ci = norm.entry_row, norm.entry_col
    d_entry = np.einsum("ij,ij->i", g2[ri], cache.h1w1[ci])
    d_entry += np.einsum("ij,ij->i", ds1[ri], cache.xw0[ci])
    e_of = norm.edge_of_entry
    on_edge = e_of >= 0
    gate = norm.matrix.data[on_edge]
    if cache.binary is not None:
        gate = gate * cache.binary.edges[e_of[on_edge]]
    want = np.zeros(cache.soft.edges.shape[0])
    np.add.at(want, e_of[on_edge], d_entry[on_edge] * gate)
    return want


@pytest.mark.parametrize("n, edge_prob, pruned", [
    (60, 0.2, 0.0),      # several blocks and a partial last one
    (8, 0.4, 0.3),       # fewer edge entries than one block
    (12, 0.4, 1.0),      # every edge pruned: no edge entries at all
])
def test_edge_gradient_matches_all_entry_einsum(n, edge_prob, pruned):
    rng = np.random.default_rng(n)
    ds, params, soft = make_instance(rng, n, h=16, edge_prob=edge_prob)
    binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                  params.theta1.shape)
    binary = BinaryMasks(edges=rng.random(ds.num_edges) >= pruned,
                         theta0=binary.theta0, theta1=binary.theta1)
    _, cache = gcn_forward(params, soft, binary, ds)
    entries = int(np.count_nonzero(cache.norm.edge_of_entry >= 0))
    block = nn._SDDMM_BLOCK
    if pruned == 1.0:
        assert entries == 0
    elif n == 8:
        assert 0 < entries < block
    else:
        assert entries > 2 * block and entries % block
    got = backward(cache, ds.labels, ds.train_idx).m_edges
    want = reference_m_edges(cache, ds.labels, ds.train_idx)
    np.testing.assert_array_equal(got, want)
    if pruned == 1.0:
        assert not got.any()
