import dataclasses
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import fastglt.nn as nn
from fastglt.masks import BinaryMasks, init_soft_masks
from fastglt.nn import (SoftMasks, backward, evaluate_accuracy,
                        gcn_forward, glorot_params, masked_loss)

from conftest import random_dataset, tiny_dataset


def make_instance(rng, n, f=5, h=4, c=3, edge_prob=0.4, dtype=np.float64):
    ds = random_dataset(rng, n, num_features=f, num_classes=c,
                        edge_prob=edge_prob)
    params = glorot_params(f, h, c, seed=int(rng.integers(1 << 30)),
                           dtype=dtype)
    soft = init_soft_masks(ds, (f, h), (h, c),
                           seed=int(rng.integers(1 << 30)), dtype=dtype)
    # stretch soft masks away from 1 so their gradients are non-trivial
    soft.edges += rng.normal(0, 0.2, soft.edges.shape)
    soft.theta0[...] += rng.normal(0, 0.2, soft.theta0.shape)
    soft.theta1[...] += rng.normal(0, 0.2, soft.theta1.shape)
    return ds, params, soft


def sparse_feature_instance(rng, n=200, f=64, h=8, c=3, edge_prob=0.02,
                            dtype=np.float64):
    """Binary bag-of-words features at about 3% density."""
    ds, params, soft = make_instance(rng, n, f=f, h=h, c=c,
                                     edge_prob=edge_prob, dtype=dtype)
    feats = (rng.random((n, f)) < 0.03).astype(np.float32)
    ds = dataclasses.replace(ds, features=feats)
    assert sp.issparse(nn.feature_operator(ds, dtype))
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

def fd_pairs(ds, params, soft, binary, split, eps):
    """(central difference, analytic gradient) for every parameter and
    mask entry, the analytic one from the tensors' own dtype.

    The quotient divides by the step actually taken: ``orig +/- eps``
    rounds to the tensor's dtype. Coordinates whose +/-eps stencil flips a
    ReLU activation state are skipped: the difference quotient measures
    nothing meaningful across the kink, while the analytic gradient uses
    the one-sided derivative.
    """
    logits, cache = gcn_forward(params, soft, binary, ds)
    grads = backward(cache, ds.labels, split)

    def probe():
        lg, cc = gcn_forward(params, soft, binary, ds)
        return masked_loss(lg, ds.labels, split), cc.h1 > 0

    checks = [(params.weights, grads.theta), (soft.weights, grads.m_theta),
              (soft.edges, grads.m_edges)]
    for tensor, grad in checks:
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up, pat_up = probe()
            step = float(flat[k]) - float(orig)
            flat[k] = orig - eps
            down, pat_down = probe()
            step += float(orig) - float(flat[k])
            flat[k] = orig
            if np.array_equal(pat_up, pat_down):
                yield (up - down) / step, float(gflat[k])


def fd_check(ds, params, soft, binary, split, eps=1e-5):
    """Maximum relative error of the analytic gradients against central
    finite differences (``fd_pairs``) across d_theta, d_m_theta, d_m_g.

    The error denominator is floored at 1e-6 so that coordinates with
    near-zero gradients are judged on that absolute scale, where the
    difference quotient is dominated by float cancellation noise.
    """
    return max((abs(fd - g) / max(abs(fd), abs(g), 1e-6)
                for fd, g in fd_pairs(ds, params, soft, binary, split, eps)),
               default=0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(4):
        n = int(rng.integers(6, 20))
        ds, params, soft = make_instance(rng, n, f=4, h=3, c=3)
        split = ds.train_idx
        assert fd_check(ds, params, soft, None, split) < 1e-4
    ds, params, soft = sparse_feature_instance(rng, h=3)
    assert fd_check(ds, params, soft, None, ds.train_idx) < 1e-4


def test_gradients_match_finite_differences_with_binary():
    rng = np.random.default_rng(6)
    ds, params, soft = make_instance(rng, 12, f=4, h=3, c=3)
    binary = BinaryMasks(
        edges=rng.random(ds.num_edges) < 0.7,
        theta0=rng.random(params.theta0.shape) < 0.7,
        theta1=rng.random(params.theta1.shape) < 0.7)
    assert fd_check(ds, params, soft, binary, ds.train_idx) < 1e-4


def test_f32_gradients_match_finite_differences():
    """The f32 forward and backward against central differences of the
    f32 loss. With step h = eps^(1/3), eps = f32's machine epsilon, the
    quotient's rounding error (about eps * |loss| / h) and its truncation
    error (about h^2 times the loss's third derivative, over 6) are both
    O(eps^(2/3)) = 2.4e-5 for a loss of order 1, and the f32 backward adds
    O(eps) on top. Measured: at most 1.22 eps^(2/3) over these instances;
    the bound is 8 eps^(2/3), absolute plus relative to |gradient|. A
    wrong term is off by the size of the gradient itself (up to 1.65
    here), thousands of times the bound."""
    eps = float(np.finfo(np.float32).eps)
    h, tol = eps ** (1 / 3), 8 * eps ** (2 / 3)
    rng = np.random.default_rng(777)
    instances = [make_instance(rng, int(rng.integers(5, 21)), f=4, h=3, c=3,
                               dtype=np.float32) for _ in range(20)]
    ds, params, soft = instances[0]
    masked = BinaryMasks(edges=rng.random(ds.num_edges) < 0.7,
                         theta0=rng.random(params.theta0.shape) < 0.7,
                         theta1=rng.random(params.theta1.shape) < 0.7)
    checked = 0
    for i, (ds, params, soft) in enumerate(instances + [instances[0]]):
        binary = masked if i == len(instances) else None
        assert params.weights.dtype == soft.edges.dtype == np.float32
        for fd, g in fd_pairs(ds, params, soft, binary, ds.train_idx, h):
            assert abs(fd - g) <= tol * (1 + abs(g)), (i, fd, g)
            checked += 1
    assert checked > 1000


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
    assert params.layers(grads.theta)[0][1, 2] == 0.0
    assert params.layers(grads.dense)[0][1, 2] != 0.0


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
        grads.theta, grads.dense * soft.weights * binary.weights)


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


def reference_gradients(cache, labels, split):
    """Every ``Gradients`` field from the full-graph sweep: each product
    over all N rows, and the edge-mask gradient from one einsum over every
    stored entry, self-loops included and dropped afterwards. dW1 is
    summed over the nodes in row order by einsum, as the engine sums it:
    a BLAS product over nodes would round by the BLAS pool size."""
    dtype = cache.logits.dtype
    n, c = cache.logits.shape
    g2 = np.zeros((n, c), dtype=dtype)
    probs = nn._softmax_rows(cache.logits[split])
    probs[np.arange(split.size), labels[split]] -= 1.0
    g2[split] = probs / split.size
    a = cache.a_eff
    dh1w1 = a @ g2
    dw1 = np.einsum("ni,nj->ij", cache.h1, dh1w1)
    ds1 = (dh1w1 @ cache.w1_eff.T) * (cache.h1 > 0)
    dw0 = cache.x_op.T @ (a @ ds1)

    soft, params, binary = cache.soft, cache.params, cache.binary
    m_edges = None
    if soft.edges is not None:
        norm = cache.norm
        ri, ci = norm.entry_row, norm.entry_col
        xw0 = cache.xw0_rows(np.arange(n))
        d_entry = np.einsum("ij,ij->i", g2[ri], cache.h1w1[ci])
        d_entry += np.einsum("ij,ij->i", ds1[ri], xw0[ci])
        e_of = norm.edge_of_entry
        on_edge = e_of >= 0
        gate = norm.matrix.data[on_edge].astype(dtype)
        if binary is not None:
            gate = gate * binary.edges[e_of[on_edge]]
        m_edges = np.zeros(soft.edges.shape[0], dtype=dtype)
        np.add.at(m_edges, e_of[on_edge], d_entry[on_edge] * gate)

    def gated(x, *gates):
        for g in gates:
            if g is not None:
                x = x * g
        return x

    def pooled(x0, x1):
        return None if x0 is None else np.concatenate([x0.ravel(),
                                                       x1.ravel()])

    b0, b1 = (None, None) if binary is None else (binary.theta0, binary.theta1)
    return nn.Gradients(
        theta=pooled(gated(dw0, soft.theta0, b0), gated(dw1, soft.theta1, b1)),
        m_theta=None if soft.theta0 is None
        else pooled(gated(dw0, params.theta0, b0),
                    gated(dw1, params.theta1, b1)),
        m_edges=m_edges, dense=pooled(dw0, dw1))


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
    want = reference_gradients(cache, ds.labels, ds.train_idx).m_edges
    np.testing.assert_array_equal(got, want)
    if pruned == 1.0:
        assert not got.any()


def components_instance(rng, dtype, parts=4, size=20):
    """Paths with chords, one per component; the split is two nodes of
    the first component, so its 2-hop set is a strict subset of the nodes."""
    edges = []
    for k in range(parts):
        base = k * size
        edges += [(base + i, base + i + 1) for i in range(size - 1)]
        edges += [(base + i, base + i + 2) for i in range(0, size - 2, 5)]
    n = parts * size
    ds = tiny_dataset(sorted(edges), n, num_classes=3, num_features=5,
                      labels=rng.integers(0, 3, n))
    params = glorot_params(5, 16, 3, seed=int(rng.integers(1 << 30)),
                           dtype=dtype)
    soft = init_soft_masks(ds, (5, 16), (16, 3),
                           seed=int(rng.integers(1 << 30)), dtype=dtype)
    return ds, params, soft, np.array([12, 5])


def receptive_field(ds, binary, split):
    """Node counts of the split, its 1-hop set and its 2-hop set, read
    from the kept edges plus self-loops."""
    kept = ds.edges if binary is None else ds.edges[binary.edges]
    n = ds.num_nodes
    adj = sp.coo_matrix((np.ones(2 * len(kept)),
                         (np.r_[kept[:, 0], kept[:, 1]],
                          np.r_[kept[:, 1], kept[:, 0]])), shape=(n, n))
    adj = (adj + sp.eye(n)).tocsr()
    hop0 = np.zeros(n)
    hop0[split] = 1.0
    hop1 = (adj @ hop0) > 0
    hop2 = (adj @ hop1) > 0
    return split.size, int(hop1.sum()), int(hop2.sum())


ORACLE_GRAPHS = ["random", "pruned", "sparse_x", "one_node", "components",
                 "isolated_node"]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("trained", ["cotrain", "denoise", "theta"])
@pytest.mark.parametrize("kind", ORACLE_GRAPHS)
def test_backward_matches_full_graph_reference(kind, trained, dtype):
    """The receptive-field backward equals the full-graph sweep bit for
    bit, on every field, whatever the soft set, precision and graph."""
    rng = np.random.default_rng(ORACLE_GRAPHS.index(kind))
    binary = None
    if kind == "sparse_x":
        ds, params, soft = sparse_feature_instance(rng, dtype=dtype)
        split = ds.train_idx
    elif kind in ("components", "isolated_node"):
        ds, params, soft, split = components_instance(rng, dtype)
    else:
        ds, params, soft = make_instance(rng, 40, h=16, edge_prob=0.1,
                                         dtype=dtype)
        split = ds.train_idx[:1] if kind == "one_node" else ds.train_idx
    soft.edges += rng.normal(0, 0.2, soft.edges.shape).astype(dtype)
    if kind in ("pruned", "sparse_x"):
        binary = BinaryMasks(
            edges=rng.random(ds.num_edges) < 0.7,
            theta0=rng.random(params.theta0.shape) < 0.8,
            theta1=rng.random(params.theta1.shape) < 0.8)
        assert not binary.edges.all()
    if kind == "isolated_node":     # node 0 loses its edges: n1 is one node
        split = np.array([0])
        binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                      params.theta1.shape)
        binary.edges[(ds.edges == 0).any(axis=1)] = False
        assert receptive_field(ds, binary, split) == (1, 1, 1)
    if kind == "components":
        s, h1, h2 = receptive_field(ds, binary, split)
        assert s < h1 < h2 < ds.num_nodes
    soft = {"cotrain": soft, "denoise": SoftMasks(edges=soft.edges),
            "theta": SoftMasks()}[trained]

    _, cache = gcn_forward(params, soft, binary, ds)
    got = backward(cache, ds.labels, split)
    want = reference_gradients(cache, ds.labels, split)
    for name in ("theta", "m_theta", "m_edges", "dense"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            assert g.dtype == w.dtype == dtype, name
            np.testing.assert_array_equal(g, w, err_msg=name)
            assert g.tobytes() == w.tobytes(), name   # signed zeros too


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_logsumexp_rows_matches_scipy(dtype):
    """scipy.special is only the reference here; the engine does not load
    it. Random rows, rows with ties at the max, and rows with +-inf, NaN
    and an exp overflow."""
    from scipy.special import logsumexp
    rng = np.random.default_rng(2)
    z = rng.normal(0, 5, (140, 7))
    z[::3] = np.round(z[::3] / 4)            # frequent ties, at the max too
    z[10] = 3.0                              # the whole row tied
    z[11, 2] = np.inf
    z[12, :2] = np.inf
    z[13, 4] = -np.inf
    z[14] = -np.inf
    z[15, 1] = np.nan
    z[16] = np.nan
    z[17, :2] = [np.inf, -np.inf]
    z[18, 3] = 800.0                         # exp overflows in f64 and f32
    z[19, [0, 5]] = 90.0                     # a tied max that overflows f32
    z = z.astype(dtype)
    got, want = nn._logsumexp_rows(z), logsumexp(z, axis=1)
    assert got.dtype == want.dtype == dtype
    np.testing.assert_array_equal(got, want)
    finite = np.isfinite(want)
    assert got[finite].tobytes() == want[finite].tobytes()

    labels = rng.integers(0, 7, z.shape[0])
    for i in range(20, 140):                     # the finite rows, one by one
        assert masked_loss(z, labels, [i]) \
            == float(logsumexp(z[i]) - z[i, labels[i]]), i


def test_engine_does_not_load_scipy_special():
    code = ("import sys, fastglt.harness, fastglt.denoise\n"
            "print('scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def tile_units(dtype):
    """T, the hidden units of one tile of the layer-1 chain."""
    return nn._TILE_BYTES // np.dtype(dtype).itemsize


def stored_csr(rng, shape, density, dtype, index):
    """Random CSR with values over sixteen decades, so that any change in
    summation order shows in the last bits; every third row is empty.
    Its index arrays have the given dtype."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, shape)
    values[rng.random(shape) >= density] = 0.0
    values[::3] = 0.0
    a = sp.csr_matrix(values.astype(dtype))
    a.indices, a.indptr = a.indices.astype(index), a.indptr.astype(index)
    return a


# Share of the entries that X's CSR stores in its non-empty rows.
X_DENSITY = {"csr": 0.2, "dense": 1.0}


@pytest.mark.parametrize("index", [np.int32, np.int64])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("shape, density", [
    ((60, 40), 0.2),        # empty rows among full ones
    ((1, 40), 0.5),         # one row
    ((25, 40), 0.0),        # no stored entries
    ((2, 40), 0.5),         # two rows
])
def test_split_product_matches_scipy(monkeypatch, shape, density, parts,
                                     dtype, index):
    """A product split into column tiles over ``parts`` workers, as the
    layer-1 chain runs X@W0: each tile of ``w`` (the last one padded with
    zeros) goes through ``_matvecs`` into its block of a zeroed
    tile-major output. Reassembled, it equals scipy's ``a @ w`` bit for
    bit, in the same dtype, whatever the worker count."""
    rng = np.random.default_rng(shape[0])
    a = stored_csr(rng, shape, density, dtype, index)
    assert a.indptr.dtype == a.indices.dtype == index
    assert not np.diff(a.indptr)[::3].any()
    width = 2 * tile_units(dtype) + 3
    w = (rng.normal(size=(shape[1], width))
         * 10.0 ** rng.integers(-8, 8, (shape[1], 1))).astype(dtype)
    monkeypatch.setattr(nn.workers, "count", lambda: parts)
    k, t = nn._tiling(width, dtype)
    assert k == 3
    out = np.zeros((k, shape[0], t), dtype=dtype)

    def task(tiles):
        w_tile = np.zeros((shape[1], t), dtype=dtype)
        for j in tiles:
            w_tile[:, :min(t, width - j * t)] = w[:, j * t:j * t + t]
            nn._matvecs(nn._csr_parts(a), w_tile, out[j])

    nn._each_tile(k, task)
    got = out.transpose(1, 0, 2).reshape(shape[0], k * t)[:, :width]
    want = a @ w
    assert got.dtype == want.dtype == dtype
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("x_kind", ["csr", "dense"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("width", ["1", "T-1", "T", "T+1", "2T+3", "512"])
def test_tiled_chains_match_scipy(monkeypatch, width, dtype, x_kind):
    """The tiled layer-1 chains give the bits of the whole scipy chains:
    X@W0, A@XW0 and the ReLU in the forward, and A[n2][:, n1]@dS1 and
    X[n2]^T@dXW0 in the backward (every gradient against the full-graph
    sweep). This holds at any hidden width around
    the tile width T, in f32 and f64, with int32 and int64 indices, for an
    X that stores a fifth or all of its non-empty rows' entries, and at 1,
    2, 3 and 8 workers, more than there are tiles."""
    t = tile_units(dtype)
    h = {"1": 1, "T-1": t - 1, "T": t, "T+1": t + 1, "2T+3": 2 * t + 3,
         "512": 512}[width]
    rng = np.random.default_rng(h)
    ds, params, soft = make_instance(rng, 40, f=30, h=h, edge_prob=0.08,
                                     dtype=dtype)
    binary = BinaryMasks(edges=rng.random(ds.num_edges) < 0.8,
                         theta0=rng.random(params.theta0.shape) < 0.7,
                         theta1=rng.random(params.theta1.shape) < 0.7)
    split = ds.train_idx[:3]
    nodes = np.arange(ds.num_nodes)
    w0, w1 = params.layers(params.weights * soft.weights * binary.weights)
    runs = []
    for index in (np.int32, np.int64):
        x_op = stored_csr(np.random.default_rng(h), (40, 30),
                          X_DENSITY[x_kind], dtype, index)
        norm = nn.normalize_adjacency(ds, binary.edges)
        norm.matrix.indices = norm.matrix.indices.astype(index)
        norm.matrix.indptr = norm.matrix.indptr.astype(index)
        field = nn._receptive_field(norm, x_op, split)
        assert field.a21[1].dtype == index
        assert field.n2.size < ds.num_nodes
        for count in (1, 2, 3, 8):
            monkeypatch.setattr(nn.workers, "count", lambda: count)
            logits, full = gcn_forward(params, soft, binary, ds, norm=norm,
                                       x_op=x_op)
            a = full.a_eff
            xw0 = x_op @ w0
            h1 = np.maximum(a @ xw0, 0.0)
            assert full.xw0_rows(nodes).tobytes() == xw0.tobytes()
            assert full.h1.tobytes() == h1.tobytes()
            assert logits.tobytes() == (a @ (h1 @ w1)).tobytes()
            k, tw = nn._tiling(h, dtype)     # the last tile's padding is 0
            assert not full.xw0_tiles[-1, :, h - (k - 1) * tw:].any()

            want = reference_gradients(full, ds.labels, split)
            got = backward(full, ds.labels, split)
            for name in ("theta", "m_theta", "m_edges", "dense"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == dtype
                assert g.tobytes() == w.tobytes(), name
            runs.append([full.xw0_tiles, full.h1, got.dense, got.m_edges])
    for run in runs[1:]:
        assert all(x.tobytes() == y.tobytes() for x, y in zip(run, runs[0]))


def test_tiles_spread_evenly_over_workers(monkeypatch):
    """Tiles cover the hidden units with less padding than one column per
    tile, and worker w takes tiles w, w + p, ... of p workers; one tile
    runs on the calling thread alone, and no worker is handed no tile."""
    for h in (1, 63, 64, 65, 127, 128, 129, 259, 512, 513):
        k, t = nn._tiling(h, np.float64)
        assert t <= tile_units(np.float64) and 0 <= k * t - h < k
    assert nn._tiling(512, np.float64) == (4, 128)
    assert nn._tiling(512, np.float32) == (2, 256)

    seen, run = [], nn.workers.run

    def spy(task, parts):
        seen.append([list(tiles) for tiles, in parts])
        return run(task, parts)

    monkeypatch.setattr(nn.workers, "run", spy)
    for count, k in ((3, 7), (8, 2), (2, 1)):
        monkeypatch.setattr(nn.workers, "count", lambda: count)
        nn._each_tile(k, lambda tiles: None)
    assert seen == [[[0, 3, 6], [1, 4], [2, 5]], [[0], [1]], [[0]]]


@pytest.mark.parametrize("trained", ["cotrain", "theta"])
def test_split_forward_and_backward_match_one_worker(monkeypatch, trained):
    """Three tiles over three workers: the forward and every gradient are
    the one-worker bits. The adjacency holds one receptive-field record
    for the train rows, which the first backward builds and the next
    reuses; a new mask's adjacency builds its own."""
    rng = np.random.default_rng(7)
    ds, params, soft = sparse_feature_instance(
        rng, h=2 * tile_units(np.float64) + 3)
    assert nn._tiling(params.hidden, np.float64)[0] == 3
    binary = BinaryMasks(edges=rng.random(ds.num_edges) < 0.8,
                         theta0=rng.random(params.theta0.shape) < 0.8,
                         theta1=rng.random(params.theta1.shape) < 0.8)
    soft = soft if trained == "cotrain" else SoftMasks()
    norm = nn.normalize_adjacency(ds, binary.edges)
    runs = {}
    for count in (1, 3):
        monkeypatch.setattr(nn.workers, "count", lambda: count)
        norm._memo.clear()
        out, seen = [], []
        for _ in range(2):
            logits, cache = gcn_forward(params, soft, binary, ds, norm=norm)
            assert len(norm._memo) == len(seen)   # no forward builds one
            grads = backward(cache, ds.labels, ds.train_idx)
            seen.append(list(norm._memo.values()))
            # XW0 is kept only for the edge-mask gradient
            assert (cache.xw0_tiles is None) == (soft.edges is None)
            out += [logits, cache.h1, grads.theta, grads.dense]
            out += [] if grads.m_edges is None else [cache.xw0_tiles,
                                                     grads.m_edges]
        runs[count] = out
        record = seen[0][0]
        assert all(len(s) == 1 and s[0] is record for s in seen)
    for split, serial in zip(runs[3], runs[1]):
        assert split.tobytes() == serial.tobytes()

    remasked = BinaryMasks(edges=~binary.edges, theta0=binary.theta0,
                           theta1=binary.theta1)
    other = nn.normalize_adjacency(ds, remasked.edges)
    _, cache = gcn_forward(params, soft, remasked, ds, norm=other)
    backward(cache, ds.labels, ds.train_idx)
    (fresh,) = other._memo.values()
    assert fresh is not record and list(norm._memo.values()) == [record]


@pytest.mark.parametrize("isolated", [False, True])
@pytest.mark.parametrize("x_kind", ["dense", "csr"])
@pytest.mark.parametrize("seed", range(3))
def test_receptive_field_record_matches_brute_force(seed, x_kind, isolated):
    """The record's 1-hop and 2-hop sets, edge entries and X[n2]^T equal
    their definitions read off the dense masked adjacency, on random
    graphs and masks, with bag-of-words or dense Gaussian features (X is
    a CSR either way); ``isolated`` trains on one node whose edges are all
    masked. A second lookup with equal rows returns the same record."""
    rng = np.random.default_rng(seed)
    if x_kind == "csr":
        ds, _, _ = sparse_feature_instance(rng)
    else:
        ds, _, _ = make_instance(rng, 40, edge_prob=0.1)
    mask = rng.random(ds.num_edges) < 0.7
    rows = ds.train_idx
    if isolated:
        rows = rows[:1]
        mask[(ds.edges == rows[0]).any(axis=1)] = False
    norm = nn.normalize_adjacency(ds, mask)
    x_op = nn.feature_operator(ds, np.float64)
    assert isinstance(x_op, sp.csr_matrix)
    if x_kind == "dense":           # small, and every entry stored
        assert x_op.nnz == ds.features.size <= 4096
    field = nn._receptive_field(norm, x_op, rows)

    n = ds.num_nodes
    adj = np.eye(n, dtype=bool)
    kept = ds.edges[mask]
    adj[kept[:, 0], kept[:, 1]] = adj[kept[:, 1], kept[:, 0]] = True
    hop1 = adj[rows].any(axis=0)
    hop2 = adj[hop1].any(axis=0)
    np.testing.assert_array_equal(field.n1, np.flatnonzero(hop1))
    np.testing.assert_array_equal(field.n2, np.flatnonzero(hop2))
    if isolated:
        assert field.n1.tolist() == field.n2.tolist() == rows.tolist()
    else:
        assert hop2.sum() > hop1.sum() > rows.size

    # Edge entries: each kept (i, j), i != j, with i in n1, in stored order.
    want = sorted((i, j) for i, j in zip(*np.nonzero(adj))
                  if i != j and hop1[i])
    got = list(zip(norm.entry_row[field.edges].tolist(),
                   norm.entry_col[field.edges].tolist()))
    assert got == want and bool(want) != isolated
    assert (np.diff(field.edges) > 0).all()
    ends = np.sort(ds.edges[norm.edge_of_entry[field.edges]], axis=1)
    np.testing.assert_array_equal(ends, np.sort(np.array(want).reshape(-1, 2),
                                                axis=1))

    x = ds.features.astype(np.float64)
    assert field.x_t.has_sorted_indices
    np.testing.assert_array_equal(field.x_t.toarray(), x[hop2].T)
    assert field.x_op is x_op
    assert nn._receptive_field(norm, x_op, rows.copy()) is field
    assert len(norm._memo) == 1


@pytest.mark.parametrize("isolated", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_receptive_field_record_gathers_scipy_slices(seed, isolated):
    """The record's A[n2][:, n1], gathered from an effective adjacency's
    data, equals scipy's ``a[n2][:, n1]`` entry for entry, stored order
    and index dtype included."""
    rng = np.random.default_rng(seed)
    ds, _, _ = sparse_feature_instance(rng)
    mask = rng.random(ds.num_edges) < 0.7
    rows = ds.train_idx
    if isolated:
        rows = rows[:1]
        mask[(ds.edges == rows[0]).any(axis=1)] = False
    norm = nn.normalize_adjacency(ds, mask)
    soft = rng.normal(1.0, 0.2, ds.num_edges)
    a = norm.effective(soft)
    field = nn._receptive_field(norm, nn.feature_operator(ds), rows)
    n1, n2 = field.n1, field.n2
    indptr, indices, data, n_cols = field.a_n2_n1(a)
    want = a[n2][:, n1]
    assert n_cols == want.shape[1]
    assert indptr.dtype == indices.dtype == want.indices.dtype
    assert indptr.tolist() == want.indptr.tolist()
    assert indices.tolist() == want.indices.tolist()
    assert data.tobytes() == want.data.tobytes()
    assert (field.a21[1].size > 0) and bool(isolated) == (n2.size == 1)


def test_forward_and_backward_make_no_weight_sized_gating_temporary(
        monkeypatch):
    """One co-training forward and backward on a CSR X: the forward gates
    W0 a tile at a time, so its peak is the tile-major XW0, h1 and each
    worker's scratch; the backward holds its three pooled outputs (dense,
    theta and m_theta gradients), each gated into one fresh buffer, and
    the per-worker scratch of its tiles. Neither allocates a W0-sized
    temporary on top, which the bound would catch: the slack it leaves is
    a small share of W0."""
    import tracemalloc

    rng = np.random.default_rng(5)
    n, f, h = 120, 2000, 512
    ds, params, soft = sparse_feature_instance(rng, n=n, f=f, h=h)
    binary = BinaryMasks(edges=rng.random(ds.num_edges) < 0.8,
                         theta0=rng.random(params.theta0.shape) < 0.5,
                         theta1=rng.random(params.theta1.shape) < 0.5)
    norm = nn.normalize_adjacency(ds, binary.edges)
    x_op = nn.feature_operator(ds, np.float64)
    nn._receptive_field(norm, x_op, ds.train_idx)          # built once
    monkeypatch.setattr(nn.workers, "count", lambda: 2)
    item = 8
    k, t = nn._tiling(h, np.float64)
    workers = 2
    w0_bytes = f * h * item
    pool_bytes = params.weights.size * item
    xw0_bytes, h1_bytes = k * n * t * item, n * h * item
    tile_scratch = workers * (f + 2 * n) * t * item
    slack = w0_bytes // 8

    tracemalloc.start()
    try:
        _, cache = gcn_forward(params, soft, binary, ds, norm=norm,
                               x_op=x_op)
        _, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        grads = backward(cache, ds.labels, ds.train_idx)
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grads.m_theta is not None
    assert forward_peak <= xw0_bytes + h1_bytes + tile_scratch + slack
    assert backward_peak - held <= 3 * pool_bytes + tile_scratch + slack
    assert tile_scratch + slack < w0_bytes
