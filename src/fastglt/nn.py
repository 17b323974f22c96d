"""Masked 2-layer GCN: forward pass, cross-entropy loss, analytic gradients.

The model is Softmax(A_hat ReLU(A_hat X W0) W1) where A_hat is the
degree-normalized adjacency of the binary-masked graph (self-loops added)
and each kept-edge entry is further scaled by the trainable soft edge mask.
Effective weights are theta * soft_mask * binary_mask elementwise; an absent
(None) mask is a factor of 1, neither multiplied nor differentiated.

Normalization is only recomputed when the binary edge mask changes (phase
starts, swap boundaries); within a phase the soft mask scales A_hat entries
on its fixed support, so edge-mask gradients stay local to each edge.

The loss reads only the split's logits, so ``backward`` computes on the
split's receptive field: its cost follows the split's 2-hop set, not the
node count, and its gradients equal the full-graph sweep bit for bit. A
forward given the split's ``rows`` is restricted the same way. The
feature operator is built once per dataset and dtype and then shared;
what a split's loss reads of one mask (its receptive field, X's rows
there, the edge entries in its 1-hop rows) is built once per mask.

The wide sparse products (X@W0, A@XW0 and their backward terms) split
their rows across the engine's workers (``fastglt.workers``); every row is
summed as scipy's own product sums it, so no bit depends on the count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import workers
from .config import ExperimentConfig
from .data import Dataset
from .graph import NormAdj, normalize_adjacency
from .masks import (BinaryMasks, PooledWeights, SoftMasks, grow_pool,
                    pool_weights)

# Feature matrices at or below this density run through scipy CSR; the
# planetoid bag-of-words matrices sit around 1% and dominate the epoch cost
# if multiplied densely.
_SPARSE_X_DENSITY = 0.25

# Edge entries per block of the edge-mask gradient (an SDDMM). The two
# gathered (block, H) operands of a block, 1 MB in f64 at H=512, stay in L2
# instead of spanning nnz; larger blocks measured slower on the Cora shape.
_SDDMM_BLOCK = 128

# Least multiply-adds per part of a split sparse product: about 0.3 ms of
# X@W0 work on the Cora shape, ten times the ~30 us it costs to hand a
# part to a worker and wait for it. A smaller product runs whole on the
# calling thread.
_PART_MIN_WORK = 1 << 19


class GcnParams(PooledWeights):
    """Two weight matrices, theta0 (F, H) and theta1 (H, C), pooled in
    ``weights``, plus ``init``, a frozen copy of their initialization in
    the same layout. The constructor pools copies of the layers and
    takes its ``init`` from them."""

    def __init__(self, theta0: np.ndarray, theta1: np.ndarray):
        self._pool(theta0, theta1)
        self.init = self.weights.copy()
        self.init.setflags(write=False)

    @property
    def hidden(self) -> int:
        return self.shapes[0][1]

    def rewind(self) -> None:
        """Reset trainable weights to the recorded initialization, in place:
        views of ``weights`` stay valid."""
        np.copyto(self.weights, self.init)

    def fresh_copy(self) -> "GcnParams":
        """New params starting from the same initialization."""
        return GcnParams.pooled(self.init.copy(), self.shapes, init=self.init)


def glorot_params(num_features: int, hidden: int, num_classes: int,
                  seed: int, dtype=np.float64) -> GcnParams:
    """Glorot-uniform initialized weights with the init snapshot taken."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E7A]))

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, (fan_in, fan_out)).astype(dtype)

    shapes = ((num_features, hidden), (hidden, num_classes))
    init = pool_weights(*(glorot(*shape) for shape in shapes))
    init.setflags(write=False)
    return GcnParams.pooled(init.copy(), shapes, init=init)


def arm_params(dataset: Dataset, params0: GcnParams | None,
               config: ExperimentConfig) -> GcnParams:
    """Starting weights of one method arm: a fresh copy of the shared
    initialization ``params0`` when given, else a new Glorot draw from the
    config's width, seed and precision. Every arm calls it first, so it
    validates the config for them."""
    config.validate()
    if params0 is not None:
        return params0.fresh_copy()
    return glorot_params(dataset.num_features, config.hidden,
                         dataset.num_classes, seed=config.seed,
                         dtype=config.dtype)


@dataclass
class Gradients:
    """Loss gradients for the weights, the soft masks, and the dense weight
    positions; every weight-shaped field is a pooled buffer.

    ``dense`` is the gradient with respect to the effective (post mask)
    weight slot, defined on every entry including pruned ones; it is what
    the denoiser accumulates to rank regrowth candidates. ``m_*`` is None
    where the forward pass had no soft mask.
    """

    theta: np.ndarray
    m_theta: np.ndarray | None
    m_edges: np.ndarray | None
    dense: np.ndarray

    def dense_flat(self) -> np.ndarray:
        return self.dense


@dataclass
class ForwardCache:
    """Activations and operators retained for the backward pass.

    ``rows`` is None for a full forward; otherwise only those rows' logits
    are valid (see ``gcn_forward``).
    """

    a_eff: sp.csr_matrix
    norm: NormAdj
    x_op: object                 # csr_matrix or ndarray, engine dtype
    w1_eff: np.ndarray
    xw0: np.ndarray
    h1: np.ndarray               # ReLU(A @ XW0)
    h1w1: np.ndarray
    logits: np.ndarray
    params: GcnParams
    soft: SoftMasks
    binary: BinaryMasks | None
    rows: np.ndarray | None = None


def feature_operator(dataset: Dataset, dtype=np.float64):
    """Features as CSR when sparse enough to pay off, dense otherwise.

    Built once per dataset and dtype and memoized on the dataset; every
    caller shares the one operator, which is only ever read.
    """
    key = ("x_op", np.dtype(dtype))
    x_op = dataset._memo.get(key)
    if x_op is None:
        x = dataset.features
        density = np.count_nonzero(x) / max(x.size, 1)
        if density <= _SPARSE_X_DENSITY and x.size > 4096:
            x_op = sp.csr_matrix(x.astype(dtype))
        else:
            x_op = np.ascontiguousarray(x.astype(dtype))
        dataset._memo[key] = x_op
    return x_op


def _gated(x: np.ndarray, *gates) -> np.ndarray:
    """x times each gate in turn; an absent (None) gate is a factor of 1."""
    for gate in gates:
        if gate is not None:
            x = x * gate
    return x


def gcn_forward(params: GcnParams, soft: SoftMasks,
                binary: BinaryMasks | None, dataset: Dataset,
                norm: NormAdj | None = None, x_op=None,
                rows: np.ndarray | None = None
                ) -> tuple[np.ndarray, ForwardCache]:
    """Run the masked model; returns pre-softmax logits and the cache.

    ``norm`` may be passed in to avoid renormalizing every step; it must
    have been built from the same binary edge mask. ``x_op`` likewise caches
    the feature operator.

    Given ``rows``, only their receptive field is computed: X@W0 on their
    2-hop set (for a CSR X; a dense X runs in full), A@XW0 and the ReLU on
    their 1-hop set; the other rows of ``xw0`` and ``h1`` are zero. For
    finite activations, the rows' logits and the gradients of a loss over
    them equal the full forward's bit for bit: the restricted products
    are scipy CSR ones that sum each row as the full product does, and
    the BLAS products keep their full shape. Every other logit is
    meaningless, so such a forward serves training only.
    """
    dtype = params.weights.dtype
    if norm is None:
        norm = normalize_adjacency(
            dataset, binary.edges if binary is not None else None)
    if x_op is None:
        x_op = feature_operator(dataset, dtype)

    if soft.weights is not None and soft.shapes != params.shapes:
        raise ValueError("soft mask shapes do not match the weights")
    if soft.edges is not None and soft.edges.shape != (dataset.num_edges,):
        raise ValueError("soft edge mask does not index the edge list")

    a_eff = norm.effective(soft.edges, dtype=dtype)
    w0, w1 = params.layers(_gated(
        params.weights, soft.weights,
        None if binary is None else binary.weights))
    w1 = w1.copy()      # the cache keeps W1: let the gated pool go with W0

    if rows is None:
        xw0 = _csr_product(x_op, w0) if sp.issparse(x_op) else x_op @ w0
        h1 = _csr_product(a_eff, xw0)
        np.maximum(h1, 0.0, out=h1)
    else:
        field = _receptive_field(norm, x_op, np.asarray(rows))
        # A BLAS product over a subset of rows may round differently
        # from the full one, so a dense X runs in full.
        xw0 = x_op @ w0 if field.x_rows is None \
            else _csr_product(field.x_rows, w0)
        s1 = _csr_product(a_eff[field.n1], xw0)
        h1 = np.zeros(xw0.shape, dtype=dtype)
        h1[field.n1] = np.maximum(s1, 0.0, out=s1)
    h1w1 = h1 @ w1
    logits = a_eff @ h1w1
    cache = ForwardCache(a_eff=a_eff, norm=norm, x_op=x_op, w1_eff=w1,
                         xw0=xw0, h1=h1, h1w1=h1w1, logits=logits,
                         params=params, soft=soft, binary=binary, rows=rows)
    return logits, cache


def masked_loss(logits: np.ndarray, labels: np.ndarray,
                split: np.ndarray) -> float:
    """Mean cross-entropy over the split, log-sum-exp stabilized."""
    split = np.asarray(split)
    if split.size == 0:
        raise ValueError("empty split")
    z = logits[split]
    lse = _logsumexp_rows(z)
    picked = z[np.arange(split.size), labels[split]]
    return float(np.mean(lse - picked))


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(z, axis=1)`` for a real 2-D ``z``, bit for
    bit: scipy 1.17's steps in its order. The entries at the row max are
    counted (m) and the others summed as exp(z - max) (s); the result is
    log1p(s/m) + log(m) + max, or log(sum(exp(z))) where that is not
    finite (rows holding inf or NaN)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
        top = np.max(z, axis=1, keepdims=True)
        at_top = z == top
        m = np.sum(at_top.astype(z.dtype), axis=1, keepdims=True)
        s = np.sum(np.exp(np.where(at_top, -np.inf, z) - top), axis=1,
                   keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
    return np.where(np.isfinite(out), out, direct)[:, 0]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class _Field:
    """What a loss over some rows reads of one adjacency and feature
    operator: the rows' sorted 1-hop and 2-hop sets ``n1`` and ``n2``
    (self-loops put the rows within n1 and n1 within n2), the stored edge
    entries in n1 rows, and for a CSR X (else None) X's n2 rows under the
    full row pointer and X[n2]^T as a CSR with sorted indices."""

    x_op: object    # held so that its id in the memo key stays its own
    n1: np.ndarray
    n2: np.ndarray
    edges: np.ndarray
    x_rows: sp.csr_matrix | None
    x_t: sp.csr_matrix | None


def _receptive_field(norm: NormAdj, x_op, rows: np.ndarray) -> _Field:
    """The ``_Field`` of ``rows``, built once per (rows, operator) and
    memoized on ``norm``: it follows the stored entries, which only a new
    binary edge mask changes, and is freed with the adjacency."""
    key = (id(x_op), rows.dtype.str, rows.tobytes())
    field = norm._memo.get(key)
    if field is None:
        a = norm.matrix
        n1 = np.unique(a[rows].indices)
        n2 = np.unique(a[n1].indices)
        edges = np.flatnonzero((norm.edge_of_entry >= 0)
                               & np.isin(norm.entry_row, n1))
        x_rows = x_t = None
        if sp.issparse(x_op):
            # Every row outside n2 is empty, so a product over x_rows
            # leaves its zeroed output rows alone.
            x_n2 = x_op[n2]
            indptr = x_n2.indptr[np.searchsorted(
                n2, np.arange(x_op.shape[0] + 1))]
            x_rows = sp.csr_matrix((x_n2.data, x_n2.indices, indptr),
                                   shape=x_op.shape)
            x_t = x_n2.T.tocsr()
        field = norm._memo[key] = _Field(x_op, n1, n2, edges, x_rows, x_t)
    return field


def _csr_product(a: sp.csr_matrix, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for CSR ``a`` and a 2-D array ``w``, bit for bit, with
    the rows split across the engine's workers.

    Each part is a contiguous row range holding about the same number of
    stored entries. It runs ``csr_matvecs``, the scipy kernel that
    ``a @ w`` runs, on its rows of one zeroed output, so every row is
    summed in scipy's order. The parts allocate nothing. There are at
    most as many parts as workers, and each gets ``_PART_MIN_WORK``
    multiply-adds or more.
    """
    dtype = np.result_type(a.dtype, w.dtype)
    data = a.data.astype(dtype, copy=False)
    w_flat = np.ascontiguousarray(w, dtype=dtype).reshape(-1)
    (n_rows, n_cols), width = a.shape, w.shape[1]
    out = np.zeros((n_rows, width), dtype=dtype)
    indptr, nnz = a.indptr, int(a.indptr[-1])
    k = max(min(workers.count(), nnz * width // _PART_MIN_WORK), 1)
    cuts = np.searchsorted(indptr, nnz * np.arange(1, k) / k).tolist()
    bounds = [0, *cuts, n_rows]

    def part(lo, hi):
        _sparsetools.csr_matvecs(hi - lo, n_cols, width, indptr[lo:hi + 1],
                                 a.indices, data, w_flat,
                                 out[lo:hi].reshape(-1))

    workers.run(part, [(lo, hi) for lo, hi in zip(bounds, bounds[1:])
                       if hi > lo])
    return out


def backward(cache: ForwardCache, labels: np.ndarray,
             split: np.ndarray) -> Gradients:
    """Exact gradients of masked_loss for the forward held in ``cache``.

    The edge-mask gradient of edge e sums the contributions of both of its
    directed adjacency entries across both layers. Normalization values are
    treated as constants (they only change when the binary mask does).
    """
    split = np.asarray(split)
    if split.size == 0:
        raise ValueError("empty split")
    if cache.rows is not None and not np.isin(split, cache.rows).all():
        raise ValueError("split reaches rows the forward did not compute")
    dtype = cache.logits.dtype
    n, c = cache.logits.shape

    g2 = np.zeros((n, c), dtype=dtype)
    probs = _softmax_rows(cache.logits[split])
    probs[np.arange(split.size), labels[split]] -= 1.0
    g2[split] = probs / split.size

    # Only the split's receptive field carries gradient: g2 lives on the
    # split, dh1/ds1 on its 1-hop set n1, dxw0 on its 2-hop set n2, and
    # every other row is an exact zero. The restricted CSR/CSC products
    # sum each output's stored terms in the full product's order from +0,
    # and the terms they skip are exact zeros (for finite operands), so
    # every gradient matches the full-graph sweep bit for bit. BLAS
    # products that contract over nodes stay full: their sums depend on
    # the contraction length.
    a, norm = cache.a_eff, cache.norm     # a is symmetric by construction
    field = _receptive_field(norm, cache.x_op, split)
    n1, n2 = field.n1, field.n2
    dh1w1 = a @ g2
    dw1_dense = cache.h1.T @ dh1w1
    # A one-row product takes numpy's vector path, which rounds unlike a
    # row of the full product; so a lone n1 row is cut from the full one.
    ds1 = dh1w1[n1] @ cache.w1_eff.T if n1.size > 1 \
        else (dh1w1 @ cache.w1_eff.T)[n1]
    ds1 *= cache.h1[n1] > 0                                  # rows n1
    dxw0 = _csr_product(a[n2][:, n1], ds1)                   # rows n2
    if field.x_t is not None:
        # The CSR X[n2]^T has sorted indices, so it sums each of its rows
        # in the column order of the CSC X[n2].T, and the row-split
        # product matches X[n2].T @ dxw0 bit for bit.
        dw0_dense = _csr_product(field.x_t, dxw0)
    else:
        dxw0_full = np.zeros((n, dxw0.shape[1]), dtype=dtype)
        dxw0_full[n2] = dxw0
        dw0_dense = cache.x_op.T @ dxw0_full
    dense = grow_pool(dw0_dense, dw1_dense)    # dw0_dense is fresh

    soft, params, binary = cache.soft, cache.params, cache.binary
    d_m_edges = None
    if soft.edges is not None:
        # Gradient of each stored edge entry (i, j), self-loops skipped:
        #   layer 2 contributes  g2[i] . h1w1[j]
        #   layer 1 contributes  ds1[i] . xw0[j]
        # Both vanish unless row i is in n1; ds1 is read through the
        # position of i in n1.
        on_edge = field.edges
        ri, ci = norm.entry_row[on_edge], norm.entry_col[on_edge]
        at = np.searchsorted(n1, ri)
        d_entry = np.empty(on_edge.size, dtype=dtype)
        for lo in range(0, on_edge.size, _SDDMM_BLOCK):
            r, c, p = (v[lo:lo + _SDDMM_BLOCK] for v in (ri, ci, at))
            block = np.einsum("ij,ij->i", g2[r], cache.h1w1[c])
            block += np.einsum("ij,ij->i", ds1[p], cache.xw0[c])
            d_entry[lo:lo + _SDDMM_BLOCK] = block

        e_of = norm.edge_of_entry[on_edge]
        gate = norm.matrix.data[on_edge].astype(dtype)
        d_m_edges = np.zeros(soft.edges.shape[0], dtype=dtype)
        np.add.at(d_m_edges, e_of, d_entry * gate)

    b = None if binary is None else binary.weights
    return Gradients(
        theta=_gated(dense, soft.weights, b),
        m_theta=None if soft.weights is None
        else _gated(dense, params.weights, b),
        m_edges=d_m_edges,
        dense=dense,
    )


def evaluate_accuracy(params: GcnParams, soft: SoftMasks,
                      binary: BinaryMasks | None, dataset: Dataset,
                      split: np.ndarray, norm: NormAdj | None = None,
                      x_op=None, logits: np.ndarray | None = None) -> float:
    """Argmax accuracy over the split; ties resolve to the lowest class."""
    split = np.asarray(split)
    if split.size == 0:
        raise ValueError("empty split")
    if logits is None:
        logits, _ = gcn_forward(params, soft, binary, dataset,
                                norm=norm, x_op=x_op)
    pred = np.argmax(logits[split], axis=1)
    return float(np.mean(pred == dataset.labels[split]))
