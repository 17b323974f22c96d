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
node count, and its gradients equal the full-graph sweep bit for bit.
The forward runs on every node: a training loop keeps each evaluation
forward as its next epoch's training forward. The feature operator is
built once per dataset and dtype and then shared; what a split's loss
reads of one mask (its receptive field, X's rows there, the edge entries
in its 1-hop rows, the structure of the adjacency slice its backward runs
on) is built once per mask.

The layer-1 chain runs in tiles of hidden units, spread over the engine's
workers (``fastglt.workers``). A tile gates its columns of W0, runs X@W0
and A@XW0 on them and writes its columns of ReLU(A@XW0); in the backward
it runs A@dS1 and X^T@dXW0 and writes its columns of the W0 gradient.
Each sparse product is scipy's own kernel on the tile's columns, which
sums every output entry as the whole product sums it, so no bit depends
on the tile width or the worker count. XW0 is kept for the backward only
when the edge-mask gradient reads it (a soft edge mask is trained);
otherwise each worker runs its tiles' X@W0 through one scratch.

A weight mask absent here may have been applied to the weights instead:
a weight-only training loop zeroes its pruned weights once and passes no
weight gate (see ``train.TrainLoop``). A pruned weight then enters every
product as +0.0 instead of the gated +-0.0, which changes no sum: scipy's
kernels and the BLAS accumulate from +0.0.
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
from .masks import BinaryMasks, PooledWeights, SoftMasks, pool_weights

# Edge entries per block of the edge-mask gradient (an SDDMM). The two
# gathered (block, H) operands of a block, 1 MB in f64 at H=512, stay in L2
# instead of spanning nnz; larger blocks measured slower on the Cora shape.
_SDDMM_BLOCK = 128

# Bytes of one row of a hidden-unit tile of the layer-1 chain: 128 units
# in f64, 256 in f32. A tile of gated W0 (F x 128 in f64, 1.5 MB on the
# Cora shape) stays in a core's 2 MB L2 while X@W0 reads one of its rows
# per stored X entry, where the whole 5.9 MB W0 does not. On that shape
# (H=512, two workers) the full forward took 12.3 ms at 1024 B, against
# 13.4 ms at 512 B and 13.0 ms at 2048 B.
_TILE_BYTES = 1024


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
    validates the config for them, and refuses a ``params0`` drawn at
    another dtype than the config's precision."""
    config.validate()
    if params0 is not None:
        if params0.weights.dtype != config.dtype:
            raise ValueError(
                f"params0 is {params0.weights.dtype}, but precision "
                f"{config.precision!r} trains {config.dtype}; "
                f"draw it with dtype=config.dtype")
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
    the denoiser accumulates to rank regrowth candidates. ``theta`` is
    ``dense`` itself where the forward had no weight gate or weight soft
    mask. ``m_*`` is None where the forward pass had no soft mask. Only
    ``train.TrainLoop.run_epoch`` holds one, and only within its epoch.
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

    XW0 is kept only when the edge-mask gradient reads it, that is with a
    soft edge mask, else ``xw0_tiles`` is None. It is kept tile-major, as
    the tiles of ``_tiling`` wrote it: ``xw0_tiles[j]`` holds hidden units
    j*t to j*t + t - 1 of every node, and the last tile's columns past H
    are zero.
    """

    a_eff: sp.csr_matrix
    norm: NormAdj
    x_op: sp.csr_matrix          # engine dtype
    w1_eff: np.ndarray
    xw0_tiles: np.ndarray | None  # (k, N, t)
    h1: np.ndarray               # ReLU(A @ XW0)
    h1w1: np.ndarray
    logits: np.ndarray
    params: GcnParams
    soft: SoftMasks
    binary: BinaryMasks | None

    def xw0_rows(self, nodes: np.ndarray) -> np.ndarray:
        """XW0's rows ``nodes``, gathered from the tiles into one
        C-contiguous (nodes, H) array."""
        k, _, t = self.xw0_tiles.shape
        out = self.xw0_tiles[np.arange(k), nodes[:, None]]
        out = out.reshape(nodes.size, k * t)
        h = self.h1.shape[1]
        return out if k * t == h else np.ascontiguousarray(out[:, :h])


def feature_operator(dataset: Dataset, dtype=np.float64) -> sp.csr_matrix:
    """Features as a CSR matrix, whatever their density, so that every
    product over X is a scipy CSR kernel that sums each output entry in
    one fixed order.

    Built once per dataset and dtype and memoized on the dataset; every
    caller shares the one operator, which is only ever read.
    """
    key = ("x_op", np.dtype(dtype))
    x_op = dataset._memo.get(key)
    if x_op is None:
        x_op = dataset._memo[key] = sp.csr_matrix(
            dataset.features.astype(dtype, copy=False))
    return x_op


def _gated(x: np.ndarray, *gates, out: np.ndarray | None = None
           ) -> np.ndarray:
    """x times each gate in turn; an absent (None) gate is a factor of 1.
    The products go to ``out``, else to one fresh buffer, or are x itself
    when no gate is present."""
    for gate in gates:
        if gate is not None:
            x = out = np.multiply(x, gate, out=out)
    if out is None:
        return x
    if out is not x:
        np.copyto(out, x)
    return out


def _tiling(h: int, dtype) -> tuple[int, int]:
    """(k, t): ``h`` hidden units as k tiles of t units each, the last one
    padded by fewer than k unused columns."""
    k = max(-(-h // max(_TILE_BYTES // np.dtype(dtype).itemsize, 1)), 1)
    return k, -(-h // k)


def _each_tile(k: int, task) -> None:
    """Run ``task(tiles)`` on the engine's workers, each taking an even
    share of the tiles 0..k-1 (tile j goes to worker j mod the workers),
    so that a task keeps its scratch across its tiles."""
    parts = max(min(workers.count(), k), 1)
    workers.run(task, [(range(w, k, parts),) for w in range(parts)])


def _matvecs(a: tuple, x: np.ndarray, out: np.ndarray) -> None:
    """``out += A @ x`` for a CSR ``A`` given as (indptr, indices, data,
    columns) and C-contiguous ``x`` and ``out``, whose shapes are checked
    before the kernel writes through them. It runs ``csr_matvecs``, the
    scipy kernel that ``A @ x`` runs, so every row of ``out`` is summed in
    scipy's order, whatever the width of ``x``."""
    indptr, indices, data, n_cols = a
    if (x.shape[0] != n_cols or out.shape != (indptr.size - 1, x.shape[1])
            or not (x.flags.c_contiguous and out.flags.c_contiguous)):
        raise ValueError("operands do not fit a C-contiguous product")
    _sparsetools.csr_matvecs(indptr.size - 1, n_cols, x.shape[1], indptr,
                             indices, data, x.reshape(-1), out.reshape(-1))


def _csr_parts(a: sp.csr_matrix) -> tuple:
    return a.indptr, a.indices, a.data, a.shape[1]


def gcn_forward(params: GcnParams, soft: SoftMasks,
                binary: BinaryMasks | None, dataset: Dataset,
                norm: NormAdj | None = None,
                x_op: sp.csr_matrix | None = None
                ) -> tuple[np.ndarray, ForwardCache]:
    """Run the masked model; returns pre-softmax logits and the cache.

    ``norm`` may be passed in to avoid renormalizing every step; it must
    have been built from the same binary edge mask. ``x_op`` likewise caches
    the feature operator.
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
    theta0, theta1 = params.theta0, params.theta1
    b0, b1 = (None, None) if binary is None else (binary.theta0,
                                                   binary.theta1)
    gates0 = [g for g in (soft.theta0, b0) if g is not None]
    w1 = _gated(theta1, soft.theta1, b1,
                out=np.empty(theta1.shape, dtype=dtype))

    (n_feat, h), n = theta0.shape, dataset.num_nodes
    k, t = _tiling(h, dtype)
    # Only the edge-mask gradient reads XW0 back; without a soft edge mask
    # each worker runs its tiles' X@W0 through one (N, t) scratch instead.
    xw0 = None if soft.edges is None else np.empty((k, n, t), dtype=dtype)
    a_op, x_csr = _csr_parts(a_eff), _csr_parts(x_op)
    h1 = np.empty((n, h), dtype=dtype)

    def layer1(tiles):
        s1 = np.empty((n, t), dtype=dtype)
        w0 = np.empty((n_feat, t), dtype=dtype)
        scratch = np.empty((n, t), dtype=dtype) if xw0 is None else None
        for j in tiles:
            lo, hi = j * t, min(j * t + t, h)
            _gated(theta0[:, lo:hi], *(g[:, lo:hi] for g in gates0),
                   out=w0[:, :hi - lo])
            w0[:, hi - lo:] = 0.0
            xw = scratch if xw0 is None else xw0[j]
            xw.fill(0.0)
            _matvecs(x_csr, w0, xw)
            s1.fill(0)
            _matvecs(a_op, xw, s1)
            np.maximum(s1[:, :hi - lo], 0.0, out=h1[:, lo:hi])

    _each_tile(k, layer1)
    h1w1 = h1 @ w1
    logits = a_eff @ h1w1
    cache = ForwardCache(a_eff=a_eff, norm=norm, x_op=x_op, w1_eff=w1,
                         xw0_tiles=xw0, h1=h1, h1w1=h1w1, logits=logits,
                         params=params, soft=soft, binary=binary)
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
    entries in n1 rows, the structure of A[n2][:, n1] with columns
    renumbered to positions in n1 (``a21``) and X[n2]^T as a CSR with
    sorted indices (``x_t``). ``a21`` holds a row pointer, column indices
    and every entry's position in A's data, in the order scipy's
    ``a[n2][:, n1]`` stores them."""

    x_op: object    # held so that its id in the memo key stays its own
    n1: np.ndarray
    n2: np.ndarray
    edges: np.ndarray
    a21: tuple
    x_t: sp.csr_matrix

    def a_n2_n1(self, a: sp.csr_matrix) -> tuple:
        """A[n2][:, n1] of an adjacency ``a`` over the record's stored
        entries, as ``_matvecs`` takes it."""
        indptr, indices, at = self.a21
        return indptr, indices, a.data[at], self.n1.size


def _receptive_field(norm: NormAdj, x_op: sp.csr_matrix,
                     rows: np.ndarray) -> _Field:
    """The ``_Field`` of ``rows``, built once per (rows, operator) and
    memoized on ``norm``: it follows the stored entries, which only a new
    binary edge mask changes, and is freed with the adjacency."""
    key = (id(x_op), rows.dtype.str, rows.tobytes())
    field = norm._memo.get(key)
    if field is None:
        a = norm.matrix
        n1 = np.unique(a[rows].indices)
        n2 = np.unique(a[n1].indices)
        in1, in2 = np.zeros((2, a.shape[0]), dtype=bool)
        in1[n1] = in2[n2] = True
        at1 = np.flatnonzero(in1[norm.entry_row])
        at21 = np.flatnonzero(in2[norm.entry_row] & in1[norm.entry_col])
        edges = at1[norm.edge_of_entry[at1] >= 0]
        a21 = _sub_csr(a, n2, at21, np.searchsorted(n1, a.indices[at21]))
        field = norm._memo[key] = _Field(x_op, n1, n2, edges, a21,
                                         x_op[n2].T.tocsr())
    return field


def _sub_csr(a: sp.csr_matrix, rows: np.ndarray, at: np.ndarray,
             indices: np.ndarray) -> tuple:
    """(row pointer, ``indices``, ``at``) of the CSR over ``a``'s ``rows``
    that stores the entries at positions ``at`` (sorted) of ``a``, with
    ``a``'s index dtype."""
    indptr = np.append(np.searchsorted(at, a.indptr[rows]), at.size)
    idx = a.indices.dtype
    return indptr.astype(idx), indices.astype(idx), at


def backward(cache: ForwardCache, labels: np.ndarray,
             split: np.ndarray) -> Gradients:
    """Exact gradients of masked_loss for the forward held in ``cache``,
    the weight gradient allocated once, as one pooled buffer ``dense``.

    The edge-mask gradient of edge e sums the contributions of both of its
    directed adjacency entries across both layers. Normalization values are
    treated as constants (they only change when the binary mask does).
    """
    split = np.asarray(split)
    if split.size == 0:
        raise ValueError("empty split")
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
    # every gradient matches the full-graph sweep bit for bit. No BLAS
    # product contracts over nodes, as its sums would depend on the
    # contraction length and the BLAS pool size: einsum sums dW1 over n1
    # in row order. It writes dW1^T, so that its inner loop runs along the
    # H hidden units and not the C classes, then is copied into ``dense``.
    a, norm = cache.a_eff, cache.norm     # a is symmetric by construction
    field = _receptive_field(norm, cache.x_op, split)
    n1, n2 = field.n1, field.n2
    soft, params, binary = cache.soft, cache.params, cache.binary
    dense = np.empty(params.weights.size, dtype=dtype)
    dw0, dw1 = params.layers(dense)
    dh1w1 = a @ g2
    dw1[...] = np.einsum("ni,nj->ji", cache.h1[n1], dh1w1[n1]).T
    # A one-row product takes numpy's vector path, which rounds unlike a
    # row of the full product; so a lone n1 row is cut from the full one.
    ds1 = dh1w1[n1] @ cache.w1_eff.T if n1.size > 1 \
        else (dh1w1 @ cache.w1_eff.T)[n1]
    ds1 *= cache.h1[n1] > 0                                  # rows n1
    # Layer 1 runs in the forward's tiles: A[n2][:, n1]@dS1 (rows n2),
    # then X[n2]^T@dXW0 into the tile's columns of dense's W0 view. The
    # CSR X[n2]^T has sorted indices, so it sums each of its rows in the
    # column order of the CSC X[n2].T and matches X[n2].T @ dxw0 bit for
    # bit.
    a21, x_t = field.a_n2_n1(a), _csr_parts(field.x_t)
    n_feat, h = params.shapes[0]
    k, t = _tiling(h, dtype)

    def layer1(tiles):
        d_s1 = np.empty((n1.size, t), dtype=dtype)
        d_xw0 = np.empty((n2.size, t), dtype=dtype)
        d_w0 = np.empty((n_feat, t), dtype=dtype)
        for j in tiles:
            lo, hi = j * t, min(j * t + t, h)
            d_s1[:, :hi - lo] = ds1[:, lo:hi]
            d_s1[:, hi - lo:] = 0.0
            d_xw0.fill(0.0)
            _matvecs(a21, d_s1, d_xw0)
            d_w0.fill(0.0)
            _matvecs(x_t, d_xw0, d_w0)
            dw0[:, lo:hi] = d_w0[:, :hi - lo]

    _each_tile(k, layer1)

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
            block += np.einsum("ij,ij->i", ds1[p], cache.xw0_rows(c))
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
                      x_op: sp.csr_matrix | None = None,
                      logits: np.ndarray | None = None) -> float:
    """Argmax accuracy over the split; ties resolve to the lowest class."""
    split = np.asarray(split)
    if split.size == 0:
        raise ValueError("empty split")
    if logits is None:
        logits, _ = gcn_forward(params, soft, binary, dataset,
                                norm=norm, x_op=x_op)
    pred = np.argmax(logits[split], axis=1)
    return float(np.mean(pred == dataset.labels[split]))
