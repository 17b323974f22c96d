"""Masked 2-layer GCN: forward pass, cross-entropy loss, analytic gradients.

The model is Softmax(A_hat ReLU(A_hat X W0) W1) where A_hat is the
degree-normalized adjacency of the binary-masked graph (self-loops added)
and each kept-edge entry is further scaled by the trainable soft edge mask.
Effective weights are theta * soft_mask * binary_mask elementwise; an absent
(None) mask is a factor of 1, neither multiplied nor differentiated.

Normalization is only recomputed when the binary edge mask changes (phase
starts, swap boundaries); within a phase the soft mask scales A_hat entries
on its fixed support, so edge-mask gradients stay local to each edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp

from .data import Dataset
from .graph import NormAdj, normalize_adjacency
from .masks import BinaryMasks, SoftMasks

# Feature matrices at or below this density run through scipy CSR; the
# planetoid bag-of-words matrices sit around 1% and dominate the epoch cost
# if multiplied densely.
_SPARSE_X_DENSITY = 0.25

# Edge entries per block of the edge-mask gradient (an SDDMM). The two
# gathered (block, H) operands of a block, 1 MB in f64 at H=512, stay in L2
# instead of spanning nnz; larger blocks measured slower on the Cora shape.
_SDDMM_BLOCK = 128


@dataclass
class GcnParams:
    """Two weight matrices plus a frozen copy of their initialization."""

    theta0: np.ndarray           # (F, H)
    theta1: np.ndarray           # (H, C)
    theta0_init: np.ndarray = field(repr=False, default=None)
    theta1_init: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.theta0_init is None:
            self.theta0_init = self.theta0.copy()
        if self.theta1_init is None:
            self.theta1_init = self.theta1.copy()
        self.theta0_init.setflags(write=False)
        self.theta1_init.setflags(write=False)

    @property
    def hidden(self) -> int:
        return self.theta0.shape[1]

    def rewind(self) -> None:
        """Reset trainable weights to the recorded initialization."""
        self.theta0 = self.theta0_init.copy()
        self.theta1 = self.theta1_init.copy()

    def fresh_copy(self) -> "GcnParams":
        """New params starting from the same initialization."""
        return GcnParams(theta0=self.theta0_init.copy(),
                         theta1=self.theta1_init.copy(),
                         theta0_init=self.theta0_init,
                         theta1_init=self.theta1_init)


def glorot_params(num_features: int, hidden: int, num_classes: int,
                  seed: int, dtype=np.float64) -> GcnParams:
    """Glorot-uniform initialized weights with the init snapshot taken."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E7A]))

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, (fan_in, fan_out)).astype(dtype)

    return GcnParams(theta0=glorot(num_features, hidden),
                     theta1=glorot(hidden, num_classes))


def arm_params(dataset: Dataset, params0: GcnParams | None, hidden: int,
               seed: int, dtype=np.float64) -> GcnParams:
    """Starting weights of one method arm: a fresh copy of the shared
    initialization ``params0`` when given, else a new Glorot draw."""
    if params0 is not None:
        return params0.fresh_copy()
    return glorot_params(dataset.num_features, hidden, dataset.num_classes,
                         seed=seed, dtype=dtype)


@dataclass
class Gradients:
    """Loss gradients for weights, soft masks, and dense weight positions.

    ``theta*_dense`` is the gradient with respect to the effective (post
    mask) weight slot, defined on every entry including pruned ones; it is
    what the denoiser accumulates to rank regrowth candidates. ``m_*`` is
    None where the forward pass had no soft mask.
    """

    theta0: np.ndarray
    theta1: np.ndarray
    m_theta0: np.ndarray | None
    m_theta1: np.ndarray | None
    m_edges: np.ndarray | None
    theta0_dense: np.ndarray
    theta1_dense: np.ndarray

    def dense_flat(self) -> np.ndarray:
        return np.concatenate([self.theta0_dense.ravel(),
                               self.theta1_dense.ravel()])


@dataclass
class ForwardCache:
    """Activations and operators retained for the backward pass."""

    a_eff: sp.csr_matrix
    norm: NormAdj
    x_op: object                 # csr_matrix or ndarray, engine dtype
    w1_eff: np.ndarray
    xw0: np.ndarray
    s1: np.ndarray
    h1: np.ndarray
    h1w1: np.ndarray
    logits: np.ndarray
    params: GcnParams
    soft: SoftMasks
    binary: BinaryMasks | None


def feature_operator(dataset: Dataset, dtype=np.float64):
    """Features as CSR when sparse enough to pay off, dense otherwise."""
    x = dataset.features
    density = np.count_nonzero(x) / max(x.size, 1)
    if density <= _SPARSE_X_DENSITY and x.size > 4096:
        return sp.csr_matrix(x.astype(dtype))
    return np.ascontiguousarray(x.astype(dtype))


def _gated(x: np.ndarray, *gates) -> np.ndarray:
    """x times each gate in turn; an absent (None) gate is a factor of 1."""
    for gate in gates:
        if gate is not None:
            x = x * gate
    return x


def effective_weights(params: GcnParams, soft: SoftMasks,
                      binary: BinaryMasks | None):
    b0, b1 = (None, None) if binary is None else (binary.theta0, binary.theta1)
    return (_gated(params.theta0, soft.theta0, b0),
            _gated(params.theta1, soft.theta1, b1))


def gcn_forward(params: GcnParams, soft: SoftMasks,
                binary: BinaryMasks | None, dataset: Dataset,
                norm: NormAdj | None = None,
                x_op=None) -> tuple[np.ndarray, ForwardCache]:
    """Run the masked model; returns pre-softmax logits and the cache.

    ``norm`` may be passed in to avoid renormalizing every step; it must
    have been built from the same binary edge mask. ``x_op`` likewise caches
    the feature operator.
    """
    dtype = params.theta0.dtype
    if norm is None:
        norm = normalize_adjacency(
            dataset, binary.edges if binary is not None else None)
    if x_op is None:
        x_op = feature_operator(dataset, dtype)

    if any(m is not None and m.shape != w.shape for m, w in
           ((soft.theta0, params.theta0), (soft.theta1, params.theta1))):
        raise ValueError("soft mask shapes do not match the weights")
    if soft.edges is not None and soft.edges.shape != (dataset.num_edges,):
        raise ValueError("soft edge mask does not index the edge list")

    a_eff = norm.effective(soft.edges, dtype=dtype)
    w0, w1 = effective_weights(params, soft, binary)

    xw0 = x_op @ w0
    s1 = a_eff @ xw0
    h1 = np.maximum(s1, 0.0)
    h1w1 = h1 @ w1
    logits = a_eff @ h1w1
    cache = ForwardCache(a_eff=a_eff, norm=norm, x_op=x_op, w1_eff=w1,
                         xw0=xw0, s1=s1, h1=h1, h1w1=h1w1, logits=logits,
                         params=params, soft=soft, binary=binary)
    return logits, cache


def masked_loss(logits: np.ndarray, labels: np.ndarray,
                split: np.ndarray) -> float:
    """Mean cross-entropy over the split, log-sum-exp stabilized."""
    split = np.asarray(split)
    if split.size == 0:
        raise ValueError("empty split")
    z = logits[split]
    lse = logsumexp(z, axis=1)
    picked = z[np.arange(split.size), labels[split]]
    return float(np.mean(lse - picked))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
    dtype = cache.logits.dtype
    n, c = cache.logits.shape

    g2 = np.zeros((n, c), dtype=dtype)
    probs = _softmax_rows(cache.logits[split])
    probs[np.arange(split.size), labels[split]] -= 1.0
    g2[split] = probs / split.size

    a = cache.a_eff                       # symmetric by construction
    dh1w1 = a @ g2
    dw1_dense = cache.h1.T @ dh1w1
    dh1 = dh1w1 @ cache.w1_eff.T
    ds1 = dh1 * (cache.s1 > 0)
    dxw0 = a @ ds1
    dw0_dense = (cache.x_op.T @ dxw0)
    if sp.issparse(dw0_dense):            # csr.T @ dense stays dense; guard
        dw0_dense = np.asarray(dw0_dense)

    soft, params, binary = cache.soft, cache.params, cache.binary
    d_m_edges = None
    if soft.edges is not None:
        # Gradient of each stored edge entry (i, j), self-loops skipped:
        #   layer 2 contributes  g2[i] . h1w1[j]
        #   layer 1 contributes  ds1[i] . xw0[j]
        norm = cache.norm
        on_edge = np.flatnonzero(norm.edge_of_entry >= 0)
        ri, ci = norm.entry_row[on_edge], norm.entry_col[on_edge]
        d_entry = np.empty(on_edge.size, dtype=dtype)
        for lo in range(0, on_edge.size, _SDDMM_BLOCK):
            r, c = ri[lo:lo + _SDDMM_BLOCK], ci[lo:lo + _SDDMM_BLOCK]
            block = np.einsum("ij,ij->i", g2[r], cache.h1w1[c])
            block += np.einsum("ij,ij->i", ds1[r], cache.xw0[c])
            d_entry[lo:lo + _SDDMM_BLOCK] = block

        e_of = norm.edge_of_entry[on_edge]
        gate = norm.matrix.data[on_edge].astype(dtype)
        d_m_edges = np.zeros(soft.edges.shape[0], dtype=dtype)
        np.add.at(d_m_edges, e_of, d_entry * gate)

    b0, b1 = (None, None) if binary is None else (binary.theta0, binary.theta1)
    return Gradients(
        theta0=_gated(dw0_dense, soft.theta0, b0),
        theta1=_gated(dw1_dense, soft.theta1, b1),
        m_theta0=None if soft.theta0 is None
        else _gated(dw0_dense, params.theta0, b0),
        m_theta1=None if soft.theta1 is None
        else _gated(dw1_dense, params.theta1, b1),
        m_edges=d_m_edges,
        theta0_dense=dw0_dense,
        theta1_dense=dw1_dense,
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
