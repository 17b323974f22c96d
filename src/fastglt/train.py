"""One training loop, ``TrainLoop.train``, and the phases built on it:
one-shot mask co-training, masked weight-only training, and the
retrain-from-initialization check that decides whether a sparse
(graph, network) pair really is a winning ticket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .graph import normalize_adjacency
from .masks import BinaryMasks, SoftMasks
from .nn import (GcnParams, Gradients, backward, evaluate_accuracy,
                 feature_operator, gcn_forward, masked_loss)
from .optim import AdamState, adam_step


@dataclass
class EpochStats:
    loss: float
    val_acc: float
    test_acc: float
    grads: Gradients = field(repr=False, default=None)


class TrainLoop:
    """Owns the mutable state of one full-batch training session.

    The weights always train, plus exactly the soft masks that ``soft``
    holds: the one-shot phase passes all three, the denoising phase only
    the edge mask, verification none (``SoftMasks()``). Binary masks, when
    present, gate both the forward pass and the updates. ``opt`` maps
    each trained tensor's gradient field name to its Adam state.

    Each epoch runs one forward pass: the post-update evaluation forward of
    one epoch is kept and serves as the training forward of the next.
    Call :meth:`rebuild_norm` after any change to ``params``, ``soft`` or
    ``binary`` made outside :meth:`run_epoch` (a swap boundary, say): it
    renormalizes the adjacency and drops the kept forward, which would
    otherwise describe the state before the change.
    """

    def __init__(self, dataset: Dataset, params: GcnParams, soft: SoftMasks,
                 binary: BinaryMasks | None = None, lr: float = 0.001):
        self.dataset = dataset
        self.params = params
        self.soft = soft
        self.binary = binary
        self.x_op = feature_operator(dataset, params.theta0.dtype)
        self.norm = None
        self._forward = None  # (logits, cache) of the current state
        self.rebuild_norm()
        self.opt = {name: AdamState.for_param(tensor, lr)
                    for name, tensor in self._tensors().items()
                    if tensor is not None}
        # what trains, for callers that label epochs by phase
        self.update_soft_edges = "m_edges" in self.opt
        self.update_soft_weights = "m_theta0" in self.opt \
            or "m_theta1" in self.opt

    def _tensors(self) -> dict:
        """The trainable tensors by gradient field; None where absent."""
        p, s = self.params, self.soft
        return {"theta0": p.theta0, "theta1": p.theta1, "m_edges": s.edges,
                "m_theta0": s.theta0, "m_theta1": s.theta1}

    def rebuild_norm(self) -> None:
        mask = self.binary.edges if self.binary is not None else None
        self.norm = normalize_adjacency(self.dataset, mask)
        self._forward = None

    def _run_forward(self):
        return gcn_forward(self.params, self.soft, self.binary, self.dataset,
                           norm=self.norm, x_op=self.x_op)

    def _binary_or_none(self, attr: str):
        return getattr(self.binary, attr) if self.binary is not None else None

    def run_epoch(self) -> EpochStats:
        """One backward/update sweep plus a post-update eval forward, which
        is kept as the next epoch's training forward."""
        ds = self.dataset
        logits, cache = self._forward or self._run_forward()
        self._forward = None
        loss = masked_loss(logits, ds.labels, ds.train_idx)
        grads = backward(cache, ds.labels, ds.train_idx)
        del logits, cache  # free the activations before the next forward

        tensors = self._tensors()
        for name, state in self.opt.items():
            # a soft mask is gated by the binary mask of the same slot
            adam_step(state, tensors[name], getattr(grads, name),
                      self._binary_or_none(name.removeprefix("m_")),
                      name=name)

        self._forward = self._run_forward()
        eval_logits = self._forward[0]
        val = evaluate_accuracy(self.params, self.soft, self.binary, ds,
                                ds.val_idx, logits=eval_logits)
        test = evaluate_accuracy(self.params, self.soft, self.binary, ds,
                                 ds.test_idx, logits=eval_logits)
        return EpochStats(loss=loss, val_acc=val, test_acc=test, grads=grads)

    def train(self, epochs: int,
              grad_acc: np.ndarray | None = None) -> TrainResult:
        """Run ``epochs`` epochs; report the best-validation epoch (earliest
        on ties), the usual protocol for semi-supervised node classification.
        ``grad_acc``, a float64 buffer over the pooled weight universe, gets
        each epoch's |dense weight gradient| added in place."""
        if epochs < 1:
            raise ValueError("need at least one epoch")
        if grad_acc is not None:
            n0 = self.params.theta0.size
            acc0 = grad_acc[:n0].reshape(self.params.theta0.shape)
            acc1 = grad_acc[n0:].reshape(self.params.theta1.shape)
        out = TrainResult()
        for epoch in range(1, epochs + 1):
            stats = self.run_epoch()
            if grad_acc is not None:
                acc0 += np.abs(stats.grads.theta0_dense)
                acc1 += np.abs(stats.grads.theta1_dense)
            stats.grads = None      # keep history light
            out.history.append(stats)
            if stats.val_acc > out.best_val_acc:
                out.best_val_acc = stats.val_acc
                out.best_epoch = epoch
                out.test_at_best = stats.test_acc
                out.best_soft = self.soft.copy()
            out.final_test = stats.test_acc
        return out


@dataclass
class TrainResult:
    """What :meth:`TrainLoop.train` saw: the best-validation epoch (1-based)
    with its accuracies and soft-mask snapshot, the last epoch's test
    accuracy, and every epoch's stats (gradients dropped)."""

    best_soft: SoftMasks | None = None
    best_epoch: int = 0
    best_val_acc: float = -1.0
    test_at_best: float = 0.0
    final_test: float = 0.0
    history: list[EpochStats] = field(default_factory=list)


def train_oneshot_phase(dataset: Dataset, params: GcnParams,
                        soft: SoftMasks, epochs: int, lr: float = 0.001,
                        binary: BinaryMasks | None = None) -> TrainResult:
    """Co-optimize weights and both soft masks for ``epochs`` full batches.

    ``best_soft`` snapshots (m_g, m_theta) at the best-validation epoch.
    ``params`` is trained in place and left at its final-epoch state. No l1
    term is applied to the masks.
    """
    return TrainLoop(dataset, params, soft, binary=binary, lr=lr).train(epochs)


def train_theta_only(dataset: Dataset, params: GcnParams,
                     binary: BinaryMasks | None, epochs: int,
                     lr: float = 0.001) -> TrainResult:
    """Train the weights under fixed binary masks and no soft masks."""
    return TrainLoop(dataset, params, SoftMasks(), binary=binary,
                     lr=lr).train(epochs)


def verify_ticket(dataset: Dataset, params: GcnParams,
                  binary: BinaryMasks | None, epochs: int,
                  lr: float = 0.001) -> TrainResult:
    """Retrain from the recorded initialization under the final masks.

    This is the winning-ticket check: the masks are kept, the weights are
    rewound to their initialization, and the sparse model is trained in
    isolation. ``params`` is not modified.
    """
    return train_theta_only(dataset, params.fresh_copy(), binary, epochs,
                            lr=lr)
