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
from .nn import (GcnParams, backward, evaluate_accuracy, feature_operator,
                 gcn_forward, masked_loss)
from .optim import AdamState, NonFiniteGradient, adam_step

@dataclass
class EpochStats:
    """One epoch's loss (before its update) and accuracies (after it)."""

    loss: float
    val_acc: float
    test_acc: float


class _FixedWeights:
    """The fixed-mask plan of a weight-only loop: one that trains the
    weights alone under binary masks, whose weight mask never changes.

    A pruned weight never moves there (its gradient and moments are
    exactly 0), so :meth:`apply` zeroes the pruned entries of the params
    themselves and the loop runs its forwards and backwards with no weight
    gate. Its weight gradient is then the dense gradient itself, of which
    :meth:`step` gathers the kept entries ``ids`` (ascending). Adam holds
    kept-sized moments and steps ``stepped``, a copy of the kept weights
    that :meth:`apply` gathers, which is scattered back. It runs the
    textbook expressions on the same kept entries, so the kept weights
    take the gated loop's bits and the pruned ones stay at 0. Only the
    gathered kept entries are checked for finiteness: a non-finite value
    confined to pruned entries, which the gated loop's masked gradient
    would carry as NaN, raises no ``NonFiniteGradient`` here (it cannot
    reach the weights either).
    """

    def __init__(self, mask: np.ndarray, params: GcnParams):
        self.mask = mask.copy()
        self.ids = np.flatnonzero(mask)
        self.stepped = np.empty(self.ids.size, dtype=params.weights.dtype)

    def apply(self, binary: BinaryMasks | None, weights: np.ndarray) -> None:
        """Zero the pruned weights and take the kept ones; refuse a weight
        mask other than the plan's, whose kept ids and moments it could
        not carry over."""
        if binary is None or not np.array_equal(binary.weights, self.mask):
            raise ValueError("a weight-only loop's weight mask is fixed; "
                             "start a new loop for new masks")
        weights[~self.mask] = 0.0
        np.take(weights, self.ids, out=self.stepped)

    def step(self, state: AdamState, weights: np.ndarray,
             grad: np.ndarray) -> None:
        """One Adam step from the kept entries of the weight gradient."""
        adam_step(state, self.stepped, grad[self.ids], name="theta")
        weights[self.ids] = self.stepped


def _weight_plan(params: GcnParams, soft: SoftMasks,
                 binary: BinaryMasks | None) -> _FixedWeights | None:
    """The fixed-mask plan of a loop that trains only the weights under
    binary masks, else None."""
    if binary is None or soft.edges is not None or soft.weights is not None:
        return None
    return _FixedWeights(binary.weights, params)


class TrainLoop:
    """Owns the mutable state of one full-batch training session.

    The weights always train, plus exactly the soft masks that ``soft``
    holds: the one-shot phase passes all three, the denoising phase only
    the edge mask, verification none (``SoftMasks()``). ``opt`` maps each
    trained tensor's gradient field name to its Adam state.

    Binary masks, when present, gate the forward pass only: a pruned entry
    gets an exactly zero gradient, and with zero Adam moments a zero step.
    Whoever swaps ``binary`` must zero the moments of the entries it drops.
    A loop that trains only the weights under binary masks has a
    fixed-mask plan instead (``_FixedWeights``): it zeroes the pruned
    entries of ``params`` at its start, leaves them at 0, runs with no
    weight gate and steps only the kept entries. Its weight mask cannot
    change: :meth:`rebuild_norm` refuses a new one.

    Each epoch runs one forward pass: the post-update evaluation forward of
    one epoch is kept and serves as the training forward of the next; the
    epoch's gradients are dropped inside :meth:`run_epoch`, before it.
    Call :meth:`rebuild_norm` after any change to ``params``, ``soft`` or
    ``binary`` made outside :meth:`run_epoch`: it renormalizes the
    adjacency and drops the kept forward, which would otherwise describe
    the state before the change; under a plan it also zeroes the pruned
    weights again. A swap boundary passed to :meth:`train` runs before
    the evaluation forward, so that forward is taken under the new masks
    and is still kept. An epoch with no kept forward to reuse (a loop's
    first, or the first after such a change) runs its own full forward.
    """

    def __init__(self, dataset: Dataset, params: GcnParams, soft: SoftMasks,
                 binary: BinaryMasks | None = None, lr: float = 0.001):
        self.dataset = dataset
        self.params = params
        self.soft = soft
        self.binary = binary
        self.x_op = feature_operator(dataset, params.weights.dtype)
        self.norm = None
        self._forward = None  # (logits, cache) of the current state
        self.epochs_run = 0
        self._plan = _weight_plan(params, soft, binary)
        self.rebuild_norm()
        tensors = self._tensors()
        if self._plan is not None:
            tensors["theta"] = self._plan.stepped
        self.opt = {name: AdamState.for_param(tensor, lr)
                    for name, tensor in tensors.items() if tensor is not None}
        # what trains, for callers that label epochs by phase
        self.update_soft_edges = "m_edges" in self.opt
        self.update_soft_weights = "m_theta" in self.opt

    @property
    def phase(self) -> str:
        """What trains: "cotrain" (weights and weight masks), "denoise"
        (weights and the edge mask) or "theta" (weights only)."""
        if "m_theta" in self.opt:
            return "cotrain"
        return "denoise" if "m_edges" in self.opt else "theta"

    def _tensors(self) -> dict:
        """The trainable tensors by gradient field; None where absent."""
        return {"theta": self.params.weights, "m_edges": self.soft.edges,
                "m_theta": self.soft.weights}

    def rebuild_norm(self) -> None:
        if self._plan is not None:
            self._plan.apply(self.binary, self.params.weights)
        mask = self.binary.edges if self.binary is not None else None
        self.norm = normalize_adjacency(self.dataset, mask)
        self._forward = None

    def _run_forward(self):
        # a plan's weight mask is in the weights, its edge mask in ``norm``
        gate = None if self._plan is not None else self.binary
        return gcn_forward(self.params, self.soft, gate, self.dataset,
                           norm=self.norm, x_op=self.x_op)

    def run_epoch(self, evaluate: bool = True,
                  grad_acc: np.ndarray | None = None) -> EpochStats:
        """One backward/update sweep, then, if ``evaluate``, a post-update
        eval forward (:meth:`evaluate`), which is kept as the next epoch's
        training forward. Without it the accuracies read NaN until the
        caller evaluates the stats. The epoch's gradients live only here:
        after the Adam step, |dense weight gradient| is added into
        ``grad_acc`` (float64, over the pooled weight universe) if given,
        and they are dropped before the evaluation forward."""
        ds = self.dataset
        logits, cache = self._forward or self._run_forward()
        self._forward = None
        loss = masked_loss(logits, ds.labels, ds.train_idx)
        grads = backward(cache, ds.labels, ds.train_idx)
        del logits, cache  # free the activations before the next forward

        tensors = self._tensors()
        if self._plan is not None:
            self._plan.step(self.opt["theta"], tensors["theta"], grads.theta)
        else:
            for name, state in self.opt.items():
                adam_step(state, tensors[name], getattr(grads, name),
                          name=name)
        if grad_acc is not None:    # |g| in place: dense is dropped below
            grad_acc += np.abs(grads.dense, out=grads.dense)
        del grads

        stats = EpochStats(loss=loss, val_acc=np.nan, test_acc=np.nan)
        if evaluate:
            self.evaluate(stats)
        self.epochs_run += 1
        return stats

    def evaluate(self, stats: EpochStats) -> None:
        """Fill ``stats``' accuracies from a forward of the current state,
        kept as the next epoch's training forward."""
        ds = self.dataset
        self._forward = self._run_forward()
        logits = self._forward[0]
        stats.val_acc = evaluate_accuracy(self.params, self.soft, self.binary,
                                          ds, ds.val_idx, logits=logits)
        stats.test_acc = evaluate_accuracy(self.params, self.soft,
                                           self.binary, ds, ds.test_idx,
                                           logits=logits)

    def train(self, epochs: int, grad_acc: np.ndarray | None = None,
              boundary=None) -> TrainResult:
        """Run ``epochs`` epochs; report the best-validation epoch (earliest
        on ties), the usual protocol for semi-supervised node classification.
        ``grad_acc`` is handed to every :meth:`run_epoch`, which adds the
        epoch's |dense weight gradient| into it. ``boundary``, a callable
        taking no argument, runs after the last epoch's update and
        accumulation, with that epoch's gradients and activations freed; it
        may change the masks, calling :meth:`rebuild_norm`. The last
        epoch's accuracies are then taken under its result, by the forward
        that the next epoch trains on. A ``NonFiniteGradient`` leaves tagged
        with the phase and the loop's 1-based epoch count."""
        if epochs < 1:
            raise ValueError("need at least one epoch")
        out = TrainResult()
        for epoch in range(1, epochs + 1):
            at_boundary = boundary is not None and epoch == epochs
            try:
                stats = self.run_epoch(not at_boundary, grad_acc)
            except NonFiniteGradient as exc:
                exc.context.update(phase=self.phase,
                                   epoch=self.epochs_run + 1)
                raise
            if at_boundary:
                boundary()
                self.evaluate(stats)
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
    accuracy, and every epoch's stats."""

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
    """Train the weights under fixed binary masks and no soft masks.

    ``params`` is trained in place. Under binary masks the loop runs a
    fixed-mask plan (see ``TrainLoop``): it zeroes the pruned weights of
    ``params`` at its start and leaves them at 0, where an unmasked
    forward reads them.
    """
    return TrainLoop(dataset, params, SoftMasks(), binary=binary,
                     lr=lr).train(epochs)


def verify_ticket(dataset: Dataset, params: GcnParams,
                  binary: BinaryMasks | None, epochs: int,
                  lr: float = 0.001) -> TrainResult:
    """Retrain from the recorded initialization under the final masks.

    This is the winning-ticket check: the masks are kept, the weights are
    rewound to their initialization, and the sparse model is trained in
    isolation. ``params`` is not modified: the retrain trains a fresh
    copy, which ends with its pruned weights at 0 (``train_theta_only``).
    """
    return train_theta_only(dataset, params.fresh_copy(), binary, epochs,
                            lr=lr)
