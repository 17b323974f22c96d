"""Gradual denoising of one-shot tickets.

After one-shot thresholding lands slightly short of the target sparsity,
training continues for a fixed number of epochs split into intervals. At
every interval boundary the lowest-magnitude kept elements are dropped
("noisy") and a smaller number of pruned elements grow back ("potential"):
pruned weights with the largest gradient accumulated over the interval, and
pruned edges with the smallest edge degree on the current subgraph. The
per-interval surplus of drops over regrows walks each mask down an exact
integer trajectory that lands on the target kept-count at the last interval.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import ArmResult, finish_arm
from .config import ExperimentConfig
from .data import Dataset
from .graph import edge_degree_scores
from .masks import (BinaryMasks, SoftMasks, SparsityPlan, _bottom_k,
                    _round_half_up, init_soft_masks, kept_count,
                    threshold_masks, write_atomic)
from .nn import GcnParams, arm_params
from .optim import NonFiniteGradient
from .train import TrainLoop, train_oneshot_phase


@dataclass(frozen=True)
class TypePlan:
    """Exact kept-count trajectory for one mask universe."""

    universe: int
    kept_start: int
    kept_target: int
    n_net: tuple[int, ...]      # net removals per interval


def _plan(universe: int, s_inm: float, s_tgt: float,
          mu_end: int) -> TypePlan:
    start = kept_count(universe, s_inm)
    target = kept_count(universe, s_tgt)
    total = start - target
    if total < 0:
        raise ValueError("intermediate sparsity exceeds the target")
    base, residue = divmod(total, mu_end)
    n_net = [base] * mu_end
    n_net[-1] += residue        # final interval absorbs the rounding residue
    return TypePlan(universe=universe, kept_start=start, kept_target=target,
                    n_net=tuple(n_net))


@dataclass(frozen=True)
class DenoiseSchedule:
    """Interval layout plus the per-type shrink trajectories."""

    delta_t: int                # epochs per interval
    total_epochs: int           # denoising budget D
    tau: float                  # initial swap ratio
    kappa: float                # ratio decay exponent
    graph: TypePlan
    weights: TypePlan

    @property
    def mu_end(self) -> int:
        return -(-self.total_epochs // self.delta_t)   # ceil division

    @staticmethod
    def build(delta_t: int, total_epochs: int, tau: float, kappa: float,
              edge_universe: int, weight_universe: int,
              plan: SparsityPlan) -> "DenoiseSchedule":
        if delta_t < 1 or total_epochs < 1:
            raise ValueError("need delta_t >= 1 and at least one epoch")
        if tau < 0 or kappa <= 0:
            raise ValueError("tau must be >= 0 and kappa > 0")
        mu_end = -(-total_epochs // delta_t)
        return DenoiseSchedule(
            delta_t=delta_t, total_epochs=total_epochs, tau=tau, kappa=kappa,
            graph=_plan(edge_universe, plan.s_g_inm, plan.s_g_tgt, mu_end),
            weights=_plan(weight_universe, plan.s_theta_inm,
                          plan.s_theta_tgt, mu_end))


def denoise_ratio(mu: int, schedule: DenoiseSchedule) -> float:
    """Swap ratio at interval mu: tau * (1 - mu/mu_end)^kappa."""
    if not 1 <= mu <= schedule.mu_end:
        raise ValueError(f"interval {mu} outside [1, {schedule.mu_end}]")
    return schedule.tau * (1.0 - mu / schedule.mu_end) ** schedule.kappa


@dataclass(frozen=True)
class Quota:
    n_noisy: int       # kept elements to drop
    n_potential: int   # pruned elements to regrow
    n_net: int         # required net shrink this interval


def _quota(mu: int, ratio: float, plan: TypePlan, kept: int) -> Quota:
    n_net = plan.n_net[mu - 1]
    pruned = plan.universe - kept
    n_ns = max(_round_half_up(kept * ratio), n_net)
    # regrowth cannot exceed the pruned pool; shrink the swap, not the net
    n_ns = min(n_ns, pruned + n_net, kept)
    n_pt = n_ns - n_net
    if n_pt < 0:
        raise ValueError("quota construction produced negative regrowth")
    return Quota(n_noisy=n_ns, n_potential=n_pt, n_net=n_net)


def interval_quotas(mu: int, schedule: DenoiseSchedule, kept_edges: int,
                    kept_weights: int) -> tuple[Quota, Quota]:
    """Drop/regrow counts for (graph, weights) at interval boundary mu."""
    ratio = denoise_ratio(mu, schedule)
    return (_quota(mu, ratio, schedule.graph, kept_edges),
            _quota(mu, ratio, schedule.weights, kept_weights))


def identify_noisy(binary: BinaryMasks, soft_edges: np.ndarray,
                   params: GcnParams, quotas: tuple[Quota, Quota]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Kept elements of smallest magnitude: |m_g| for edges, |theta| for
    weights (pooled over both layers). Returns (edge_ids, flat_weight_ids)."""
    q_g, q_t = quotas
    noisy_edges = _bottom_k(soft_edges, binary.edges, q_g.n_noisy,
                            "noisy edges", score=np.abs)
    noisy_weights = _bottom_k(params.weights, binary.weights, q_t.n_noisy,
                              "noisy weights", score=np.abs)
    return noisy_edges, noisy_weights


def discover_potential(binary: BinaryMasks, grad_acc: np.ndarray,
                       edge_scores: np.ndarray, quotas: tuple[Quota, Quota]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Pruned elements worth regrowing: weights ranked by accumulated
    |dense gradient| (descending), edges by edge degree (ascending)."""
    q_g, q_t = quotas
    regrow_edges = _bottom_k(edge_scores, ~binary.edges, q_g.n_potential,
                             "potential edges")
    regrow_weights = _bottom_k(grad_acc, ~binary.weights, q_t.n_potential,
                               "potential weights", score=np.negative)
    return regrow_edges, regrow_weights


@dataclass
class SwapRecord:
    """Audit trail of one interval boundary's mask update. Each id array
    is ascending, as ``_bottom_k`` picks them; ``export_swaps`` refuses
    any other."""

    interval: int
    edges_removed: np.ndarray
    edges_regrown: np.ndarray
    weights_removed: np.ndarray
    weights_regrown: np.ndarray
    s_g_before: float
    s_g_after: float
    s_theta_before: float
    s_theta_after: float

    @property
    def n_net_edges(self) -> int:
        return self.edges_removed.size - self.edges_regrown.size

    @property
    def n_net_weights(self) -> int:
        return self.weights_removed.size - self.weights_regrown.size


# Powers 10^1 .. 10^18: an int64 id below 10^d has at most d digits.
_DECADES = 10 ** np.arange(1, 19, dtype=np.int64)


def _json_ids(ids: np.ndarray) -> bytes:
    """``json.dumps(ids.tolist())`` of ascending non-negative integer ids.

    Ascending ids fall into runs of equal digit count, found by one
    search against the powers of ten. Each run is one block of
    fixed-width rows (its digits, then ", "), written a digit column at a
    time, so no id becomes a Python int.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        return b"[]"
    if ids.dtype.kind not in "iu":
        raise ValueError(f"swap ids must be integers, got {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    if ids[0] < 0 or (ids[1:] < ids[:-1]).any():
        raise ValueError("swap ids must be ascending and non-negative")
    ends = np.append(np.searchsorted(ids, _DECADES), ids.size)
    # the ids of 1 .. 19 digits, each row its digits and ", "
    counts = np.diff(ends, prepend=0)
    out = np.empty(int(counts @ np.arange(3, 22)), dtype=np.uint8)
    start = pos = 0
    for width, end in enumerate(ends, 1):
        if end == start:
            continue
        block = out[pos:pos + (end - start) * (width + 2)]
        block = block.reshape(end - start, width + 2)
        block[:, width:] = (ord(","), ord(" "))
        rest = ids[start:end]
        for col in range(width - 1, -1, -1):
            quot = rest // 10       # one division per digit, not two
            block[:, col] = rest - 10 * quot + ord("0")
            rest = quot
        pos += block.size
        start = end
    return b"[" + out[:-2].tobytes() + b"]"


def _swap_line(rec: SwapRecord) -> bytes:
    """JSON of ``rec``'s fields in order, a newline; ids by ``_json_ids``."""
    items = []
    for f in fields(rec):
        value = getattr(rec, f.name)
        text = _json_ids(value) if isinstance(value, np.ndarray) \
            else json.dumps(value).encode()
        items.append(json.dumps(f.name).encode() + b": " + text)
    return b"{" + b", ".join(items) + b"}\n"


def export_swaps(swaps: list[SwapRecord], path: str | Path) -> None:
    """One JSON object per line, one line per interval: ``json.dumps`` of
    the record's fields in declaration order, arrays as ascending lists."""
    write_atomic(path, b"".join(_swap_line(rec) for rec in swaps))


def _swap_bits(mask: np.ndarray, remove: np.ndarray, add: np.ndarray,
               what: str) -> np.ndarray:
    """Clear the ``remove`` bits and set the ``add`` bits of ``mask`` in
    place; returns it."""
    # An index in both sets would have to be kept and pruned at once, so
    # the two subset checks also reject any overlap.
    if remove.size and not mask[remove].all():
        raise ValueError(f"{what}: removal set not within the kept set")
    if add.size and mask[add].any():
        raise ValueError(f"{what}: regrow set not within the pruned set")
    mask[remove] = False
    mask[add] = True
    return mask


def update_masks(binary: BinaryMasks, noisy: tuple[np.ndarray, np.ndarray],
                 potential: tuple[np.ndarray, np.ndarray],
                 interval: int = 0) -> tuple[BinaryMasks, SwapRecord]:
    """Drop the noisy sets, regrow the potential sets; pure set algebra.

    Preconditions (checked): noisy within kept, potential within pruned,
    hence disjoint. Optimizer/soft-mask side effects of a swap live in the
    driver, which also renormalizes the adjacency afterwards.
    """
    noisy_e, noisy_w = (np.asarray(a, dtype=np.int64) for a in noisy)
    pot_e, pot_w = (np.asarray(a, dtype=np.int64) for a in potential)
    new_edges = _swap_bits(binary.edges.copy(), noisy_e, pot_e, "edges")
    new_weights = _swap_bits(binary.weights.copy(), noisy_w, pot_w,
                             "weights")
    new_masks = BinaryMasks.pooled(new_weights, binary.shapes,
                                   edges=new_edges)
    record = SwapRecord(
        interval=interval,
        edges_removed=noisy_e, edges_regrown=pot_e,
        weights_removed=noisy_w, weights_regrown=pot_w,
        s_g_before=binary.graph_sparsity(),
        s_g_after=new_masks.graph_sparsity(),
        s_theta_before=binary.weight_sparsity(),
        s_theta_after=new_masks.weight_sparsity())
    return new_masks, record


# ---------------------------------------------------------------------------
# full driver
# ---------------------------------------------------------------------------

def run_fastglt(dataset: Dataset, config: ExperimentConfig,
                params0: GcnParams | None = None) -> ArmResult:
    """One-shot co-training, thresholding to the decayed intermediate
    sparsities, interval-wise denoising to the targets, then the
    retrain-from-initialization verification.

    The search consumes ``config.budget`` (epochs + denoise_epochs)
    training epochs; verification retrains for ``config.retrain_budget``.
    ``params0`` lets a harness share one initialization across method arms.
    """
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, config)
    dtype, lr, interval = config.dtype, config.lr, config.interval
    soft = init_soft_masks(dataset, *params.shapes, seed=config.seed,
                           dtype=dtype)
    plan = SparsityPlan(s_g_tgt=config.s_g, s_theta_tgt=config.s_theta,
                        alpha=config.alpha, beta=config.beta)

    oneshot = train_oneshot_phase(dataset, params, soft,
                                  epochs=config.epochs, lr=lr)
    t_oneshot = time.perf_counter()

    best = oneshot.best_soft
    binary = initial_binary = threshold_masks(best, plan.s_g_inm,
                                              plan.s_theta_inm)

    # Denoising trains the weights and the graph soft mask; the weight soft
    # mask is absorbed into the binary mask and dropped.
    soft_dn = SoftMasks(edges=best.edges.copy())
    history, oneshot_best_epoch = list(oneshot.history), oneshot.best_epoch
    del soft, best, oneshot     # the one-shot soft masks and snapshot
    schedule = DenoiseSchedule.build(
        delta_t=interval, total_epochs=config.denoise_epochs, tau=config.tau,
        kappa=config.kappa, edge_universe=dataset.num_edges,
        weight_universe=binary.weight_universe, plan=plan)

    loop = TrainLoop(dataset, params, soft_dn, binary=binary, lr=lr)
    grad_acc = np.zeros(binary.weight_universe, dtype=np.float64)
    swaps: list[SwapRecord] = []

    def boundary() -> None:
        """Interval ``len(swaps) + 1``'s swap, run by ``loop.train`` after
        the interval's last update and before its evaluation forward."""
        nonlocal binary
        mu = len(swaps) + 1
        quotas = interval_quotas(mu, schedule, int(binary.edges.sum()),
                                 binary.kept_weights)
        noisy = identify_noisy(binary, soft_dn.edges, params, quotas)
        deg = edge_degree_scores(dataset, binary.edges)
        potential = discover_potential(binary, grad_acc, deg, quotas)
        new_binary, record = update_masks(binary, noisy, potential,
                                          interval=mu)
        assert record.n_net_edges == quotas[0].n_net
        assert record.n_net_weights == quotas[1].n_net

        # Removed and regrown entries restart their Adam moments, so a
        # removed one stays put (see TrainLoop); regrown weights restart at 0.
        loop.opt["theta"].reset_entries(np.concatenate([noisy[1],
                                                        potential[1]]))
        params.weights[potential[1]] = 0.0
        loop.opt["m_edges"].reset_entries(np.concatenate([noisy[0],
                                                          potential[0]]))
        # Regrown edges re-enter at the 25th percentile of the surviving
        # kept |m_g|: low enough that they must earn promotion before the
        # next boundary, high enough not to be re-pruned immediately.
        # A mean-valued re-entry hides recycled edges mid-pack, which
        # measurably degrades the final mask when the pruned pool is small.
        regrow_e = potential[0]
        if regrow_e.size:
            survivors = binary.edges & new_binary.edges
            fill = float(np.percentile(np.abs(soft_dn.edges[survivors]), 25)) \
                if survivors.any() else 1.0
            soft_dn.edges[regrow_e] = fill

        binary = new_binary
        loop.binary = binary
        loop.rebuild_norm()
        grad_acc[:] = 0.0
        swaps.append(record)

    for mu in range(1, schedule.mu_end + 1):
        epochs = min(interval, config.denoise_epochs - (mu - 1) * interval)
        try:
            interval_run = loop.train(epochs, grad_acc, boundary)
        except NonFiniteGradient as exc:
            exc.context["interval"] = mu
            raise
        history += interval_run.history
    del loop, grad_acc  # with the loop's kept forward, before verification

    assert int(binary.edges.sum()) == schedule.graph.kept_target
    assert binary.kept_weights == schedule.weights.kept_target
    t_denoise = time.perf_counter()

    # the last epoch's test accuracy is taken under the final masks
    acc_inplace = interval_run.final_test
    return finish_arm(
        "fastglt", config, dataset, params, binary, t_start,
        {"oneshot": t_oneshot, "denoise": t_denoise},
        acc_inplace=acc_inplace, search_epochs=config.budget,
        extra={"intervals": len(swaps),
               "oneshot_best_epoch": oneshot_best_epoch},
        soft_edges=soft_dn.edges, swaps=swaps, history=history,
        initial_binary=initial_binary)
