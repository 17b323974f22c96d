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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import ArmResult, build_report
from .data import Dataset
from .graph import edge_degree_scores
from .masks import (BinaryMasks, SoftMasks, SparsityPlan, _bottom_k,
                    _round_half_up, init_soft_masks, kept_count,
                    threshold_masks)
from .nn import GcnParams, arm_params, evaluate_accuracy
from .train import TrainLoop, train_oneshot_phase, verify_ticket


@dataclass(frozen=True)
class TypePlan:
    """Exact kept-count trajectory for one mask universe."""

    universe: int
    kept_start: int
    kept_target: int
    n_net: tuple[int, ...]      # net removals per interval

    @property
    def total_shrink(self) -> int:
        return self.kept_start - self.kept_target


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
    edge_scores = np.abs(soft_edges)
    noisy_edges = _bottom_k(edge_scores, binary.edges, q_g.n_noisy,
                            "noisy edges")
    w_scores = np.abs(np.concatenate([params.theta0.ravel(),
                                      params.theta1.ravel()]))
    noisy_weights = _bottom_k(w_scores, binary.weights_flat(), q_t.n_noisy,
                              "noisy weights")
    return noisy_edges, noisy_weights


def discover_potential(binary: BinaryMasks, grad_acc: np.ndarray,
                       edge_scores: np.ndarray, quotas: tuple[Quota, Quota]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Pruned elements worth regrowing: weights ranked by accumulated
    |dense gradient| (descending), edges by edge degree (ascending)."""
    q_g, q_t = quotas
    regrow_edges = _bottom_k(edge_scores, ~binary.edges, q_g.n_potential,
                             "potential edges")
    regrow_weights = _bottom_k(-grad_acc, ~binary.weights_flat(),
                               q_t.n_potential, "potential weights")
    return regrow_edges, regrow_weights


@dataclass
class SwapRecord:
    """Audit trail of one interval boundary's mask update."""

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

    def as_dict(self) -> dict:
        return {
            "interval": self.interval,
            "edges_removed": self.edges_removed.tolist(),
            "edges_regrown": self.edges_regrown.tolist(),
            "weights_removed": self.weights_removed.tolist(),
            "weights_regrown": self.weights_regrown.tolist(),
            "s_g_before": self.s_g_before, "s_g_after": self.s_g_after,
            "s_theta_before": self.s_theta_before,
            "s_theta_after": self.s_theta_after,
        }


def export_swaps(swaps: list[SwapRecord], path: str | Path) -> None:
    """One JSON object per line, one line per interval."""
    with open(path, "w") as fh:
        for rec in swaps:
            fh.write(json.dumps(rec.as_dict()) + "\n")


def _swap_bits(mask: np.ndarray, remove: np.ndarray, add: np.ndarray,
               what: str) -> np.ndarray:
    if remove.size and not mask[remove].all():
        raise ValueError(f"{what}: removal set not within the kept set")
    if add.size and mask[add].any():
        raise ValueError(f"{what}: regrow set not within the pruned set")
    if np.intersect1d(remove, add).size:
        raise ValueError(f"{what}: removal and regrow sets overlap")
    out = mask.copy()
    out[remove] = False
    out[add] = True
    return out


def update_masks(binary: BinaryMasks, noisy: tuple[np.ndarray, np.ndarray],
                 potential: tuple[np.ndarray, np.ndarray],
                 interval: int = 0) -> tuple[BinaryMasks, SwapRecord]:
    """Drop the noisy sets, regrow the potential sets; pure set algebra.

    Preconditions (checked): noisy within kept, potential within pruned,
    disjoint. Optimizer/soft-mask side effects of a swap live in the
    driver, which also renormalizes the adjacency afterwards.
    """
    noisy_e, noisy_w = (np.asarray(a, dtype=np.int64) for a in noisy)
    pot_e, pot_w = (np.asarray(a, dtype=np.int64) for a in potential)
    new_edges = _swap_bits(binary.edges, noisy_e, pot_e, "edges")
    new_wflat = _swap_bits(binary.weights_flat(), noisy_w, pot_w, "weights")
    new_masks = binary.with_edges(new_edges).with_weights_flat(new_wflat)
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

def _zero_flat_weights(params: GcnParams, idx: np.ndarray) -> None:
    n0 = params.theta0.size
    lo = idx[idx < n0]
    hi = idx[idx >= n0] - n0
    params.theta0.reshape(-1)[lo] = 0.0
    params.theta1.reshape(-1)[hi] = 0.0


def run_fastglt(dataset: Dataset, *, s_g: float, s_theta: float,
                epochs_oneshot: int, epochs_denoise: int, interval: int,
                tau: float = 0.1, kappa: float = 1.0, alpha: float = 0.01,
                beta: float = 1.2, lr: float = 0.001, hidden: int = 512,
                seed: int = 0, dtype=np.float64,
                retrain_epochs: int | None = None,
                params0: GcnParams | None = None,
                config_digest: str = "") -> ArmResult:
    """One-shot co-training, thresholding to the decayed intermediate
    sparsities, interval-wise denoising to the targets, then the
    retrain-from-initialization verification.

    The search consumes epochs_oneshot + epochs_denoise training epochs;
    verification retraining is budgeted separately (defaults to the same
    total). ``params0`` lets a harness share one initialization across
    method arms.
    """
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, hidden, seed, dtype)
    soft = init_soft_masks(dataset, params.theta0.shape, params.theta1.shape,
                           seed=seed, dtype=dtype)
    plan = SparsityPlan(s_g_tgt=s_g, s_theta_tgt=s_theta,
                        alpha=alpha, beta=beta)

    oneshot = train_oneshot_phase(dataset, params, soft,
                                  epochs=epochs_oneshot, lr=lr)
    t_oneshot = time.perf_counter()

    best = oneshot.best_soft
    binary = initial_binary = threshold_masks(best, plan.s_g_inm,
                                              plan.s_theta_inm)

    # Denoising trains the weights and the graph soft mask; the weight soft
    # mask is absorbed into the binary mask and dropped.
    soft_dn = SoftMasks(edges=best.edges.astype(dtype).copy())
    schedule = DenoiseSchedule.build(
        delta_t=interval, total_epochs=epochs_denoise, tau=tau, kappa=kappa,
        edge_universe=dataset.num_edges,
        weight_universe=binary.weight_universe, plan=plan)

    loop = TrainLoop(dataset, params, soft_dn, binary=binary, lr=lr)
    grad_acc = np.zeros(binary.weight_universe, dtype=np.float64)
    n0 = params.theta0.size
    swaps: list[SwapRecord] = []
    history = list(oneshot.history)
    for mu in range(1, schedule.mu_end + 1):
        epochs = min(interval, epochs_denoise - (mu - 1) * interval)
        history += loop.train(epochs, grad_acc).history
        quotas = interval_quotas(mu, schedule,
                                 int(binary.edges.sum()),
                                 int(binary.weights_flat().sum()))
        noisy = identify_noisy(binary, soft_dn.edges, params, quotas)
        deg = edge_degree_scores(dataset, binary.edges)
        potential = discover_potential(binary, grad_acc, deg, quotas)
        new_binary, record = update_masks(binary, noisy, potential,
                                          interval=mu)
        assert record.n_net_edges == quotas[0].n_net
        assert record.n_net_weights == quotas[1].n_net

        # regrown weights restart at zero with fresh optimizer moments
        regrow_w = potential[1]
        if regrow_w.size:
            _zero_flat_weights(params, regrow_w)
            loop.opt["theta0"].reset_entries(regrow_w[regrow_w < n0])
            loop.opt["theta1"].reset_entries(regrow_w[regrow_w >= n0] - n0)
        # Regrown edges re-enter at the 25th percentile of the surviving
        # kept |m_g|: low enough that they must earn promotion before the
        # next boundary, high enough not to be re-pruned immediately.
        # A mean-valued re-entry hides recycled edges mid-pack, which
        # measurably degrades the final mask when the pruned pool is small.
        regrow_e = potential[0]
        if regrow_e.size:
            survivors = binary.edges.copy()
            survivors[noisy[0]] = False
            fill = float(np.percentile(np.abs(soft_dn.edges[survivors]), 25)) \
                if survivors.any() else 1.0
            soft_dn.edges[regrow_e] = fill
            loop.opt["m_edges"].reset_entries(regrow_e)

        binary = new_binary
        loop.binary = binary
        loop.rebuild_norm()
        grad_acc[:] = 0.0
        swaps.append(record)

    assert int(binary.edges.sum()) == schedule.graph.kept_target
    assert int(binary.weights_flat().sum()) == schedule.weights.kept_target
    t_denoise = time.perf_counter()

    acc_inplace = evaluate_accuracy(params, soft_dn, binary, dataset,
                                    dataset.test_idx, norm=loop.norm,
                                    x_op=loop.x_op)
    budget = epochs_oneshot + epochs_denoise
    verify_epochs = retrain_epochs if retrain_epochs is not None else budget
    verify = verify_ticket(dataset, params, binary, verify_epochs, lr=lr)

    report = build_report(
        "fastglt", dataset, params, binary, t_start,
        {"oneshot": t_oneshot, "denoise": t_denoise,
         "verify": time.perf_counter()},
        acc_inplace=acc_inplace, acc_retrained=verify.test_at_best,
        search_epochs=budget, verify_epochs=verify_epochs, seed=seed,
        config_digest=config_digest,
        extra={"intervals": len(swaps),
               "oneshot_best_epoch": oneshot.best_epoch})
    return ArmResult(report=report, params=params, binary=binary,
                     soft_edges=soft_dn.edges, swaps=swaps, history=history,
                     initial_binary=initial_binary)
