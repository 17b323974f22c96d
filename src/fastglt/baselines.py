"""Comparison methods sharing the same engine: iterative magnitude pruning
with weight rewinding, uniform random masks, plain one-shot thresholding,
and the dense reference arm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .analysis import ArmResult, build_report
from .data import Dataset
from .masks import (BinaryMasks, _bottom_k, _round_half_up, init_soft_masks,
                    kept_count, random_bits, threshold_masks)
from .nn import GcnParams, arm_params, evaluate_accuracy
from .train import train_oneshot_phase, train_theta_only, verify_ticket


@dataclass
class ImpConfig:
    """Per-round prune fractions and training budget for iterative pruning."""

    p_g: float = 0.05
    p_theta: float = 0.2
    epochs_per_round: int = 200

    def validate(self) -> "ImpConfig":
        for name, p in (("p_g", self.p_g), ("p_theta", self.p_theta)):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        if self.p_g == 0.0 and self.p_theta == 0.0:
            raise ValueError("at least one prune fraction must be positive")
        if self.epochs_per_round < 1:
            raise ValueError("epochs_per_round must be >= 1")
        return self


def imp_rounds_needed(p: float, target: float) -> int:
    """Smallest k with 1 - (1-p)^k >= target."""
    if target <= 0.0:
        return 0
    if p <= 0.0:
        raise ValueError(f"target sparsity {target} unreachable with p=0")
    return int(np.ceil(np.log(1.0 - target) / np.log(1.0 - p) - 1e-12))


def run_imp(dataset: Dataset, imp: ImpConfig, *, s_g: float, s_theta: float,
            seed: int = 0, lr: float = 0.001, hidden: int = 512,
            dtype=np.float64, retrain_epochs: int | None = None,
            params0: GcnParams | None = None,
            record_levels: list[float] | None = None,
            config_digest: str = "") -> ArmResult:
    """Train, prune a fraction of what remains, rewind, repeat.

    Each round trains weights and soft masks for the round budget, prunes
    p_g of the kept edges and p_theta of the kept weights by soft-mask
    magnitude, and rewinds the weights to their initialization. A mask type
    stops pruning once its own target is met; the loop ends when both are.

    ``record_levels`` (graph sparsities) makes the edge prune counts land
    exactly on each requested level as it is crossed and snapshots the edge
    mask there, so distance curves can compare methods at matched levels.
    """
    imp.validate()
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, hidden, seed, dtype)
    shape0, shape1 = params.theta0.shape, params.theta1.shape
    soft0 = init_soft_masks(dataset, shape0, shape1, seed=seed, dtype=dtype)

    if s_g > 0 and imp.p_g == 0.0:
        raise ValueError("graph target unreachable with p_g=0")
    if s_theta > 0 and imp.p_theta == 0.0:
        raise ValueError("weight target unreachable with p_theta=0")

    n_edges = dataset.num_edges
    binary = BinaryMasks.all_ones(n_edges, shape0, shape1)
    w_universe = binary.weight_universe
    tgt_kept_e = kept_count(n_edges, s_g)
    tgt_kept_w = kept_count(w_universe, s_theta)
    levels = sorted(record_levels) if record_levels else []
    level_kept = {lvl: kept_count(n_edges, lvl) for lvl in levels}
    level_masks: dict[float, np.ndarray] = {}

    round_masks: list[BinaryMasks] = []
    last_train = None
    while True:
        kept_e = int(binary.edges.sum())
        kept_w = int(binary.weights_flat().sum())
        pending_levels = [lvl for lvl in levels if lvl not in level_masks]
        done = kept_e <= tgt_kept_e and kept_w <= tgt_kept_w \
            and not pending_levels
        if done:
            break

        params.rewind()
        soft = soft0.copy()
        last_train = train_oneshot_phase(dataset, params, soft,
                                         epochs=imp.epochs_per_round, lr=lr,
                                         binary=binary)
        best = last_train.best_soft

        new_edges = binary.edges
        if kept_e > tgt_kept_e or pending_levels:
            n_drop = _round_half_up(imp.p_g * kept_e)
            n_drop = max(n_drop, 1)
            if pending_levels:
                next_level_kept = level_kept[pending_levels[0]]
                if kept_e - n_drop < next_level_kept:
                    n_drop = kept_e - next_level_kept
            new_edges = binary.edges.copy()
            new_edges[_bottom_k(np.abs(best.edges), binary.edges, n_drop,
                                "imp edges")] = False
            for lvl in pending_levels:
                if int(new_edges.sum()) == level_kept[lvl]:
                    level_masks[lvl] = new_edges.copy()

        new_wflat = binary.weights_flat()
        if kept_w > tgt_kept_w:
            n_drop = max(_round_half_up(imp.p_theta * kept_w), 1)
            new_wflat[_bottom_k(np.abs(best.weights_flat()), new_wflat,
                                n_drop, "imp weights")] = False

        binary = binary.with_edges(new_edges).with_weights_flat(new_wflat)
        round_masks.append(binary)

    t_search = time.perf_counter()
    if last_train is None:     # degenerate (0, 0) targets: nothing to prune
        last_train = train_oneshot_phase(dataset, params, soft0.copy(),
                                         epochs=imp.epochs_per_round, lr=lr,
                                         binary=binary)
        t_search = time.perf_counter()

    acc_inplace = evaluate_accuracy(params, last_train.best_soft, binary,
                                    dataset, dataset.test_idx)
    verify_epochs = retrain_epochs if retrain_epochs is not None \
        else imp.epochs_per_round
    verify = verify_ticket(dataset, params, binary, verify_epochs, lr=lr)

    report = build_report(
        "imp", dataset, params, binary, t_start,
        {"rounds": t_search, "verify": time.perf_counter()},
        acc_inplace=acc_inplace, acc_retrained=verify.test_at_best,
        # the degenerate branch trains one round that prunes nothing
        search_epochs=max(len(round_masks), 1) * imp.epochs_per_round,
        verify_epochs=verify_epochs, seed=seed, config_digest=config_digest,
        extra={"rounds": len(round_masks), "p_g": imp.p_g,
               "p_theta": imp.p_theta})
    return ArmResult(report=report, params=params, binary=binary,
                     round_masks=round_masks, level_masks=level_masks)


def random_masks(dataset: Dataset, shape0, shape1, *, s_g: float,
                 s_theta: float, seed: int) -> BinaryMasks:
    """Uniformly random masks at exactly the target kept counts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A17]))
    masks = BinaryMasks.all_ones(dataset.num_edges, shape0, shape1)
    edges = random_bits(rng, dataset.num_edges, s_g)
    return masks.with_edges(edges).with_weights_flat(
        random_bits(rng, masks.weight_universe, s_theta))


def run_random(dataset: Dataset, *, s_g: float, s_theta: float,
               epochs: int, seed: int = 0, lr: float = 0.001,
               hidden: int = 512, dtype=np.float64,
               retrain_epochs: int | None = None,
               params0: GcnParams | None = None,
               config_digest: str = "") -> ArmResult:
    """Random masks at exact target sparsity, trained and then verified."""
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, hidden, seed, dtype)
    binary = random_masks(dataset, params.theta0.shape, params.theta1.shape,
                          s_g=s_g, s_theta=s_theta, seed=seed)
    inplace = train_theta_only(dataset, params, binary, epochs, lr=lr)
    t_search = time.perf_counter()
    verify_epochs = retrain_epochs if retrain_epochs is not None else epochs
    verify = verify_ticket(dataset, params, binary, verify_epochs, lr=lr)

    report = build_report(
        "random", dataset, params, binary, t_start,
        {"train": t_search, "verify": time.perf_counter()},
        acc_inplace=inplace.test_at_best, acc_retrained=verify.test_at_best,
        search_epochs=epochs, verify_epochs=verify_epochs, seed=seed,
        config_digest=config_digest)
    return ArmResult(report=report, params=params, binary=binary)


def run_oneshot_only(dataset: Dataset, *, s_g: float, s_theta: float,
                     epochs: int, seed: int = 0, lr: float = 0.001,
                     hidden: int = 512, dtype=np.float64,
                     retrain_epochs: int | None = None,
                     params0: GcnParams | None = None,
                     config_digest: str = "") -> ArmResult:
    """One co-training phase, then threshold straight to the targets."""
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, hidden, seed, dtype)
    soft = init_soft_masks(dataset, params.theta0.shape, params.theta1.shape,
                           seed=seed, dtype=dtype)
    oneshot = train_oneshot_phase(dataset, params, soft, epochs=epochs,
                                  lr=lr)
    best = oneshot.best_soft
    binary = threshold_masks(best, s_g, s_theta)
    t_search = time.perf_counter()

    acc_inplace = evaluate_accuracy(params, best, binary, dataset,
                                    dataset.test_idx)
    verify_epochs = retrain_epochs if retrain_epochs is not None else epochs
    verify = verify_ticket(dataset, params, binary, verify_epochs, lr=lr)

    report = build_report(
        "oneshot", dataset, params, binary, t_start,
        {"oneshot": t_search, "verify": time.perf_counter()},
        acc_inplace=acc_inplace, acc_retrained=verify.test_at_best,
        search_epochs=epochs, verify_epochs=verify_epochs, seed=seed,
        config_digest=config_digest,
        extra={"oneshot_best_epoch": oneshot.best_epoch})
    return ArmResult(report=report, params=params, binary=binary,
                     soft_edges=best.edges)


def run_dense(dataset: Dataset, *, epochs: int, seed: int = 0,
              lr: float = 0.001, hidden: int = 512, dtype=np.float64,
              params0: GcnParams | None = None,
              config_digest: str = "") -> ArmResult:
    """The unpruned reference arm every ticket is judged against."""
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, hidden, seed, dtype)
    trained = train_theta_only(dataset, params, None, epochs, lr=lr)

    report = build_report(
        "dense", dataset, params, None, t_start,
        {"train": time.perf_counter()},
        acc_inplace=trained.test_at_best, acc_retrained=trained.test_at_best,
        search_epochs=epochs, verify_epochs=0, seed=seed,
        config_digest=config_digest,
        extra={"best_epoch": trained.best_epoch})
    return ArmResult(report=report, params=params)
