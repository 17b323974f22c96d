"""Comparison methods sharing the same engine: iterative magnitude pruning
with weight rewinding, uniform random masks, plain one-shot thresholding,
and the dense reference arm.
"""

from __future__ import annotations

import time

import numpy as np

from .analysis import ArmResult, finish_arm
from .config import ExperimentConfig
from .data import Dataset
from .masks import (BinaryMasks, _bottom_k, _round_half_up,
                    init_soft_masks, kept_count, random_bits,
                    threshold_masks)
from .nn import GcnParams, arm_params, evaluate_accuracy
from .train import train_oneshot_phase, train_theta_only


def imp_rounds_needed(p: float, target: float) -> int:
    """Smallest k with 1 - (1-p)^k >= target."""
    if target <= 0.0:
        return 0
    if p <= 0.0:
        raise ValueError(f"target sparsity {target} unreachable with p=0")
    return int(np.ceil(np.log(1.0 - target) / np.log(1.0 - p) - 1e-12))


def imp_search(dataset: Dataset, config: ExperimentConfig,
               params: GcnParams, levels=()) -> tuple:
    """Train, prune a fraction of what remains, rewind, repeat.

    Each round trains weights and soft masks for ``config.round_budget``
    epochs, prunes imp_p_g of the kept edges and imp_p_theta of the kept
    weights by soft-mask magnitude, and rewinds ``params`` to their
    initialization. A mask type stops pruning once its own target is met;
    the loop ends when both are.

    ``levels`` (graph sparsities) makes the edge prune counts land exactly
    on each requested level as it is crossed and snapshots the edge mask
    there, so distance curves can compare methods at matched levels.

    Returns (final masks, the last round's ``TrainResult``, the masks after
    each round, {level: edge mask}).
    """
    config.validate()
    soft0 = init_soft_masks(dataset, *params.shapes, seed=config.seed,
                            dtype=config.dtype)
    p_g, p_theta = config.imp_p_g, config.imp_p_theta
    epochs, lr = config.round_budget, config.lr

    if config.s_g > 0 and p_g == 0.0:
        raise ValueError("graph target unreachable with p_g=0")
    if config.s_theta > 0 and p_theta == 0.0:
        raise ValueError("weight target unreachable with p_theta=0")

    n_edges = dataset.num_edges
    binary = BinaryMasks.all_ones(n_edges, *params.shapes)
    w_universe = binary.weight_universe
    tgt_kept_e = kept_count(n_edges, config.s_g)
    tgt_kept_w = kept_count(w_universe, config.s_theta)
    levels = sorted(levels)
    level_kept = {lvl: kept_count(n_edges, lvl) for lvl in levels}
    level_masks: dict[float, np.ndarray] = {}

    round_masks: list[BinaryMasks] = []
    last_train = None
    while True:
        kept_e = int(binary.edges.sum())
        kept_w = binary.kept_weights
        pending_levels = [lvl for lvl in levels if lvl not in level_masks]
        done = kept_e <= tgt_kept_e and kept_w <= tgt_kept_w \
            and not pending_levels
        if done:
            break

        params.rewind()
        last_train = best = None    # the previous round's, freed first
        last_train = train_oneshot_phase(dataset, params, soft0.copy(),
                                         epochs=epochs, lr=lr,
                                         binary=binary)
        best = last_train.best_soft

        new_edges = binary.edges
        if kept_e > tgt_kept_e or pending_levels:
            n_drop = _round_half_up(p_g * kept_e)
            n_drop = max(n_drop, 1)
            if pending_levels:
                next_level_kept = level_kept[pending_levels[0]]
                if kept_e - n_drop < next_level_kept:
                    n_drop = kept_e - next_level_kept
            new_edges = binary.edges.copy()
            new_edges[_bottom_k(best.edges, binary.edges, n_drop,
                                "imp edges", score=np.abs)] = False
            for lvl in pending_levels:
                if int(new_edges.sum()) == level_kept[lvl]:
                    level_masks[lvl] = new_edges.copy()

        new_weights = binary.weights
        if kept_w > tgt_kept_w:
            n_drop = max(_round_half_up(p_theta * kept_w), 1)
            new_weights = binary.weights.copy()
            new_weights[_bottom_k(best.weights, binary.weights, n_drop,
                                  "imp weights", score=np.abs)] = False

        binary = BinaryMasks.pooled(new_weights, binary.shapes,
                                    edges=new_edges)
        round_masks.append(binary)

    if last_train is None:     # degenerate (0, 0) targets: nothing to prune
        last_train = train_oneshot_phase(dataset, params, soft0.copy(),
                                         epochs=epochs, lr=lr,
                                         binary=binary)
    return binary, last_train, round_masks, level_masks


def run_imp(dataset: Dataset, config: ExperimentConfig,
            params0: GcnParams | None = None) -> ArmResult:
    """Iterative magnitude pruning with weight rewinding (``imp_search``)
    to the config's targets, then the verification retrain."""
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, config)
    binary, last_train, round_masks, _ = imp_search(dataset, config, params)
    t_search = time.perf_counter()
    acc_inplace = evaluate_accuracy(params, last_train.best_soft, binary,
                                    dataset, dataset.test_idx)
    return finish_arm(
        "imp", config, dataset, params, binary, t_start,
        {"rounds": t_search}, acc_inplace=acc_inplace,
        # the degenerate branch trains one round that prunes nothing
        search_epochs=max(len(round_masks), 1) * config.round_budget,
        extra={"rounds": len(round_masks), "p_g": config.imp_p_g,
               "p_theta": config.imp_p_theta},
        round_masks=round_masks)


def random_masks(dataset: Dataset, shape0, shape1, *, s_g: float,
                 s_theta: float, seed: int) -> BinaryMasks:
    """Uniformly random masks at exactly the target kept counts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A17]))
    masks = BinaryMasks.all_ones(dataset.num_edges, shape0, shape1)
    edges = random_bits(rng, dataset.num_edges, s_g)
    return BinaryMasks.pooled(random_bits(rng, masks.weight_universe,
                                          s_theta), masks.shapes, edges=edges)


def run_random(dataset: Dataset, config: ExperimentConfig,
               params0: GcnParams | None = None) -> ArmResult:
    """Random masks at exact target sparsity, trained for ``config.epochs``
    and then verified."""
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, config)
    binary = random_masks(dataset, *params.shapes, s_g=config.s_g,
                          s_theta=config.s_theta, seed=config.seed)
    inplace = train_theta_only(dataset, params, binary, config.epochs,
                               lr=config.lr)
    return finish_arm(
        "random", config, dataset, params, binary, t_start,
        {"train": time.perf_counter()}, acc_inplace=inplace.test_at_best,
        search_epochs=config.epochs)


def run_oneshot_only(dataset: Dataset, config: ExperimentConfig,
                     params0: GcnParams | None = None) -> ArmResult:
    """One co-training phase of ``config.epochs``, then threshold straight
    to the targets."""
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, config)
    soft = init_soft_masks(dataset, *params.shapes, seed=config.seed,
                           dtype=config.dtype)
    oneshot = train_oneshot_phase(dataset, params, soft,
                                  epochs=config.epochs, lr=config.lr)
    best = oneshot.best_soft
    binary = threshold_masks(best, config.s_g, config.s_theta)
    t_search = time.perf_counter()

    acc_inplace = evaluate_accuracy(params, best, binary, dataset,
                                    dataset.test_idx)
    return finish_arm(
        "oneshot", config, dataset, params, binary, t_start,
        {"oneshot": t_search}, acc_inplace=acc_inplace,
        search_epochs=config.epochs,
        extra={"oneshot_best_epoch": oneshot.best_epoch},
        soft_edges=best.edges)


def run_dense(dataset: Dataset, config: ExperimentConfig,
              params0: GcnParams | None = None) -> ArmResult:
    """The unpruned reference arm every ticket is judged against, trained
    for the full ``config.budget``."""
    t_start = time.perf_counter()
    params = arm_params(dataset, params0, config)
    trained = train_theta_only(dataset, params, None, config.budget,
                               lr=config.lr)
    return finish_arm(
        "dense", config, dataset, params, None, t_start,
        {"train": time.perf_counter()}, acc_inplace=trained.test_at_best,
        search_epochs=config.budget,
        extra={"best_epoch": trained.best_epoch})
