"""Experiment orchestration: single runs, multi-arm suites with one shared
initialization, the extreme-sparsity sweep, and artifact emission.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from .analysis import (ArmResult, TicketReport, distance_curve,
                       distance_curve_csv, efficiency_csv, pruned_set_stats,
                       pruned_set_stats_csv, timing_report)
from .baselines import (imp_search, run_dense, run_imp, run_oneshot_only,
                        run_random)
from .config import ExperimentConfig, config_from_dict
from .data import Dataset, parse_dataset_spec
from .denoise import export_swaps, run_fastglt
from .graph import edge_degree_scores
from .masks import (BinaryMasks, init_soft_masks, load_mask,
                    one_shot_threshold, random_bits, save_mask,
                    save_soft_values, write_atomic)
from .nn import GcnParams, arm_params
from .train import TrainLoop
from .workers import threads_setting

SCHEMA_VERSION = 1


def make_params0(dataset: Dataset, config: ExperimentConfig) -> GcnParams:
    return arm_params(dataset, None, config)


def dispatch(config: ExperimentConfig, dataset: Dataset,
             params0: GcnParams | None) -> ArmResult:
    """Run one method arm and return its result."""
    # Built per call, so the names resolve now: a tracer that rebinds the
    # module globals must see its wrappers called.
    arms = {"dense": run_dense, "fastglt": run_fastglt, "imp": run_imp,
            "random": run_random, "oneshot": run_oneshot_only}
    if config.method not in arms:
        raise ValueError(f"unknown method {config.method!r}")
    return arms[config.method](dataset, config, params0)


def run_experiment(config: ExperimentConfig, out_dir: str | Path,
                   dataset: Dataset | None = None,
                   params0: GcnParams | None = None) -> ArmResult:
    """Execute one arm and write report.json plus mask/swap artifacts."""
    config.validate()
    threads = threads_setting()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if dataset is None:
        dataset = parse_dataset_spec(config.dataset)

    result = dispatch(config, dataset, params0)
    binary = result.binary
    if binary is not None:
        save_mask(binary.edges, out / "masks_edges.gltm")
        save_mask(binary.theta0, out / "masks_theta0.gltm")
        save_mask(binary.theta1, out / "masks_theta1.gltm")
    if result.soft_edges is not None:
        save_soft_values(result.soft_edges, out / "soft_edges.f32")
    if result.swaps:
        export_swaps(result.swaps, out / "swaps.jsonl")
    for k, masks in enumerate(result.round_masks, start=1):
        save_mask(masks.edges, out / f"round_{k:03d}_edges.gltm")
        save_mask(masks.weights, out / f"round_{k:03d}_weights.gltm")

    payload = result.report.as_dict()
    history = {"search_loss": [h.loss for h in result.history],
               "search_val_acc": [h.val_acc for h in result.history]} \
        if result.history else {}
    report_dict = {
        "schema_version": SCHEMA_VERSION,
        "config": config.as_dict(),
        "config_digest": config.digest(),
        "threads": threads,
        "results": payload["results"],
        "history": history,
        "timing": payload["timing"],
    }
    write_atomic(out / "report.json", (json.dumps(
        report_dict, sort_keys=True, indent=2) + "\n").encode())
    return result


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteOutcome:
    reports: list[TicketReport]
    arm_dirs: list[Path]
    extreme: dict = field(default_factory=dict)
    failed_arm: str | None = None


def _fig2_artifacts(out: Path, dataset: Dataset, config: ExperimentConfig,
                    params0: GcnParams, levels: list[float],
                    weight_level: float = 0.3) -> None:
    """Mask-similarity and pruned-set CSVs at matched sparsity levels.

    The iterative search (unverified) records its edge mask exactly at each
    level; one-shot and random masks are generated at the same kept counts,
    so every distance compares equally sparse masks. Weight-pruned sets are
    compared at the iterative search's achieved weight sparsity.
    """
    levels = sorted(levels)
    imp_cfg = config.replace(method="imp", s_g=max(levels),
                             s_theta=weight_level)
    imp_binary, _, _, level_masks = imp_search(
        dataset, imp_cfg, params0.fresh_copy(), levels)
    reference = [level_masks[lvl] for lvl in levels]

    # one co-training run gives the one-shot masks and, summed over its
    # epochs, the |dense weight gradient| the pruned-set stats rank by
    soft = init_soft_masks(dataset, *params0.shapes, seed=config.seed,
                           dtype=config.dtype)
    grads = np.zeros(params0.weights.size)
    oneshot = TrainLoop(dataset, params0.fresh_copy(), soft,
                        lr=config.lr).train(config.epochs, grads)
    histories: dict[str, list[np.ndarray]] = {"oneshot": [], "random": []}
    rng = np.random.default_rng(np.random.SeedSequence([config.seed,
                                                        0xF162]))
    for lvl in levels:
        histories["oneshot"].append(
            one_shot_threshold(oneshot.best_soft.edges, lvl))
        histories["random"].append(random_bits(rng, dataset.num_edges, lvl))

    mask_dir = out / "fig2_masks"
    mask_dir.mkdir(exist_ok=True)
    for lvl, mask in zip(levels, reference):
        save_mask(mask, mask_dir / f"imp_s{int(round(lvl * 100)):03d}.gltm")
    for method, masks in histories.items():
        for lvl, mask in zip(levels, masks):
            save_mask(mask, mask_dir /
                      f"{method}_s{int(round(lvl * 100)):03d}.gltm")

    rows = distance_curve(histories, reference)
    write_atomic(out / "fig2_left.csv", distance_curve_csv(rows).encode())

    # pruned-set comparison: edges at the top matched level, weights at the
    # iterative arm's achieved weight sparsity
    degs = edge_degree_scores(dataset)
    save_soft_values(grads, out / "probe_weight_grads.f32")
    save_soft_values(degs, out / "edge_degrees.f32")
    os_w = one_shot_threshold(oneshot.best_soft.weights,
                              imp_binary.weight_sparsity())
    imp_masks = imp_binary.with_edges(level_masks[levels[-1]])
    os_masks = BinaryMasks.pooled(os_w, imp_binary.shapes,
                                  edges=histories["oneshot"][-1])
    stats = pruned_set_stats(imp_masks, os_masks, grads, degs,
                             names=("imp", "oneshot"))
    write_atomic(out / "fig2_right.csv",
                 pruned_set_stats_csv(stats).encode())


def _extreme_sweep(out: Path, dataset: Dataset, config: ExperimentConfig,
                   params0: GcnParams, sweep: dict,
                   dense_acc: float) -> dict:
    """March each method up an arithmetic sparsity grid until it stops
    producing winning tickets; the last passing level is its extreme.

    With "seeds" listing several trial seeds, each level's verdict uses the
    median retrained accuracy over the trials against the dense median over
    the same seeds, each trial on its own shared initialization.
    """
    vary = sweep.get("vary", "s_g")
    if vary not in ("s_g", "s_theta"):
        raise ValueError(f"sweep.vary must be s_g or s_theta, got {vary!r}")
    start = float(sweep.get("start", 0.05))
    step = float(sweep.get("step", 0.05))
    stop = float(sweep.get("stop", 0.95))
    delta = float(sweep.get("win_delta", 0.0))
    methods = sweep.get("methods", ["fastglt", "oneshot", "random"])
    seeds = [int(s) for s in sweep.get("seeds", [config.seed])]

    inits = {config.seed: params0}
    for s in seeds:
        if s not in inits:
            inits[s] = make_params0(dataset, config.replace(seed=s))
    if seeds != [config.seed]:
        dense_acc = median([
            dispatch(config.replace(method="dense", seed=s), dataset,
                     inits[s]).report.acc_retrained
            for s in seeds])

    rows = []
    extreme: dict[str, float | None] = {}
    for method in methods:
        last_pass = None
        level = start
        while level <= stop + 1e-9:
            arm = config.replace(method=method, **{vary: round(level, 6)})
            acc = median([
                dispatch(arm.replace(seed=s), dataset,
                         inits[s]).report.acc_retrained
                for s in seeds])
            win = acc >= dense_acc - delta
            rows.append({"method": method, "level": round(level, 6),
                         "acc_retrained": acc, "win": win})
            if not win:
                break
            last_pass = round(level, 6)
            level += step
        extreme[method] = last_pass

    lines = ["method,level,acc_retrained,win"]
    lines += [f"{r['method']},{r['level']:.4f},{r['acc_retrained']:.6f},"
              f"{int(r['win'])}" for r in rows]
    lines += [f"{m},extreme,{'' if v is None else f'{v:.4f}'},"
              for m, v in extreme.items()]
    write_atomic(out / "extreme_sparsity.csv",
                 ("\n".join(lines) + "\n").encode())
    return {"levels": rows, "extreme": extreme, "dense_acc": dense_acc,
            "win_delta": delta, "seeds": seeds}


def check_suite(suite) -> None:
    """Refuse, with a ``ValueError``, a suite whose sections have the wrong
    shape: it must be an object, its "shared" an object and its "arms" a
    list of objects."""
    if not isinstance(suite, dict):
        raise ValueError("expected a JSON object")
    shared = suite.get("shared", {})
    if not isinstance(shared, dict):
        raise ValueError(f'"shared" must be an object, got '
                         f'{type(shared).__name__}')
    arms = suite.get("arms", [])
    if not isinstance(arms, list) or not all(isinstance(a, dict)
                                             for a in arms):
        raise ValueError('"arms" must be a list of objects')


def run_suite(suite: dict | str | Path, out_dir: str | Path) -> SuiteOutcome:
    """Run every arm against one dataset and one shared initialization.

    The suite file holds {"shared": {config keys}, "arms": [{overrides}],
    "sweep": {...}?, "fig2": {"levels": [...]}?}. A dense arm is prepended
    when absent since every comparison normalizes against it. An arm
    failure aborts the suite but completed artifacts stay on disk.
    """
    if isinstance(suite, (str, Path)):
        suite = json.loads(Path(suite).read_text())
    check_suite(suite)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    shared = dict(suite.get("shared", {}))
    arms = [dict(a) for a in suite.get("arms", [])]
    if not any(a.get("method") == "dense" for a in arms):
        arms.insert(0, {"method": "dense"})

    base = config_from_dict(shared)
    dataset = parse_dataset_spec(base.dataset)
    params0 = make_params0(dataset, base)
    # an arm at another precision starts from the same draw at its dtype
    inits = {base.precision: params0}

    outcome = SuiteOutcome(reports=[], arm_dirs=[])
    dense_acc = None
    for i, overrides in enumerate(arms):
        arm_cfg = config_from_dict({**shared, **overrides})
        arm_dir = out / f"arm_{i:02d}_{arm_cfg.method}"
        if arm_cfg.precision not in inits:
            inits[arm_cfg.precision] = make_params0(
                dataset, base.replace(precision=arm_cfg.precision))
        try:
            run = run_experiment(arm_cfg, arm_dir, dataset=dataset,
                                 params0=inits[arm_cfg.precision])
        except Exception:
            outcome.failed_arm = arm_cfg.method
            _write_summary(out, outcome)
            raise
        outcome.reports.append(run.report)
        outcome.arm_dirs.append(arm_dir)
        if arm_cfg.method == "dense" and dense_acc is None:
            dense_acc = run.report.acc_retrained

    rows = timing_report(outcome.reports)
    write_atomic(out / "efficiency.csv", efficiency_csv(rows).encode())

    if "fig2" in suite:
        _fig2_artifacts(out, dataset, base, params0,
                        [float(x) for x in suite["fig2"]["levels"]],
                        weight_level=float(
                            suite["fig2"].get("weight_level", 0.3)))
    if "sweep" in suite:
        outcome.extreme = _extreme_sweep(out, dataset, base, params0,
                                         suite["sweep"], dense_acc)
    _write_summary(out, outcome)
    return outcome


def _write_summary(out: Path, outcome: SuiteOutcome) -> None:
    summary = {
        "schema_version": SCHEMA_VERSION,
        "arms": [{"method": r.method, "s_g": r.s_g, "s_theta": r.s_theta,
                  "acc_retrained": r.acc_retrained,
                  "relative_time": r.relative_time}
                 for r in outcome.reports],
        "extreme": outcome.extreme.get("extreme")
        if outcome.extreme else None,
        "failed_arm": outcome.failed_arm,
    }
    write_atomic(out / "suite_summary.json", (json.dumps(
        summary, sort_keys=True, indent=2) + "\n").encode())


# ---------------------------------------------------------------------------
# post-hoc analysis over stored artifacts
# ---------------------------------------------------------------------------

def analyze_dir(out_dir: str | Path) -> dict:
    """Regenerate analysis CSVs from report/mask artifacts on disk."""
    out = Path(out_dir)
    reports = []
    for rp in sorted(out.glob("arm_*/report.json")):
        data = json.loads(rp.read_text())
        res, timing = data["results"], data["timing"]
        reports.append(TicketReport(
            method=res["method"], s_g=res["s_g"], s_theta=res["s_theta"],
            acc_inplace=res["acc_inplace"],
            acc_retrained=res["acc_retrained"], macs=res["macs"],
            dense_macs=res["dense_macs"], seed=res["seed"],
            config_digest=res["config_digest"],
            search_seconds=timing["search_seconds"],
            total_seconds=timing["total_seconds"]))
    produced = {}
    if reports:
        rows = timing_report(reports)
        write_atomic(out / "efficiency.csv", efficiency_csv(rows).encode())
        produced["efficiency.csv"] = len(rows)

    mask_dir = out / "fig2_masks"
    if mask_dir.is_dir():
        by_method: dict[str, dict[int, np.ndarray]] = {}
        for f in sorted(mask_dir.glob("*.gltm")):
            method, _, lvl = f.stem.rpartition("_s")
            by_method.setdefault(method, {})[int(lvl)] = load_mask(f)
        ref = by_method.pop("imp", None)
        if ref:
            levels = sorted(ref)
            histories = {m: [d[lvl] for lvl in levels]
                         for m, d in by_method.items()}
            rows = distance_curve(histories, [ref[lvl] for lvl in levels])
            write_atomic(out / "fig2_left.csv",
                         distance_curve_csv(rows).encode())
            produced["fig2_left.csv"] = len(rows)
    return produced
