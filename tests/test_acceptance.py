"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria that require the real Cora bundle (1, the Cora halves of 2 and 3)
skip with instructions when the bundle is absent; this sandbox has no
network route to the raw files. Desk-scale analogs on a frozen synthetic
instance exercise the same machinery end to end and run unconditionally.
The frozen instance and trial seeds were chosen once and are deterministic:
reruns reproduce these numbers bit for bit on the same BLAS stack.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fastglt.analysis import mac_count
from fastglt.baselines import run_dense, run_imp
from fastglt.config import ExperimentConfig, config_from_dict
from fastglt.data import generate_sbm, load_bundle
from fastglt.denoise import (Quota, _plan, discover_potential, identify_noisy,
                             interval_quotas, run_fastglt, update_masks,
                             DenoiseSchedule, denoise_ratio)
from fastglt.harness import _fig2_artifacts, run_experiment, run_suite
from fastglt.masks import (BinaryMasks, kept_count, one_shot_threshold,
                           sparsity)
from fastglt.nn import GcnParams, glorot_params

from test_analysis import mac_oracle
from test_masks import threshold_oracle
from test_nn import fd_check, make_instance

# frozen desk instance: sparse planted partition, 42% cross-block noise
# edges, weakly informative features; graph structure carries the signal
SBM_SPEC = ("sbm:blocks=3,nodes_per_block=100,p_in=0.06,p_out=0.02,"
            "feature_dim=12,seed=101,mean_scale=0.2")
SBM_HIDDEN = 32
SBM_CFG = ExperimentConfig(dataset=SBM_SPEC, epochs=30, denoise_epochs=110,
                           interval=10, tau=0.1, lr=0.01, hidden=SBM_HIDDEN,
                           retrain_epochs=140)
TRIAL_SEEDS = (1, 2, 3)

CORA_CFG = ExperimentConfig(epochs=30, denoise_epochs=400, interval=10,
                            tau=0.1, lr=0.001, hidden=512,
                            retrain_epochs=430)


def _pass(n, msg):
    print(f"\n[ACCEPTANCE {n}] PASS - {msg}")


def cora_bundle():
    path = Path(os.environ.get("GLT_CORA_BUNDLE", "data/cora"))
    if not (path / "meta.json").is_file():
        pytest.skip(
            f"Cora bundle not found at {path} (set GLT_CORA_BUNDLE). "
            "Produce it from the public planetoid raw files with "
            "`glt convert --raw <dir> --name cora --out data/cora`; this "
            "sandbox has no network route to fetch them.")
    return load_bundle(path)


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm(3, 100, 0.06, 0.02, 12, seed=101, mean_scale=0.2)


@pytest.fixture(scope="module")
def sbm_inits(sbm):
    return {s: glorot_params(sbm.num_features, SBM_HIDDEN, sbm.num_classes,
                             seed=s, dtype=SBM_CFG.dtype) for s in TRIAL_SEEDS}


@pytest.fixture(scope="module")
def sbm_dense(sbm, sbm_inits):
    return {s: run_dense(sbm, SBM_CFG.replace(method="dense", seed=s),
                         sbm_inits[s]).report.acc_retrained
            for s in TRIAL_SEEDS}


def test_criterion_1_dense_cora_baseline():
    """Dense 2-layer model (hidden 512, lr 0.001) on Cora reaches test
    accuracy in [78.0, 82.5]% within 10 CPU-minutes."""
    ds = cora_bundle()
    assert (ds.num_nodes, ds.num_features, ds.num_classes) == (2708, 1433, 7)
    t0 = time.perf_counter()
    res = run_dense(ds, CORA_CFG.replace(method="dense", seed=1))
    elapsed = time.perf_counter() - t0
    acc = res.report.acc_retrained
    assert 0.780 <= acc <= 0.825, f"dense Cora accuracy {acc:.4f}"
    assert elapsed <= 600.0, f"dense Cora run took {elapsed:.0f}s"
    _pass(1, f"dense Cora accuracy {acc:.4f} in {elapsed:.0f}s")


def test_criterion_2_cora_winning_ticket():
    """Retrained (s_g=20%, s_theta=30%) Cora ticket within 1 point of the
    dense arm, aggregated over 3 seeds."""
    ds = cora_bundle()
    diffs = []
    for seed in TRIAL_SEEDS:
        params0 = glorot_params(ds.num_features, 512, ds.num_classes,
                                seed=seed)
        dense = run_dense(ds, CORA_CFG.replace(method="dense", seed=seed),
                          params0)
        res = run_fastglt(ds, CORA_CFG.replace(s_g=0.20, s_theta=0.30,
                                               seed=seed), params0)
        diffs.append(res.report.acc_retrained - dense.report.acc_retrained)
    mean_diff = float(np.mean(diffs))
    assert mean_diff >= -0.010, f"ticket trails dense by {-mean_diff:.4f}"
    _pass(2, f"Cora ticket vs dense over 3 seeds: {mean_diff:+.4f}")


def test_criterion_2_desk_analog(sbm, sbm_inits, sbm_dense):
    """Desk-scale analog of criterion 2 on the frozen instance, plus the
    (s_g=0.2, s_theta=0.5) ticket-quality example: retrained accuracy
    within one point of dense, aggregated over 3 seeds."""
    for s_theta in (0.3, 0.5):
        diffs = []
        for seed in TRIAL_SEEDS:
            res = run_fastglt(sbm, SBM_CFG.replace(s_g=0.20, s_theta=s_theta,
                                                   seed=seed),
                              sbm_inits[seed])
            diffs.append(res.report.acc_retrained - sbm_dense[seed])
        mean_diff = float(np.mean(diffs))
        assert mean_diff >= -0.010, \
            f"s_theta={s_theta}: ticket trails dense by {-mean_diff:.4f}"
    _pass("2-analog", "frozen-SBM tickets at (0.2, 0.3) and (0.2, 0.5) "
          "within 1 point of dense over 3 seeds")


def test_criterion_3_ordering_sbm(tmp_path):
    """Extreme graph sparsity orders fastglt > oneshot > random on the
    frozen instance. Verdicts per level use the median retrained accuracy
    over the 3 trial seeds against the dense median, with a two-quantum
    tolerance on the 120-node test split."""
    suite = {
        "shared": {"dataset": SBM_SPEC, "epochs": 30, "denoise_epochs": 110,
                   "interval": 10, "tau": 0.1, "hidden": SBM_HIDDEN,
                   "lr": 0.01, "seed": 1},
        "arms": [{"method": "dense"}],
        "sweep": {"vary": "s_g", "methods": ["fastglt", "oneshot", "random"],
                  "start": 0.05, "step": 0.05, "stop": 0.9,
                  "win_delta": 0.0167, "seeds": list(TRIAL_SEEDS)},
    }
    outcome = run_suite(suite, tmp_path / "sweep")
    ext = outcome.extreme["extreme"]
    rank = {m: (-1.0 if v is None else v) for m, v in ext.items()}
    assert rank["random"] < rank["oneshot"] < rank["fastglt"], \
        f"ordering violated: {ext}"
    _pass(3, f"extreme graph sparsity (SBM): fastglt={ext['fastglt']} > "
             f"oneshot={ext['oneshot']} > random={ext['random']}")


def test_criterion_3_ordering_cora(tmp_path):
    """Cora half of the ordering criterion; needs the real bundle and an
    hour-scale budget, so it only runs when the data is present."""
    cora_bundle()
    path = Path(os.environ.get("GLT_CORA_BUNDLE", "data/cora"))
    suite = {
        "shared": {"dataset": str(path), "epochs": 30,
                   "denoise_epochs": 400, "interval": 10, "tau": 0.1,
                   "hidden": 512, "lr": 0.001, "seed": 1},
        "arms": [{"method": "dense"}],
        "sweep": {"vary": "s_g", "methods": ["fastglt", "oneshot", "random"],
                  "start": 0.05, "step": 0.05, "stop": 0.9,
                  "win_delta": 0.005},
    }
    outcome = run_suite(suite, tmp_path / "cora_sweep")
    ext = outcome.extreme["extreme"]
    rank = {m: (-1.0 if v is None else v) for m, v in ext.items()}
    assert rank["random"] < rank["oneshot"] < rank["fastglt"], \
        f"ordering violated: {ext}"
    _pass(3, f"extreme graph sparsity (Cora): {ext}")


def test_criterion_4_speedup(sbm, sbm_inits):
    """Search wall-clock to (s_g=30%, s_theta=90%) is at most 0.67x the
    iterative-pruning search with p_g=5%, p_theta=20%; 3-run median."""
    ratios = []
    for seed in TRIAL_SEEDS:
        cfg = SBM_CFG.replace(s_g=0.30, s_theta=0.90, seed=seed)
        fg = run_fastglt(sbm, cfg, sbm_inits[seed])
        imp = run_imp(sbm, cfg.replace(method="imp", imp_p_g=0.05,
                                       imp_p_theta=0.20,
                                       imp_epochs_per_round=140),
                      sbm_inits[seed])
        assert imp.report.s_g >= 0.30 and imp.report.s_theta >= 0.90
        assert abs(fg.report.s_g - 0.30) <= 1.0 / sbm.num_edges + 1e-12
        ratios.append(fg.report.search_seconds / imp.report.search_seconds)
    median = sorted(ratios)[1]
    assert median <= 0.67, f"median time ratio {median:.3f} > 0.67"
    _pass(4, f"fastglt/imp search-time median ratio {median:.3f} "
             f"(threshold 0.67)")


def test_criterion_5_exact_sparsity_landing():
    """100 random (s_inm, s_tgt, mu_end, universe) tuples walked through
    the real quota/selection/update pipeline land within one element of
    the target, with zero failures."""
    rng = np.random.default_rng(20260810)
    failures = 0
    for _ in range(100):
        universe = int(rng.integers(8, 3000))
        s_tgt = float(rng.uniform(0.0, 0.95))
        s_inm = float(rng.uniform(0.0, s_tgt)) if s_tgt > 0 else 0.0
        mu_end = int(rng.integers(1, 14))
        tau = float(rng.uniform(0.0, 0.35))
        plan = _plan(universe, s_inm, s_tgt, mu_end)

        edges = np.zeros(universe, dtype=bool)
        edges[rng.permutation(universe)[:plan.kept_start]] = True
        w = np.ones((1, 1), dtype=bool)
        masks = BinaryMasks(edges=edges, theta0=w, theta1=w)
        scores = rng.normal(size=universe)
        degrees = rng.uniform(0, 5, size=universe)
        for mu in range(1, mu_end + 1):
            from fastglt.denoise import _quota
            ratio = tau * (1 - mu / mu_end)
            kept = int(masks.edges.sum())
            q = _quota(mu, ratio, plan, kept)
            noisy = np.flatnonzero(masks.edges)[
                np.argsort(np.abs(scores[masks.edges]),
                           kind="stable")[:q.n_noisy]]
            pruned_pool = np.flatnonzero(~masks.edges)
            regrow = pruned_pool[np.argsort(degrees[pruned_pool],
                                            kind="stable")[:q.n_potential]]
            empty = np.empty(0, dtype=np.int64)
            masks, _ = update_masks(masks, (noisy, empty), (regrow, empty))
        achieved = sparsity(masks.edges)
        if int(masks.edges.sum()) != plan.kept_target \
                or abs(achieved - s_tgt) > 1.0 / universe + 1e-12:
            failures += 1
    assert failures == 0
    _pass(5, "100/100 randomized trajectories landed within one element")


def test_criterion_6_gradient_finite_differences():
    """Central differences (eps=1e-5, f64) on 20 random instances of up to
    20 nodes: max relative error below 1e-4 for d_theta, d_m_theta, d_m_g;
    whole check under 30 seconds."""
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 21))
        ds, params, soft = make_instance(rng, n, f=4, h=3, c=3)
        worst = max(worst, fd_check(ds, params, soft, None, ds.train_idx))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"worst relative error {worst:.2e}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    _pass(6, f"20/20 instances, worst rel. err {worst:.1e} "
             f"in {elapsed:.1f}s")


def test_criterion_7_oracle_equivalences():
    """one_shot_threshold / identify_noisy / discover_potential match
    full-sort oracles on 1000 random vectors each (exact sets under the
    index tie rule, the picks in ascending id order); mac_count matches the
    instrumented counter exactly."""
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        v = rng.choice([-0.7, -0.3, 0.0, 0.3, 0.7], size=n) \
            * rng.choice([1.0, rng.uniform(0.5, 2.0)])
        s = float(rng.uniform(0.0, 0.999))
        np.testing.assert_array_equal(one_shot_threshold(v, s),
                                      threshold_oracle(v, s))

    for _ in range(1000):
        n = int(rng.integers(2, 100))
        vals = rng.choice([-0.4, -0.1, 0.0, 0.1, 0.4], size=n)
        mask = rng.random(n) < 0.6
        kept = int(mask.sum())
        pruned = n - kept
        k_ns = int(rng.integers(0, kept + 1))
        k_pt = int(rng.integers(0, pruned + 1))
        params = GcnParams(theta0=vals.reshape(1, -1).copy(),
                           theta1=np.full((n, 1), 9e9))
        binary = BinaryMasks(edges=np.ones(1, dtype=bool),
                             theta0=mask.reshape(1, -1),
                             theta1=np.ones((n, 1), dtype=bool))
        _, noisy = identify_noisy(binary, np.ones(1), params,
                                  (Quota(0, 0, 0), Quota(k_ns, 0, k_ns)))
        want_ns = sorted((i for i in range(n) if mask[i]),
                         key=lambda i: (abs(vals[i]), i))[:k_ns]
        np.testing.assert_array_equal(noisy, sorted(want_ns))

        grads = rng.choice([0.0, 0.2, 1.0, 3.0], size=n)
        _, regrow = discover_potential(
            binary, np.concatenate([grads, np.zeros(n)]), np.zeros(1),
            (Quota(0, 0, 0), Quota(k_pt, k_pt, 0)))
        want_pt = sorted((i for i in range(n) if not mask[i]),
                         key=lambda i: (-grads[i], i))[:k_pt]
        np.testing.assert_array_equal(regrow, sorted(want_pt))

    from conftest import random_dataset
    for _ in range(25):
        n = int(rng.integers(2, 31))
        ds = random_dataset(rng, n, num_features=4, num_classes=3,
                            edge_prob=0.3)
        h = int(rng.integers(1, 7))
        binary = BinaryMasks(edges=rng.random(ds.num_edges) < 0.6,
                             theta0=rng.random((4, h)) < 0.7,
                             theta1=rng.random((h, 3)) < 0.7)
        assert mac_count(ds, binary, h) == mac_oracle(ds, binary, h)
    _pass(7, "3x1000 selection oracles and 25 multiply-counter instances "
             "matched exactly")


def test_criterion_8_mask_similarity(sbm, sbm_inits, tmp_path):
    """At matched graph sparsities {20%, 40%, 60%}, one-shot masks sit
    closer to the iterative-pruning masks than random masks do, at every
    level (SBM fallback instance)."""
    cfg = config_from_dict({
        "dataset": SBM_SPEC, "method": "fastglt", "epochs": 30,
        "denoise_epochs": 110, "interval": 10, "tau": 0.1,
        "hidden": SBM_HIDDEN, "lr": 0.01, "seed": 1,
        "imp_p_g": 0.05, "imp_p_theta": 0.2})
    _fig2_artifacts(tmp_path, sbm, cfg, sbm_inits[1], [0.2, 0.4, 0.6],
                    weight_level=0.3)
    import csv
    rows = list(csv.DictReader(open(tmp_path / "fig2_left.csv")))
    by_level = {}
    for r in rows:
        key = round(float(r["sparsity"]), 2)
        by_level.setdefault(key, {})[r["method"]] = float(r["distance"])
    assert sorted(by_level) == [0.2, 0.4, 0.6]
    for lvl, d in by_level.items():
        assert d["oneshot"] < d["random"], \
            f"at s_g={lvl}: oneshot {d['oneshot']:.4f} " \
            f">= random {d['random']:.4f}"
    _pass(8, "d(oneshot, imp) < d(random, imp) at 20/40/60% graph sparsity")


def test_criterion_9_swap_set_algebra(sbm, sbm_inits):
    """Replay every swap of a full run: removals within the kept set,
    regrows within the pruned set, disjoint, and the per-interval net
    shrink exactly matches the schedule."""
    res = run_fastglt(sbm, SBM_CFG.replace(s_g=0.35, s_theta=0.6, seed=1),
                      sbm_inits[1])
    from fastglt.masks import SparsityPlan
    plan = SparsityPlan(s_g_tgt=0.35, s_theta_tgt=0.6)
    schedule = DenoiseSchedule.build(
        SBM_CFG.interval, SBM_CFG.denoise_epochs, SBM_CFG.tau, 1.0,
        sbm.num_edges, res.binary.weight_universe, plan)
    edges = res.initial_binary.edges.copy()
    wflat = res.initial_binary.weights.copy()
    assert len(res.swaps) == schedule.mu_end
    for rec in res.swaps:
        for mask, removed, regrown, n_net in (
                (edges, rec.edges_removed, rec.edges_regrown,
                 schedule.graph.n_net[rec.interval - 1]),
                (wflat, rec.weights_removed, rec.weights_regrown,
                 schedule.weights.n_net[rec.interval - 1])):
            if removed.size:
                assert mask[removed].all(), "removal outside kept set"
            if regrown.size:
                assert not mask[regrown].any(), "regrow outside pruned set"
            assert np.intersect1d(removed, regrown).size == 0
            assert removed.size - regrown.size == n_net
            mask[removed] = False
            mask[regrown] = True
    np.testing.assert_array_equal(edges, res.binary.edges)
    np.testing.assert_array_equal(wflat, res.binary.weights)
    assert int(edges.sum()) == kept_count(sbm.num_edges, 0.35)
    assert int(wflat.sum()) == kept_count(wflat.size, 0.6)
    _pass(9, f"all {len(res.swaps)} swap records satisfied the set algebra "
             f"and the exact trajectory")


def test_criterion_10_determinism(tmp_path):
    """Two runs of one config digest produce byte-identical reports apart
    from wall-clock fields, and byte-identical mask files."""
    cfg = config_from_dict({
        "dataset": SBM_SPEC, "method": "fastglt", "s_g": 0.3,
        "s_theta": 0.5, "epochs": 10, "denoise_epochs": 30, "interval": 10,
        "tau": 0.1, "hidden": SBM_HIDDEN, "lr": 0.01, "seed": 6})
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["config_digest"] == rb["config_digest"] == cfg.digest()
    ra.pop("timing")
    rb.pop("timing")
    blob_a = json.dumps(ra, sort_keys=True).encode()
    blob_b = json.dumps(rb, sort_keys=True).encode()
    assert blob_a == blob_b
    for name in ("masks_edges.gltm", "masks_theta0.gltm",
                 "masks_theta1.gltm", "swaps.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    _pass(10, "byte-identical reports and artifacts modulo wall-clock")
