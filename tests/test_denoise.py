import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastglt.data import generate_sbm
from fastglt.denoise import (DenoiseSchedule, Quota, SwapRecord, _bottom_k,
                             denoise_ratio, discover_potential, export_swaps,
                             identify_noisy, interval_quotas, run_fastglt,
                             update_masks)
from fastglt.masks import BinaryMasks, SparsityPlan, kept_count
from fastglt.nn import GcnParams

from conftest import tiny_dataset


def make_schedule(delta_t=10, d=40, tau=0.2, kappa=1.0, edges=100,
                  weights=400, s_g=0.4, s_theta=0.6, alpha=0.01, beta=1.2):
    plan = SparsityPlan(s_g_tgt=s_g, s_theta_tgt=s_theta, alpha=alpha,
                        beta=beta)
    return DenoiseSchedule.build(delta_t, d, tau, kappa, edges, weights, plan)


def test_ratio_examples():
    sched = make_schedule(delta_t=10, d=40, tau=0.2, kappa=1.0)
    assert sched.mu_end == 4
    assert denoise_ratio(1, sched) == pytest.approx(0.15)
    assert denoise_ratio(2, sched) == pytest.approx(0.10)
    assert denoise_ratio(3, sched) == pytest.approx(0.05)
    assert denoise_ratio(4, sched) == 0.0


def test_ratio_with_decay_exponent():
    sched = make_schedule(delta_t=10, d=40, tau=0.2, kappa=2.0)
    assert denoise_ratio(2, sched) == pytest.approx(0.05)


def test_ratio_out_of_range():
    sched = make_schedule()
    with pytest.raises(ValueError):
        denoise_ratio(0, sched)
    with pytest.raises(ValueError):
        denoise_ratio(5, sched)


def test_plan_even_trajectory():
    # 1000 edges, 0.35 -> 0.40 over 10 intervals: 5 removals per interval
    plan = SparsityPlan(s_g_tgt=0.40, s_theta_tgt=0.40, alpha=1e-9, beta=1.0)
    sched = DenoiseSchedule.build(10, 100, 0.2, 1.0, 1000, 1000, plan)
    object.__setattr__(sched, "graph", sched.graph)  # no-op, keep frozen
    # override: construct directly at (0.35, 0.40)
    from fastglt.denoise import _plan
    tp = _plan(1000, 0.35, 0.40, 10)
    assert tp.kept_start == 650 and tp.kept_target == 600
    assert tp.n_net == (5,) * 10


def test_plan_residue_lands_in_final_interval():
    from fastglt.denoise import _plan
    tp = _plan(997, 0.10, 0.37, 7)
    assert sum(tp.n_net) == tp.total_shrink
    assert len(set(tp.n_net[:-1])) == 1
    assert tp.kept_start - sum(tp.n_net) == tp.kept_target


def test_quota_arithmetic_example():
    # kept=650, ratio 0.1, n_net=5 -> drop 65, regrow 60
    from fastglt.denoise import _quota, TypePlan
    tp = TypePlan(universe=1000, kept_start=650, kept_target=600,
                  n_net=(5,) * 10)
    q = _quota(2, 0.1, tp, 650)
    assert q.n_noisy == 65 and q.n_potential == 60


def test_quota_final_interval_clamp():
    sched = make_schedule(delta_t=10, d=40)
    kept_e = sched.graph.kept_start - sum(sched.graph.n_net[:3])
    kept_w = sched.weights.kept_start - sum(sched.weights.n_net[:3])
    q_g, q_t = interval_quotas(4, sched, kept_e, kept_w)
    assert q_g.n_noisy == q_g.n_net and q_g.n_potential == 0
    assert q_t.n_noisy == q_t.n_net and q_t.n_potential == 0


def test_quota_never_outgrows_pruned_pool():
    # dense start (nothing pruned yet) with zero net shrink: no swaps at all
    from fastglt.denoise import _quota, TypePlan
    tp = TypePlan(universe=100, kept_start=100, kept_target=100,
                  n_net=(0,) * 4)
    q = _quota(1, 0.15, tp, 100)
    assert q.n_noisy == 0 and q.n_potential == 0


def test_identify_noisy_smallest_magnitude():
    ds = tiny_dataset([(0, 1), (1, 2), (0, 2)], 3)
    params = GcnParams(theta0=np.array([[0.5, -0.01, 0.3]]),
                       theta1=np.array([[1.0], [2.0], [3.0]]))
    binary = BinaryMasks.all_ones(3, (1, 3), (3, 1))
    quotas = (Quota(0, 0, 0), Quota(1, 0, 1))
    noisy_e, noisy_w = identify_noisy(binary, np.ones(3), params, quotas)
    assert noisy_e.size == 0
    np.testing.assert_array_equal(noisy_w, [1])


def test_identify_noisy_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 60))
        vals = rng.choice([-0.4, -0.2, 0.0, 0.2, 0.4], size=n)
        mask = rng.random(n) < 0.7
        kept = int(mask.sum())
        if kept == 0:
            continue
        k = int(rng.integers(0, kept + 1))
        # layer-1 magnitudes sit far above every candidate so the pooled
        # bottom-k must come from layer 0 alone
        params = GcnParams(theta0=vals.reshape(1, -1).copy(),
                           theta1=np.full((n, 1), 99.0))
        binary = BinaryMasks(edges=np.ones(1, dtype=bool),
                             theta0=mask.reshape(1, -1),
                             theta1=np.ones((n, 1), dtype=bool))
        _, got = identify_noisy(binary, np.ones(1), params,
                                (Quota(0, 0, 0), Quota(k, 0, k)))
        kept_ids = [i for i in range(n) if mask[i]]
        want = sorted(kept_ids, key=lambda i: (abs(vals[i]), i))[:k]
        np.testing.assert_array_equal(sorted(got.tolist()), sorted(want))
        # selection order is by (score, index): set equality is what matters
        np.testing.assert_array_equal(got, want)


def test_identify_noisy_quota_exceeds_kept():
    params = GcnParams(theta0=np.ones((1, 2)), theta1=np.ones((2, 1)))
    binary = BinaryMasks.all_ones(2, (1, 2), (2, 1))
    with pytest.raises(ValueError, match="exceeds"):
        identify_noisy(binary, np.ones(2), params,
                       (Quota(3, 0, 3), Quota(0, 0, 0)))


def test_discover_potential_gradient_and_degree():
    # pruned weights with accumulated grads [0.0, 5.0, 1.2]: regrow index 1
    binary = BinaryMasks(edges=np.array([False, False, False, True]),
                         theta0=np.zeros((1, 3), dtype=bool),
                         theta1=np.ones((3, 1), dtype=bool))
    grad_acc = np.array([0.0, 5.0, 1.2, 9.9, 9.9, 9.9])
    edge_deg = np.array([4.0, 1.5, 2.0, 7.0])
    regrow_e, regrow_w = discover_potential(
        binary, grad_acc, edge_deg, (Quota(2, 2, 0), Quota(1, 1, 0)))
    np.testing.assert_array_equal(regrow_w, [1])
    np.testing.assert_array_equal(sorted(regrow_e.tolist()), [1, 2])


def test_discover_potential_zero_quota():
    binary = BinaryMasks(edges=np.array([False, True]),
                         theta0=np.zeros((1, 2), dtype=bool),
                         theta1=np.ones((2, 1), dtype=bool))
    regrow_e, regrow_w = discover_potential(
        binary, np.zeros(4), np.zeros(2), (Quota(0, 0, 0), Quota(0, 0, 0)))
    assert regrow_e.size == 0 and regrow_w.size == 0


def test_discover_potential_sort_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(4, 60))
        grads = rng.choice([0.0, 0.1, 0.5, 2.0], size=n)
        mask = rng.random(n) < 0.5
        pruned = np.flatnonzero(~mask)
        if pruned.size == 0:
            continue
        k = int(rng.integers(0, pruned.size + 1))
        binary = BinaryMasks(edges=np.ones(1, dtype=bool),
                             theta0=mask.reshape(1, -1),
                             theta1=np.ones((1, 1), dtype=bool))
        _, got = discover_potential(binary, np.concatenate([grads, [0.0]]),
                                    np.zeros(1),
                                    (Quota(0, 0, 0), Quota(k, k, 0)))
        want = sorted(pruned.tolist(), key=lambda i: (-grads[i], i))[:k]
        np.testing.assert_array_equal(got, want)


def test_discover_potential_quota_exceeds_pruned():
    binary = BinaryMasks(edges=np.array([True, True]),
                         theta0=np.ones((1, 2), dtype=bool),
                         theta1=np.ones((2, 1), dtype=bool))
    with pytest.raises(ValueError, match="exceeds"):
        discover_potential(binary, np.zeros(4), np.zeros(2),
                           (Quota(1, 1, 0), Quota(0, 0, 0)))


def test_update_masks_identity():
    binary = BinaryMasks.all_ones(5, (2, 2), (2, 2))
    empty = np.empty(0, dtype=np.int64)
    new, rec = update_masks(binary, (empty, empty), (empty, empty))
    np.testing.assert_array_equal(new.edges, binary.edges)
    assert rec.n_net_edges == 0 and rec.n_net_weights == 0


def test_update_masks_counts():
    binary = BinaryMasks(edges=np.ones(10, dtype=bool),
                         theta0=np.ones((2, 2), dtype=bool),
                         theta1=np.ones((2, 2), dtype=bool))
    binary = binary.with_edges(np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0],
                                        dtype=bool))
    new, rec = update_masks(
        binary, (np.array([0, 1, 2]), np.empty(0, dtype=np.int64)),
        (np.array([7, 8]), np.empty(0, dtype=np.int64)))
    assert int(binary.edges.sum()) - int(new.edges.sum()) == 1
    assert rec.s_g_after > rec.s_g_before


def test_update_masks_rejects_bad_sets():
    binary = BinaryMasks(edges=np.array([True, False, True]),
                         theta0=np.ones((1, 1), dtype=bool),
                         theta1=np.ones((1, 1), dtype=bool))
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="kept"):
        update_masks(binary, (np.array([1]), empty), (empty, empty))
    with pytest.raises(ValueError, match="pruned"):
        update_masks(binary, (empty, empty), (np.array([0]), empty))


def test_trajectory_replay_reaches_target():
    """Simulated swaps over random (s_inm, s_tgt, mu_end, universe) tuples
    land exactly on the target kept count."""
    rng = np.random.default_rng(2)
    for _ in range(60):
        universe = int(rng.integers(10, 2000))
        s_tgt = float(rng.uniform(0.0, 0.95))
        s_inm = float(rng.uniform(0.0, s_tgt)) if s_tgt > 0 else 0.0
        mu_end = int(rng.integers(1, 12))
        from fastglt.denoise import _plan, _quota
        tp = _plan(universe, s_inm, s_tgt, mu_end)
        kept = tp.kept_start
        tau = float(rng.uniform(0.0, 0.4))
        for mu in range(1, mu_end + 1):
            ratio = tau * (1 - mu / mu_end)
            q = _quota(mu, ratio, tp, kept)
            assert q.n_noisy <= kept
            assert q.n_potential <= universe - kept
            kept = kept - q.n_noisy + q.n_potential
        assert kept == tp.kept_target
        assert abs((1 - kept / universe) - s_tgt) <= 1.0 / universe + 1e-12


def test_export_swaps_jsonl(tmp_path):
    rec = SwapRecord(interval=1, edges_removed=np.array([1, 2]),
                     edges_regrown=np.array([5]),
                     weights_removed=np.array([0]),
                     weights_regrown=np.empty(0, dtype=np.int64),
                     s_g_before=0.1, s_g_after=0.2,
                     s_theta_before=0.3, s_theta_after=0.31)
    path = tmp_path / "swaps.jsonl"
    export_swaps([rec, rec], path)
    import json
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    loaded = json.loads(lines[0])
    assert loaded["interval"] == 1 and loaded["edges_removed"] == [1, 2]


# ---------------------------------------------------------------------------
# full driver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_sbm():
    return generate_sbm(3, 40, 0.3, 0.04, 10, seed=21)


def run_small(dataset, s_g=0.3, s_theta=0.5, seed=1, **kw):
    defaults = dict(epochs_oneshot=15, epochs_denoise=40, interval=10,
                    lr=0.01, hidden=16, retrain_epochs=40)
    defaults.update(kw)
    return run_fastglt(dataset, s_g=s_g, s_theta=s_theta, seed=seed,
                       **defaults)


def test_run_fastglt_lands_on_targets(desk_sbm):
    res = run_small(desk_sbm)
    e = desk_sbm.num_edges
    w = res.binary.weight_universe
    assert int(res.binary.edges.sum()) == kept_count(e, 0.3)
    assert int(res.binary.weights_flat().sum()) == kept_count(w, 0.5)
    assert abs(res.report.s_g - 0.3) <= 1.0 / e + 1e-12
    assert abs(res.report.s_theta - 0.5) <= 1.0 / w + 1e-12


def test_run_fastglt_interval_count(desk_sbm):
    res = run_small(desk_sbm, epochs_denoise=35, interval=10)
    assert len(res.swaps) == 4     # ceil(35/10), final partial interval


def test_run_fastglt_swap_invariants(desk_sbm):
    res = run_small(desk_sbm, seed=3)
    e_univ = desk_sbm.num_edges
    prev_s = 0.0
    for rec in res.swaps:
        # sets were validated in-run by update_masks; re-check the algebra
        assert np.intersect1d(rec.edges_removed, rec.edges_regrown).size == 0
        assert np.intersect1d(rec.weights_removed,
                              rec.weights_regrown).size == 0
        assert rec.s_g_after >= rec.s_g_before - 1e-12
        assert rec.s_g_after >= prev_s - 1e-12
        prev_s = rec.s_g_after
        got_net = rec.s_g_after - rec.s_g_before
        assert got_net == pytest.approx(rec.n_net_edges / e_univ)


def test_run_fastglt_deterministic(desk_sbm):
    a = run_small(desk_sbm, seed=5)
    b = run_small(desk_sbm, seed=5)
    np.testing.assert_array_equal(a.binary.edges, b.binary.edges)
    np.testing.assert_array_equal(a.binary.weights_flat(),
                                  b.binary.weights_flat())
    assert len(a.swaps) == len(b.swaps)
    for ra, rb in zip(a.swaps, rbs := b.swaps):
        np.testing.assert_array_equal(ra.edges_removed, rb.edges_removed)
        np.testing.assert_array_equal(ra.weights_regrown, rb.weights_regrown)
    assert a.report.acc_retrained == b.report.acc_retrained


def test_run_fastglt_degenerate_targets(desk_sbm):
    res = run_small(desk_sbm, s_g=0.0, s_theta=0.0, seed=2)
    assert res.report.s_g == 0.0 and res.report.s_theta == 0.0
    for rec in res.swaps:
        assert rec.edges_removed.size == 0
        assert rec.weights_removed.size == 0


def test_run_fastglt_ticket_quality(desk_sbm):
    from fastglt.baselines import run_dense
    from fastglt.nn import glorot_params
    params0 = glorot_params(desk_sbm.num_features, 16,
                            desk_sbm.num_classes, seed=7)
    dense = run_dense(desk_sbm, epochs=55, seed=7, params0=params0, lr=0.01)
    res = run_small(desk_sbm, s_g=0.2, s_theta=0.5, seed=7, params0=params0)
    assert res.report.acc_retrained >= dense.report.acc_inplace - 0.05


def test_gradient_accumulator_matches_replay(desk_sbm):
    """Three denoise epochs accumulate exactly the per-epoch dense grads."""
    from fastglt.nn import SoftMasks, backward, gcn_forward, glorot_params
    from fastglt.train import TrainLoop

    ds = desk_sbm
    params = glorot_params(ds.num_features, 8, ds.num_classes, seed=9)
    shape0, shape1 = params.theta0.shape, params.theta1.shape
    binary = BinaryMasks.all_ones(ds.num_edges, shape0, shape1)
    binary.theta0[0, :] = False
    soft = SoftMasks(edges=np.ones(ds.num_edges))
    loop = TrainLoop(ds, params, soft, binary=binary, lr=0.01)

    # replay oracle: recompute the gradient at each pre-update state
    import copy
    params_replay = copy.deepcopy(params)
    acc = np.zeros(binary.weight_universe)
    acc_replay = np.zeros_like(acc)
    from fastglt.optim import AdamState, adam_step
    r_t0 = AdamState.for_param(params_replay.theta0, 0.01)
    r_t1 = AdamState.for_param(params_replay.theta1, 0.01)
    r_me = AdamState.for_param(soft.edges.copy(), 0.01)
    soft_replay = SoftMasks.identity(ds.num_edges, shape0, shape1)
    for _ in range(3):
        logits, cache = gcn_forward(params_replay, soft_replay, binary, ds)
        g = backward(cache, ds.labels, ds.train_idx)
        acc_replay += np.abs(np.concatenate([g.theta0_dense.ravel(),
                                             g.theta1_dense.ravel()]))
        adam_step(r_t0, params_replay.theta0, g.theta0, binary.theta0)
        adam_step(r_t1, params_replay.theta1, g.theta1, binary.theta1)
        adam_step(r_me, soft_replay.edges, g.m_edges, binary.edges)

        stats = loop.run_epoch()
        acc += np.abs(stats.grads.dense_flat())
    np.testing.assert_allclose(acc, acc_replay, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 7.25,
                                        np.nan]),
                       min_size=1, max_size=60),
       data=st.data())
def test_bottom_k_ranks_as_a_full_stable_sort(scores, data):
    """Ties, signed zeros, NaN and every k from 0 to the whole pool: the pick
    and its order equal the head of a stable sort of the eligible pool."""
    scores = np.array(scores)
    eligible = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores),
                                           max_size=len(scores))))
    pool = np.flatnonzero(eligible)
    k = data.draw(st.integers(0, pool.size))
    want = pool[np.argsort(scores[pool], kind="stable")[:k]]
    np.testing.assert_array_equal(_bottom_k(scores, eligible, k, "x"), want)


_PROPERTY_SBM = generate_sbm(2, 12, 0.4, 0.1, 5, seed=21)


@settings(max_examples=40, deadline=None)
@given(epochs_denoise=st.integers(1, 9), interval=st.integers(1, 4),
       tau=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
       s_g=st.sampled_from([0.0, 0.2, 0.5]),
       s_theta=st.sampled_from([0.0, 0.4, 0.8]))
def test_run_fastglt_swap_walk_property(epochs_denoise, interval, tau, s_g,
                                        s_theta):
    """Over random schedules, a D that interval may not divide included:
    one swap record per interval, numbered 1..ceil(D/interval), one
    history entry per epoch, and swap sets that are in-universe, disjoint,
    removed from the kept set and regrown from the pruned set, walking the
    kept counts from the one-shot cut through each n_net to the target."""
    ds = _PROPERTY_SBM
    res = run_fastglt(ds, s_g=s_g, s_theta=s_theta, epochs_oneshot=2,
                      epochs_denoise=epochs_denoise, interval=interval,
                      tau=tau, lr=0.01, hidden=4, seed=3, retrain_epochs=1)
    mu_end = -(-epochs_denoise // interval)
    assert [r.interval for r in res.swaps] == list(range(1, mu_end + 1))
    assert len(res.history) == 2 + epochs_denoise

    start = res.initial_binary
    schedule = DenoiseSchedule.build(
        interval, epochs_denoise, tau, 1.0, ds.num_edges,
        start.weight_universe, SparsityPlan(s_g_tgt=s_g, s_theta_tgt=s_theta))
    walk = {"edges": (start.edges.copy(), schedule.graph),
            "weights": (start.weights_flat(), schedule.weights)}
    for kind, (kept, plan) in walk.items():
        assert int(kept.sum()) == plan.kept_start
        for rec in res.swaps:
            removed = getattr(rec, f"{kind}_removed")
            regrown = getattr(rec, f"{kind}_regrown")
            for idx in (removed, regrown):
                assert idx.size == np.unique(idx).size
                assert ((idx >= 0) & (idx < kept.size)).all()
            assert kept[removed].all() and not kept[regrown].any()
            assert np.intersect1d(removed, regrown).size == 0
            before = int(kept.sum())
            kept[removed] = False
            kept[regrown] = True
            assert before - int(kept.sum()) == plan.n_net[rec.interval - 1]
        assert int(kept.sum()) == plan.kept_target
    np.testing.assert_array_equal(walk["edges"][0], res.binary.edges)
    np.testing.assert_array_equal(walk["weights"][0],
                                  res.binary.weights_flat())
