import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastglt.config import ExperimentConfig
from fastglt.data import generate_sbm
from fastglt.denoise import (DenoiseSchedule, Quota, SwapRecord, _bottom_k,
                             _json_ids, denoise_ratio, discover_potential,
                             export_swaps, identify_noisy, interval_quotas,
                             run_fastglt, update_masks)
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
    from fastglt.denoise import _plan
    tp = _plan(1000, 0.35, 0.40, 10)
    assert tp.kept_start == 650 and tp.kept_target == 600
    assert tp.n_net == (5,) * 10


def test_plan_residue_lands_in_final_interval():
    from fastglt.denoise import _plan
    tp = _plan(997, 0.10, 0.37, 7)
    assert sum(tp.n_net) == tp.kept_start - tp.kept_target
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
        # the (score, index) head, returned in ascending id order
        np.testing.assert_array_equal(got, sorted(want))


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
        np.testing.assert_array_equal(got, sorted(want))


def test_discover_potential_quota_exceeds_pruned():
    binary = BinaryMasks(edges=np.array([True, True]),
                         theta0=np.ones((1, 2), dtype=bool),
                         theta1=np.ones((2, 1), dtype=bool))
    with pytest.raises(ValueError, match="exceeds"):
        discover_potential(binary, np.zeros(4), np.zeros(2),
                           (Quota(1, 1, 0), Quota(0, 0, 0)))


def test_discover_potential_zero_scores_regrow_last_by_pooled_id():
    """A hidden unit whose W1 row is fully pruned gives W0's column a dense
    gradient of exactly 0, and a unit whose W0 column is fully pruned gives
    its W1 row one. Such zero-score pruned weights are picked after every
    positive-score one, lowest pooled id first, across the theta0/theta1
    boundary. The pick comes back in ascending id order."""
    from fastglt.nn import SoftMasks, glorot_params
    from fastglt.train import TrainLoop

    ds = generate_sbm(2, 12, 0.4, 0.1, 5, seed=8)
    params = glorot_params(ds.num_features, 6, ds.num_classes, seed=4)
    rng = np.random.default_rng(3)
    binary = BinaryMasks(edges=np.ones(ds.num_edges, dtype=bool),
                         theta0=rng.random(params.theta0.shape) < 0.6,
                         theta1=rng.random(params.theta1.shape) < 0.6)
    binary.theta1[[2, 4]] = False       # units 2 and 4 reach no logit
    binary.theta0[:, 4] = False         # and unit 4 is dead
    grad_acc = np.zeros(binary.weight_universe)
    TrainLoop(ds, params, SoftMasks(edges=np.ones(ds.num_edges)),
              binary=binary, lr=0.01).train(2, grad_acc)

    n0 = params.theta0.size
    pruned = ~binary.weights
    zero = np.flatnonzero(pruned & (grad_acc == 0.0))
    positive = np.flatnonzero(pruned & (grad_acc > 0.0))
    assert positive.size + zero.size == np.count_nonzero(pruned)
    acc0, acc1 = params.layers(grad_acc)
    assert not acc0[:, [2, 4]].any() and not acc1[4].any()
    zero0 = np.count_nonzero(zero < n0)
    assert zero0 > 0 and zero.size - zero0 == ds.num_classes

    k = positive.size + zero0 + 1       # one zero-score pick in theta1
    _, got = discover_potential(binary, grad_acc, np.zeros(ds.num_edges),
                                (Quota(0, 0, 0), Quota(k, k, 0)))
    # every positive score, then the zero scores by pooled id: all of
    # theta0's and the first of theta1's
    want = sorted(positive.tolist(), key=lambda i: (-grad_acc[i], i)) \
        + zero[:zero0 + 1].tolist()
    np.testing.assert_array_equal(got, sorted(want))
    zero_picked = got[grad_acc[got] == 0.0]
    np.testing.assert_array_equal(zero_picked, zero[:zero0 + 1])
    assert zero_picked[-2] < n0 <= zero_picked[-1]


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_update_masks_rejects_every_overlap(data):
    """An index in both the removal and the regrow set must be kept and
    pruned at once, so every overlapping pair fails one of the two subset
    checks, with that check's message."""
    kind = data.draw(st.sampled_from(["edges", "weights"]))
    n = data.draw(st.integers(1, 24))
    kept = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)))
    idx = st.lists(st.integers(0, n - 1), unique=True, max_size=n)
    shared = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=3))
    remove = np.array(sorted(set(shared) | set(data.draw(idx))))
    add = np.array(sorted(set(shared) | set(data.draw(idx))))
    empty = np.empty(0, dtype=np.int64)
    if kind == "edges":
        binary = BinaryMasks(edges=kept, theta0=np.ones((1, 1), bool),
                             theta1=np.ones((1, 1), bool))
        noisy, potential = (remove, empty), (add, empty)
    else:
        binary = BinaryMasks(edges=np.ones(1, bool),
                             theta0=kept.reshape(1, n),
                             theta1=np.ones((0, 1), bool))
        noisy, potential = (empty, remove), (empty, add)
    want = (f"{kind}: removal set not within the kept set"
            if not kept[remove].all()
            else f"{kind}: regrow set not within the pruned set")
    with pytest.raises(ValueError) as err:
        update_masks(binary, noisy, potential)
    assert str(err.value) == want


@settings(max_examples=300, deadline=None)
@given(edges=st.integers(1, 3000), weights=st.integers(1, 20000),
       s_g=st.floats(0.0, 0.95), s_theta=st.floats(0.0, 0.99),
       total=st.integers(1, 60), delta_t=st.integers(1, 20),
       tau=st.floats(0.0, 1.0), kappa=st.floats(0.05, 4.0),
       alpha=st.floats(1e-6, 1.0), beta=st.floats(1.0, 2.0))
def test_trajectory_replay_reaches_target(edges, weights, s_g, s_theta,
                                          total, delta_t, tau, kappa,
                                          alpha, beta):
    """Walking the schedule's quotas from the one-shot kept counts, every
    interval drops only kept elements, regrows only pruned ones and
    shrinks by its planned net; the last interval regrows nothing, and
    the walk lands exactly on the target kept counts. alpha up to 1 puts
    the one-shot sparsity anywhere in [0, target]."""
    plan = SparsityPlan(s_g_tgt=s_g, s_theta_tgt=s_theta, alpha=alpha,
                        beta=beta)
    sched = DenoiseSchedule.build(delta_t, total, tau, kappa, edges,
                                  weights, plan)
    kept = [sched.graph.kept_start, sched.weights.kept_start]
    for mu in range(1, sched.mu_end + 1):
        quotas = interval_quotas(mu, sched, *kept)
        for k, (q, tp) in enumerate(zip(quotas, (sched.graph,
                                                 sched.weights))):
            assert 0 <= q.n_potential <= tp.universe - kept[k]
            assert q.n_noisy <= kept[k]
            assert q.n_noisy - q.n_potential == q.n_net == tp.n_net[mu - 1]
            if mu == sched.mu_end:
                assert q.n_potential == 0
            kept[k] += q.n_potential - q.n_noisy
    assert kept == [sched.graph.kept_target, sched.weights.kept_target]
    assert kept == [kept_count(edges, s_g), kept_count(weights, s_theta)]


def test_export_swaps_jsonl(tmp_path):
    rec = SwapRecord(interval=1, edges_removed=np.array([1, 2]),
                     edges_regrown=np.array([5]),
                     weights_removed=np.array([0]),
                     weights_regrown=np.empty(0, dtype=np.int64),
                     s_g_before=0.1, s_g_after=0.2,
                     s_theta_before=0.3, s_theta_after=0.31)
    path = tmp_path / "swaps.jsonl"
    export_swaps([rec, rec], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    loaded = json.loads(lines[0])
    assert loaded["interval"] == 1 and loaded["edges_removed"] == [1, 2]


def assert_encodes_as_json(ids):
    ids = np.asarray(ids, dtype=np.int64)
    assert _json_ids(ids) == json.dumps(ids.tolist()).encode()


@pytest.mark.parametrize("ids", [
    [], [0], [5], [0, 1, 9], [3, 3, 4],
    # every 10^d - 1 / 10^d pair an int64 holds, then the top of int64
    *([10 ** d - 1, 10 ** d] for d in range(1, 19)),
    [0, 9, 10, 99, 100, 10 ** 18, 2 ** 63 - 1]],
    ids=lambda ids: f"{len(ids)}-ids-to-{ids[-1] if ids else 'none'}")
def test_id_encoder_matches_json_dumps(ids):
    assert_encodes_as_json(ids)


def test_id_encoder_covers_the_cora_weight_universe():
    """Every id of the Cora shape's pooled weights (1433 x 512 + 512 x 7 =
    737,280) at once, and random subsets of them."""
    universe = 1433 * 512 + 512 * 7
    assert_encodes_as_json(np.arange(universe))
    rng = np.random.default_rng(0)
    for size in (1, 10, 1000, 40_000):
        assert_encodes_as_json(np.sort(rng.choice(universe, size,
                                                  replace=False)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 63 - 1), max_size=40))
def test_id_encoder_property(values):
    assert_encodes_as_json(sorted(values))


@pytest.mark.parametrize("ids", [[2, 1], [0, 5, 4, 6], [-1], [-3, 0, 2],
                                 [1.0, 2.0]])
def test_id_encoder_refuses_what_it_cannot_write(ids):
    with pytest.raises(ValueError, match="swap ids"):
        _json_ids(np.array(ids))


def swap_dict(rec: SwapRecord) -> dict:
    """The swap-log oracle: every field of ``rec`` in declaration order,
    arrays as lists."""
    values = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in values.items()}


def test_export_swaps_writes_the_json_of_each_record(tmp_path):
    """A line per record, byte for byte ``json.dumps(swap_dict(rec))``,
    loading back to the record's dict; an unsorted id list is refused and
    leaves no file."""
    rng = np.random.default_rng(2)

    def ids(n):
        return np.sort(rng.choice(737_280, n, replace=False))

    recs = [SwapRecord(interval=mu, edges_removed=ids(30),
                       edges_regrown=ids(mu - 1), weights_removed=ids(900),
                       weights_regrown=np.empty(0, dtype=np.int64),
                       s_g_before=0.1 * mu, s_g_after=1 / 3,
                       s_theta_before=0.5, s_theta_after=float(mu) / 7)
            for mu in (1, 2, 3)]
    path = tmp_path / "swaps.jsonl"
    export_swaps(recs, path)
    assert path.read_bytes() == "".join(json.dumps(swap_dict(r)) + "\n"
                                        for r in recs).encode()
    for line, rec in zip(path.read_text().splitlines(), recs):
        assert json.loads(line) == swap_dict(rec)

    recs[1].weights_removed = recs[1].weights_removed[::-1]
    with pytest.raises(ValueError, match="ascending"):
        export_swaps(recs, tmp_path / "bad.jsonl")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["swaps.jsonl"]


# ---------------------------------------------------------------------------
# full driver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_sbm():
    return generate_sbm(3, 40, 0.3, 0.04, 10, seed=21)


def run_small(dataset, s_g=0.3, s_theta=0.5, seed=1, params0=None, **kw):
    defaults = dict(epochs=15, denoise_epochs=40, interval=10, lr=0.01,
                    hidden=16, retrain_epochs=40)
    defaults.update(kw)
    return run_fastglt(dataset, ExperimentConfig(s_g=s_g, s_theta=s_theta,
                                                 seed=seed, **defaults),
                       params0)


def test_run_fastglt_lands_on_targets(desk_sbm):
    res = run_small(desk_sbm)
    e = desk_sbm.num_edges
    w = res.binary.weight_universe
    assert int(res.binary.edges.sum()) == kept_count(e, 0.3)
    assert res.binary.kept_weights == kept_count(w, 0.5)
    assert abs(res.report.s_g - 0.3) <= 1.0 / e + 1e-12
    assert abs(res.report.s_theta - 0.5) <= 1.0 / w + 1e-12


def test_run_fastglt_interval_count(desk_sbm):
    res = run_small(desk_sbm, denoise_epochs=35, interval=10)
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
    np.testing.assert_array_equal(a.binary.weights, b.binary.weights)
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
    dense_cfg = ExperimentConfig(method="dense", epochs=15,
                                 denoise_epochs=40, seed=7, lr=0.01)
    params0 = glorot_params(desk_sbm.num_features, 16,
                            desk_sbm.num_classes, seed=7,
                            dtype=dense_cfg.dtype)
    dense = run_dense(desk_sbm, dense_cfg, params0)
    res = run_small(desk_sbm, s_g=0.2, s_theta=0.5, seed=7, params0=params0)
    assert res.report.acc_retrained >= dense.report.acc_inplace - 0.05


@pytest.mark.parametrize("seed, kw", [
    (1, {}), (2, {}), (3, {}),
    # a boundary after every epoch, deep weight pruning
    (3, dict(s_theta=0.8, epochs=6, denoise_epochs=8, interval=1))],
    ids=["1", "2", "3", "churn"])
def test_regrown_entries_restart(desk_sbm, monkeypatch, seed, kw):
    """At every boundary each regrown weight restarts at exactly 0 with
    zeroed Adam moments at its pooled id, and each
    regrown edge restarts with zeroed moments at the 25th percentile of the
    surviving kept |m_g|. Removed weights and edges get zeroed moments too,
    so every entry pruned through an interval keeps its weight or soft-edge
    value to the next boundary. Checked when the driver renormalizes, after
    the swap and before the next epoch, and at the next swap."""
    import fastglt.denoise as denoise
    from fastglt.train import TrainLoop

    pending = []
    frozen = []
    regrown = {"theta0": 0, "theta1": 0, "edges": 0}
    removed = {"weights": 0, "edges": 0}
    real_update, real_rebuild = denoise.update_masks, TrainLoop.rebuild_norm

    def update_masks(binary, noisy, potential, interval=0):
        loop, pruned, values = frozen.pop()
        assert pruned[0] is binary.edges
        for mask, now, then in zip(pruned, (loop.soft.edges,
                                            loop.params.theta0,
                                            loop.params.theta1), values):
            np.testing.assert_array_equal(now[~mask], then[~mask])
        survivors = binary.edges.copy()
        survivors[noisy[0]] = False
        pending.append((survivors, noisy, potential))
        return real_update(binary, noisy, potential, interval=interval)

    def rebuild_norm(loop):
        if pending:
            survivors, (noisy_e, noisy_w), (regrow_e, regrow_w) = \
                pending.pop()
            n0 = loop.params.theta0.size
            state = loop.opt["theta"]
            for values in (loop.params.weights, state.m, state.v):
                assert not values[regrow_w].any()
            for values in (state.m, state.v):
                assert not values[noisy_w].any()
            regrown["theta0"] += np.count_nonzero(regrow_w < n0)
            regrown["theta1"] += np.count_nonzero(regrow_w >= n0)
            removed["weights"] += noisy_w.size
            state = loop.opt["m_edges"]
            for idx in (regrow_e, noisy_e):
                assert not state.m[idx].any()
                assert not state.v[idx].any()
            if regrow_e.size:
                fill = np.percentile(np.abs(loop.soft.edges[survivors]), 25)
                np.testing.assert_array_equal(loop.soft.edges[regrow_e],
                                              fill)
            regrown["edges"] += regrow_e.size
            removed["edges"] += noisy_e.size
        real_rebuild(loop)
        if loop.binary is not None and loop.soft.edges is not None:
            # the denoise loop: what the next interval must leave alone
            b = loop.binary
            frozen[:] = [(loop, (b.edges, b.theta0, b.theta1),
                          (loop.soft.edges.copy(), loop.params.theta0.copy(),
                           loop.params.theta1.copy()))]

    monkeypatch.setattr(denoise, "update_masks", update_masks)
    monkeypatch.setattr(TrainLoop, "rebuild_norm", rebuild_norm)
    config = dict(tau=0.3, retrain_epochs=1, **kw)
    res = run_small(desk_sbm, seed=seed, **config)
    assert not pending and len(res.swaps) == (8 if kw else 4)
    assert regrown["theta0"] > 0 and regrown["theta1"] > 0
    assert regrown["edges"] > 0
    assert removed["weights"] > 0 and removed["edges"] > 0


def test_non_finite_gradient_names_phase_epoch_and_interval(desk_sbm,
                                                            monkeypatch):
    """A NaN in the fifth backward: two one-shot epochs, then the first
    epoch of denoise interval 2 (two epochs per interval), which is the
    third denoise epoch and the third Adam step of the denoise loop."""
    import fastglt.train as train
    from fastglt.optim import NonFiniteGradient

    calls = []
    real_backward = train.backward

    def backward(*args):
        grads = real_backward(*args)
        calls.append(1)
        if len(calls) == 5:
            grads.theta[0] = np.nan
        return grads

    monkeypatch.setattr(train, "backward", backward)
    with pytest.raises(NonFiniteGradient) as err:
        run_small(desk_sbm, epochs=2, denoise_epochs=6, interval=2)
    assert err.value.context == {"tensor": "theta", "step": 3, "bad": 1,
                                 "phase": "denoise", "epoch": 3,
                                 "interval": 2}
    assert str(err.value) == ("1 non-finite gradient entries for 'theta' "
                              "at Adam step 3 (phase denoise, epoch 3, "
                              "interval 2)")


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
    r_t = AdamState.for_param(params_replay.weights, 0.01)
    r_me = AdamState.for_param(soft.edges.copy(), 0.01)
    soft_replay = SoftMasks.identity(ds.num_edges, shape0, shape1)
    for _ in range(3):
        logits, cache = gcn_forward(params_replay, soft_replay, binary, ds)
        g = backward(cache, ds.labels, ds.train_idx)
        acc_replay += np.abs(g.dense)
        adam_step(r_t, params_replay.weights, g.theta, name="theta")
        adam_step(r_me, soft_replay.edges, g.m_edges, name="m_edges")

        loop.run_epoch(grad_acc=acc)
    np.testing.assert_allclose(acc, acc_replay, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 7.25,
                                        np.nan]),
                       min_size=1, max_size=60),
       data=st.data())
def test_bottom_k_ranks_as_a_full_stable_sort(scores, data):
    """Ties, signed zeros, NaN and every k from 0 to the whole pool: the pick
    is the head of a stable sort of the eligible pool, in ascending id
    order."""
    scores = np.array(scores)
    eligible = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores),
                                           max_size=len(scores))))
    pool = np.flatnonzero(eligible)
    k = data.draw(st.integers(0, pool.size))
    want = pool[np.argsort(scores[pool], kind="stable")[:k]]
    np.testing.assert_array_equal(_bottom_k(scores, eligible, k, "x"),
                                  np.sort(want))


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
    res = run_fastglt(ds, ExperimentConfig(
        s_g=s_g, s_theta=s_theta, epochs=2, denoise_epochs=epochs_denoise,
        interval=interval, tau=tau, lr=0.01, hidden=4, seed=3,
        retrain_epochs=1))
    mu_end = -(-epochs_denoise // interval)
    assert [r.interval for r in res.swaps] == list(range(1, mu_end + 1))
    assert len(res.history) == 2 + epochs_denoise

    start = res.initial_binary
    schedule = DenoiseSchedule.build(
        interval, epochs_denoise, tau, 1.0, ds.num_edges,
        start.weight_universe, SparsityPlan(s_g_tgt=s_g, s_theta_tgt=s_theta))
    walk = {"edges": (start.edges.copy(), schedule.graph),
            "weights": (start.weights.copy(), schedule.weights)}
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
    np.testing.assert_array_equal(walk["weights"][0], res.binary.weights)


DESK_SBM = generate_sbm(3, 100, 0.06, 0.02, 12, seed=101, mean_scale=0.2)


def old_order_train(shipped_train):
    """``TrainLoop.train`` in the order the boundary had before it moved
    into the loop: every epoch of the interval evaluates, then the
    boundary swaps the masks, so the next interval opens on a forward of
    its own, and the interval's final test accuracy is a separate
    ``evaluate_accuracy`` under the new masks (``acc_inplace`` reads it
    after the last interval)."""
    from fastglt.nn import evaluate_accuracy

    def train(loop, epochs, grad_acc=None, boundary=None):
        out = shipped_train(loop, epochs, grad_acc)
        if boundary is not None:
            boundary()
            out.final_test = evaluate_accuracy(
                loop.params, loop.soft, loop.binary, loop.dataset,
                loop.dataset.test_idx, norm=loop.norm, x_op=loop.x_op)
        return out
    return train


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("interval", [1, 2])
def test_swap_before_evaluation_keeps_every_ticket_bit(monkeypatch, interval,
                                                       precision):
    """The shipped driver swaps at the end of an interval's last update,
    then runs the evaluation forward under the new masks and trains the
    next epoch on it. Against the old order (``old_order_train``) every
    mask, soft-edge value, swap set, search loss, ``acc_inplace`` and
    ``acc_retrained`` is the same; only each interval-end validation
    accuracy moves, to the one under the post-swap masks. The denoise loop
    runs one full forward per epoch plus one at its start."""
    import fastglt.nn as nn
    import fastglt.train as train
    from fastglt.train import TrainLoop

    ds = DESK_SBM
    config = ExperimentConfig(s_g=0.3, s_theta=0.6, epochs=6,
                              denoise_epochs=6, interval=interval, tau=0.3,
                              lr=0.01, hidden=32, seed=3, retrain_epochs=5,
                              precision=precision)
    real_forward, real_rebuild = train.gcn_forward, TrainLoop.rebuild_norm
    forwards, post_swap_val = [], []

    def denoising(soft):
        return soft.edges is not None and soft.weights is None

    def forward(module):
        def spy(params, soft, *args, **kwargs):
            if denoising(soft):
                forwards.append(module)
            return real_forward(params, soft, *args, **kwargs)
        return spy

    def rebuild_norm(loop):
        real_rebuild(loop)
        if denoising(loop.soft):
            logits, _ = real_forward(loop.params, loop.soft, loop.binary, ds,
                                     norm=loop.norm, x_op=loop.x_op)
            post_swap_val.append(nn.evaluate_accuracy(
                loop.params, loop.soft, loop.binary, ds, ds.val_idx,
                logits=logits))

    with monkeypatch.context() as spied:
        spied.setattr(train, "gcn_forward", forward("train"))
        spied.setattr(nn, "gcn_forward", forward("nn"))
        spied.setattr(TrainLoop, "rebuild_norm", rebuild_norm)
        shipped = run_fastglt(ds, config)
    with monkeypatch.context() as patched:
        patched.setattr(TrainLoop, "train", old_order_train(TrainLoop.train))
        reference = run_fastglt(ds, config)

    assert forwards == ["train"] * 7
    # the loop start's rebuild, then one per boundary
    assert len(post_swap_val) == 1 + len(shipped.swaps) == 1 + 6 // interval

    for got, want in ((shipped.binary, reference.binary),
                      (shipped.initial_binary, reference.initial_binary)):
        np.testing.assert_array_equal(got.edges, want.edges)
        np.testing.assert_array_equal(got.weights, want.weights)
    np.testing.assert_array_equal(shipped.soft_edges, reference.soft_edges)
    assert shipped.soft_edges.dtype == reference.soft_edges.dtype
    assert [swap_dict(r) for r in shipped.swaps] == \
        [swap_dict(r) for r in reference.swaps]
    assert [h.loss for h in shipped.history] == \
        [h.loss for h in reference.history]
    for field in ("acc_inplace", "acc_retrained"):
        assert getattr(shipped.report, field) == \
            getattr(reference.report, field)

    ends = {config.epochs + mu * interval - 1 for mu in
            range(1, len(shipped.swaps) + 1)}
    for i, (got, want) in enumerate(zip(shipped.history, reference.history)):
        if i not in ends:
            assert (got.val_acc, got.test_acc) == \
                (want.val_acc, want.test_acc)
    assert [shipped.history[i].val_acc for i in sorted(ends)] == \
        post_swap_val[1:]
