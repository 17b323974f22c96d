import numpy as np
import pytest

import fastglt.train as train
from fastglt.data import generate_sbm
from fastglt.masks import BinaryMasks, SoftMasks, init_soft_masks
from fastglt.nn import (backward, evaluate_accuracy, gcn_forward,
                        glorot_params, masked_loss)
from fastglt.optim import AdamState, adam_step
from fastglt.train import (TrainLoop, train_oneshot_phase, train_theta_only,
                           verify_ticket)


def build(seed=0, hidden=16, dataset=None):
    ds = dataset or generate_sbm(2, 25, 0.5, 0.05, 6, seed=9)
    params = glorot_params(ds.num_features, hidden, ds.num_classes, seed=seed)
    soft = init_soft_masks(ds, params.theta0.shape, params.theta1.shape,
                           seed=seed)
    return ds, params, soft


def test_oneshot_best_epoch_bounded_and_history():
    ds, params, soft = build()
    res = train_oneshot_phase(ds, params, soft, epochs=12)
    assert 1 <= res.best_epoch <= 12
    assert len(res.history) == 12
    assert res.best_val_acc == max(h.val_acc for h in res.history)
    # ties resolve to the earliest epoch
    first_hit = next(i + 1 for i, h in enumerate(res.history)
                     if h.val_acc == res.best_val_acc)
    assert res.best_epoch == first_hit


def test_oneshot_deterministic():
    ds1, p1, s1 = build(seed=3)
    ds2, p2, s2 = build(seed=3)
    r1 = train_oneshot_phase(ds1, p1, s1, epochs=8)
    r2 = train_oneshot_phase(ds2, p2, s2, epochs=8)
    np.testing.assert_array_equal(r1.best_soft.edges, r2.best_soft.edges)
    np.testing.assert_array_equal(r1.best_soft.theta0, r2.best_soft.theta0)
    np.testing.assert_array_equal(p1.theta0, p2.theta0)


def test_oneshot_rejects_zero_epochs():
    ds, params, soft = build()
    with pytest.raises(ValueError):
        train_oneshot_phase(ds, params, soft, epochs=0)


def test_oneshot_separable_sbm_reaches_high_val_acc():
    ds = generate_sbm(2, 25, 0.9, 0.01, 8, seed=4, mean_scale=0.6)
    params = glorot_params(8, 16, 2, seed=1)
    soft = init_soft_masks(ds, params.theta0.shape, params.theta1.shape,
                           seed=1)
    res = train_oneshot_phase(ds, params, soft, epochs=60)
    assert res.best_val_acc > 0.9


def test_theta_only_training_learns():
    ds, params, soft = build()
    out = train_theta_only(ds, params, None, epochs=60)
    assert out.best_val_acc > 0.7
    assert out.test_at_best > 0.6
    assert len(out.history) == 60


def test_theta_only_respects_binary_masks():
    ds, params, _ = build()
    binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                  params.theta1.shape)
    binary.theta0[0, :] = False
    before = params.theta0[0].copy()
    train_theta_only(ds, params, binary, epochs=5)
    np.testing.assert_array_equal(params.theta0[0], before)


def test_verify_ticket_starts_from_init_and_preserves_params():
    ds, params, soft = build()
    train_theta_only(ds, params, None, epochs=5)
    trained0 = params.theta0.copy()
    res = verify_ticket(ds, params, None, epochs=5)
    # original trained weights untouched by the verification retrain
    np.testing.assert_array_equal(params.theta0, trained0)
    assert res.best_epoch >= 1


def test_verify_matches_direct_retrain_from_init():
    ds, params, soft = build(seed=8)
    res_a = verify_ticket(ds, params, None, epochs=10)
    fresh = params.fresh_copy()
    res_b = train_theta_only(ds, fresh, None, epochs=10)
    assert res_a.test_at_best == res_b.test_at_best
    assert [h.loss for h in res_a.history] == [h.loss for h in res_b.history]


def test_rewind_restores_initialization():
    ds, params, _ = build()
    init0 = params.theta0_init.copy()
    train_theta_only(ds, params, None, epochs=3)
    assert not np.array_equal(params.theta0, init0)
    params.rewind()
    np.testing.assert_array_equal(params.theta0, init0)


def pruned_binary(ds, params):
    binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                  params.theta1.shape)
    binary.edges[::3] = False
    binary.theta0[1, :] = False
    return binary


# What each phase trains: the weights plus exactly the soft masks it holds.
PHASES = {
    "cotrain": (lambda soft: soft,
                ["theta0", "theta1", "m_edges", "m_theta0", "m_theta1"]),
    "denoise": (lambda soft: SoftMasks(edges=soft.edges),
                ["theta0", "theta1", "m_edges"]),
    "theta": (lambda soft: SoftMasks(), ["theta0", "theta1"]),
}


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_each_phase_steps_exactly_its_tensors(phase, monkeypatch):
    ds, params, soft = build()
    pick, trained = PHASES[phase]
    loop = TrainLoop(ds, params, pick(soft), binary=pruned_binary(ds, params))
    assert list(loop.opt) == trained
    steps = []

    def counting(*args, name, **kwargs):
        steps.append(name)
        return adam_step(*args, name=name, **kwargs)

    monkeypatch.setattr(train, "adam_step", counting)
    for _ in range(2):
        grads = loop.run_epoch().grads
    assert steps == trained * 2
    for field in ("m_edges", "m_theta0", "m_theta1"):
        assert (getattr(grads, field) is None) == (field not in trained)


@pytest.mark.parametrize("masked", [False, True])
def test_theta_only_matches_identity_replay(masked):
    """Training with no soft masks is bit-identical to multiplying by
    arrays of ones and stepping the weights by hand."""
    ds, params, _ = build(seed=2)
    binary = pruned_binary(ds, params) if masked else None
    replay = params.fresh_copy()
    train_theta_only(ds, params, binary, epochs=4, lr=0.01)

    ones = SoftMasks.identity(ds.num_edges, replay.theta0.shape,
                              replay.theta1.shape)
    states = [AdamState.for_param(replay.theta0, 0.01),
              AdamState.for_param(replay.theta1, 0.01)]
    for _ in range(4):
        _, cache = gcn_forward(replay, ones, binary, ds)
        g = backward(cache, ds.labels, ds.train_idx)
        adam_step(states[0], replay.theta0, g.theta0,
                  binary.theta0 if masked else None)
        adam_step(states[1], replay.theta1, g.theta1,
                  binary.theta1 if masked else None)
    np.testing.assert_array_equal(params.theta0, replay.theta0)
    np.testing.assert_array_equal(params.theta1, replay.theta1)


def test_one_forward_per_epoch(monkeypatch):
    ds, params, soft = build()
    loop = TrainLoop(ds, params, SoftMasks(edges=soft.edges))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return gcn_forward(*args, **kwargs)

    monkeypatch.setattr(train, "gcn_forward", counting)
    for _ in range(4):
        loop.run_epoch()
    assert len(calls) == 5
    loop.rebuild_norm()         # drops the kept forward
    loop.run_epoch()
    assert len(calls) == 7


def test_forward_reuse_matches_two_forward_replay():
    """A denoise-style loop through an out-of-band boundary mutation equals,
    bit for bit, a replay that runs both forwards of every epoch."""
    ds, params, soft = build(seed=4)
    soft_dn = SoftMasks(edges=soft.edges.copy())
    binary = pruned_binary(ds, params)
    replay, replay_soft = params.fresh_copy(), soft_dn.copy()
    lr = 0.01
    loop = TrainLoop(ds, params, soft_dn, binary=binary, lr=lr)
    states = {name: AdamState.for_param(t, lr) for name, t in
              (("theta0", replay.theta0), ("theta1", replay.theta1),
               ("m_edges", replay_soft.edges))}

    def replay_epoch(b):
        logits, cache = gcn_forward(replay, replay_soft, b, ds)
        loss = masked_loss(logits, ds.labels, ds.train_idx)
        g = backward(cache, ds.labels, ds.train_idx)
        adam_step(states["theta0"], replay.theta0, g.theta0, b.theta0)
        adam_step(states["theta1"], replay.theta1, g.theta1, b.theta1)
        adam_step(states["m_edges"], replay_soft.edges, g.m_edges, b.edges)
        logits, _ = gcn_forward(replay, replay_soft, b, ds)
        return (loss, evaluate_accuracy(replay, replay_soft, b, ds,
                                        ds.val_idx, logits=logits))

    def mutate(p, s):
        p.theta0[2, :] = 0.0
        p.theta1[:, 1] = 0.0
        s.edges[1::4] = 0.5

    got, want = [], []
    for _ in range(3):
        stats = loop.run_epoch()
        got.append((stats.loss, stats.val_acc))
        want.append(replay_epoch(binary))

    swapped = binary.with_edges(~binary.edges)
    mutate(params, soft_dn)
    loop.binary = swapped
    loop.rebuild_norm()
    mutate(replay, replay_soft)
    for _ in range(3):
        stats = loop.run_epoch()
        got.append((stats.loss, stats.val_acc))
        want.append(replay_epoch(swapped))

    assert got == want
    np.testing.assert_array_equal(params.theta0, replay.theta0)
    np.testing.assert_array_equal(params.theta1, replay.theta1)
    np.testing.assert_array_equal(soft_dn.edges, replay_soft.edges)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_train_matches_a_run_epoch_replay(dtype):
    """Two ``train`` calls on one loop equal, bit for bit, a twin loop
    stepped by hand: history, best epoch (earliest on ties) with its test
    accuracy and soft snapshot, final test accuracy, and the |dense grad|
    sums added into the caller's buffer across both calls."""
    ds = generate_sbm(2, 25, 0.5, 0.05, 6, seed=9)
    params = glorot_params(ds.num_features, 8, ds.num_classes, seed=2,
                           dtype=dtype)
    soft = init_soft_masks(ds, params.theta0.shape, params.theta1.shape,
                           seed=2, dtype=dtype)
    twin_params, twin_soft = params.fresh_copy(), soft.copy()
    loop = TrainLoop(ds, params, soft, lr=0.01)
    twin = TrainLoop(ds, twin_params, twin_soft, lr=0.01)

    acc = np.zeros(params.theta0.size + params.theta1.size)
    results = [loop.train(n, acc) for n in (4, 3)]

    want_acc = np.zeros_like(acc)
    for res, n in zip(results, (4, 3)):
        stats, snapshots = [], []
        for _ in range(n):
            s = twin.run_epoch()
            want_acc += np.abs(s.grads.dense_flat())
            stats.append(s)
            snapshots.append(twin_soft.copy())
        assert [(h.loss, h.val_acc, h.test_acc) for h in res.history] == \
            [(h.loss, h.val_acc, h.test_acc) for h in stats]
        assert all(h.grads is None for h in res.history)
        vals = [h.val_acc for h in stats]
        best = vals.index(max(vals))
        assert (res.best_epoch, res.best_val_acc, res.test_at_best) == \
            (best + 1, vals[best], stats[best].test_acc)
        assert res.final_test == stats[-1].test_acc
        for name in ("edges", "theta0", "theta1"):
            np.testing.assert_array_equal(getattr(res.best_soft, name),
                                          getattr(snapshots[best], name))
    np.testing.assert_array_equal(acc, want_acc)
    np.testing.assert_array_equal(params.theta0, twin_params.theta0)

