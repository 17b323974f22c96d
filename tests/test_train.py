import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import fastglt.nn as nn
import fastglt.optim as optim
import fastglt.train as train
from fastglt.data import generate_sbm
from fastglt.masks import BinaryMasks, SoftMasks, init_soft_masks
from fastglt.nn import (backward, evaluate_accuracy, gcn_forward,
                        glorot_params, masked_loss)
from fastglt.optim import AdamState, NonFiniteGradient, adam_step
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
    """A weight-only loop zeroes its pruned weights once, at its start,
    and they stay +0.0 while the kept ones train."""
    ds, params, _ = build()
    binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                  params.theta1.shape)
    binary.theta0[0, :] = False
    before = params.theta0[1:].copy()
    train_theta_only(ds, params, binary, epochs=5)
    assert params.theta0[0].tobytes() == bytes(params.theta0[0].nbytes)
    assert (params.theta0[1:] != before).any()


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
    """``rewind`` copies the initialization into the pooled buffer, so
    ``theta0``/``theta1`` stay views of it before and after."""
    ds, params, _ = build()
    init = params.init.copy()
    pool = params.weights
    train_theta_only(ds, params, None, epochs=3)
    assert not np.array_equal(params.weights, init)
    for _ in range(2):
        assert params.weights is pool and pool.flags.c_contiguous
        for layer in (params.theta0, params.theta1):
            assert np.shares_memory(layer, pool)
        np.testing.assert_array_equal(
            np.concatenate([params.theta0.ravel(), params.theta1.ravel()]),
            pool)
        params.rewind()
    np.testing.assert_array_equal(params.weights, init)


def pruned_binary(ds, params):
    binary = BinaryMasks.all_ones(ds.num_edges, params.theta0.shape,
                                  params.theta1.shape)
    binary.edges[::3] = False
    binary.theta0[1, :] = False
    return binary


# What each phase trains: the weights plus exactly the soft masks it holds.
PHASES = {
    "cotrain": (lambda soft: soft, ["theta", "m_edges", "m_theta"]),
    "denoise": (lambda soft: SoftMasks(edges=soft.edges),
                ["theta", "m_edges"]),
    "theta": (lambda soft: SoftMasks(), ["theta"]),
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

    absent = []

    def spying(*args):
        grads = backward(*args)
        absent.append({field for field in ("m_edges", "m_theta")
                       if getattr(grads, field) is None})
        return grads

    monkeypatch.setattr(train, "adam_step", counting)
    monkeypatch.setattr(train, "backward", spying)
    for _ in range(2):
        loop.run_epoch()
    assert steps == trained * 2
    assert absent == [{"m_edges", "m_theta"} - set(trained)] * 2


@pytest.mark.parametrize("masked", [False, True])
def test_theta_only_matches_identity_replay(masked):
    """Training with no soft masks is bit-identical to multiplying by
    arrays of ones and stepping the weights by hand, kept weights for kept
    weights; the loop zeroes the pruned ones."""
    ds, params, _ = build(seed=2)
    binary = pruned_binary(ds, params) if masked else None
    replay = params.fresh_copy()
    train_theta_only(ds, params, binary, epochs=4, lr=0.01)

    ones = SoftMasks.identity(ds.num_edges, replay.theta0.shape,
                              replay.theta1.shape)
    state = AdamState.for_param(replay.weights, 0.01)
    for _ in range(4):
        _, cache = gcn_forward(replay, ones, binary, ds)
        g = backward(cache, ds.labels, ds.train_idx)
        adam_step(state, replay.weights, g.theta, name="theta")
    kept = np.ones(params.weights.size, dtype=bool) if binary is None \
        else binary.weights
    assert params.weights[kept].tobytes() == replay.weights[kept].tobytes()
    assert not params.weights[~kept].any()     # zeroed by the loop's plan


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
              (("theta", replay.weights), ("m_edges", replay_soft.edges))}

    def replay_epoch(b):
        logits, cache = gcn_forward(replay, replay_soft, b, ds)
        loss = masked_loss(logits, ds.labels, ds.train_idx)
        g = backward(cache, ds.labels, ds.train_idx)
        for name, tensor in (("theta", replay.weights),
                             ("m_edges", replay_soft.edges)):
            adam_step(states[name], tensor, getattr(g, name), name=name)
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
    np.testing.assert_array_equal(params.weights, replay.weights)
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
            stats.append(twin.run_epoch(grad_acc=want_acc))
            snapshots.append(twin_soft.copy())
        assert [(h.loss, h.val_acc, h.test_acc) for h in res.history] == \
            [(h.loss, h.val_acc, h.test_acc) for h in stats]
        assert not any(hasattr(h, "grads") for h in res.history)
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_no_gradient_outlives_its_epoch(dtype, monkeypatch):
    """Every ``Gradients`` of a co-training loop, and its dense buffer, is
    dead before the next forward starts (its own epoch's evaluation
    forward included) and before a ``train`` boundary runs. Meanwhile
    ``run_epoch(grad_acc=acc)`` adds to ``acc`` exactly the |dense| of an
    independent ``nn.backward`` on a twin loop's forward, pruned entries
    included."""
    ds = generate_sbm(2, 25, 0.5, 0.05, 6, seed=9)
    params = glorot_params(ds.num_features, 8, ds.num_classes, seed=5,
                           dtype=dtype)
    soft = init_soft_masks(ds, params.theta0.shape, params.theta1.shape,
                           seed=5, dtype=dtype)
    binary = pruned_binary(ds, params)
    twin = TrainLoop(ds, params.fresh_copy(), soft.copy(), binary=binary,
                     lr=0.01)
    loop = TrainLoop(ds, params, soft, binary=binary, lr=0.01)

    refs, dead_at = [], []
    real_backward, real_forward = train.backward, train.gcn_forward

    def all_dead():
        return all(ref() is None for pair in refs for ref in pair)

    def backward_spy(*args):
        grads = real_backward(*args)
        refs.append((weakref.ref(grads), weakref.ref(grads.dense)))
        return grads

    def forward_spy(*args, **kwargs):
        dead_at.append(("forward", all_dead()))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(train, "backward", backward_spy)
    monkeypatch.setattr(train, "gcn_forward", forward_spy)
    acc = np.zeros(params.weights.size)
    want = np.zeros_like(acc)
    for _ in range(3):
        _, cache = nn.gcn_forward(twin.params, twin.soft, twin.binary, ds,
                                  norm=twin.norm, x_op=twin.x_op)
        want += np.abs(nn.backward(cache, ds.labels, ds.train_idx).dense)
        del cache
        twin.run_epoch()
        loop.run_epoch(grad_acc=acc)
        assert all_dead()
    assert acc.tobytes() == want.tobytes()
    assert (loop.params.weights.tobytes()
            == twin.params.weights.tobytes())

    loop.train(3, acc, boundary=lambda: dead_at.append(("boundary",
                                                        all_dead())))
    assert all_dead()
    assert len(refs) == 3 + 3 + 3
    # three epochs of both loops (4 + 2 * 2 forwards: each opens on one of
    # its own), then train's three on the kept forward, the last one
    # evaluating after its boundary
    assert [kind for kind, _ in dead_at] == \
        ["forward"] * (8 + 2) + ["boundary", "forward"]
    assert all(dead for _, dead in dead_at)


def test_train_loops_share_one_feature_operator_per_dtype():
    ds = generate_sbm(2, 40, 0.3, 0.05, 64, seed=4)
    ds = dataclasses.replace(
        ds, features=(ds.features > 1.8).astype(np.float32))

    def loop(dtype):
        params = glorot_params(ds.num_features, 8, ds.num_classes, seed=0,
                               dtype=dtype)
        return TrainLoop(ds, params, SoftMasks())

    first, second = loop(np.float64), loop(np.float64)
    assert sp.issparse(first.x_op)
    assert first.x_op is second.x_op
    single = loop(np.float32)
    assert single.x_op is not first.x_op
    assert single.x_op.dtype == np.float32 and first.x_op.dtype == np.float64
    # a replaced dataset starts a fresh memo
    fresh = dataclasses.replace(ds)
    assert nn.feature_operator(fresh) is not first.x_op


# How a weight-only loop under binary masks runs: with no plan (every
# product gated, ``_weight_plan`` patched out), or with its plan stepping
# only the kept entries.
PLAN_MODES = ("gated", "kept")


def plan_loop(monkeypatch, mode, ds, params, binary):
    with monkeypatch.context() as patched:
        if mode == "gated":
            patched.setattr(train, "_weight_plan", lambda *masks: None)
        return TrainLoop(ds, params, SoftMasks(), binary=binary, lr=0.01)


def sparse_x_sbm():
    ds = generate_sbm(2, 40, 0.3, 0.05, 64, seed=4)
    return dataclasses.replace(
        ds, features=(ds.features > 1.8).astype(np.float32))


@pytest.mark.parametrize("share", [0.3, 0.7])   # a low and a high kept share
@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("x_kind", ["dense", "csr"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fixed_mask_plan_matches_the_gated_loop(monkeypatch, dtype, x_kind,
                                                count, share):
    """A weight-only loop under binary masks gives the gated loop's bits
    with its plan stepping only the kept entries: kept weights, Adam
    moments at kept entries, loss and accuracy histories and the kept
    forward's logits. The plan leaves the pruned weights at +0.0, and its
    Adam holds kept-sized moments. H=300 spans several hidden-unit tiles
    and the Adam blocks are cut small, so both split across two workers."""
    monkeypatch.setattr(nn.workers, "count", lambda: count)
    monkeypatch.setattr(optim, "_BLOCK", 4096)
    ds = sparse_x_sbm() if x_kind == "csr" else build()[0]
    params = glorot_params(ds.num_features, 300, ds.num_classes, seed=5,
                           dtype=dtype)
    rng = np.random.default_rng(6)
    binary = BinaryMasks(edges=rng.random(ds.num_edges) < 0.8,
                         theta0=rng.random(params.theta0.shape) < share,
                         theta1=rng.random(params.theta1.shape) < share)
    kept = np.flatnonzero(binary.weights)

    runs = {}
    for mode in PLAN_MODES:
        loop = plan_loop(monkeypatch, mode, ds, params.fresh_copy(), binary)
        res = loop.train(4)
        state = loop.opt["theta"]
        if mode == "kept":
            assert state.m.shape == state.v.shape == kept.shape
            np.testing.assert_array_equal(loop._plan.ids, kept)
            moments = state.m, state.v          # in ascending kept order
        else:
            assert state.m.shape == params.weights.shape
            moments = state.m[kept], state.v[kept]
        weights = loop.params.weights
        if mode == "gated":
            np.testing.assert_array_equal(weights[~binary.weights],
                                          params.init[~binary.weights])
        else:
            assert weights[~binary.weights].tobytes() == \
                bytes(weights.itemsize * (weights.size - kept.size))
        runs[mode] = [[(h.loss, h.val_acc, h.test_acc) for h in res.history],
                      loop._forward[0].tobytes(), weights[kept].tobytes(),
                      *(m.tobytes() for m in moments)]
    assert runs["kept"] == runs["gated"]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fixed_mask_plan_adds_the_gated_dense_gradient(monkeypatch, dtype):
    """Given ``grad_acc``, a weight-only loop under binary masks adds the
    gated loop's |dense gradient| bits with its plan too, pruned entries
    included, over a sparse X whose hidden units span several tiles."""
    monkeypatch.setattr(nn.workers, "count", lambda: 2)
    ds = sparse_x_sbm()
    params = glorot_params(ds.num_features, 300, ds.num_classes, seed=5,
                           dtype=dtype)
    rng = np.random.default_rng(8)
    binary = BinaryMasks(edges=rng.random(ds.num_edges) < 0.8,
                         theta0=rng.random(params.theta0.shape) < 0.4,
                         theta1=rng.random(params.theta1.shape) < 0.4)
    sums = {}
    for mode in PLAN_MODES:
        loop = plan_loop(monkeypatch, mode, ds, params.fresh_copy(), binary)
        assert (loop._plan is None) == (mode == "gated")
        sums[mode] = np.zeros(params.weights.size)
        loop.train(3, sums[mode])
    pruned = ~binary.weights
    assert sums["gated"][pruned].any() and sums["gated"][~pruned].any()
    assert sums["kept"].tobytes() == sums["gated"].tobytes()


def test_fixed_mask_plan_is_reapplied_or_refused_at_rebuild(monkeypatch):
    """``rebuild_norm`` re-applies a weight-only loop's plan: a new edge
    mask is taken, pruned weights written from outside are zeroed again
    and kept ones are taken into the kept-only step, but a changed weight
    mask, new or edited in place, is refused rather than stepped with
    stale kept ids."""
    ds, params, _ = build()
    rng = np.random.default_rng(3)
    binary = BinaryMasks(edges=rng.random(ds.num_edges) < 0.8,
                         theta0=rng.random(params.theta0.shape) < 0.3,
                         theta1=rng.random(params.theta1.shape) < 0.3)
    loop = plan_loop(monkeypatch, "kept", ds, params, binary)
    pruned, kept = ~binary.weights, loop._plan.ids
    np.testing.assert_array_equal(kept, np.flatnonzero(binary.weights))
    loop.run_epoch()

    loop.binary = binary.with_edges(~binary.edges)
    params.weights[pruned] = 1.0
    params.weights[kept[:3]] = 0.5
    loop.rebuild_norm()
    assert loop._plan.ids is kept
    assert not params.weights[pruned].any()
    np.testing.assert_array_equal(loop._plan.stepped[:3], 0.5)
    loop.run_epoch()
    assert not params.weights[pruned].any()

    regrown = binary.weights.copy()
    regrown[np.flatnonzero(pruned)[0]] = True
    loop.binary = BinaryMasks.pooled(regrown, binary.shapes,
                                     edges=binary.edges)
    with pytest.raises(ValueError, match="weight mask is fixed"):
        loop.rebuild_norm()
    binary.weights[kept[0]] = False
    loop.binary = binary
    with pytest.raises(ValueError, match="weight mask is fixed"):
        loop.rebuild_norm()


def test_fixed_mask_plan_checks_the_kept_gradient_for_finiteness(
        monkeypatch):
    """A non-finite value that reaches a kept weight raises
    ``NonFiniteGradient`` at the same epoch and Adam step with or without
    the plan; under the plan only the kept entries are counted. A
    non-finite value in a pruned weight is one the plan zeroes at its
    start, so only the gated loop, whose gate turns it into NaN, raises."""
    ds, params, _ = build()
    rng = np.random.default_rng(3)
    binary = BinaryMasks(edges=rng.random(ds.num_edges) < 0.8,
                         theta0=rng.random(params.theta0.shape) < 0.3,
                         theta1=rng.random(params.theta1.shape) < 0.3)
    kept = np.flatnonzero(binary.weights)
    pruned = np.flatnonzero(~binary.weights)

    def run(mode, at):
        p = params.fresh_copy()
        p.weights[at] = np.inf
        loop = plan_loop(monkeypatch, mode, ds, p, binary)
        with np.errstate(all="ignore"):
            loop.train(2)
        return loop

    for mode in PLAN_MODES:
        with pytest.raises(NonFiniteGradient) as err:
            run(mode, kept[0])
        assert (err.value.context["tensor"], err.value.context["step"],
                err.value.context["epoch"]) == ("theta", 1, 1)
        if mode == "kept":
            assert 0 < err.value.context["bad"] <= kept.size
    with pytest.raises(NonFiniteGradient):
        run("gated", pruned[0])
    loop = run("kept", pruned[0])
    assert np.isfinite(loop.params.weights).all()
    assert loop.params.weights[pruned[0]] == 0.0
