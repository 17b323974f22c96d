import numpy as np
import pytest

from fastglt.baselines import (imp_rounds_needed, imp_search, random_masks,
                               run_dense, run_imp, run_oneshot_only,
                               run_random)
from fastglt.config import ExperimentConfig
from fastglt.data import generate_sbm
from fastglt.denoise import run_fastglt
from fastglt.masks import kept_count
from fastglt.nn import glorot_params


@pytest.fixture(scope="module")
def ds():
    return generate_sbm(2, 30, 0.35, 0.05, 8, seed=13)


def test_imp_rounds_formula():
    assert imp_rounds_needed(0.05, 0.30) == 7      # 1-0.95^7 = 30.17%
    assert imp_rounds_needed(0.2, 0.9) == 11
    assert imp_rounds_needed(0.2, 0.0) == 0
    with pytest.raises(ValueError, match="unreachable"):
        imp_rounds_needed(0.0, 0.5)


def imp_config(**kw):
    return ExperimentConfig(method="imp", hidden=8, lr=0.01, **kw)


def test_imp_config_validation():
    imp_config(imp_p_g=0.05, imp_p_theta=0.0,
               imp_epochs_per_round=5).validate()
    imp_config(imp_p_g=0.1, imp_p_theta=0.0).validate()  # p_theta=0 accepted
    with pytest.raises(ValueError):
        imp_config(imp_p_g=0.0, imp_p_theta=0.0).validate()
    with pytest.raises(ValueError):
        imp_config(imp_p_g=1.0).validate()
    with pytest.raises(ValueError):
        imp_config(imp_epochs_per_round=0).validate()
    # the IMP checks bind IMP arms only
    ExperimentConfig(imp_p_g=0.0, imp_p_theta=0.0,
                     imp_epochs_per_round=0).validate()


@pytest.mark.parametrize("method, arm", [
    ("dense", run_dense), ("fastglt", run_fastglt), ("imp", run_imp),
    ("random", run_random), ("oneshot", run_oneshot_only)])
def test_every_arm_validates_its_config(ds, method, arm):
    config = ExperimentConfig(method=method, hidden=8, precision="f16")
    with pytest.raises(ValueError, match="precision must be one of"):
        arm(ds, config)


@pytest.mark.parametrize("method, arm", [
    ("dense", run_dense), ("fastglt", run_fastglt), ("imp", run_imp),
    ("random", run_random), ("oneshot", run_oneshot_only)])
@pytest.mark.parametrize("precision, dtype", [("f32", np.float64),
                                              ("f64", np.float32)])
def test_every_arm_refuses_params0_at_another_dtype(ds, method, arm,
                                                    precision, dtype):
    """A shared initialization drawn at another dtype than the config's
    precision would train mixed: weights and Adam state at the one, soft
    masks at the other. Every arm refuses it before training."""
    config = ExperimentConfig(method=method, hidden=8, precision=precision)
    params0 = glorot_params(ds.num_features, 8, ds.num_classes, seed=1,
                            dtype=dtype)
    with pytest.raises(ValueError, match="params0 is"):
        arm(ds, config, params0)


def test_imp_one_round_arithmetic(ds):
    # 5% of the kept edges go per round
    res = run_imp(ds, imp_config(imp_p_g=0.05, imp_p_theta=0.0,
                                 imp_epochs_per_round=2, s_g=0.049,
                                 retrain_epochs=2))
    e = ds.num_edges
    first = res.round_masks[0]
    assert int(first.edges.sum()) == e - int(np.floor(0.05 * e + 0.5))


def test_imp_geometric_sparsity(ds):
    res = run_imp(ds, imp_config(imp_p_g=0.05, imp_p_theta=0.0,
                                 imp_epochs_per_round=2, s_g=0.30,
                                 retrain_epochs=2))
    assert len(res.round_masks) == 7
    e = ds.num_edges
    for k, masks in enumerate(res.round_masks, start=1):
        expect = e * (1 - 0.05) ** k
        assert abs(int(masks.edges.sum()) - expect) <= k  # per-round rounding
    assert res.report.s_g >= 0.30


def test_imp_rewind_restores_init(ds):
    cfg = imp_config(imp_p_g=0.2, imp_p_theta=0.2, imp_epochs_per_round=2,
                     s_g=0.3, s_theta=0.3, seed=4, retrain_epochs=2)
    params0 = glorot_params(ds.num_features, 8, ds.num_classes, seed=4,
                            dtype=cfg.dtype)
    res = run_imp(ds, cfg, params0)
    np.testing.assert_array_equal(res.params.init, params0.init)
    # verification retrains from the same initialization
    assert res.report.extra["rounds"] == 2


def test_imp_unreachable_target(ds):
    imp = imp_config(imp_p_g=0.05, imp_p_theta=0.0, imp_epochs_per_round=1,
                     s_theta=0.5)
    with pytest.raises(ValueError, match="unreachable"):
        run_imp(ds, imp)


def test_imp_zero_targets_reports_the_trained_epochs(ds, monkeypatch):
    import fastglt.baselines as baselines
    trained = []
    real = baselines.train_oneshot_phase

    def counting(*args, epochs, **kwargs):
        trained.append(epochs)
        return real(*args, epochs=epochs, **kwargs)

    monkeypatch.setattr(baselines, "train_oneshot_phase", counting)
    res = run_imp(ds, imp_config(imp_epochs_per_round=7, retrain_epochs=2))
    assert trained == [7]
    assert res.report.search_epochs == 7
    assert res.report.extra["rounds"] == 0       # nothing was pruned


def test_imp_record_levels(ds):
    levels = [0.10, 0.20]
    params = glorot_params(ds.num_features, 8, ds.num_classes, seed=1)
    _, _, _, level_masks = imp_search(
        ds, imp_config(imp_p_g=0.05, imp_p_theta=0.0,
                       imp_epochs_per_round=2, s_g=0.25, seed=1),
        params, levels)
    e = ds.num_edges
    for lvl in levels:
        mask = level_masks[lvl]
        assert int(mask.sum()) == kept_count(e, lvl)
    # later levels prune supersets of earlier levels
    assert not np.any(level_masks[0.20] & ~level_masks[0.10])


def test_random_exact_counts_and_determinism(ds):
    m1 = random_masks(ds, (8, 4), (4, 2), s_g=0.5, s_theta=0.25, seed=9)
    m2 = random_masks(ds, (8, 4), (4, 2), s_g=0.5, s_theta=0.25, seed=9)
    m3 = random_masks(ds, (8, 4), (4, 2), s_g=0.5, s_theta=0.25, seed=10)
    assert int(m1.edges.sum()) == kept_count(ds.num_edges, 0.5)
    assert m1.kept_weights == kept_count(40, 0.25)
    np.testing.assert_array_equal(m1.edges, m2.edges)
    assert np.any(m1.edges != m3.edges)


def test_random_hundred_edges_half():
    ds100 = generate_sbm(2, 25, 0.37, 0.0, 4, seed=33)
    # exact kept count at one half, whatever the edge total
    m = random_masks(ds100, (4, 4), (4, 2), s_g=0.5, s_theta=0.0, seed=0)
    assert int(m.edges.sum()) == kept_count(ds100.num_edges, 0.5)


def test_run_random_dense_degenerate(ds):
    res = run_random(ds, ExperimentConfig(method="random", epochs=10, seed=2,
                                          hidden=8, retrain_epochs=10,
                                          lr=0.01))
    assert res.report.s_g == 0.0 and res.report.s_theta == 0.0
    assert res.binary.edges.all()


def test_run_oneshot_only_degenerate_equals_dense(ds):
    cfg = ExperimentConfig(epochs=8, denoise_epochs=12, seed=5, lr=0.01)
    params0 = glorot_params(ds.num_features, 8, ds.num_classes, seed=5,
                            dtype=cfg.dtype)
    res = run_oneshot_only(ds, cfg.replace(method="oneshot"), params0)
    dense = run_dense(ds, cfg.replace(method="dense"), params0)
    # the verification retrain of an unpruned ticket is the dense training
    assert res.report.acc_retrained == dense.report.acc_retrained
    assert res.report.macs == dense.report.macs


def test_run_oneshot_only_reaches_targets(ds):
    res = run_oneshot_only(ds, ExperimentConfig(
        method="oneshot", s_g=0.3, s_theta=0.6, epochs=8, seed=6, hidden=8,
        retrain_epochs=8, lr=0.01))
    assert res.report.s_g == pytest.approx(0.3, abs=1.0 / ds.num_edges)
    assert res.report.s_theta == pytest.approx(0.6, abs=1.0 / 40 + 1e-9)


def test_shared_init_across_arms(ds):
    cfg = ExperimentConfig(epochs=5, denoise_epochs=0, seed=11, lr=0.01)
    params0 = glorot_params(ds.num_features, 8, ds.num_classes, seed=11,
                            dtype=cfg.dtype)
    a = run_dense(ds, cfg.replace(method="dense"), params0)
    b = run_random(ds, cfg.replace(method="random", s_g=0.2, s_theta=0.2),
                   params0)
    np.testing.assert_array_equal(a.params.init, b.params.init)
