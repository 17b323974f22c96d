import numpy as np
import pytest

from fastglt.baselines import (ImpConfig, imp_rounds_needed, random_masks,
                               run_dense, run_imp, run_oneshot_only,
                               run_random)
from fastglt.data import generate_sbm
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


def test_imp_config_validation():
    ImpConfig(p_g=0.05, p_theta=0.0, epochs_per_round=5).validate()
    ImpConfig(p_g=0.1, p_theta=0.0).validate()     # p_theta=0 accepted
    with pytest.raises(ValueError):
        ImpConfig(p_g=0.0, p_theta=0.0).validate()
    with pytest.raises(ValueError):
        ImpConfig(p_g=1.0).validate()


def test_imp_one_round_arithmetic(ds):
    # 5% of the kept edges go per round
    imp = ImpConfig(p_g=0.05, p_theta=0.0, epochs_per_round=2)
    res = run_imp(ds, imp, s_g=0.049, s_theta=0.0, seed=0, hidden=8,
                  retrain_epochs=2, lr=0.01)
    e = ds.num_edges
    first = res.round_masks[0]
    assert int(first.edges.sum()) == e - int(np.floor(0.05 * e + 0.5))


def test_imp_geometric_sparsity(ds):
    imp = ImpConfig(p_g=0.05, p_theta=0.0, epochs_per_round=2)
    res = run_imp(ds, imp, s_g=0.30, s_theta=0.0, seed=0, hidden=8,
                  retrain_epochs=2, lr=0.01)
    assert len(res.round_masks) == 7
    e = ds.num_edges
    for k, masks in enumerate(res.round_masks, start=1):
        expect = e * (1 - 0.05) ** k
        assert abs(int(masks.edges.sum()) - expect) <= k  # per-round rounding
    assert res.report.s_g >= 0.30


def test_imp_rewind_restores_init(ds):
    params0 = glorot_params(ds.num_features, 8, ds.num_classes, seed=4)
    imp = ImpConfig(p_g=0.2, p_theta=0.2, epochs_per_round=2)
    res = run_imp(ds, imp, s_g=0.3, s_theta=0.3, seed=4, params0=params0,
                  retrain_epochs=2, lr=0.01)
    np.testing.assert_array_equal(res.params.theta0_init,
                                  params0.theta0_init)
    # verification retrains from the same initialization
    assert res.report.extra["rounds"] == 2


def test_imp_unreachable_target(ds):
    imp = ImpConfig(p_g=0.05, p_theta=0.0, epochs_per_round=1)
    with pytest.raises(ValueError, match="unreachable"):
        run_imp(ds, imp, s_g=0.0, s_theta=0.5, seed=0, hidden=8, lr=0.01)


def test_imp_zero_targets_reports_the_trained_epochs(ds, monkeypatch):
    import fastglt.baselines as baselines
    trained = []
    real = baselines.train_oneshot_phase

    def counting(*args, epochs, **kwargs):
        trained.append(epochs)
        return real(*args, epochs=epochs, **kwargs)

    monkeypatch.setattr(baselines, "train_oneshot_phase", counting)
    res = run_imp(ds, ImpConfig(epochs_per_round=7), s_g=0, s_theta=0,
                  seed=0, hidden=8, retrain_epochs=2, lr=0.01)
    assert trained == [7]
    assert res.report.search_epochs == 7
    assert res.report.extra["rounds"] == 0       # nothing was pruned


def test_imp_record_levels(ds):
    imp = ImpConfig(p_g=0.05, p_theta=0.0, epochs_per_round=2)
    levels = [0.10, 0.20]
    res = run_imp(ds, imp, s_g=0.25, s_theta=0.0, seed=1, hidden=8,
                  retrain_epochs=2, lr=0.01, record_levels=levels)
    e = ds.num_edges
    for lvl in levels:
        mask = res.level_masks[lvl]
        assert int(mask.sum()) == kept_count(e, lvl)
    # later levels prune supersets of earlier levels
    assert not np.any(res.level_masks[0.20] & ~res.level_masks[0.10])


def test_random_exact_counts_and_determinism(ds):
    m1 = random_masks(ds, (8, 4), (4, 2), s_g=0.5, s_theta=0.25, seed=9)
    m2 = random_masks(ds, (8, 4), (4, 2), s_g=0.5, s_theta=0.25, seed=9)
    m3 = random_masks(ds, (8, 4), (4, 2), s_g=0.5, s_theta=0.25, seed=10)
    assert int(m1.edges.sum()) == kept_count(ds.num_edges, 0.5)
    assert int(m1.weights_flat().sum()) == kept_count(40, 0.25)
    np.testing.assert_array_equal(m1.edges, m2.edges)
    assert np.any(m1.edges != m3.edges)


def test_random_hundred_edges_half():
    ds100 = generate_sbm(2, 25, 0.37, 0.0, 4, seed=33)
    # exact kept count at one half, whatever the edge total
    m = random_masks(ds100, (4, 4), (4, 2), s_g=0.5, s_theta=0.0, seed=0)
    assert int(m.edges.sum()) == kept_count(ds100.num_edges, 0.5)


def test_run_random_dense_degenerate(ds):
    res = run_random(ds, s_g=0.0, s_theta=0.0, epochs=10, seed=2, hidden=8,
                     retrain_epochs=10, lr=0.01)
    assert res.report.s_g == 0.0 and res.report.s_theta == 0.0
    assert res.binary.edges.all()


def test_run_oneshot_only_degenerate_equals_dense(ds):
    params0 = glorot_params(ds.num_features, 8, ds.num_classes, seed=5)
    res = run_oneshot_only(ds, s_g=0.0, s_theta=0.0, epochs=8, seed=5,
                           params0=params0, retrain_epochs=20, lr=0.01)
    dense = run_dense(ds, epochs=20, seed=5, params0=params0, lr=0.01)
    # the verification retrain of an unpruned ticket is the dense training
    assert res.report.acc_retrained == dense.report.acc_retrained
    assert res.report.macs == dense.report.macs


def test_run_oneshot_only_reaches_targets(ds):
    res = run_oneshot_only(ds, s_g=0.3, s_theta=0.6, epochs=8, seed=6,
                           hidden=8, retrain_epochs=8, lr=0.01)
    assert res.report.s_g == pytest.approx(0.3, abs=1.0 / ds.num_edges)
    assert res.report.s_theta == pytest.approx(0.6, abs=1.0 / 40 + 1e-9)


def test_shared_init_across_arms(ds):
    params0 = glorot_params(ds.num_features, 8, ds.num_classes, seed=11)
    a = run_dense(ds, epochs=5, seed=11, params0=params0, lr=0.01)
    b = run_random(ds, s_g=0.2, s_theta=0.2, epochs=5, seed=11,
                   params0=params0, retrain_epochs=5, lr=0.01)
    np.testing.assert_array_equal(a.params.theta0_init,
                                  b.params.theta0_init)
