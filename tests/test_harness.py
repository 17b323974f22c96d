import json
import subprocess
import sys

import pytest

from fastglt.config import config_from_dict, load_config
from fastglt.harness import analyze_dir, run_experiment, run_suite

DESK_SBM = ("sbm:blocks=3,nodes_per_block=30,p_in=0.3,p_out=0.05,"
            "feature_dim=8,seed=2")


def desk_config(**kw):
    base = dict(dataset=DESK_SBM, method="fastglt", s_g=0.2, s_theta=0.4,
                epochs=8, denoise_epochs=20, interval=5, hidden=8,
                lr=0.01, seed=1, retrain_epochs=20)
    base.update(kw)
    return config_from_dict(base)


def test_config_validation_before_training():
    with pytest.raises(ValueError, match="outside"):
        desk_config(s_g=1.0)
    with pytest.raises(ValueError, match="method"):
        desk_config(method="magic")
    with pytest.raises(ValueError, match="precision"):
        desk_config(precision="f16")
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({"methd": "dense"})


def test_config_digest_stability_and_sensitivity():
    a = desk_config()
    b = desk_config()
    c = desk_config(seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 16


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "dense", "dataset": DESK_SBM,
                                "epochs": 5, "denoise_epochs": 5,
                                "hidden": 8}))
    cfg = load_config(path, {"seed": "9", "lr": "0.01"})
    assert cfg.seed == 9 and cfg.lr == 0.01 and cfg.method == "dense"


def test_run_experiment_dense_report(tmp_path):
    cfg = desk_config(method="dense", epochs=5, denoise_epochs=5)
    run = run_experiment(cfg, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["results"]["s_g"] == 0.0
    assert report["results"]["s_theta"] == 0.0
    assert report["config"]["method"] == "dense"
    assert report["config_digest"] == cfg.digest()


def test_run_experiment_fastglt_artifacts(tmp_path):
    cfg = desk_config(denoise_epochs=20, interval=5)
    out = tmp_path / "out"
    run_experiment(cfg, out)
    swaps = [json.loads(line) for line in
             (out / "swaps.jsonl").read_text().splitlines()]
    assert len(swaps) == 4          # ceil(20/5) interval boundaries
    for name in ("masks_edges.gltm", "masks_theta0.gltm",
                 "masks_theta1.gltm", "soft_edges.f32", "report.json"):
        assert (out / name).is_file()
    from fastglt.masks import load_mask, sparsity
    edges = load_mask(out / "masks_edges.gltm")
    report = json.loads((out / "report.json").read_text())
    assert sparsity(edges) == pytest.approx(report["results"]["s_g"])


def test_determinism_byte_identical_reports(tmp_path):
    cfg = desk_config(seed=4)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra.pop("timing")
    rb.pop("timing")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert (tmp_path / "a" / "masks_edges.gltm").read_bytes() == \
        (tmp_path / "b" / "masks_edges.gltm").read_bytes()


def test_suite_shares_initialization(tmp_path):
    suite = {"shared": {"dataset": DESK_SBM, "epochs": 5,
                        "denoise_epochs": 10, "interval": 5, "hidden": 8,
                        "lr": 0.01, "seed": 3},
             "arms": [{"method": "dense"},
                      {"method": "random", "s_g": 0.2, "s_theta": 0.2},
                      {"method": "fastglt", "s_g": 0.2, "s_theta": 0.2}]}
    outcome = run_suite(suite, tmp_path / "suite")
    assert len(outcome.reports) == 3
    assert (tmp_path / "suite" / "efficiency.csv").is_file()
    summary = json.loads(
        (tmp_path / "suite" / "suite_summary.json").read_text())
    assert [a["method"] for a in summary["arms"]] == \
        ["dense", "random", "fastglt"]
    # dense is the 1.0x reference
    assert outcome.reports[0].relative_time == 1.0


def test_suite_artifact_set_per_method(tmp_path):
    suite = {"shared": {"dataset": DESK_SBM, "epochs": 4,
                        "denoise_epochs": 8, "interval": 4, "hidden": 8,
                        "lr": 0.01, "seed": 3, "imp_p_g": 0.2,
                        "imp_p_theta": 0.3, "imp_epochs_per_round": 2},
             "arms": [{"method": m, "s_g": 0.3, "s_theta": 0.5}
                      for m in ("random", "oneshot", "imp", "fastglt")]}
    outcome = run_suite(suite, tmp_path / "suite")
    masks = {"masks_edges.gltm", "masks_theta0.gltm", "masks_theta1.gltm"}
    rounds = {f"round_{k:03d}_{kind}.gltm" for k in (1, 2)
              for kind in ("edges", "weights")}
    expected = {
        "dense": {"report.json"},
        "random": masks | {"report.json"},
        "oneshot": masks | {"soft_edges.f32", "report.json"},
        "imp": masks | rounds | {"report.json"},
        "fastglt": masks | {"soft_edges.f32", "swaps.jsonl", "report.json"},
    }
    common = {"method", "s_g", "s_theta", "acc_inplace", "acc_retrained",
              "macs", "dense_macs", "mac_savings", "seed", "config_digest",
              "search_epochs", "verify_epochs"}
    extra = {"dense": {"best_epoch"}, "random": set(),
             "oneshot": {"oneshot_best_epoch"},
             "imp": {"rounds", "p_g", "p_theta"},
             "fastglt": {"intervals", "oneshot_best_epoch"}}
    assert [r.method for r in outcome.reports] == list(expected)
    for arm_dir, rep in zip(outcome.arm_dirs, outcome.reports):
        files = {p.name for p in arm_dir.iterdir()}
        assert files == expected[rep.method], rep.method
        report = json.loads((arm_dir / "report.json").read_text())
        assert set(report["results"]) == common | extra[rep.method]
        assert bool(report["history"]) == (rep.method == "fastglt")


def test_suite_auto_adds_dense(tmp_path):
    suite = {"shared": {"dataset": DESK_SBM, "epochs": 4,
                        "denoise_epochs": 8, "interval": 4, "hidden": 8,
                        "lr": 0.01, "seed": 3},
             "arms": [{"method": "random", "s_g": 0.1, "s_theta": 0.1}]}
    outcome = run_suite(suite, tmp_path / "suite")
    assert outcome.reports[0].method == "dense"


def test_suite_sweep_semantics(tmp_path):
    suite = {"shared": {"dataset": DESK_SBM, "epochs": 6,
                        "denoise_epochs": 12, "interval": 4, "hidden": 8,
                        "lr": 0.01, "seed": 5},
             "arms": [{"method": "dense"}],
             "sweep": {"vary": "s_g", "methods": ["random"], "start": 0.1,
                       "step": 0.05, "stop": 0.2, "win_delta": 1.0}}
    outcome = run_suite(suite, tmp_path / "sweep")
    # win_delta=1.0 means every level wins: extreme = last tried level
    assert outcome.extreme["extreme"]["random"] == pytest.approx(0.2)
    csv_text = (tmp_path / "sweep" / "extreme_sparsity.csv").read_text()
    assert csv_text.splitlines()[0] == "method,level,acc_retrained,win"


def test_suite_sweep_stops_at_first_fail(tmp_path):
    suite = {"shared": {"dataset": DESK_SBM, "epochs": 6,
                        "denoise_epochs": 12, "interval": 4, "hidden": 8,
                        "lr": 0.01, "seed": 5},
             "arms": [{"method": "dense"}],
             "sweep": {"vary": "s_g", "methods": ["random"], "start": 0.1,
                       "step": 0.05, "stop": 0.9, "win_delta": -1.0}}
    outcome = run_suite(suite, tmp_path / "sweep")
    # win_delta=-1 makes the first level fail: no extreme level found
    assert outcome.extreme["extreme"]["random"] is None
    rows = outcome.extreme["levels"]
    assert len(rows) == 1 and rows[0]["win"] is False


def test_suite_fig2_outputs(tmp_path):
    suite = {"shared": {"dataset": DESK_SBM, "epochs": 6,
                        "denoise_epochs": 12, "interval": 4, "hidden": 8,
                        "lr": 0.01, "seed": 6, "imp_p_g": 0.2,
                        "imp_p_theta": 0.3},
             "arms": [{"method": "dense"}],
             "fig2": {"levels": [0.2, 0.4], "weight_level": 0.3}}
    run_suite(suite, tmp_path / "fig2")
    left = (tmp_path / "fig2" / "fig2_left.csv").read_text()
    right = (tmp_path / "fig2" / "fig2_right.csv").read_text()
    assert left.splitlines()[0] == "sparsity,method,distance"
    assert len([l for l in left.splitlines()[1:] if l]) == 4  # 2 methods x 2
    assert "imp,weight_grad,mean" in right
    assert (tmp_path / "fig2" / "fig2_masks").is_dir()


def test_analyze_dir_regenerates_csvs(tmp_path):
    suite = {"shared": {"dataset": DESK_SBM, "epochs": 4,
                        "denoise_epochs": 8, "interval": 4, "hidden": 8,
                        "lr": 0.01, "seed": 7},
             "arms": [{"method": "dense"},
                      {"method": "oneshot", "s_g": 0.2, "s_theta": 0.2}]}
    out = tmp_path / "suite"
    run_suite(suite, out)
    original = (out / "efficiency.csv").read_text()
    (out / "efficiency.csv").unlink()
    produced = analyze_dir(out)
    assert "efficiency.csv" in produced
    assert (out / "efficiency.csv").read_text() == original


def test_suite_failure_preserves_completed_arms(tmp_path):
    suite = {"shared": {"dataset": DESK_SBM, "epochs": 4,
                        "denoise_epochs": 8, "interval": 4, "hidden": 8,
                        "lr": 0.01, "seed": 7},
             "arms": [{"method": "dense"},
                      # unreachable: imp with p_theta=0 but weight target
                      {"method": "imp", "s_g": 0.0, "s_theta": 0.5,
                       "imp_p_g": 0.1, "imp_p_theta": 0.0}]}
    out = tmp_path / "suite"
    with pytest.raises(ValueError, match="unreachable"):
        run_suite(suite, out)
    assert (out / "arm_00_dense" / "report.json").is_file()
    summary = json.loads((out / "suite_summary.json").read_text())
    assert summary["failed_arm"] == "imp"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _glt(*argv):
    return subprocess.run([sys.executable, "-m", "fastglt.cli", *argv],
                          capture_output=True, text=True)


def test_cli_run_and_set_overrides(tmp_path):
    out = tmp_path / "run"
    proc = _glt("run", "--out", str(out), "--seed", "3",
                "--set", f"dataset={DESK_SBM}", "--set", "method=dense",
                "--set", "epochs=4", "--set", "denoise_epochs=4",
                "--set", "hidden=8", "--set", "lr=0.01")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 3
    assert report["config"]["hidden"] == 8


def test_cli_rejects_invalid_target(tmp_path):
    proc = _glt("run", "--out", str(tmp_path / "x"),
                "--set", f"dataset={DESK_SBM}", "--set", "method=fastglt",
                "--set", "s_g=1.0")
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert not (tmp_path / "x").exists()  # validation before any training


def test_cli_convert_and_run_on_bundle(tmp_path):
    # reuse the planetoid fixture writer from the data tests
    from test_data import _write_planetoid_fixture
    _write_planetoid_fixture(tmp_path, name="toy")
    bundle = tmp_path / "bundle"
    proc = _glt("convert", "--raw", str(tmp_path), "--name", "toy",
                "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    assert "8 nodes" in proc.stdout
    run_out = tmp_path / "run"
    proc = _glt("run", "--out", str(run_out),
                "--set", f"dataset={bundle}", "--set", "method=dense",
                "--set", "epochs=2", "--set", "denoise_epochs=2",
                "--set", "hidden=4", "--set", "lr=0.01")
    assert proc.returncode == 0, proc.stderr


def test_cli_suite_and_analyze(tmp_path):
    suite_file = tmp_path / "suite.json"
    suite_file.write_text(json.dumps({
        "shared": {"dataset": DESK_SBM, "epochs": 4, "denoise_epochs": 8,
                   "interval": 4, "hidden": 8, "lr": 0.01, "seed": 2},
        "arms": [{"method": "dense"},
                 {"method": "random", "s_g": 0.1, "s_theta": 0.1}]}))
    out = tmp_path / "suite_out"
    proc = _glt("suite", "--suite", str(suite_file), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "dense" in proc.stdout and "random" in proc.stdout
    proc = _glt("analyze", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "efficiency.csv" in proc.stdout


def test_cli_precision_flag(tmp_path):
    out = tmp_path / "f32"
    proc = _glt("run", "--out", str(out), "--precision", "f32",
                "--set", f"dataset={DESK_SBM}", "--set", "method=dense",
                "--set", "epochs=2", "--set", "denoise_epochs=2",
                "--set", "hidden=4", "--set", "lr=0.01")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["precision"] == "f32"


def test_fig2_one_shot_artifacts_replay_one_cotraining_run(tmp_path):
    """``probe_weight_grads.f32`` and the one-shot fig-2 masks come from a
    single co-training run: they equal a hand replay of one ``TrainLoop``
    on the shared initialization, stepped epoch by epoch."""
    import numpy as np

    from fastglt.data import parse_dataset_spec
    from fastglt.harness import _fig2_artifacts, make_params0
    from fastglt.masks import (init_soft_masks, load_mask, load_soft_values,
                               one_shot_threshold)
    from fastglt.train import TrainLoop

    cfg = desk_config(epochs=7, imp_p_g=0.2, imp_p_theta=0.3)
    ds = parse_dataset_spec(cfg.dataset)
    params0 = make_params0(ds, cfg)
    levels = [0.2, 0.4]
    _fig2_artifacts(tmp_path, ds, cfg, params0, levels, weight_level=0.3)

    soft = init_soft_masks(ds, params0.theta0.shape, params0.theta1.shape,
                           seed=cfg.seed, dtype=cfg.dtype)
    loop = TrainLoop(ds, params0.fresh_copy(), soft, lr=cfg.lr)
    grads = np.zeros(params0.theta0.size + params0.theta1.size)
    best_val, best_edges = -1.0, None
    for _ in range(cfg.epochs):
        stats = loop.run_epoch()
        grads += np.abs(stats.grads.dense_flat())
        if stats.val_acc > best_val:
            best_val, best_edges = stats.val_acc, soft.edges.copy()

    np.testing.assert_array_equal(
        load_soft_values(tmp_path / "probe_weight_grads.f32"),
        grads.astype(np.float32).astype(np.float64))
    for lvl in levels:
        name = f"oneshot_s{int(round(lvl * 100)):03d}.gltm"
        np.testing.assert_array_equal(
            load_mask(tmp_path / "fig2_masks" / name),
            one_shot_threshold(best_edges, lvl))
