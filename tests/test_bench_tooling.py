"""The bench's tracer (bench/tracer.py) reads library names by string: every
traced function and the ``TrainLoop`` attributes that label an epoch's
phase. Its output checks (bench/checks.py) replay the swap log and digest
every artifact, and its inference timer (bench/run.py) rebuilds a ticket
from the mask files. These tests catch a library change that would break
``bench/run.py`` at either trace setting or fail a bench check. They read
bench/ and do not modify it."""

import importlib.util
import sys
from pathlib import Path

import pytest

import fastglt
from fastglt.config import config_from_dict
from fastglt.data import generate_sbm, parse_dataset_spec
from fastglt.harness import run_experiment
from fastglt.masks import SoftMasks, init_soft_masks
from fastglt.nn import glorot_params
from fastglt.train import TrainLoop

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """Import bench/<name>.py under a private module name."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass defined there looks its module up
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


def test_tracer_installs_and_uninstalls(tracer_module):
    before = fastglt.train.TrainLoop.run_epoch, fastglt.nn.backward
    tracer = tracer_module.Tracer()
    with tracer:
        assert fastglt.train.TrainLoop.run_epoch is not before[0]
        assert fastglt.train.backward is not before[1]
        ds = generate_sbm(2, 10, 0.5, 0.1, 4, seed=0)
        params = glorot_params(ds.num_features, 4, ds.num_classes, seed=0)
        TrainLoop(ds, params, SoftMasks()).run_epoch()
    assert (fastglt.train.TrainLoop.run_epoch, fastglt.nn.backward) == before
    assert fastglt.train.backward is before[1]
    names = {span["name"] for span in tracer.dump()}
    assert {"train.run_epoch.theta", "nn.backward",
            "optim.adam_step.theta"} <= names


def test_span_names_read_the_trained_set(tracer_module):
    ds = generate_sbm(2, 10, 0.5, 0.1, 4, seed=0)
    params = glorot_params(ds.num_features, 4, ds.num_classes, seed=0)
    soft = init_soft_masks(ds, params.theta0.shape, params.theta1.shape,
                           seed=0)
    expect = {"cotrain": soft, "denoise": SoftMasks(edges=soft.edges),
              "theta": SoftMasks()}
    for phase, phase_soft in expect.items():
        loop = TrainLoop(ds, params, phase_soft)
        name = tracer_module._span_name("train.run_epoch", (loop,), {})
        assert name == f"train.run_epoch.{phase}"


def test_bench_checks_pass_on_a_fastglt_arm(tmp_path):
    """Every bench check passes on a small fastglt arm whose last denoise
    interval is partial (D=11, interval 4), and two runs of one config
    give one artifact digest."""
    checks = _load("checks")
    cfg = config_from_dict({
        "dataset": "sbm:blocks=2,nodes_per_block=20,p_in=0.3,p_out=0.05,"
                   "feature_dim=6,seed=4",
        "method": "fastglt", "s_g": 0.3, "s_theta": 0.6, "epochs": 4,
        "denoise_epochs": 11, "interval": 4, "tau": 0.3, "hidden": 8,
        "lr": 0.01, "seed": 2, "retrain_epochs": 3})
    ds = parse_dataset_spec(cfg.dataset)
    arms = [tmp_path / "a", tmp_path / "b"]
    for arm in arms:
        run_experiment(cfg, arm, dataset=ds)
    found, survival = checks.check_arm(arms[0], cfg, ds.num_edges,
                                       ds.num_features, ds.num_classes)
    names = {name for name, _, _ in found}
    assert {"swap_replay", "swap_intervals", "kept_edges", "kept_weights",
            "report_sparsity", "mask_roundtrip.edges"} <= names
    assert [(name, detail) for name, ok, detail in found if not ok] == []
    assert set(survival) == {"edges", "weights"}
    assert checks.artifact_digest(arms[:1]) == \
        checks.artifact_digest(arms[1:])


def test_tracer_sees_every_arm_of_a_suite(tracer_module, tmp_path):
    """The tracer wraps each ``run_*`` where the harness looks it up. A
    dispatch table bound at import would keep the unwrapped arms: the run
    would pass, but the bench would lose every arm span and the phase spans
    under them. Each ticket arm verifies exactly once, inside its own span
    (the bench counts verify epochs under ``run_fastglt``); the dense arm
    and fig-2's iterative search verify nothing."""
    from fastglt.harness import run_suite
    suite = {
        "shared": {"dataset": "sbm:blocks=2,nodes_per_block=15,p_in=0.3,"
                              "p_out=0.05,feature_dim=5,seed=3",
                   "s_g": 0.2, "s_theta": 0.3, "epochs": 2,
                   "denoise_epochs": 4, "interval": 2, "hidden": 4,
                   "lr": 0.01, "seed": 1, "retrain_epochs": 1,
                   "imp_epochs_per_round": 1},
        "arms": [{"method": m}
                 for m in ("dense", "fastglt", "imp", "oneshot", "random")],
        "fig2": {"levels": [0.1, 0.2], "weight_level": 0.2}}
    tracer = tracer_module.Tracer()
    with tracer:
        run_suite(suite, tmp_path / "suite")
    spans = tracer.dump()
    names = [s["name"] for s in spans]
    for arm in ("baselines.run_dense", "denoise.run_fastglt",
                "baselines.run_imp", "baselines.run_oneshot_only",
                "baselines.run_random"):
        assert arm in names, arm

    def children(parent: str) -> set:
        ids = {s["id"] for s in spans if s["name"] == parent}
        return {s["name"] for s in spans if s["parent"] in ids}

    assert "train.train_oneshot_phase" in children("baselines.run_imp")
    assert {"denoise.interval_quotas", "train.TrainLoop.rebuild_norm"} <= \
        children("denoise.run_fastglt")
    name_of = {s["id"]: s["name"] for s in spans}
    verify_parents = [name_of.get(s["parent"]) for s in spans
                      if s["name"] == "train.verify_ticket"]
    assert sorted(verify_parents) == [
        "baselines.run_imp", "baselines.run_oneshot_only",
        "baselines.run_random", "denoise.run_fastglt"]


def test_inference_timer_runs_on_a_fastglt_arm(tmp_path, monkeypatch):
    """The path ``bench/run.py --trace 0`` gates on: after each job it
    rebuilds the ticket from the arm's per-layer mask files and times
    ``gcn_forward`` under it and under no masks."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = _load("run")
    setup = run.Setup(run.WORKLOADS["cora-shape-arm"], 1, tmp_path)
    setup.import_library()
    cfg = config_from_dict({
        "dataset": "sbm:blocks=2,nodes_per_block=20,p_in=0.3,p_out=0.05,"
                   "feature_dim=6,seed=4",
        "method": "fastglt", "s_g": 0.3, "s_theta": 0.6, "epochs": 3,
        "denoise_epochs": 2, "interval": 1, "hidden": 8, "lr": 0.01,
        "seed": 2, "retrain_epochs": 1})
    setup.dataset = parse_dataset_spec(cfg.dataset)
    setup.params0 = run.harness.make_params0(setup.dataset, cfg)
    run_experiment(cfg, tmp_path / "arm", dataset=setup.dataset,
                   params0=setup.params0)
    monkeypatch.setattr(run, "INFER_SECONDS", 0.01)
    times = run.inference_samples(setup, tmp_path / "arm")
    assert sorted(times) == ["dense", "ticket"]
    assert all(len(samples) >= 8 for samples in times.values())


def test_per_layer_sees_every_denoise_boundary(tracer_module, monkeypatch):
    """``bench/layers.per_layer`` finds a boundary as a window of direct
    children of ``run_fastglt``, from ``interval_quotas`` to the adjacency
    rebuild. A traced arm of three intervals (D=5, interval 2) must show
    three boundaries of non-zero length: a boundary run inside
    ``run_epoch`` would hide those spans under an epoch span and silently
    read zero for both."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = _load("layers")
    import fastglt.denoise as denoise
    from fastglt.config import ExperimentConfig

    ds = generate_sbm(2, 20, 0.3, 0.05, 6, seed=4)
    config = ExperimentConfig(s_g=0.3, s_theta=0.6, epochs=3,
                              denoise_epochs=5, interval=2, tau=0.3,
                              hidden=8, lr=0.01, seed=2, retrain_epochs=2)
    tracer = tracer_module.Tracer()
    tracer.session = "job"
    with tracer:       # looked up inside: the tracer wraps module globals
        report = denoise.run_fastglt(ds, config).report
    values, _ = layers.per_layer(tracer.spans, 1, [report.total_seconds])
    assert report.extra["intervals"] == 3
    assert values["denoise.boundaries"] == 3
    assert values["denoise.boundary_ms"] > 0


def test_each_epoch_span_holds_its_evaluation_forward(tracer_module):
    """``nn.forward_calls_per_epoch`` counts the ``nn.gcn_forward`` spans
    directly under ``train.run_epoch`` spans, so each epoch's evaluation
    forward must run inside its epoch's span. A theta-only
    ``TrainLoop.train`` shows two in its first epoch (its training forward
    and its evaluation forward) and one in each later epoch, which trains
    on the forward the epoch before kept."""
    ds = generate_sbm(2, 10, 0.5, 0.1, 4, seed=0)
    params = glorot_params(ds.num_features, 4, ds.num_classes, seed=0)
    tracer = tracer_module.Tracer()
    with tracer:
        TrainLoop(ds, params, SoftMasks()).train(4)
    spans = tracer.dump()
    epochs = [s["id"] for s in spans if s["name"] == "train.run_epoch.theta"]
    assert [sum(s["parent"] == epoch and s["name"] == "nn.gcn_forward"
                for s in spans) for epoch in epochs] == [2, 1, 1, 1]
    assert sum(s["name"] == "nn.gcn_forward" for s in spans) == 5
