"""The bench's tracer (bench/tracer.py) reads library names by string: every
traced function and the ``TrainLoop`` attributes that label an epoch's
phase. Its output checks (bench/checks.py) replay the swap log and digest
every artifact. These tests catch a library change that would break
``bench/run.py --trace 1`` or fail a bench check. They read bench/ and do
not modify it."""

import importlib.util
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
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
    assert {"train.run_epoch.theta", "nn.backward", "optim.adam_step.theta0",
            "optim.adam_step.theta1"} <= names


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
