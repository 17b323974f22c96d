"""The bench's tracer (bench/tracer.py) reads library names by string: every
traced function and the ``TrainLoop`` attributes that label an epoch's
phase. These tests catch a library change that would break
``bench/run.py --trace 1``. They read bench/ and do not modify it."""

import importlib.util
from pathlib import Path

import pytest

import fastglt
import fastglt.harness  # noqa: F401  (a traced module that fastglt skips)
from fastglt.data import generate_sbm
from fastglt.masks import SoftMasks, init_soft_masks
from fastglt.nn import glorot_params
from fastglt.train import TrainLoop

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
