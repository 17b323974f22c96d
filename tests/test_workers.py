import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import fastglt.nn as nn
import fastglt.optim as optim
import fastglt.workers as workers
from fastglt.masks import init_soft_masks

from conftest import random_dataset


def test_count_is_the_thread_cap_else_the_usable_cores(monkeypatch):
    monkeypatch.setenv("GLT_THREADS", "3")
    assert workers.count() == 3
    monkeypatch.delenv("GLT_THREADS")
    assert workers.count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("GLT_THREADS", "two")
    with pytest.raises(ValueError, match="GLT_THREADS"):
        workers.count()


_THREAD_VARS = ("OPENBLAS_THREAD_TIMEOUT", "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

# Records the thread variables at the moment numpy is first imported: the
# BLAS and OpenMP pools read them then and never again.
_SPY = """
import json, os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({{v: os.environ.get(v) for v in {names!r}}})
        return None
sys.meta_path.insert(0, Spy())
import {module}
import numpy
print(json.dumps(seen[0] if seen else None))
"""


def _caps(n):
    return dict.fromkeys(_THREAD_VARS[1:], n)


@pytest.mark.parametrize("module, user, expected", [
    pytest.param("fastglt", {"GLT_THREADS": "1"},
                 {"OPENBLAS_THREAD_TIMEOUT": "4", **_caps("1")},
                 id="library-cap"),
    pytest.param("fastglt.cli", {"GLT_THREADS": "1"},
                 {"OPENBLAS_THREAD_TIMEOUT": "4", **_caps("1")},
                 id="cli-cap"),
    pytest.param("fastglt", {"GLT_THREADS": "1", "OPENBLAS_NUM_THREADS": "3"},
                 {"OPENBLAS_THREAD_TIMEOUT": "4", **_caps("1"),
                  "OPENBLAS_NUM_THREADS": "3"},
                 id="user-pool-size-kept"),
    pytest.param("fastglt", {"OPENBLAS_THREAD_TIMEOUT": "28"},
                 {"OPENBLAS_THREAD_TIMEOUT": "28", **_caps(None)},
                 id="user-timeout-kept"),
    pytest.param("fastglt", {"GLT_THREADS": "two"},
                 {"OPENBLAS_THREAD_TIMEOUT": "4", **_caps(None)},
                 id="bad-cap-exports-none"),
])
def test_thread_variables_are_set_when_numpy_loads(module, user, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in _THREAD_VARS + ("GLT_THREADS",)}
    code = _SPY.format(names=_THREAD_VARS, module=module)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**env, **user}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


def test_run_raises_a_part_error_once_every_part_stopped(monkeypatch):
    monkeypatch.setattr(workers, "count", lambda: 3)
    done, release = [], threading.Event()

    def task(k):
        if k == 1:
            raise KeyError("part 1")
        if k == 2:
            release.wait(timeout=10)
        done.append(k)

    def first(k):
        if k == 0:
            release.set()
        task(k)

    with pytest.raises(KeyError, match="part 1"):
        workers.run(first, [(0,), (1,), (2,)])
    assert sorted(done) == [0, 2]
    workers.run(first, [])          # no parts: nothing runs


def test_split_kernels_under_thread_stress(monkeypatch):
    """Eight workers, more than the cores and than the three tiles of the
    layer-1 chain, on a fresh pool, with the interpreter switching threads
    every microsecond: the tiled forward and backward and the split Adam
    steps still give the one-worker bits, so no part writes another's
    columns or entries."""
    monkeypatch.setattr(workers, "_pool", None)
    monkeypatch.setattr(optim, "_BLOCK", 64)
    rng = np.random.default_rng(3)
    h = 2 * nn._TILE_BYTES // 8 + 3
    ds = random_dataset(rng, 60, num_features=80, edge_prob=0.1)
    ds = dataclasses.replace(
        ds, features=(rng.random((60, 80)) < 0.1).astype(np.float32))
    params = nn.glorot_params(80, h, 3, seed=1)
    soft = init_soft_masks(ds, *params.shapes, seed=2)
    assert sp.issparse(nn.feature_operator(ds))
    assert nn._tiling(h, np.float64)[0] == 3
    p0 = rng.normal(size=64 * 20 + 5)
    grads = [rng.normal(size=p0.size) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = {}
        for count in (1, 8):
            monkeypatch.setattr(workers, "count", lambda: count)
            out = []
            for _ in range(10):
                logits, cache = nn.gcn_forward(params, soft, None, ds)
                g = nn.backward(cache, ds.labels, ds.train_idx)
                out += [logits, cache.h1, g.dense, g.m_edges]
            p = p0.copy()
            state = optim.AdamState.for_param(p)
            assert len(state.scratch) == count
            for g in grads:
                optim.adam_step(state, p, g, name="p")
            runs[count] = [*out, p, state.m, state.v]
    finally:
        sys.setswitchinterval(interval)
        if workers._pool is not None:
            workers._pool.shutdown(wait=True)
    for split, serial in zip(runs[8], runs[1]):
        assert split.tobytes() == serial.tobytes()


# One short fastglt arm on the bench's Cora-shaped graph at H=512, run by
# ``test_artifacts_do_not_depend_on_the_blas_pool_size`` in a subprocess:
# argv holds bench/inputs.py, the output directory and the config as JSON.
_POOL_ARM = """
import importlib.util, json, sys
import fastglt
from fastglt.config import config_from_dict
from fastglt.harness import run_experiment
spec = importlib.util.spec_from_file_location("bench_inputs", sys.argv[1])
inputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inputs)
run_experiment(config_from_dict(json.loads(sys.argv[3])), sys.argv[2],
               dataset=inputs.cora_shaped(1))
"""


def test_artifacts_do_not_depend_on_the_blas_pool_size(tmp_path):
    """A Cora-shaped arm writes the same bytes at 1 and 2 BLAS threads,
    ``report.json`` compared without its wall-clock ``timing``: no product
    that sums over nodes runs in the BLAS, whose sums depend on the pool
    size. The loss history would show such a product in its last bits."""
    bench_inputs = Path(__file__).resolve().parents[1] / "bench/inputs.py"
    config = json.dumps({
        "dataset": "bench/inputs.py:cora_shaped(1)", "method": "fastglt",
        "hidden": 512, "lr": 0.01, "s_g": 0.3, "s_theta": 0.8, "epochs": 3,
        "denoise_epochs": 3, "interval": 1, "tau": 0.3, "retrain_epochs": 2,
        "seed": 1})
    runs = []
    for pool in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "GLT_THREADS"}
        env["OPENBLAS_NUM_THREADS"] = pool
        out = tmp_path / f"blas{pool}"
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_ARM, str(bench_inputs), str(out),
             config], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        report = json.loads(files.pop("report.json"))
        del report["timing"]
        runs.append((report, files))
    (report1, files1), (report2, files2) = runs
    assert report1["history"]["search_loss"]
    assert report1 == report2
    assert files1.keys() == files2.keys() >= {"swaps.jsonl"}
    for name in files1:
        assert files1[name] == files2[name], name
