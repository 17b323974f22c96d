import os
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import fastglt.nn as nn
import fastglt.optim as optim
import fastglt.workers as workers


def test_count_is_the_thread_cap_else_the_usable_cores(monkeypatch):
    monkeypatch.setenv("GLT_THREADS", "3")
    assert workers.count() == 3
    monkeypatch.delenv("GLT_THREADS")
    assert workers.count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("GLT_THREADS", "two")
    with pytest.raises(ValueError, match="GLT_THREADS"):
        workers.count()


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
    """Eight workers, more than the cores, on a fresh pool, with the
    interpreter switching threads every microsecond: the split products
    and Adam steps still give the one-worker bits, so no part writes
    another's rows or entries."""
    monkeypatch.setattr(workers, "_pool", None)
    monkeypatch.setattr(nn, "_PART_MIN_WORK", 1)
    monkeypatch.setattr(optim, "_BLOCK", 64)
    rng = np.random.default_rng(3)
    a = sp.random(300, 80, density=0.1, format="csr", random_state=rng)
    w = rng.normal(size=(80, 24))
    p0 = rng.normal(size=64 * 20 + 5)
    grads = [rng.normal(size=p0.size) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = {}
        for count in (1, 8):
            monkeypatch.setattr(workers, "count", lambda: count)
            out = [nn._csr_product(a, w) for _ in range(100)]
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
    assert runs[1][0].tobytes() == (a @ w).tobytes()
    for split, serial in zip(runs[8], runs[1]):
        assert split.tobytes() == serial.tobytes()
