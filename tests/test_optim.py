import numpy as np
import pytest

import fastglt.workers as workers
from fastglt.optim import _BLOCK, AdamState, NonFiniteGradient, adam_step


def reference_adam_trace(grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8,
                         x0=1.0):
    """Step-by-step scalar Adam, written independently of the module."""
    m = v = 0.0
    x = x0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x = x - lr * mh / (np.sqrt(vh) + eps)
        trace.append(x)
    return trace


def test_zero_gradient_is_fixed_point():
    p = np.array([1.5, -2.0])
    state = AdamState.for_param(p)
    for _ in range(5):
        adam_step(state, p, np.zeros(2), name="p")
    np.testing.assert_array_equal(p, [1.5, -2.0])


def test_f32_step_keeps_eps_and_exact_zero_steps():
    """Adam on f32 tensors: EPS = 1e-8 stays visible next to sqrt(v_hat),
    and an entry with zero gradient and zero moments takes an exact 0 step.

    After the first step sqrt(v_hat) = |g|, so the step is
    lr * g / (|g| + EPS): lr/2 at |g| = EPS, lr/101 at |g| = EPS/100, and
    lr/(1 + 1e-4) at |g| = 1e4 EPS, all normal f32 numbers (v = 1e-3 g^2
    down to 1e-23). Dropping EPS, or losing it to f32 rounding, would give
    a step of lr at every |g|. Each step agrees with the f64 formula on
    the same f32 inputs to a few f32 ulps (read exactly, as each moving
    entry starts at 0); entries whose gradient is zero at every step,
    among them -0.0 and 0 weights, keep their bits.
    """
    eps32 = np.finfo(np.float32).eps
    lr = 0.001
    g = np.array([1e-8, -1e-8, 1e-10, 1e-4, 1.0, 0.0, 0.0, -0.0],
                 dtype=np.float32)
    p = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.75, -0.0, 0.0],
                 dtype=np.float32)        # moving entries from 0: p = -step
    frozen = g == 0
    before = p.copy()
    state = AdamState.for_param(p, lr=lr)
    adam_step(state, p, g, name="p")
    assert p.dtype == np.float32
    step = -p.astype(np.float64)
    g64 = g.astype(np.float64)
    want = lr * g64 / (np.abs(g64) + 1e-8)
    moving = ~frozen
    np.testing.assert_allclose(step[moving], want[moving],
                               rtol=16 * eps32)
    np.testing.assert_allclose(step[:3], [lr / 2, -lr / 2, lr / 101],
                               rtol=16 * eps32)
    assert abs(step[3] - lr) > 100 * eps32 * lr    # lr/(1 + 1e-4): 839 eps
    assert p[frozen].tobytes() == before[frozen].tobytes()
    for t in range(2, 30):
        g_t = np.where(frozen, np.float32(0), g * np.float32(t % 3 - 1))
        adam_step(state, p, g_t, name="p")
        assert p[frozen].tobytes() == before[frozen].tobytes()
        assert not state.m[frozen].any() and not state.v[frozen].any()


def test_first_step_magnitude():
    p = np.array([0.0])
    state = AdamState.for_param(p)
    adam_step(state, p, np.array([1.0]), name="p")
    assert p[0] == pytest.approx(-0.001, rel=1e-6)


def test_ten_step_trace_matches_reference():
    # gradient of the quadratic 0.5 x^2 evaluated on the fly
    p = np.array([1.0])
    state = AdamState.for_param(p)
    got = []
    xs = [1.0]
    for _ in range(10):
        adam_step(state, p, np.array([xs[-1]]), name="p")
        xs.append(float(p[0]))
        got.append(float(p[0]))

    m = v = 0.0
    x = 1.0
    want = []
    for t in range(1, 11):
        g = x
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.001 * (m / (1 - 0.9 ** t)) / (
            np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        want.append(x)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_constant_gradient_trace():
    p = np.array([0.5])
    state = AdamState.for_param(p)
    got = []
    for _ in range(10):
        adam_step(state, p, np.array([2.0]), name="p")
        got.append(float(p[0]))
    np.testing.assert_allclose(got, reference_adam_trace([2.0] * 10, x0=0.5),
                               rtol=1e-12)


def test_masked_update_freezes_pruned_entries():
    """A pruned entry gets an exactly zero gradient (signed zeros too, as
    the chain rule through a binary mask gives them); with zero moments it
    takes a step of exactly 0. Once pruned mid-trace, its stale moments
    would still move it, until ``reset_entries`` zeroes them."""
    p = np.array([1.0, -0.0, 1.0, 0.25])
    state = AdamState.for_param(p)
    keep = np.array([True, False, True, True])
    g = np.array([1.0, -3.0, -2.0, 0.5])
    for _ in range(3):
        adam_step(state, p, g * keep, name="p")
    assert p[1] == 0.0 and np.signbit(p[1])
    assert p[0] < 1.0 and p[2] > 1.0 and p[3] < 0.25
    keep[3] = False                     # pruned after three steps
    stale = p.copy()
    adam_step(state, p, g * keep, name="p")
    assert p[3] != stale[3]             # stale moments still move it
    state.reset_entries(np.array([3]))
    frozen = p.copy()
    for _ in range(3):
        adam_step(state, p, g * keep, name="p")
    assert p[1] == 0.0 and np.signbit(p[1]) and p[3] == frozen[3]


def test_mask_is_no_longer_an_argument():
    """``name`` is keyword-only: a caller that still hands a mask over by
    position fails instead of labelling the tensor with it."""
    p = np.ones(3)
    with pytest.raises(TypeError):
        adam_step(AdamState.for_param(p), p, np.ones(3),
                  np.array([True, False, True]))
    assert p.tolist() == [1.0, 1.0, 1.0]


def test_non_finite_gradient_aborts():
    p = np.array([1.0])
    state = AdamState.for_param(p)
    with pytest.raises(NonFiniteGradient, match="m_edges"):
        adam_step(state, p, np.array([np.nan]), name="m_edges")


def test_reset_entries():
    p = np.zeros((2, 2))
    state = AdamState.for_param(p)
    adam_step(state, p, np.ones((2, 2)), name="p")
    state.reset_entries(np.array([1, 2]))
    assert state.m[0, 1] == 0.0 and state.v[1, 0] == 0.0
    assert state.m[0, 0] != 0.0


class OutOfPlaceAdam:
    """The out-of-place Adam formula, kept as the reference for the
    in-place ``adam_step``: every step allocates fresh moments. A ``mask``
    gates the step, as the engine's Adam once did."""

    def __init__(self, param, lr):
        self.lr, self.b1, self.b2, self.eps, self.t = lr, 0.9, 0.999, 1e-8, 0
        self.m, self.v = np.zeros_like(param), np.zeros_like(param)

    def step(self, param, grad, mask):
        self.t += 1
        self.m = self.b1 * self.m + (1.0 - self.b1) * grad
        self.v = self.b2 * self.v + (1.0 - self.b2) * grad * grad
        m_hat = self.m / (1.0 - self.b1 ** self.t)
        v_hat = self.v / (1.0 - self.b2 ** self.t)
        step = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        if mask is not None:
            step = step * mask
        param -= step


def check_against_out_of_place(shape, dtype, masked, steps=12):
    """Run ``adam_step`` and ``OutOfPlaceAdam`` side by side over random
    gradients spanning six decades, with a mid-trace ``reset_entries``, and
    require equal params and moments after every step. ``masked`` zeroes
    the gradient off a fixed binary mask, as ``nn.backward`` hands it over,
    and gates only the reference's step by that mask: the mask-free step
    must match it bit for bit."""
    rng = np.random.default_rng(11)
    p = rng.normal(size=shape).astype(dtype)
    ref_p = p.copy()
    mask = rng.random(shape) < 0.6 if masked else None
    state = AdamState.for_param(p, lr=0.01)
    ref = OutOfPlaceAdam(ref_p, lr=0.01)
    m, v = state.m, state.v
    for t in range(steps):
        scale = 10.0 ** rng.integers(-4, 2)
        g = (rng.normal(scale=scale, size=shape)
             * (rng.random(shape) < 0.8)).astype(dtype)
        if masked:
            g = g * mask
        adam_step(state, p, g, name="p")
        ref.step(ref_p, g, mask)
        if t == 5:      # a boundary regrows some entries mid-trace
            idx = rng.choice(p.size, 20, replace=False)
            state.reset_entries(idx)
            ref.m.reshape(-1)[idx] = 0.0
            ref.v.reshape(-1)[idx] = 0.0
        assert state.m is m and state.v is v
        assert p.dtype == state.m.dtype == state.v.dtype == dtype
        np.testing.assert_array_equal(p, ref_p)
        np.testing.assert_array_equal(state.m, ref.m)
        np.testing.assert_array_equal(state.v, ref.v)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("masked", [False, True])
def test_in_place_step_matches_out_of_place_formula(dtype, masked):
    check_against_out_of_place((13, 9), dtype, masked)


@pytest.mark.parametrize("shape", [(1433, 50), (3 * _BLOCK + 7,)],
                         ids=["2d", "1d"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("masked", [False, True])
def test_blocked_step_matches_out_of_place_formula(shape, dtype, masked):
    """Shapes that span several blocks and end in a ragged one."""
    assert np.prod(shape) > 2 * _BLOCK and np.prod(shape) % _BLOCK
    check_against_out_of_place(shape, dtype, masked, steps=8)


def test_scratch_is_one_block(monkeypatch):
    """One pair of one-block buffers per worker that can take a share of
    the blocks: no more pairs than workers or blocks."""
    def shapes(state):
        return [[b.shape for b in pair] for pair in state.scratch]

    monkeypatch.setattr(workers, "count", lambda: 2)
    big = AdamState.for_param(np.zeros((1433, 50), dtype=np.float32))
    assert shapes(big) == [[(_BLOCK,)] * 2] * 2
    assert all(b.dtype == np.float32 for pair in big.scratch for b in pair)
    small = AdamState.for_param(np.zeros((13, 9)))
    assert shapes(small) == [[(117,)] * 2]
    monkeypatch.setattr(workers, "count", lambda: 5)
    assert shapes(AdamState.for_param(np.zeros((1433, 50)))) \
        == [[(_BLOCK,)] * 2] * 3            # 1433 * 50 spans three blocks
    monkeypatch.setattr(workers, "count", lambda: 1)
    assert shapes(AdamState.for_param(np.zeros((1433, 50)))) \
        == [[(_BLOCK,)] * 2]


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("size", [3 * _BLOCK + 7, 2 * _BLOCK - 1,
                                  4 * _BLOCK, _BLOCK - 5])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_split_step_matches_serial(monkeypatch, count, size, dtype):
    """Adam split across workers leaves params and moments bit for bit
    where the serial sweep does, ragged last block or not; a tensor
    smaller than one block stays on the calling thread."""
    rng = np.random.default_rng(size)
    p0 = rng.normal(size=size).astype(dtype)
    grads = [(rng.normal(scale=10.0 ** rng.integers(-4, 2), size=size)
              * (rng.random(size) < 0.8)).astype(dtype) for _ in range(5)]
    runs, calls, run = {}, [], workers.run

    def spy(task, parts):
        calls.append(len(parts))
        return run(task, parts)

    monkeypatch.setattr(workers, "run", spy)
    for workers_now in (1, count):
        monkeypatch.setattr(workers, "count", lambda: workers_now)
        calls.clear()
        p = p0.copy()
        state = AdamState.for_param(p, lr=0.01)
        for g in grads:
            adam_step(state, p, g, name="p")
        blocks = -(-size // _BLOCK)
        assert calls == [min(workers_now, blocks)] * len(grads)
        runs[workers_now] = (p, state.m, state.v)
    for split, serial in zip(runs[count], runs[1]):
        assert split.tobytes() == serial.tobytes()


def test_nan_in_last_block_raises_before_anything_moves(monkeypatch):
    """The check runs before the blocks are handed to the workers."""
    monkeypatch.setattr(workers, "count", lambda: 3)
    rng = np.random.default_rng(5)
    p = rng.normal(size=3 * _BLOCK + 7)
    state = AdamState.for_param(p)
    adam_step(state, p, rng.normal(size=p.size), name="w")
    before = (p.copy(), state.m.copy(), state.v.copy())
    g = rng.normal(size=p.size)
    g[-1] = np.nan
    g[-3] = np.inf
    with pytest.raises(NonFiniteGradient,
                       match=r"2 non-finite gradient entries for 'w' at "
                             r"Adam step 2$"):
        adam_step(state, p, g, name="w")
    assert state.t == 1
    for now, then in zip((p, state.m, state.v), before):
        np.testing.assert_array_equal(now, then)


def test_non_contiguous_param_refused():
    p = np.zeros((4, 6))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(AdamState.for_param(p), p, np.ones_like(p), name="p")
