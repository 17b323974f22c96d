import numpy as np
import pytest

from fastglt.optim import AdamState, NonFiniteGradient, adam_step


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
        adam_step(state, p, np.zeros(2))
    np.testing.assert_array_equal(p, [1.5, -2.0])


def test_first_step_magnitude():
    p = np.array([0.0])
    state = AdamState.for_param(p)
    adam_step(state, p, np.array([1.0]))
    assert p[0] == pytest.approx(-0.001, rel=1e-6)


def test_ten_step_trace_matches_reference():
    # gradient of the quadratic 0.5 x^2 evaluated on the fly
    p = np.array([1.0])
    state = AdamState.for_param(p)
    got = []
    xs = [1.0]
    for _ in range(10):
        adam_step(state, p, np.array([xs[-1]]))
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
        adam_step(state, p, np.array([2.0]))
        got.append(float(p[0]))
    np.testing.assert_allclose(got, reference_adam_trace([2.0] * 10, x0=0.5),
                               rtol=1e-12)


def test_masked_update_freezes_pruned_entries():
    p = np.array([1.0, 1.0, 1.0])
    state = AdamState.for_param(p)
    mask = np.array([True, False, True])
    for _ in range(3):
        adam_step(state, p, np.ones(3), binary_mask=mask)
    assert p[1] == 1.0
    assert p[0] < 1.0 and p[2] < 1.0


def test_non_finite_gradient_aborts():
    p = np.array([1.0])
    state = AdamState.for_param(p)
    with pytest.raises(NonFiniteGradient, match="m_edges"):
        adam_step(state, p, np.array([np.nan]), name="m_edges")


def test_reset_entries():
    p = np.zeros((2, 2))
    state = AdamState.for_param(p)
    adam_step(state, p, np.ones((2, 2)))
    state.reset_entries(np.array([1, 2]))
    assert state.m[0, 1] == 0.0 and state.v[1, 0] == 0.0
    assert state.m[0, 0] != 0.0


class OutOfPlaceAdam:
    """The out-of-place Adam formula, kept as the reference for the
    in-place ``adam_step``: every step allocates fresh moments."""

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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("masked", [False, True])
def test_in_place_step_matches_out_of_place_formula(dtype, masked):
    rng = np.random.default_rng(11)
    shape = (13, 9)
    p = rng.normal(size=shape).astype(dtype)
    ref_p = p.copy()
    mask = rng.random(shape) < 0.6 if masked else None
    state = AdamState.for_param(p, lr=0.01)
    ref = OutOfPlaceAdam(ref_p, lr=0.01)
    m, v = state.m, state.v
    for t in range(12):
        scale = 10.0 ** rng.integers(-4, 2)
        g = (rng.normal(scale=scale, size=shape)
             * (rng.random(shape) < 0.8)).astype(dtype)
        adam_step(state, p, g, binary_mask=mask)
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
