"""Adam optimizer for one parameter tensor, with mask-aware updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NonFiniteGradient(FloatingPointError):
    """Raised when a gradient contains NaN or infinity."""


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for one tensor.

    ``scratch`` holds two buffers shaped like the tensor, so that a step
    allocates nothing; ``m`` and ``v`` are updated in place.
    """

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.scratch is None and self.m is not None:
            self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @staticmethod
    def for_param(param: np.ndarray, lr: float = 0.001, beta1: float = 0.9,
                  beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                         m=np.zeros_like(param), v=np.zeros_like(param))

    def reset_entries(self, flat_indices: np.ndarray) -> None:
        """Zero the moments at the given flat positions (regrown entries)."""
        self.m.reshape(-1)[flat_indices] = 0.0
        self.v.reshape(-1)[flat_indices] = 0.0


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray,
              binary_mask: np.ndarray | None = None,
              name: str = "param") -> np.ndarray:
    """One in-place Adam update; only unmasked entries move when a binary
    mask is active. Returns the updated parameter array.

    Every product, quotient and sum runs in the order of the textbook
    expressions ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``param -= lr*m_hat / (sqrt(v_hat) + eps) * mask``, so the result is
    the same bit for bit.
    """
    if not np.isfinite(grad).all():
        bad = int(np.count_nonzero(~np.isfinite(grad)))
        raise NonFiniteGradient(
            f"{bad} non-finite gradient entries for {name!r} at step "
            f"{state.t + 1}")
    state.t += 1
    m, v, (a, b) = state.m, state.v, state.scratch
    np.multiply(m, state.beta1, out=m)
    np.multiply(grad, 1.0 - state.beta1, out=a)
    np.add(m, a, out=m)
    np.multiply(v, state.beta2, out=v)
    np.multiply(grad, 1.0 - state.beta2, out=a)
    np.multiply(a, grad, out=a)
    np.add(v, a, out=v)
    # step = lr * m_hat / (sqrt(v_hat) + eps), in a; b holds the divisor
    np.divide(m, 1.0 - state.beta1 ** state.t, out=a)
    np.multiply(a, state.lr, out=a)
    np.divide(v, 1.0 - state.beta2 ** state.t, out=b)
    np.sqrt(b, out=b)
    np.add(b, state.eps, out=b)
    np.divide(a, b, out=a)
    if binary_mask is not None:
        np.multiply(a, binary_mask, out=a)
    param -= a
    return param
