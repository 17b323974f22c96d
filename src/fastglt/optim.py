"""Textbook Adam for one parameter tensor, blocked and in place, with
the blocks split across the engine's workers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import workers

# Entries per Adam block: a block's operands (param, grad, moments, two
# scratch rows; 256 KB each in f64) stay in L2 across the ~14 ufunc passes.
_BLOCK = 1 << 15
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class NonFiniteGradient(FloatingPointError):
    """Raised when a gradient contains NaN or infinity.

    ``context`` names where: ``adam_step`` records the tensor, the Adam
    step and the count of bad entries, and the training loops add the
    phase, epoch and denoise interval as the error passes through them.
    """

    def __init__(self, **context):
        super().__init__()
        self.context = context

    def __str__(self) -> str:
        c = self.context
        where = ", ".join(f"{key} {c[key]}" for key in
                          ("phase", "epoch", "interval") if key in c)
        return (f"{c['bad']} non-finite gradient entries for "
                f"{c['tensor']!r} at Adam step {c['step']}"
                + (f" ({where})" if where else ""))


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for one tensor.

    ``scratch`` holds a pair of one-block buffers for each worker that can
    take a share of the tensor's blocks (one pair for a tensor of one
    block), so that a step allocates nothing; ``m`` and ``v`` are updated
    in place.
    """

    lr: float
    m: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    scratch: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    t: int = 0

    @staticmethod
    def for_param(param: np.ndarray, lr: float = 0.001) -> "AdamState":
        n = min(param.size, _BLOCK)
        pairs = max(min(workers.count(), -(-param.size // _BLOCK)), 1)
        return AdamState(lr, np.zeros_like(param), np.zeros_like(param),
                         tuple((np.empty(n, param.dtype),
                                np.empty(n, param.dtype))
                               for _ in range(pairs)))

    def reset_entries(self, flat_indices: np.ndarray) -> None:
        """Zero the moments at the given flat positions (swapped entries)."""
        self.m.reshape(-1)[flat_indices] = 0.0
        self.v.reshape(-1)[flat_indices] = 0.0


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray, *,
              name: str) -> np.ndarray:
    """One in-place Adam update of ``param``, which must be C-contiguous;
    returns it. ``name`` labels the tensor in errors.

    Every product, quotient and sum runs in the order of the textbook
    expressions ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``param -= lr*m_hat / (sqrt(v_hat) + eps)``, so the result is the same
    bit for bit. An entry with zero gradient and zero moments takes a step
    of exactly 0: that is how a pruned entry stays put. The update sweeps
    the flat tensor in blocks of ``_BLOCK`` entries, split into contiguous
    runs of blocks across the engine's workers, each with its own scratch
    pair; a non-finite gradient raises before anything moves.
    """
    if not np.isfinite(grad).all():
        raise NonFiniteGradient(
            tensor=name, step=state.t + 1,
            bad=int(np.count_nonzero(~np.isfinite(grad))))
    if not param.flags.c_contiguous:
        raise ValueError(f"{name!r}: Adam updates C-contiguous tensors only")
    state.t += 1
    c1, c2 = 1.0 - BETA1 ** state.t, 1.0 - BETA2 ** state.t
    p_all, g_all = param.reshape(-1), grad.reshape(-1)
    m_all, v_all = state.m.reshape(-1), state.v.reshape(-1)

    def sweep(start, stop, a_buf, b_buf):
        for lo in range(start, stop, _BLOCK):
            blk = slice(lo, min(lo + _BLOCK, stop))
            p, g, m, v = p_all[blk], g_all[blk], m_all[blk], v_all[blk]
            a, b = a_buf[:p.size], b_buf[:p.size]
            np.multiply(m, BETA1, out=m)
            np.multiply(g, 1.0 - BETA1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, BETA2, out=v)
            np.multiply(g, 1.0 - BETA2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            # step = lr * m_hat / (sqrt(v_hat) + eps), in a; b: the divisor
            np.divide(m, c1, out=a)
            np.multiply(a, state.lr, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, EPS, out=b)
            np.divide(a, b, out=a)
            p -= a

    blocks = -(-p_all.size // _BLOCK)
    k = max(min(workers.count(), len(state.scratch), blocks), 1)
    bounds = [min(blocks * i // k * _BLOCK, p_all.size) for i in range(k + 1)]
    workers.run(sweep, [(lo, hi, *pair) for lo, hi, pair in
                        zip(bounds, bounds[1:], state.scratch)])
    return param
