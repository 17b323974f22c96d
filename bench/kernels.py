"""Computed kernel counts for one forward and one backward of ``nn``.

The counts follow the library's kernels as written, from the shapes and
the non-zero counts of X and A_hat alone: they are computed, not measured,
and repeat exactly for one input. Values are float64 (8 bytes), CSR
indices int32 (4 bytes). Bytes count each operand read once and each
result written once; a gathered row counts once per gather.
"""

from __future__ import annotations

F8, I4 = 8, 4


def _csr_bytes(nnz: int, rows: int) -> int:
    return nnz * (F8 + I4) + (rows + 1) * I4


def kernel_counts(n: int, f: int, h: int, c: int, nnz_x: int,
                  nnz_a: int) -> dict:
    """{"forward"|"backward": {product: {"flops", "bytes"}}}."""
    a = _csr_bytes(nnz_a, n)
    x = _csr_bytes(nnz_x, n)
    w = f * h + h * c
    fwd = {
        # theta * soft * binary, both layers
        "W_eff": (2 * w, w * (3 * F8 + 1)),
        "X@W0": (2 * nnz_x * h, x + f * h * F8 + n * h * F8),
        "A@XW0": (2 * nnz_a * h, a + 2 * n * h * F8),
        "H1@W1": (2 * n * h * c, (n * h + h * c + n * c) * F8),
        "A@H1W1": (2 * nnz_a * c, a + 2 * n * c * F8),
    }
    bwd = {
        "A@G2": (2 * nnz_a * c, a + 2 * n * c * F8),
        "H1^T@dH1W1": (2 * n * h * c, (n * h + n * c + h * c) * F8),
        "dH1W1@W1^T": (2 * n * c * h, (n * c + h * c + n * h) * F8),
        "A@dS1": (2 * nnz_a * h, a + 2 * n * h * F8),
        "X^T@dXW0": (2 * nnz_x * h, x + n * h * F8 + f * h * F8),
        # per stored entry: g2[i].h1w1[j] + ds1[i].xw0[j], int64 indices
        "edge_grad": (2 * nnz_a * (h + c),
                      nnz_a * (2 * (h + c) * F8 + 2 * F8 + F8)),
        # theta/m_theta gradients: dW * (soft | theta) * binary
        "grad_masks": (4 * w, w * (5 * F8 + 1)),
    }
    return {name: {k: {"flops": fl, "bytes": by}
                   for k, (fl, by) in part.items()}
            for name, part in (("forward", fwd), ("backward", bwd))}


def totals(part: dict) -> tuple[int, int]:
    return (sum(v["flops"] for v in part.values()),
            sum(v["bytes"] for v in part.values()))
