"""Binary mask lifecycle: sparsity accounting, decay-to-intermediate
sparsity, global magnitude thresholding, and mask (de)serialization.

Weight masks live per layer but all counting and thresholding pools the two
layers into one flat universe (layer 0 entries first, then layer 1, both in
row-major order), matching the single global weight-sparsity number.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset

MASK_MAGIC = b"GLTM"


@dataclass(frozen=True)
class BinaryMasks:
    """Kept/pruned bitsets over undirected edges and both weight layers."""

    edges: np.ndarray    # bool (E,)
    theta0: np.ndarray   # bool (F, H)
    theta1: np.ndarray   # bool (H, C)

    @staticmethod
    def all_ones(num_edges: int, shape0: tuple[int, int],
                 shape1: tuple[int, int]) -> "BinaryMasks":
        return BinaryMasks(edges=np.ones(num_edges, dtype=bool),
                           theta0=np.ones(shape0, dtype=bool),
                           theta1=np.ones(shape1, dtype=bool))

    @property
    def weight_universe(self) -> int:
        return self.theta0.size + self.theta1.size

    def weights_flat(self) -> np.ndarray:
        """Pooled weight bitset: theta0 then theta1, row-major."""
        return np.concatenate([self.theta0.ravel(), self.theta1.ravel()])

    def with_weights_flat(self, flat: np.ndarray) -> "BinaryMasks":
        n0 = self.theta0.size
        return BinaryMasks(edges=self.edges,
                           theta0=flat[:n0].reshape(self.theta0.shape),
                           theta1=flat[n0:].reshape(self.theta1.shape))

    def with_edges(self, edges: np.ndarray) -> "BinaryMasks":
        return BinaryMasks(edges=edges, theta0=self.theta0,
                           theta1=self.theta1)

    @property
    def kept_weights(self) -> int:
        """Kept entries of the pooled weights, counted layer by layer."""
        return int(np.count_nonzero(self.theta0)
                   + np.count_nonzero(self.theta1))

    def graph_sparsity(self) -> float:
        return sparsity(self.edges)

    def weight_sparsity(self) -> float:
        """``sparsity(weights_flat())`` without the pooled copy."""
        if self.weight_universe == 0:
            raise ValueError("empty mask universe")
        return 1.0 - float(self.kept_weights) / self.weight_universe


@dataclass
class SoftMasks:
    """Trainable real-valued multipliers over edges and weight entries; a
    field left None is a multiplier of 1 that no one trains."""

    edges: np.ndarray | None = None    # (E,)
    theta0: np.ndarray | None = None   # (F, H)
    theta1: np.ndarray | None = None   # (H, C)

    @staticmethod
    def identity(num_edges: int, shape0, shape1, dtype=np.float64):
        return SoftMasks(edges=np.ones(num_edges, dtype=dtype),
                         theta0=np.ones(shape0, dtype=dtype),
                         theta1=np.ones(shape1, dtype=dtype))

    def copy(self) -> "SoftMasks":
        return SoftMasks(*(None if m is None else m.copy()
                           for m in (self.edges, self.theta0, self.theta1)))

    def weights_flat(self) -> np.ndarray:
        return np.concatenate([self.theta0.ravel(), self.theta1.ravel()])


def sparsity(mask: np.ndarray) -> float:
    """1 - kept/size of a bitset."""
    m = np.asarray(mask, dtype=bool)
    if m.size == 0:
        raise ValueError("empty mask universe")
    return 1.0 - float(np.count_nonzero(m)) / m.size


def kept_count(universe: int, s: float) -> int:
    """Number of elements kept at sparsity s: ceil((1 - s) * universe)."""
    return int(np.ceil((1.0 - s) * universe - 1e-12))


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def random_bits(rng: np.random.Generator, universe: int,
                s: float) -> np.ndarray:
    """Bitset keeping exactly kept_count(universe, s) uniformly drawn
    entries; one permutation draw from ``rng``."""
    bits = np.zeros(universe, dtype=bool)
    bits[rng.permutation(universe)[:kept_count(universe, s)]] = True
    return bits


def intermediate_sparsity(s_tgt: float, alpha: float = 0.01,
                          beta: float = 1.2) -> float:
    """Back the one-shot landing sparsity off the target: s - alpha * s^beta.

    The default coefficients keep the result in [0, s_tgt]; coefficient
    choices that would push it negative are rejected.
    """
    if not 0.0 <= s_tgt < 1.0:
        raise ValueError(f"target sparsity {s_tgt} outside [0, 1)")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    s_inm = s_tgt - alpha * s_tgt ** beta
    if s_inm < 0.0:
        raise ValueError(
            f"coefficients (alpha={alpha}, beta={beta}) drive the "
            f"intermediate sparsity negative at s={s_tgt}")
    return s_inm


def _smallest_bits(s: np.ndarray, k: int) -> np.ndarray:
    """Bitset over ``s`` of its k smallest entries, ties at the k-th score
    filled in index order, as the head of a stable sort would hold them.

    No sort: one partition finds the k-th score and every score below it
    is picked. NaN ranks above every number, so a NaN k-th score picks
    every number and fills with NaNs.
    """
    if k == 0:
        return np.zeros(s.size, dtype=bool)
    kth = np.partition(s, k - 1)[k - 1]
    if np.isnan(kth):
        tie = np.isnan(s)
        pick = ~tie
    else:
        pick, tie = s < kth, s == kth
    pick[np.flatnonzero(tie)[:k - np.count_nonzero(pick)]] = True
    return pick


def _bottom_k_set(scores: np.ndarray, eligible: np.ndarray, k: int,
                  what: str) -> np.ndarray:
    """The eligible indices that ``_bottom_k`` picks, in index order."""
    pool = np.flatnonzero(eligible)
    if k > pool.size:
        raise ValueError(f"{what}: quota {k} exceeds pool of {pool.size}")
    return pool[np.flatnonzero(_smallest_bits(scores[pool], k))]


def _stable_order(s: np.ndarray) -> np.ndarray:
    """``np.argsort(s, kind="stable")`` (NaN last) from unstable sorts.

    One sort groups equal scores (-0 and +0 tie, as do all NaNs). Without
    a tie it is already the stable order; otherwise a second sort orders
    the unique keys (tie group * size + position).
    """
    n = s.size
    order = np.argsort(s)
    ranked = s[order]
    starts = np.ones(n, dtype=bool)          # first of its tie group
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    starts[1:] &= ~np.isnan(ranked[:-1])     # NaN sorts last: NaN ties NaN
    if starts.all():
        return order
    group = np.empty(n, dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    return np.argsort(group * n + np.arange(n))


def _bottom_k_pool(scores: np.ndarray, k: int, what: str) -> np.ndarray:
    """Positions of the k smallest scores, in stable-sort order (NaN last,
    ties by position)."""
    if k > scores.size:
        raise ValueError(f"{what}: quota {k} exceeds pool of {scores.size}")
    pick = np.flatnonzero(_smallest_bits(scores, k))
    return pick[_stable_order(scores[pick])]


def _bottom_k(scores: np.ndarray, eligible: np.ndarray, k: int,
              what: str) -> np.ndarray:
    """Indices of the k smallest-score eligible entries, ties by index.

    The order is that of a stable sort of the pool (NaN last); callers
    that only set mask bits use the cheaper ``_bottom_k_set``.
    """
    pool = np.flatnonzero(eligible)
    return pool[_bottom_k_pool(scores[pool], k, what)]


def one_shot_threshold(soft: np.ndarray, s: float) -> np.ndarray:
    """Keep the ceil((1-s)*size) largest-|value| entries as a bitset.

    At equal magnitudes the lower index wins a kept slot, which makes the
    cut deterministic where a pure threshold comparison would not be.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError(f"sparsity {s} outside [0, 1)")
    v = np.abs(np.asarray(soft, dtype=np.float64).ravel())
    return _smallest_bits(np.negative(v, out=v), kept_count(v.size, s))


def threshold_masks(soft: SoftMasks, s_g: float,
                    s_theta: float) -> BinaryMasks:
    """Binary masks keeping the largest-|value| entries of trained soft
    masks: edges at sparsity ``s_g``, the pooled weights at ``s_theta``."""
    return BinaryMasks.all_ones(
        soft.edges.size, soft.theta0.shape, soft.theta1.shape
    ).with_edges(one_shot_threshold(soft.edges, s_g)).with_weights_flat(
        one_shot_threshold(soft.weights_flat(), s_theta))


@dataclass(frozen=True)
class SparsityPlan:
    """Targets plus the decay-derived intermediate sparsities."""

    s_g_tgt: float
    s_theta_tgt: float
    alpha: float = 0.01
    beta: float = 1.2

    @property
    def s_g_inm(self) -> float:
        return intermediate_sparsity(self.s_g_tgt, self.alpha, self.beta)

    @property
    def s_theta_inm(self) -> float:
        return intermediate_sparsity(self.s_theta_tgt, self.alpha, self.beta)


def init_soft_masks(dataset: Dataset, shape0: tuple[int, int],
                    shape1: tuple[int, int], seed: int,
                    dtype=np.float64) -> SoftMasks:
    """Near-identity soft masks: 1.0 plus seeded uniform noise in ±0.01."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x50F7]))
    def draw(n): return (1.0 + rng.uniform(-0.01, 0.01, n)).astype(dtype)
    return SoftMasks(edges=draw(dataset.num_edges),
                     theta0=draw(shape0[0] * shape0[1]).reshape(shape0),
                     theta1=draw(shape1[0] * shape1[1]).reshape(shape1))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_mask(mask: np.ndarray, path: str | Path) -> None:
    """Write a bitset: b"GLTM", u64-LE universe size, LSB-first packed bits."""
    m = np.asarray(mask, dtype=bool).ravel()
    payload = np.packbits(m, bitorder="little").tobytes()
    with open(path, "wb") as fh:
        fh.write(MASK_MAGIC)
        fh.write(struct.pack("<Q", m.size))
        fh.write(payload)


def load_mask(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != MASK_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise ValueError(f"{path}: {len(blob)}-byte file, header needs 12")
    (size,) = struct.unpack("<Q", blob[4:12])
    payload = np.frombuffer(blob[12:], dtype=np.uint8)
    if payload.size != -(-size // 8):
        raise ValueError(f"{path}: mask payload is {payload.size} bytes, "
                         f"expected {-(-size // 8)} for {size} bits")
    bits = np.unpackbits(payload, bitorder="little")
    if bits[size:].any():
        raise ValueError(f"{path}: non-zero pad bits after bit {size}")
    return bits[:size].astype(bool)


def save_soft_values(values: np.ndarray, path: str | Path) -> None:
    """Raw little-endian float32 dump, same layout as features.bin."""
    np.asarray(values).ravel().astype("<f4").tofile(path)


def load_soft_values(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) % 4:
        raise ValueError(f"{path}: {len(blob)} bytes is not a whole number "
                         f"of float32 values")
    return np.frombuffer(blob, dtype="<f4").astype(np.float64)
