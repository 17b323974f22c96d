"""Binary mask lifecycle: sparsity accounting, decay-to-intermediate
sparsity, global magnitude thresholding, and mask (de)serialization.

Every weight-shaped tensor is stored as one pooled buffer over both layers
(``pool_weights``, ``PooledWeights``): layer 0's entries first, then layer
1's, both row-major; a per-layer result (the weight gradient) is written
through its ``PooledWeights.layers`` views. All counting, thresholding and
regrowth index it, matching the single global weight-sparsity number.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset

MASK_MAGIC = b"GLTM"


def pool_weights(theta0: np.ndarray, theta1: np.ndarray) -> np.ndarray:
    """A new pooled buffer holding copies of the two layers: theta0 then
    theta1, each row-major, so theta1 starts at ``theta0.size``."""
    return np.concatenate((np.ravel(theta0), np.ravel(theta1)))


def _layer(k: int) -> property:
    return property(lambda self: None if self.weights is None
                    else self.layers(self.weights)[k],
                    doc=f"theta{k}, a view of ``weights`` (None without it)")


class PooledWeights:
    """Base of the containers of weight-shaped tensors: ``weights`` holds
    both layers in one C-contiguous pooled buffer (see ``pool_weights``)
    and ``shapes`` their shapes. ``theta0`` and ``theta1`` are read-only
    attributes holding views of ``weights``: writing through them
    (``theta0[...] = x``) writes the pool."""

    weights: np.ndarray | None = None
    shapes: tuple[tuple[int, int], tuple[int, int]] | None = None
    theta0, theta1 = _layer(0), _layer(1)

    def _pool(self, theta0: np.ndarray, theta1: np.ndarray) -> None:
        self.weights = pool_weights(theta0, theta1)
        self.shapes = (np.shape(theta0), np.shape(theta1))

    @classmethod
    def pooled(cls, weights: np.ndarray, shapes, **fields):
        """An instance holding the pooled buffer ``weights`` as it is, with
        ``fields`` as its other attributes (constructors pool copies)."""
        obj = cls.__new__(cls)
        obj.weights, obj.shapes = weights, shapes
        vars(obj).update(fields)
        return obj

    def layers(self, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``pool``, any buffer over this pooled universe, as two views
        shaped like theta0 and theta1."""
        shape0, shape1 = self.shapes
        n0 = math.prod(shape0)
        return pool[:n0].reshape(shape0), pool[n0:].reshape(shape1)


class BinaryMasks(PooledWeights):
    """Kept/pruned bitsets over undirected edges and the pooled weights;
    the constructor pools copies of per-layer bitsets."""

    def __init__(self, edges: np.ndarray, theta0: np.ndarray,
                 theta1: np.ndarray):
        self.edges = edges
        self._pool(theta0, theta1)

    @staticmethod
    def all_ones(num_edges: int, shape0: tuple[int, int],
                 shape1: tuple[int, int]) -> "BinaryMasks":
        return BinaryMasks.pooled(
            np.ones(math.prod(shape0) + math.prod(shape1), dtype=bool),
            (shape0, shape1), edges=np.ones(num_edges, dtype=bool))

    @property
    def weight_universe(self) -> int:
        return self.weights.size

    def with_edges(self, edges: np.ndarray) -> "BinaryMasks":
        return BinaryMasks.pooled(self.weights, self.shapes, edges=edges)

    @property
    def kept_weights(self) -> int:
        return int(np.count_nonzero(self.weights))

    def graph_sparsity(self) -> float:
        return sparsity(self.edges)

    def weight_sparsity(self) -> float:
        return sparsity(self.weights)


class SoftMasks(PooledWeights):
    """Trainable real-valued multipliers over edges and the pooled weight
    entries; ``edges`` or ``weights`` left None is a multiplier of 1 that
    no one trains. Weight soft masks come in through ``SoftMasks.pooled``."""

    def __init__(self, edges: np.ndarray | None = None):
        self.edges = edges

    @staticmethod
    def identity(num_edges: int, shape0, shape1, dtype=np.float64):
        return SoftMasks.pooled(
            np.ones(math.prod(shape0) + math.prod(shape1), dtype=dtype),
            (shape0, shape1), edges=np.ones(num_edges, dtype=dtype))

    def copy(self) -> "SoftMasks":
        def dup(a): return None if a is None else a.copy()
        return SoftMasks.pooled(dup(self.weights), self.shapes,
                                edges=dup(self.edges))


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


# Stride of the sample that places a pool's cut. Prime, so that on a
# row-major weight matrix the sample walks through every column.
_SAMPLE_STRIDE = 61


def _under_sampled_cut(s: np.ndarray, k: int) -> np.ndarray | None:
    """Positions of the entries of ``s`` scoring at most a cut placed a
    little past the k-th smallest of a strided sample, in index order; None
    where the sample is too small to place the cut or fewer than k entries
    fall under it (a NaN cut keeps none).

    Exact: with at least k entries under the cut, the k-th smallest score
    is a number at most the cut, so every entry scoring up to it, its ties
    included, is kept.
    """
    sample = s[::_SAMPLE_STRIDE]
    rank = math.ceil(1.25 * k / s.size * sample.size) + 16
    if rank >= sample.size // 2:
        return None
    under = np.flatnonzero(s <= np.partition(sample, rank)[rank])
    return under if under.size >= k else None


def _bottom_k(scores: np.ndarray, eligible: np.ndarray, k: int,
              what: str, score=None) -> np.ndarray:
    """Indices of the k smallest-score eligible entries, in ascending
    index order: the set a stable sort of the pool (NaN last) puts first,
    ties going to the lower index.

    Given ``score``, a ufunc, the pool ranks by ``score(scores)``, which
    is only computed on the pool's own gathered copy. The pick is then
    made among the entries under a sampled cut (``_under_sampled_cut``),
    so that a small k partitions only them.
    """
    pool = np.flatnonzero(eligible)
    if k > pool.size:
        raise ValueError(f"{what}: quota {k} exceeds pool of {pool.size}")
    scores = scores[pool]
    if score is not None:
        score(scores, out=scores)
    under = _under_sampled_cut(scores, k) if k else None
    if under is not None:
        pool, scores = pool[under], scores[under]
    return pool[_smallest_bits(scores, k)]


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
    return BinaryMasks.pooled(one_shot_threshold(soft.weights, s_theta),
                              soft.shapes,
                              edges=one_shot_threshold(soft.edges, s_g))


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
    edges = draw(dataset.num_edges)     # drawn first, then the pool
    return SoftMasks.pooled(draw(math.prod(shape0) + math.prod(shape1)),
                            (shape0, shape1), edges=edges)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in the same directory
    and ``os.replace``: a reader sees the old file or the whole new one,
    never a partial write, and a failed write leaves no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_mask(mask: np.ndarray, path: str | Path) -> None:
    """Write a bitset: b"GLTM", u64-LE universe size, LSB-first packed bits."""
    m = np.asarray(mask, dtype=bool).ravel()
    write_atomic(path, MASK_MAGIC + struct.pack("<Q", m.size)
                 + np.packbits(m, bitorder="little").tobytes())


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
    write_atomic(path, np.asarray(values).ravel().astype("<f4").tobytes())


def load_soft_values(path: str | Path, count: int) -> np.ndarray:
    """The ``count`` float32 values of a ``save_soft_values`` file, as
    float64; a file of any other length is refused."""
    blob = Path(path).read_bytes()
    if len(blob) != 4 * count:
        raise ValueError(f"{path}: {len(blob)} bytes, expected {4 * count} "
                         f"for {count} float32 values")
    return np.frombuffer(blob, dtype="<f4").astype(np.float64)
