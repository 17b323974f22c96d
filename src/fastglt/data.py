"""Graph dataset container, on-disk bundle format, and synthetic generators.

A dataset bundle is a directory with five files:

    meta.json     {"name", "num_nodes", "num_features", "num_classes"}
    edges.csv     header "src,dst"; one undirected edge per line, 0-indexed
    features.bin  little-endian float32, row-major N x F, no header
    labels.csv    header "node,label"
    splits.json   {"train": [...], "val": [...], "test": [...]}

Edges are stored once per undirected pair. The loader canonicalizes to
src < dst, deduplicates, and rejects self-loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class BundleError(ValueError):
    """Raised when a dataset bundle is missing files or inconsistent."""


@dataclass(frozen=True)
class Dataset:
    """Immutable graph bundle: topology, features, labels, and splits.

    ``edges`` holds each undirected edge exactly once as (i, j) with i < j,
    sorted lexicographically; the row position is the stable edge index used
    by every mask in the package.

    Derived operators are memoized on the instance (the feature operator of
    ``nn.feature_operator``, once per dtype, and the sorted adjacency entry
    list of ``graph.normalize_adjacency``), so a dataset's arrays must not
    be mutated in place; ``dataclasses.replace`` gives a fresh memo.
    """

    name: str
    num_nodes: int
    num_features: int
    num_classes: int
    edges: np.ndarray       # (E, 2) int64, i < j, lexicographically sorted
    features: np.ndarray    # (N, F) float32
    labels: np.ndarray      # (N,) int64 in [0, C)
    train_idx: np.ndarray   # int64 node ids, pairwise disjoint with val/test
    val_idx: np.ndarray
    test_idx: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)    # derived operators by key

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def split(self, which: str) -> np.ndarray:
        try:
            return {"train": self.train_idx, "val": self.val_idx,
                    "test": self.test_idx}[which]
        except KeyError:
            raise ValueError(f"unknown split {which!r}") from None

    def validate(self) -> "Dataset":
        """Check the structural invariants; returns self on success."""
        n, e = self.num_nodes, self.edges
        if self.features.shape != (n, self.num_features):
            raise BundleError(
                f"features shape {self.features.shape} != "
                f"({n}, {self.num_features})")
        if self.labels.shape != (n,):
            raise BundleError(f"labels shape {self.labels.shape} != ({n},)")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise BundleError("label out of range [0, num_classes)")
        if e.size:
            if e.min() < 0 or e.max() >= n:
                raise BundleError("edge endpoint out of range")
            if np.any(e[:, 0] >= e[:, 1]):
                raise BundleError("edge list not canonical (expected i < j)")
            if len(np.unique(e[:, 0] * n + e[:, 1])) != e.shape[0]:
                raise BundleError("duplicate edges")
        seen: set[int] = set()
        for name in ("train", "val", "test"):
            idx = self.split(name)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise BundleError(f"{name} split index out of range")
            ids = set(idx.tolist())
            if len(ids) != idx.size:
                raise BundleError(f"{name} split has repeated indices")
            if ids & seen:
                raise BundleError("splits are not pairwise disjoint")
            seen |= ids
        return self


def canonical_edges(src: np.ndarray, dst: np.ndarray,
                    num_nodes: int) -> np.ndarray:
    """Canonicalize an edge list: i < j, deduplicated, lexicographic order.
    Self-loops are rejected."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size and (min(src.min(), dst.min()) < 0
                     or max(src.max(), dst.max()) >= num_nodes):
        raise BundleError("edge endpoint out of range")
    loops = np.flatnonzero(src == dst)
    if loops.size:
        raise BundleError(f"self-loop {src[loops[0]]},{dst[loops[0]]} rejected")
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keys = np.unique(lo * np.int64(num_nodes) + hi)
    return np.stack([keys // num_nodes, keys % num_nodes], axis=1)


# ---------------------------------------------------------------------------
# bundle I/O
# ---------------------------------------------------------------------------

_BUNDLE_FILES = ("meta.json", "edges.csv", "features.bin",
                 "labels.csv", "splits.json")


def load_bundle(path: str | Path) -> Dataset:
    """Load and validate a dataset bundle directory."""
    root = Path(path)
    for fname in _BUNDLE_FILES:
        if not (root / fname).is_file():
            raise BundleError(f"missing bundle file: {root / fname}")

    meta = json.loads((root / "meta.json").read_text())
    for key in ("name", "num_nodes", "num_features", "num_classes"):
        if key not in meta:
            raise BundleError(f"meta.json missing key {key!r}")
    n = int(meta["num_nodes"])
    f = int(meta["num_features"])
    c = int(meta["num_classes"])

    edge_text = (root / "edges.csv").read_text().strip().splitlines()
    if len(edge_text) > 1:
        raw = np.loadtxt(edge_text[1:], dtype=np.int64, delimiter=",",
                         ndmin=2)
    else:
        raw = np.zeros((0, 2), dtype=np.int64)
    edges = canonical_edges(raw[:, 0], raw[:, 1], n)

    feats = np.fromfile(root / "features.bin", dtype="<f4")
    if feats.size != n * f:
        raise BundleError(
            f"features.bin holds {feats.size} floats, expected {n * f}")
    feats = feats.reshape(n, f)

    lab_raw = np.loadtxt(root / "labels.csv", dtype=np.int64, delimiter=",",
                         skiprows=1, ndmin=2)
    labels = np.zeros(n, dtype=np.int64)
    if lab_raw.shape[0] != n:
        raise BundleError(f"labels.csv has {lab_raw.shape[0]} rows, expected {n}")
    if lab_raw.size and (lab_raw[:, 0].min() < 0 or lab_raw[:, 0].max() >= n):
        raise BundleError("labels.csv node id out of range")
    if np.unique(lab_raw[:, 0]).size != lab_raw.shape[0]:
        raise BundleError(f"{root / 'labels.csv'}: repeated node id")
    labels[lab_raw[:, 0]] = lab_raw[:, 1]

    splits = json.loads((root / "splits.json").read_text())
    idx = {k: np.asarray(sorted(splits.get(k, [])), dtype=np.int64)
           for k in ("train", "val", "test")}

    ds = Dataset(name=str(meta["name"]), num_nodes=n, num_features=f,
                 num_classes=c, edges=edges,
                 features=feats.astype(np.float32, copy=False),
                 labels=labels, train_idx=idx["train"], val_idx=idx["val"],
                 test_idx=idx["test"])
    return ds.validate()


def save_bundle(dataset: Dataset, path: str | Path) -> Path:
    """Write ``dataset`` as a bundle directory; inverse of load_bundle.
    Each file is replaced whole (``masks.write_atomic``)."""
    from .masks import write_atomic     # masks imports this module

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {"name": dataset.name, "num_nodes": dataset.num_nodes,
            "num_features": dataset.num_features,
            "num_classes": dataset.num_classes}
    write_atomic(root / "meta.json",
                 (json.dumps(meta, indent=2) + "\n").encode())

    lines = ["src,dst"]
    lines += [f"{i},{j}" for i, j in dataset.edges.tolist()]
    write_atomic(root / "edges.csv", ("\n".join(lines) + "\n").encode())

    write_atomic(root / "features.bin",
                 dataset.features.astype("<f4").tobytes())

    lines = ["node,label"]
    lines += [f"{i},{int(y)}" for i, y in enumerate(dataset.labels.tolist())]
    write_atomic(root / "labels.csv", ("\n".join(lines) + "\n").encode())

    splits = {"train": dataset.train_idx.tolist(),
              "val": dataset.val_idx.tolist(),
              "test": dataset.test_idx.tolist()}
    write_atomic(root / "splits.json", (json.dumps(splits) + "\n").encode())
    return root


# ---------------------------------------------------------------------------
# synthetic planted-partition graphs
# ---------------------------------------------------------------------------

def generate_sbm(blocks: int, nodes_per_block: int, p_in: float, p_out: float,
                 feature_dim: int, seed: int, *,
                 mean_scale: float = 0.3,
                 split_fractions: tuple[float, float] = (0.3, 0.3),
                 name: str | None = None) -> Dataset:
    """Planted-partition graph with Gaussian class features.

    Block membership is the class label. Each node draws its feature vector
    from the Gaussian mean of its class (means themselves N(0, mean_scale^2))
    plus unit noise, so features alone are informative but noisy and the
    graph structure carries the rest of the signal. Splits are stratified per
    class using ``split_fractions`` = (train, val); the remainder is test.
    Deterministic for a fixed seed.
    """
    if blocks < 1 or nodes_per_block < 1:
        raise ValueError("blocks and nodes_per_block must be positive")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("require 0 <= p_out <= p_in <= 1")

    n = blocks * nodes_per_block
    rng = np.random.default_rng(np.random.SeedSequence([seed, blocks, n]))
    labels = np.repeat(np.arange(blocks, dtype=np.int64), nodes_per_block)

    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    prob = np.where(same, p_in, p_out)
    keep = rng.random(iu.shape[0]) < prob
    edges = np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)

    means = rng.normal(0.0, mean_scale, size=(blocks, feature_dim))
    feats = means[labels] + rng.normal(0.0, 1.0, size=(n, feature_dim))

    train_parts, val_parts, test_parts = [], [], []
    fr_train, fr_val = split_fractions
    for c in range(blocks):
        ids = np.flatnonzero(labels == c)
        perm = ids[rng.permutation(ids.size)]
        n_tr = int(round(fr_train * ids.size))
        n_va = int(round(fr_val * ids.size))
        train_parts.append(perm[:n_tr])
        val_parts.append(perm[n_tr:n_tr + n_va])
        test_parts.append(perm[n_tr + n_va:])

    ds = Dataset(
        name=name or f"sbm{blocks}x{nodes_per_block}",
        num_nodes=n, num_features=feature_dim, num_classes=blocks,
        edges=edges, features=feats.astype(np.float32), labels=labels,
        train_idx=np.sort(np.concatenate(train_parts)),
        val_idx=np.sort(np.concatenate(val_parts)),
        test_idx=np.sort(np.concatenate(test_parts)))
    return ds.validate()


def parse_dataset_spec(spec: str) -> Dataset:
    """Build a Dataset from a config string.

    Either a bundle directory path, or an inline synthetic spec such as
    ``sbm:blocks=3,nodes_per_block=50,p_in=0.25,p_out=0.05,feature_dim=12,
    seed=0[,mean_scale=0.3]``.
    """
    if spec.startswith("sbm:"):
        kv: dict[str, str] = {}
        for item in spec[4:].split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            kv[key.strip()] = val.strip()
        try:
            return generate_sbm(
                blocks=int(kv["blocks"]),
                nodes_per_block=int(kv["nodes_per_block"]),
                p_in=float(kv["p_in"]),
                p_out=float(kv["p_out"]),
                feature_dim=int(kv["feature_dim"]),
                seed=int(kv.get("seed", "0")),
                mean_scale=float(kv.get("mean_scale", "0.3")),
            )
        except KeyError as exc:
            raise ValueError(f"sbm spec missing field {exc}") from None
    return load_bundle(spec)


# ---------------------------------------------------------------------------
# Planetoid raw-file conversion
# ---------------------------------------------------------------------------

def convert_planetoid(raw_dir: str | Path, name: str,
                      out_dir: str | Path) -> Dataset:
    """Convert Planetoid raw files (ind.<name>.*) into a bundle directory.

    Expects the eight pickled files of the public Planetoid distribution:
    x/tx/allx (scipy sparse feature blocks), y/ty/ally (one-hot labels),
    graph (node -> neighbor list dict) and test.index (one id per line).
    Test rows arrive permuted and are restored to node order; test nodes
    absent from the index (isolated nodes in some datasets) keep zero
    features and label 0. Splits follow the standard protocol: the labeled
    block is train, the next 500 nodes are validation, test.index is test.
    """
    import pickle

    raw = Path(raw_dir)
    parts = {}
    for suffix in ("x", "y", "tx", "ty", "allx", "ally", "graph"):
        fpath = raw / f"ind.{name}.{suffix}"
        if not fpath.is_file():
            raise BundleError(f"missing planetoid file: {fpath}")
        with open(fpath, "rb") as fh:
            parts[suffix] = pickle.load(fh, encoding="latin1")
    index_path = raw / f"ind.{name}.test.index"
    if not index_path.is_file():
        raise BundleError(f"missing planetoid file: {index_path}")
    test_idx = np.array([int(line) for line in
                         index_path.read_text().split()], dtype=np.int64)

    allx = sp.csr_matrix(parts["allx"])
    tx = sp.csr_matrix(parts["tx"])
    ally = np.asarray(parts["ally"])
    ty = np.asarray(parts["ty"])
    graph: dict = parts["graph"]

    n = len(graph)
    f = allx.shape[1]
    c = ally.shape[1]
    if n < allx.shape[0] + tx.shape[0]:
        raise BundleError("graph has fewer nodes than feature rows")

    if test_idx.size != tx.shape[0]:
        raise BundleError(
            f"test.index lists {test_idx.size} ids but tx has "
            f"{tx.shape[0]} rows")

    # Reassemble features/labels in node order: allx covers [0, n_known);
    # tx rows are in test.index file order. Node ids named by neither stay
    # zero (isolated test nodes in some datasets).
    feats = np.zeros((n, f), dtype=np.float32)
    feats[:allx.shape[0]] = allx.toarray()
    feats[test_idx] = tx.toarray()
    onehot = np.zeros((n, c), dtype=np.float64)
    onehot[:ally.shape[0]] = ally
    onehot[test_idx] = ty
    labels = onehot.argmax(axis=1).astype(np.int64)

    src, dst = [], []
    for node, nbrs in graph.items():
        for nbr in nbrs:
            if node != nbr:
                src.append(node)
                dst.append(nbr)
    edges = canonical_edges(np.array(src, dtype=np.int64),
                            np.array(dst, dtype=np.int64), n)

    n_train = parts["y"].shape[0]
    train = np.arange(n_train, dtype=np.int64)
    val = np.arange(n_train, min(n_train + 500, n), dtype=np.int64)
    val = val[~np.isin(val, test_idx)]

    ds = Dataset(name=name, num_nodes=n, num_features=f, num_classes=c,
                 edges=edges, features=feats, labels=labels,
                 train_idx=train, val_idx=val,
                 test_idx=np.sort(test_idx))
    ds.validate()
    save_bundle(ds, out_dir)
    return ds
