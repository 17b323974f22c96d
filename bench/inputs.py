"""Benchmark inputs: a Cora-shaped synthetic graph built from the workload
seed, plus a content fingerprint of any dataset.

The graph copies Cora's shape (2708 nodes, 1433 binary bag-of-words
features at about 1.3% density, 5278 undirected edges, 7 classes with
Cora's class sizes, the 140/500/1000 Planetoid split) and gives both
features and edges class signal, so that a retrained ticket lands well
above chance (1/7):

* each class prefers its own slice of the vocabulary; a node draws about
  half of its words from that slice and the rest uniformly;
* about 80% of edges join nodes of one class (Cora's edge homophily is
  about 0.81), and endpoints are drawn with heavy-tailed weights, so the
  degree distribution has hubs as a citation graph does.
"""

from __future__ import annotations

import hashlib

import numpy as np

NUM_NODES = 2708
NUM_FEATURES = 1433
NUM_EDGES = 5278
CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)   # Cora's, sums to 2708
WORDS_PER_NODE = 18.2        # mean; 18.2 / 1433 is about 1.27% density
CLASS_WORD_SHARE = 0.5       # share of a node's words from its class slice
HOMOPHILY = 0.8              # share of edges inside one class
SPLIT = (20, 500, 1000)      # train per class, val, test


def cora_shaped(seed: int):
    """Return the fastglt ``Dataset`` for this seed; deterministic."""
    from fastglt.data import Dataset, canonical_edges

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC02A]))
    n, f = NUM_NODES, NUM_FEATURES
    c = len(CLASS_SIZES)
    labels = rng.permutation(np.repeat(np.arange(c), CLASS_SIZES))

    # features: per-class vocabulary slices, binary bag of words
    vocab = rng.permutation(f)
    slices = np.array_split(vocab, c)
    counts = np.maximum(rng.poisson(WORDS_PER_NODE, n), 1)
    rows, cols = [], []
    for node in range(n):
        k = int(counts[node])
        own = rng.random(k) < CLASS_WORD_SHARE
        words = np.where(own, rng.choice(slices[labels[node]], k),
                         rng.integers(0, f, k))
        rows.append(np.full(k, node))
        cols.append(words)
    feats = np.zeros((n, f), dtype=np.float32)
    feats[np.concatenate(rows), np.concatenate(cols)] = 1.0

    # edges: heavy-tailed endpoint weights, homophilous destinations
    weight = rng.pareto(2.0, n) + 1.0
    members = [np.flatnonzero(labels == k) for k in range(c)]
    member_p = [weight[m] / weight[m].sum() for m in members]
    all_p = weight / weight.sum()
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    while len(pairs) < NUM_EDGES:
        batch = 2 * (NUM_EDGES - len(pairs)) + 64
        src = rng.choice(n, batch, p=all_p)
        dst = rng.choice(n, batch, p=all_p)
        same = rng.random(batch) < HOMOPHILY
        for k in range(c):
            pick = same & (labels[src] == k)
            dst[pick] = rng.choice(members[k], int(pick.sum()),
                                   p=member_p[k])
        # keep new edges in draw order so the count lands exactly
        for i, j in zip(src.tolist(), dst.tolist()):
            key = (i, j) if i < j else (j, i)
            if i == j or key in seen:
                continue
            seen.add(key)
            pairs.append(key)
            if len(pairs) == NUM_EDGES:
                break
    pairs_arr = np.asarray(pairs, dtype=np.int64)
    edges = canonical_edges(pairs_arr[:, 0], pairs_arr[:, 1], n)

    per_class, n_val, n_test = SPLIT
    train = np.concatenate([rng.choice(m, per_class, replace=False)
                            for m in members])
    rest = rng.permutation(np.setdiff1d(np.arange(n), train))
    ds = Dataset(name=f"cora-shape-{seed}", num_nodes=n, num_features=f,
                 num_classes=c, edges=edges, features=feats,
                 labels=labels.astype(np.int64),
                 train_idx=np.sort(train),
                 val_idx=np.sort(rest[:n_val]),
                 test_idx=np.sort(rest[n_val:n_val + n_test]))
    return ds.validate()


def fingerprint(ds) -> str:
    """sha256 over the dataset's content: every array's bytes in a fixed
    order, so two bundles fingerprint alike only if they hold one graph."""
    h = hashlib.sha256()
    for arr in (ds.edges, ds.features, ds.labels, ds.train_idx, ds.val_idx,
                ds.test_idx):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]
