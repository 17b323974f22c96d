"""Symmetric adjacency normalization, edge-degree scores, mask distance.

Masks over the graph always index the dataset's undirected edge list; a
single mask bit gates both directed entries of its edge. Self-loops are
added by the normalizer, are never maskable, and never enter sparsity
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import Dataset


@dataclass(frozen=True)
class NormAdj:
    """Degree-normalized adjacency of the masked graph plus self-loops.

    ``matrix`` is CSR over the support of (masked A) + I with entries
    1/sqrt(d_i * d_j), where degrees count the kept edges and the self-loop.
    ``edge_of_entry`` maps each stored nonzero to its undirected edge index,
    -1 for self-loop entries; ``entry_row``/``entry_col`` are the matching
    COO coordinates. These let callers scale the kept-edge entries by a soft
    mask without touching the self-loops. What follows from the stored
    entries alone (a split's receptive field, see ``nn``) is memoized on
    the instance and freed with it, so its arrays must not be mutated in
    place.
    """

    matrix: sp.csr_matrix
    edge_of_entry: np.ndarray   # (nnz,) int64, -1 on self-loops
    entry_row: np.ndarray       # (nnz,) int64
    entry_col: np.ndarray       # (nnz,) int64
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)    # derived structure by key

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    def effective(self, soft_edges: np.ndarray | None,
                  dtype=np.float64) -> sp.csr_matrix:
        """CSR with each kept-edge entry scaled by its soft edge mask;
        pruned edges are not stored, so they need no gate."""
        data = self.matrix.data.astype(dtype, copy=True)
        if soft_edges is not None:
            e = self.edge_of_entry
            on_edge = e >= 0
            data[on_edge] *= soft_edges.astype(dtype)[e[on_edge]]
        return sp.csr_matrix((data, self.matrix.indices, self.matrix.indptr),
                             shape=self.matrix.shape)


def _entry_list(dataset: Dataset):
    """Every entry a normalized adjacency of the dataset can store, sorted
    by (row, col): both directions of each edge and each self-loop, as
    (rows, cols, edge_ids) with edge id -1 on self-loops. Built once per
    dataset and memoized on it."""
    entries = dataset._memo.get("adjacency_entries")
    if entries is None:
        n, edges = dataset.num_nodes, dataset.edges.astype(np.int64)
        ids = np.arange(edges.shape[0], dtype=np.int64)
        loops = np.arange(n, dtype=np.int64)
        rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
        cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
        edge_ids = np.concatenate([ids, ids, np.full(n, -1, dtype=np.int64)])
        order = np.lexsort((cols, rows))
        entries = rows[order], cols[order], edge_ids[order]
        for a in entries:
            a.setflags(write=False)
        dataset._memo["adjacency_entries"] = entries
    return entries


def normalize_adjacency(dataset: Dataset,
                        edge_mask: np.ndarray | None = None) -> NormAdj:
    """Build D^-1/2 (masked A + I) D^-1/2 for the kept subgraph.

    Degrees are those of the masked graph plus the self-loop, so isolated
    nodes keep a unit self-loop entry. The result is symmetric. Its
    entries are those of the dataset's presorted entry list that the mask
    keeps, so no sort runs per mask.
    """
    n = dataset.num_nodes
    rows, cols, edge_ids = _entry_list(dataset)
    if edge_mask is not None:
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (dataset.num_edges,):
            raise ValueError("edge_mask must index the undirected edge list")
        keep = np.append(edge_mask, True)[edge_ids]   # id -1: self-loop
        rows, cols, edge_ids = rows[keep], cols[keep], edge_ids[keep]

    deg_hat = np.bincount(rows, minlength=n)                   # incl. loop
    inv_sqrt = 1.0 / np.sqrt(deg_hat.astype(np.float64))
    data = inv_sqrt[rows] * inv_sqrt[cols]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg_hat, out=indptr[1:])
    csr = sp.csr_matrix((data, cols, indptr), shape=(n, n))
    return NormAdj(matrix=csr, edge_of_entry=edge_ids,
                   entry_row=rows, entry_col=cols)


def node_degrees(dataset: Dataset,
                 edge_mask: np.ndarray | None = None) -> np.ndarray:
    """Per-node degree of the masked graph, self-loops excluded."""
    edges = dataset.edges
    if edge_mask is not None:
        edges = edges[np.asarray(edge_mask, dtype=bool)]
    deg = np.bincount(edges.ravel(), minlength=dataset.num_nodes)
    return deg.astype(np.float64)


def edge_degree_scores(dataset: Dataset,
                       edge_mask: np.ndarray | None = None) -> np.ndarray:
    """Average endpoint degree of every original edge on the masked graph.

    Pruned edges are scored too, by their would-be endpoints' current
    degrees: that is the regrowth ranking signal.
    """
    deg = node_degrees(dataset, edge_mask)
    return 0.5 * (deg[dataset.edges[:, 0]] + deg[dataset.edges[:, 1]])


def hamming_distance(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Fraction of positions where the two binary masks disagree."""
    a = np.asarray(mask_a, dtype=bool).ravel()
    b = np.asarray(mask_b, dtype=bool).ravel()
    if a.shape != b.shape:
        raise ValueError(f"mask sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("empty mask universe")
    return float(np.count_nonzero(a != b)) / a.size
