import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastglt.graph import (edge_degree_scores, hamming_distance,
                           normalize_adjacency)

from conftest import random_dataset, tiny_dataset


def dense_norm_oracle(dataset, edge_mask=None):
    """Brute-force dense construction of D^-1/2 (masked A + I) D^-1/2."""
    n = dataset.num_nodes
    a = np.zeros((n, n))
    for idx, (i, j) in enumerate(dataset.edges):
        if edge_mask is None or edge_mask[idx]:
            a[i, j] = a[j, i] = 1.0
    a_tilde = a + np.eye(n)
    d = a_tilde.sum(axis=1)
    inv = np.diag(1.0 / np.sqrt(d))
    return inv @ a_tilde @ inv


def degree_oracle(dataset, edge_mask=None):
    deg = np.zeros(dataset.num_nodes)
    for idx, (i, j) in enumerate(dataset.edges):
        if edge_mask is None or edge_mask[idx]:
            deg[i] += 1
            deg[j] += 1
    return deg


def test_single_node_self_loop_only():
    ds = tiny_dataset(np.zeros((0, 2)), 1)
    norm = normalize_adjacency(ds)
    np.testing.assert_allclose(norm.matrix.toarray(), [[1.0]])


def test_two_nodes_one_edge():
    ds = tiny_dataset([(0, 1)], 2)
    norm = normalize_adjacency(ds)
    np.testing.assert_allclose(norm.matrix.toarray(), np.full((2, 2), 0.5))


def test_triangle_with_one_edge_masked():
    # masking (0,2) out of the triangle leaves the path 0-1-2; with
    # self-loops the degrees are [2, 3, 2], so entry (0,1) = 1/sqrt(6)
    ds = tiny_dataset([(0, 1), (0, 2), (1, 2)], 3)
    mask = np.array([True, False, True])
    norm = normalize_adjacency(ds, mask)
    dense = norm.matrix.toarray()
    assert dense[0, 2] == 0.0
    np.testing.assert_allclose(dense[0, 1], 1.0 / np.sqrt(6.0))
    np.testing.assert_allclose(dense, dense_norm_oracle(ds, mask))


def test_normalization_matches_dense_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        ds = random_dataset(rng, n, edge_prob=0.25)
        mask = rng.random(ds.num_edges) < 0.7
        norm = normalize_adjacency(ds, mask)
        np.testing.assert_allclose(norm.matrix.toarray(),
                                   dense_norm_oracle(ds, mask), atol=1e-13)
        a = norm.matrix.toarray()
        np.testing.assert_allclose(a, a.T, atol=0)


def test_isolated_nodes_keep_unit_self_loop():
    ds = tiny_dataset([(0, 1)], 4)
    norm = normalize_adjacency(ds, np.array([False]))
    np.testing.assert_allclose(norm.matrix.toarray(), np.eye(4))


def test_edge_of_entry_mapping():
    ds = tiny_dataset([(0, 1), (1, 2)], 3)
    norm = normalize_adjacency(ds)
    for k, (i, j) in enumerate(zip(norm.entry_row, norm.entry_col)):
        e = norm.edge_of_entry[k]
        if i == j:
            assert e == -1
        else:
            assert sorted([i, j]) == ds.edges[e].tolist()


def test_effective_scales_only_edges():
    ds = tiny_dataset([(0, 1)], 2)
    norm = normalize_adjacency(ds)
    eff = normalize_adjacency(ds).effective(np.array([0.5])).toarray()
    base = norm.matrix.toarray()
    np.testing.assert_allclose(eff[0, 1], base[0, 1] * 0.5)
    np.testing.assert_allclose(np.diag(eff), np.diag(base))


def test_edge_degrees_triangle_plus_pendant():
    ds = tiny_dataset([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
    scores = edge_degree_scores(ds)
    # degrees are [2, 2, 3, 1]
    np.testing.assert_allclose(scores, [2.0, 2.5, 2.5, 2.0])


def test_edge_degrees_star():
    ds = tiny_dataset([(0, 1), (0, 2), (0, 3), (0, 4)], 5)
    np.testing.assert_allclose(edge_degree_scores(ds), np.full(4, 2.5))


def test_edge_degrees_all_masked():
    ds = tiny_dataset([(0, 1), (1, 2)], 3)
    np.testing.assert_allclose(
        edge_degree_scores(ds, np.zeros(2, dtype=bool)), 0.0)


def test_edge_degrees_match_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        ds = random_dataset(rng, n, edge_prob=0.3)
        mask = rng.random(ds.num_edges) < 0.5
        deg = degree_oracle(ds, mask)
        want = 0.5 * (deg[ds.edges[:, 0]] + deg[ds.edges[:, 1]])
        np.testing.assert_allclose(edge_degree_scores(ds, mask), want)


def test_hamming_examples():
    assert hamming_distance([1, 0, 1], [1, 0, 1]) == 0.0
    assert hamming_distance([1, 0, 1, 1], [1, 1, 0, 1]) == 0.5
    m = np.array([True, False, True, True])
    assert hamming_distance(m, ~m) == 1.0


def test_hamming_size_mismatch():
    with pytest.raises(ValueError, match="sizes differ"):
        hamming_distance([1, 0], [1, 0, 1])


@given(st.integers(1, 64), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_hamming_is_a_metric(size, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.random(size) < 0.5 for _ in range(3))
    dab = hamming_distance(a, b)
    assert dab == hamming_distance(b, a)
    assert (dab == 0.0) == bool(np.array_equal(a, b))
    assert dab <= hamming_distance(a, c) + hamming_distance(c, b) + 1e-15
