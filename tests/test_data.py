import json
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from fastglt.data import (BundleError, convert_planetoid, generate_sbm,
                          load_bundle, parse_dataset_spec, save_bundle)
from fastglt.graph import normalize_adjacency

from conftest import tiny_dataset


def test_bundle_round_trip(tmp_path, sbm_small):
    save_bundle(sbm_small, tmp_path / "b")
    back = load_bundle(tmp_path / "b")
    assert back.name == sbm_small.name
    np.testing.assert_array_equal(back.edges, sbm_small.edges)
    np.testing.assert_array_equal(back.labels, sbm_small.labels)
    np.testing.assert_allclose(back.features, sbm_small.features)
    for split in ("train", "val", "test"):
        np.testing.assert_array_equal(back.split(split),
                                      sbm_small.split(split))


def test_load_bundle_counts_directed_entries(tmp_path):
    ds = tiny_dataset([(0, 1), (1, 2), (2, 3), (0, 3)], 4, num_features=3)
    save_bundle(ds, tmp_path / "b")
    back = load_bundle(tmp_path / "b")
    # symmetry doubles the undirected count; one self-loop per node
    assert normalize_adjacency(back).matrix.nnz == 2 * 4 + 4


def test_load_bundle_rejects_self_loop(tmp_path, sbm_small):
    root = save_bundle(sbm_small, tmp_path / "b")
    (root / "edges.csv").write_text("src,dst\n5,5\n")
    with pytest.raises(BundleError, match="self-loop"):
        load_bundle(root)


def test_load_bundle_rejects_repeated_label_node(tmp_path, sbm_small):
    root = save_bundle(sbm_small, tmp_path / "b")
    rows = (root / "labels.csv").read_text().splitlines()
    # node 0 twice and the last node missing: the row count still matches
    rows[-1] = "0,1"
    (root / "labels.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(BundleError, match="labels.csv: repeated node id"):
        load_bundle(root)


def test_load_bundle_missing_file(tmp_path, sbm_small):
    root = save_bundle(sbm_small, tmp_path / "b")
    (root / "labels.csv").unlink()
    with pytest.raises(BundleError, match="missing"):
        load_bundle(root)


def test_load_bundle_dimension_mismatch(tmp_path, sbm_small):
    root = save_bundle(sbm_small, tmp_path / "b")
    meta = json.loads((root / "meta.json").read_text())
    meta["num_features"] = meta["num_features"] + 1
    (root / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(BundleError, match="features.bin"):
        load_bundle(root)


def test_load_bundle_out_of_range_edge(tmp_path, sbm_small):
    root = save_bundle(sbm_small, tmp_path / "b")
    (root / "edges.csv").write_text("src,dst\n0,999999\n")
    with pytest.raises(BundleError, match="out of range"):
        load_bundle(root)


def test_load_bundle_dedupes_and_canonicalizes(tmp_path, sbm_small):
    root = save_bundle(sbm_small, tmp_path / "b")
    (root / "edges.csv").write_text("src,dst\n2,1\n1,2\n0,3\n")
    back = load_bundle(root)
    np.testing.assert_array_equal(back.edges, [[0, 3], [1, 2]])


def test_empty_edge_list_round_trip(tmp_path):
    ds = tiny_dataset(np.zeros((0, 2)), 3)
    root = save_bundle(ds, tmp_path / "b")
    back = load_bundle(root)
    assert back.num_edges == 0


def test_sbm_two_cliques():
    ds = generate_sbm(2, 10, 1.0, 0.0, 4, seed=3)
    assert ds.num_edges == 2 * 45
    # no cross-block edges
    same = ds.labels[ds.edges[:, 0]] == ds.labels[ds.edges[:, 1]]
    assert same.all()


def test_sbm_deterministic():
    a = generate_sbm(2, 50, 0.5, 0.05, 8, seed=7)
    b = generate_sbm(2, 50, 0.5, 0.05, 8, seed=7)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.train_idx, b.train_idx)


def test_sbm_cross_block_density():
    p_out = 0.02
    ds = generate_sbm(3, 30, 0.3, p_out, 16, seed=1)
    cross = ds.labels[ds.edges[:, 0]] != ds.labels[ds.edges[:, 1]]
    pairs = 3 * 30 * 30  # unordered cross-block node pairs
    density = cross.sum() / pairs
    sigma = np.sqrt(p_out * (1 - p_out) / pairs)
    assert abs(density - p_out) < 3 * sigma


def test_sbm_splits_stratified_and_disjoint():
    ds = generate_sbm(3, 40, 0.3, 0.05, 8, seed=5)
    all_idx = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
    assert len(set(all_idx.tolist())) == all_idx.size
    for c in range(3):
        per_class = (ds.labels[ds.train_idx] == c).sum()
        assert per_class == 12  # 30% of 40


def test_sbm_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_sbm(0, 10, 0.5, 0.1, 4, seed=0)
    with pytest.raises(ValueError):
        generate_sbm(2, 10, 0.1, 0.5, 4, seed=0)  # p_out > p_in


def test_parse_dataset_spec_sbm():
    ds = parse_dataset_spec(
        "sbm:blocks=2,nodes_per_block=10,p_in=1.0,p_out=0.0,"
        "feature_dim=4,seed=3")
    assert ds.num_edges == 90
    with pytest.raises(ValueError, match="missing field"):
        parse_dataset_spec("sbm:blocks=2")


def _write_planetoid_fixture(root, name="toy"):
    """Tiny synthetic graph in the planetoid raw-file layout.

    8 nodes: 2 labeled train, 4 unlabeled (allx covers 0..5), 2 test nodes
    with ids listed out of order to exercise the reordering path.
    """
    rng = np.random.default_rng(0)
    f, c = 3, 2
    allx = sp.csr_matrix(rng.random((6, f)).astype(np.float32))
    tx = sp.csr_matrix(rng.random((2, f)).astype(np.float32))
    x = allx[:2]
    y = np.eye(c)[[0, 1]]
    ally = np.eye(c)[[0, 1, 0, 1, 0, 1]]
    ty = np.eye(c)[[1, 0]]
    graph = {0: [1, 6], 1: [0, 2], 2: [1], 3: [4], 4: [3, 7], 5: [],
             6: [0], 7: [4]}
    blobs = {"x": x, "y": y, "tx": tx, "ty": ty, "allx": allx,
             "ally": ally, "graph": graph}
    for suffix, obj in blobs.items():
        with open(root / f"ind.{name}.{suffix}", "wb") as fh:
            pickle.dump(obj, fh)
    (root / f"ind.{name}.test.index").write_text("7\n6\n")


def test_convert_planetoid_fixture(tmp_path):
    _write_planetoid_fixture(tmp_path)
    ds = convert_planetoid(tmp_path, "toy", tmp_path / "bundle")
    assert ds.num_nodes == 8
    assert ds.num_features == 3 and ds.num_classes == 2
    np.testing.assert_array_equal(ds.train_idx, [0, 1])
    np.testing.assert_array_equal(ds.test_idx, [6, 7])
    # tx rows land on the ids in file order: node 7 gets tx[0], node 6 tx[1]
    assert ds.labels[7] == 1 and ds.labels[6] == 0
    # edges deduplicated and canonical
    np.testing.assert_array_equal(
        ds.edges, [[0, 1], [0, 6], [1, 2], [3, 4], [4, 7]])
    # the written bundle loads back identically
    back = load_bundle(tmp_path / "bundle")
    np.testing.assert_allclose(back.features, ds.features)


def test_convert_planetoid_missing_file(tmp_path):
    with pytest.raises(BundleError, match="missing planetoid"):
        convert_planetoid(tmp_path, "toy", tmp_path / "bundle")
