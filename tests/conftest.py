import os
from pathlib import Path

import numpy as np
import pytest

from fastglt.data import Dataset, generate_sbm

# pytest puts src/ on this process's path (pyproject's ``pythonpath``);
# the tests that start a Python subprocess (the CLI, import probes, the
# demos) find the package through PYTHONPATH, so run from a checkout
# without installing it.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def pytest_addoption(parser):
    parser.addoption(
        "--cora-parity", action="store_true",
        help="also run the f32/f64 parity check on the bench's Cora-shaped "
             "workloads, seeds 1-5 (about a minute)")


def tiny_dataset(edges, num_nodes, num_classes=2, num_features=3, seed=0,
                 labels=None):
    """Hand-built dataset for structural tests."""
    rng = np.random.default_rng(seed)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if labels is None:
        labels = rng.integers(0, num_classes, num_nodes)
    nodes = np.arange(num_nodes)
    thirds = max(1, num_nodes // 3)
    return Dataset(
        name="tiny", num_nodes=num_nodes, num_features=num_features,
        num_classes=num_classes, edges=edges,
        features=rng.normal(size=(num_nodes, num_features)).astype(np.float32),
        labels=np.asarray(labels, dtype=np.int64),
        train_idx=nodes[:thirds], val_idx=nodes[thirds:2 * thirds],
        test_idx=nodes[2 * thirds:],
    ).validate()


def random_dataset(rng, num_nodes, num_features=5, num_classes=3,
                   edge_prob=0.3):
    """Random Erdos-Renyi-style dataset for oracle comparisons."""
    iu, ju = np.triu_indices(num_nodes, k=1)
    keep = rng.random(iu.size) < edge_prob
    edges = np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)
    labels = rng.integers(0, num_classes, num_nodes)
    return tiny_dataset(edges, num_nodes, num_classes=num_classes,
                        num_features=num_features, seed=int(rng.integers(1 << 30)),
                        labels=labels)


@pytest.fixture(scope="session")
def sbm_small():
    return generate_sbm(2, 30, 0.4, 0.05, 8, seed=11)
