"""Byte oracle for the lean passes around the kernels.

Short desk-SBM arms run twice: once as shipped, and once with reference
versions of the passes patched in: the textbook out-of-place Adam with
each step gated by its tensor's binary mask (the shipped Adam takes no
mask: a swap zeroes the moments of the entries it removes instead, and a
weight-only loop zeroes its pruned weights and steps only the kept ones),
the gated products in every loop (a shipped weight-only loop under binary
masks runs a fixed-mask plan with no weight gate), the sorted cut (a
full stable sort) wherever a cut is taken, over the pooled weights where
denoising picks weights, the adjacency built by a sort of its entries,
and the swap with its explicit overlap check. Every artifact must be
byte-identical, ``report.json`` minus its wall-clock ``timing`` block.

A short Cora-shaped arm, run with one engine worker and with two, must
write the same bytes too.
"""

import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import fastglt.baselines as baselines
import fastglt.denoise as denoise
import fastglt.graph as graph
import fastglt.masks as masks
import fastglt.optim as optim
import fastglt.train as train
import fastglt.workers as workers
from fastglt.config import config_from_dict
from fastglt.harness import run_experiment
from fastglt.optim import BETA1, BETA2, EPS, NonFiniteGradient

DESK_SBM = ("sbm:blocks=3,nodes_per_block=100,p_in=0.06,p_out=0.02,"
            "feature_dim=12,seed=101,mean_scale=0.2")


def textbook_adam(binary, state, param, grad, *, name):
    """Out-of-place Adam whose step is gated by the binary mask of the
    tensor's slot (a soft mask ``m_x`` by the mask of ``x``; the pooled
    weights ``theta`` by the pooled weight mask)."""
    if not np.isfinite(grad).all():
        raise NonFiniteGradient(tensor=name, step=state.t + 1, bad=-1)
    state.t += 1
    state.m[...] = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v[...] = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    step = state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    if binary is not None:
        slot = name.removeprefix("m_")
        step = step * (binary.edges if slot == "edges" else binary.weights)
    param -= step
    return param


SHIPPED_EPOCH = train.TrainLoop.run_epoch


def gated_epoch(loop, evaluate=True, grad_acc=None):
    """The shipped epoch with every Adam step gated by the loop's binary
    masks as they stand during the epoch."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(train, "adam_step",
                        functools.partial(textbook_adam, loop.binary))
        return SHIPPED_EPOCH(loop, evaluate, grad_acc)


def sorted_cut(scores, eligible, k, what, score=None):
    """The sorted cut: ``score`` applied to every entry, then one stable
    sort of every eligible score; its head, sorted by id."""
    if score is not None:
        scores = score(scores)
    pool = np.flatnonzero(eligible)
    if k > pool.size:
        raise ValueError(f"{what}: quota {k} exceeds pool of {pool.size}")
    return np.sort(pool[np.argsort(scores[pool], kind="stable")[:k]])


def sorted_adjacency(dataset, edge_mask=None):
    """D^-1/2 (masked A + I) D^-1/2 from a lexsort of the kept entries and
    a COO-to-CSR conversion."""
    n, edges = dataset.num_nodes, dataset.edges
    kept = np.arange(edges.shape[0]) if edge_mask is None \
        else np.flatnonzero(edge_mask)
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([edges[kept, 0], edges[kept, 1], loops])
    cols = np.concatenate([edges[kept, 1], edges[kept, 0], loops])
    edge_ids = np.concatenate([kept, kept, np.full(n, -1, dtype=np.int64)])
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=n).astype(float))
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    data = inv_sqrt[rows] * inv_sqrt[cols]
    csr = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return graph.NormAdj(matrix=csr, edge_of_entry=edge_ids[order],
                         entry_row=rows, entry_col=cols)


def sorted_bits(s, k):
    bits = np.zeros(s.size, dtype=bool)
    bits[np.argsort(s, kind="stable")[:k]] = True
    return bits


def checked_swap(mask, remove, add, what):
    if remove.size and not mask[remove].all():
        raise ValueError(f"{what}: removal set not within the kept set")
    if add.size and mask[add].any():
        raise ValueError(f"{what}: regrow set not within the pruned set")
    if np.intersect1d(remove, add).size:
        raise ValueError(f"{what}: removal and regrow sets overlap")
    out = mask.copy()
    out[remove] = False
    out[add] = True
    return out


def patch_references(monkeypatch):
    monkeypatch.setattr(train, "_weight_plan", lambda *masks: None)
    monkeypatch.setattr(train.TrainLoop, "run_epoch", gated_epoch)
    monkeypatch.setattr(train, "normalize_adjacency", sorted_adjacency)
    monkeypatch.setattr(masks, "_smallest_bits", sorted_bits)
    monkeypatch.setattr(baselines, "_bottom_k", sorted_cut)
    monkeypatch.setattr(denoise, "_bottom_k", sorted_cut)
    monkeypatch.setattr(denoise, "_swap_bits", checked_swap)


def artifacts(out):
    files = {}
    for path in sorted(out.iterdir()):
        blob = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(blob)
            report.pop("timing")
            blob = json.dumps(report, sort_keys=True).encode()
        files[path.name] = blob
    return files


ARMS = {
    # interval 1: a boundary after every denoise epoch
    "fastglt-f64": dict(method="fastglt", s_g=0.3, s_theta=0.6, epochs=6,
                        denoise_epochs=6, interval=1, tau=0.3,
                        precision="f64"),
    "fastglt-f32": dict(method="fastglt", s_g=0.3, s_theta=0.6, epochs=6,
                        denoise_epochs=6, interval=1, tau=0.3,
                        precision="f32"),
    "imp": dict(method="imp", s_g=0.3, s_theta=0.6, imp_p_g=0.2,
                imp_p_theta=0.3, imp_epochs_per_round=5, precision="f64"),
}


@pytest.mark.parametrize("block", ["shipped", 100])
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_artifacts_match_reference_passes(tmp_path, monkeypatch, arm, block):
    """``block`` 100 runs the shipped passes with Adam blocks of 100
    entries, so the desk model's 384 + 96 weights and its edge mask span
    several blocks with a ragged tail."""
    config = config_from_dict(dict(dataset=DESK_SBM, hidden=32, lr=0.01,
                                   seed=3, retrain_epochs=5, **ARMS[arm]))
    if block != "shipped":
        monkeypatch.setattr(optim, "_BLOCK", block)
    plans, build_plan = [], train._weight_plan

    def spy(*masks):
        plans.append(build_plan(*masks))
        return plans[-1]

    with monkeypatch.context() as spied:
        spied.setattr(train, "_weight_plan", spy)
        run_experiment(config, tmp_path / "shipped")
    # the retrain check (kept share 0.4) steps only the kept weights
    assert any(p is not None for p in plans)
    with monkeypatch.context() as patched:
        patch_references(patched)
        run_experiment(config, tmp_path / "reference")

    got, want = (artifacts(tmp_path / d) for d in ("shipped", "reference"))
    assert sorted(got) == sorted(want)
    assert {"masks_edges.gltm", "masks_theta0.gltm",
            "report.json"} <= set(got)
    if arm.startswith("fastglt"):
        assert len((tmp_path / "shipped" / "swaps.jsonl")
                   .read_text().splitlines()) == 6
    else:
        assert any(name.startswith("round_002") for name in got)
    for name in got:
        assert got[name] == want[name], name


def cora_shaped(seed):
    """The bench's Cora-shaped graph (bench/inputs.py, read only)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cora_shaped(seed)


def test_artifacts_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    """A fastglt arm on the Cora shape (CSR features, H=128, so every
    sparse product and the weight Adam split at their shipped thresholds)
    writes the same bytes with one engine worker and with two. The BLAS
    pool is left as it is."""
    dataset = cora_shaped(1)
    config = config_from_dict(dict(
        dataset="cora-shape", method="fastglt", hidden=128, lr=0.01, seed=1,
        s_g=0.2, s_theta=0.3, epochs=3, denoise_epochs=4, interval=2,
        tau=0.1, retrain_epochs=3))
    split_calls, run = [], workers.run

    def spy(task, parts):
        split_calls.append(len(parts) > 1)
        return run(task, parts)

    monkeypatch.setattr(workers, "run", spy)
    for count in (1, 2):
        monkeypatch.setattr(workers, "count", lambda: count)
        split_calls.clear()
        run_experiment(config, tmp_path / str(count), dataset=dataset)
        assert any(split_calls) == (count > 1)
    one, two = (artifacts(tmp_path / d) for d in ("1", "2"))
    assert sorted(one) == sorted(two)
    assert {"masks_edges.gltm", "swaps.jsonl", "report.json"} <= set(one)
    for name in one:
        assert one[name] == two[name], name
