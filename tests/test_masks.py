from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastglt.masks as masks
from fastglt.masks import (BinaryMasks, SparsityPlan, _bottom_k,
                           init_soft_masks, intermediate_sparsity, kept_count,
                           load_mask, load_soft_values, one_shot_threshold,
                           save_mask, save_soft_values, sparsity)

from conftest import tiny_dataset


def threshold_oracle(values, s):
    """Full sort by (|v| desc, index asc), keep the top ceil((1-s)n)."""
    v = np.abs(np.asarray(values, dtype=np.float64))
    order = sorted(range(v.size), key=lambda i: (-v[i], i))
    keep = int(np.ceil((1.0 - s) * v.size - 1e-12))
    mask = np.zeros(v.size, dtype=bool)
    mask[order[:keep]] = True
    return mask


def test_sparsity_examples():
    assert sparsity(np.ones(10, dtype=bool)) == 0.0
    assert sparsity(np.zeros(10, dtype=bool)) == 1.0
    m = np.zeros(10, dtype=bool)
    m[:7] = True
    assert sparsity(m) == pytest.approx(0.3)


def test_sparsity_empty_universe():
    with pytest.raises(ValueError):
        sparsity(np.zeros(0, dtype=bool))


def test_intermediate_sparsity_values():
    assert intermediate_sparsity(0.0) == 0.0
    # frozen from evaluating s - 0.01 s^1.2 in float64
    assert intermediate_sparsity(0.9) == pytest.approx(0.8911876647, abs=1e-9)
    assert intermediate_sparsity(0.3) == pytest.approx(0.2976419907, abs=1e-9)


def test_intermediate_sparsity_monotone_and_bounded():
    grid = np.linspace(0.0, 0.999, 400)
    vals = [intermediate_sparsity(s) for s in grid]
    assert all(v <= s for v, s in zip(vals, grid))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


def test_intermediate_sparsity_rejects_pathological():
    with pytest.raises(ValueError, match="negative"):
        intermediate_sparsity(0.5, alpha=5.0, beta=0.5)
    with pytest.raises(ValueError):
        intermediate_sparsity(1.0)


def test_one_shot_threshold_keep_all():
    v = np.array([0.3, -0.2, 0.0])
    assert one_shot_threshold(v, 0.0).all()


def test_one_shot_threshold_example():
    v = np.array([0.9, -0.5, 0.1, 0.3, -0.05, 0.2])
    got = one_shot_threshold(v, 0.5)
    np.testing.assert_array_equal(got, [1, 1, 0, 1, 0, 0])


def test_one_shot_threshold_tie_prefers_lower_index():
    v = np.array([1.0, 2.0, 1.0, 1.0])
    got = one_shot_threshold(v, 0.5)
    np.testing.assert_array_equal(got, [1, 1, 0, 0])


def test_one_shot_threshold_matches_sort_oracle():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        # small discrete support to force plenty of ties
        v = rng.choice([-0.5, -0.1, 0.0, 0.1, 0.5], size=n)
        s = float(rng.uniform(0.0, 0.999))
        np.testing.assert_array_equal(one_shot_threshold(v, s),
                                      threshold_oracle(v, s))


@given(st.integers(1, 300), st.integers(0, 2**31 - 1),
       st.floats(0.0, 0.999))
@settings(max_examples=80, deadline=None)
def test_one_shot_threshold_count_and_nesting(n, seed, s):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    mask = one_shot_threshold(v, s)
    assert mask.sum() == kept_count(n, s)
    # monotone: a sparser request keeps a subset
    s2 = min(0.999, s + 0.2)
    mask2 = one_shot_threshold(v, s2)
    assert not np.any(mask2 & ~mask)
    # achieved sparsity within one element of requested
    assert abs(sparsity(mask) - s) <= 1.0 / n + 1e-12


def stable_sort_head(scores, eligible, k):
    """The k first eligible indices of a stable sort by score (NaN last)."""
    pool = np.flatnonzero(eligible)
    return pool[np.argsort(scores[pool], kind="stable")[:k]]


def check_order_free_cut(scores, eligible, k):
    """``_bottom_k`` returns the stable-sort head's ids in ascending
    order."""
    head = stable_sort_head(scores, eligible, k)
    np.testing.assert_array_equal(_bottom_k(scores, eligible, k, "x"),
                                  np.sort(head))


@pytest.mark.parametrize("case", ["random", "ties", "nan", "nan_kth"])
def test_order_free_cut_picks_the_sorted_set(case):
    """The set of a full stable sort's head, returned in index order, for
    every k from 0 to the pool size."""
    rng = np.random.default_rng(7)
    n = 400
    if case == "random":
        scores = rng.normal(size=n)
    else:       # heavy ties: eight values, signed zeros among them
        scores = rng.choice([-2.0, -0.0, 0.0, 0.5, 0.75, 1.0, 3.0, 9.0], n)
    if case.startswith("nan"):
        scores[rng.random(n) < (0.2 if case == "nan" else 0.7)] = np.nan
    eligible = rng.random(n) < 0.8
    pool = int(eligible.sum())
    for k in range(pool + 1):
        check_order_free_cut(scores, eligible, k)
    if case == "nan_kth":       # the k-th score of some k is NaN
        finite = np.count_nonzero(~np.isnan(scores[eligible]))
        assert finite < pool


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, np.nan]),
                       min_size=1, max_size=60),
       data=st.data())
def test_order_free_cut_property(scores, data):
    scores = np.array(scores)
    eligible = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores),
                                           max_size=len(scores))))
    check_order_free_cut(scores, eligible,
                         data.draw(st.integers(0, int(eligible.sum()))))


@pytest.mark.parametrize("case", ["random", "ties", "nan", "cut_too_low",
                                  "sparse_pool"])
def test_bottom_k_sampled_cut_is_exact(case, monkeypatch):
    """Every pool is ranked among the entries under a sampled cut; the
    pick stays the full stable sort's head, in index order. Stride 2 places
    the cut for most k of a 400-entry pool; a cut that keeps fewer than k
    entries (every sampled score below the rest) falls back to the whole
    pool. The sample is drawn from the pool's gathered scores, so a pool
    of a tenth of the entries is cut as readily as a dense one."""
    rng = np.random.default_rng(11)
    narrowed, cut = [], masks._under_sampled_cut

    def spy(s, k):
        out = cut(s, k)
        narrowed.append(out is not None)
        return out

    monkeypatch.setattr(masks, "_under_sampled_cut", spy)
    if case == "cut_too_low":
        scores = np.ones(4000)
        scores[::masks._SAMPLE_STRIDE] = 0.0
        eligible = np.ones(4000, dtype=bool)
        for k in (1, 50, 66, 67, 100, 800):
            check_order_free_cut(scores, eligible, k)
        # 66 sampled zeros: the cut keeps them alone, too few past k = 66
        assert narrowed == [True, True, True, False, False, False]
        return
    monkeypatch.setattr(masks, "_SAMPLE_STRIDE", 2)
    n = 4000 if case == "sparse_pool" else 400
    scores = rng.normal(size=n) if case in ("random", "sparse_pool") else \
        rng.choice([-2.0, -0.0, 0.0, 0.5, 0.75, 1.0, 3.0, 9.0], n)
    if case == "nan":
        scores[rng.random(n) < 0.2] = np.nan
    eligible = rng.random(n) < (0.1 if case == "sparse_pool" else 0.8)
    for k in range(int(eligible.sum()) + 1):
        check_order_free_cut(scores, eligible, k)
    assert sum(narrowed) > 50


def test_order_free_cut_refuses_oversized_quota():
    with pytest.raises(ValueError, match="x: quota 3 exceeds pool of 2"):
        _bottom_k(np.zeros(4), np.array([1, 0, 1, 0], bool), 3, "x")


def test_sparsity_plan_derives_intermediates():
    plan = SparsityPlan(s_g_tgt=0.4, s_theta_tgt=0.9)
    assert 0 <= plan.s_g_inm <= 0.4
    assert plan.s_theta_inm == pytest.approx(intermediate_sparsity(0.9))


def test_init_soft_masks_bounds_and_determinism():
    ds = tiny_dataset([(0, 1), (1, 2)], 3)
    a = init_soft_masks(ds, (3, 4), (4, 2), seed=5)
    b = init_soft_masks(ds, (3, 4), (4, 2), seed=5)
    c = init_soft_masks(ds, (3, 4), (4, 2), seed=6)
    for arr in (a.edges, a.theta0, a.theta1):
        assert np.all(arr >= 0.99) and np.all(arr <= 1.01)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.theta0, b.theta0)
    assert np.any(a.edges != c.edges) or np.any(a.theta0 != c.theta0)


def test_binary_masks_flat_round_trip():
    """Per-layer construction pools copies, theta0 then theta1 row-major;
    the layers are views of the pool, and a pooled mask is held as is."""
    rng = np.random.default_rng(0)
    theta0, theta1 = rng.random((3, 4)) < 0.5, rng.random((4, 2)) < 0.5
    masks = BinaryMasks(edges=rng.random(7) < 0.5, theta0=theta0,
                        theta1=theta1)
    flat = masks.weights
    assert flat.shape == (masks.weight_universe,) == (20,)
    np.testing.assert_array_equal(flat, np.r_[theta0.ravel(), theta1.ravel()])
    assert not np.shares_memory(flat, theta0)
    masks.theta1[0, 0] ^= True
    assert flat[12] != theta1[0, 0]
    back = BinaryMasks.pooled(flat, masks.shapes, edges=masks.edges)
    assert back.weights is flat
    for layer in (back.theta0, back.theta1):
        assert np.shares_memory(layer, flat)
    np.testing.assert_array_equal(back.theta1, masks.theta1)
    assert masks.weight_sparsity() == sparsity(flat)
    assert masks.kept_weights == np.count_nonzero(flat)


def test_mask_file_round_trip_and_layout(tmp_path):
    bits = np.array([1, 1, 0, 1, 0, 0, 0, 0, 1, 0], dtype=bool)
    path = tmp_path / "m.gltm"
    save_mask(bits, path)
    blob = path.read_bytes()
    assert blob[:4] == b"GLTM"
    assert int.from_bytes(blob[4:12], "little") == 10
    # LSB-first packing: bits 11010000 -> 0x0b, then 01 -> 0x01
    assert blob[12:] == bytes([0x0B, 0x01])
    np.testing.assert_array_equal(load_mask(path), bits)


def test_mask_file_bad_magic(tmp_path):
    path = tmp_path / "bad.gltm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_mask(path)


def test_mask_file_trailing_bytes(tmp_path):
    path = tmp_path / "long.gltm"
    save_mask(np.ones(10, dtype=bool), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="long.gltm"):
        load_mask(path)


def test_mask_file_short_header(tmp_path):
    path = tmp_path / "short.gltm"
    path.write_bytes(b"GLTM\x01\x02")
    with pytest.raises(ValueError, match="short.gltm"):
        load_mask(path)


def test_mask_file_nonzero_pad_bits(tmp_path):
    path = tmp_path / "pad.gltm"
    save_mask(np.ones(10, dtype=bool), path)
    blob = bytearray(path.read_bytes())
    blob[-1] |= 0x80            # bit 15 lies past the 10-bit universe
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="pad.gltm"):
        load_mask(path)


def test_soft_values_round_trip(tmp_path):
    vals = np.array([1.25, -0.5, 3.0])
    save_soft_values(vals, tmp_path / "s.f32")
    np.testing.assert_allclose(load_soft_values(tmp_path / "s.f32", 3), vals)


def test_soft_values_reject_trailing_bytes(tmp_path):
    path = tmp_path / "cut.f32"
    save_soft_values(np.array([1.0, 2.0]), path)
    with pytest.raises(ValueError, match="8 bytes, expected 12"):
        load_soft_values(path, 3)
    path.write_bytes(path.read_bytes() + b"\x00\x01")    # 10 bytes
    with pytest.raises(ValueError, match="cut.f32"):
        load_soft_values(path, 2)


def test_artifact_writes_are_atomic(tmp_path, monkeypatch):
    """Each writer replaces its file whole through a temp file in the same
    directory; a failed write keeps the old file and leaves no temp file.
    A suite (its arms, ``suite_summary.json`` and the suite-level CSVs),
    ``analyze_dir`` and ``save_bundle`` write every file that way."""
    import os

    import fastglt.masks as masks
    from fastglt.data import save_bundle
    from fastglt.harness import analyze_dir, run_suite

    real_replace = os.replace
    path = tmp_path / "m.gltm"
    save_mask(np.ones(10, dtype=bool), path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        assert Path(src).parent == Path(dst).parent == tmp_path
        raise OSError("disk full")

    monkeypatch.setattr(masks.os, "replace", failing_replace)
    for write in (lambda: save_mask(np.zeros(10, dtype=bool), path),
                  lambda: save_soft_values(np.ones(3), tmp_path / "s.f32")):
        with pytest.raises(OSError, match="disk full"):
            write()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.gltm"]

    replaced = set()

    def recording_replace(src, dst):
        replaced.add(Path(dst))
        real_replace(src, dst)

    monkeypatch.setattr(masks.os, "replace", recording_replace)
    sbm = ("sbm:blocks=3,nodes_per_block=20,p_in=0.3,p_out=0.05,"
           "feature_dim=8,seed=2")
    suite = {"shared": {"dataset": sbm, "epochs": 3, "denoise_epochs": 4,
                        "interval": 2, "hidden": 8, "lr": 0.01, "seed": 1,
                        "imp_p_g": 0.2, "imp_p_theta": 0.3},
             "arms": [{"method": "dense"},
                      {"method": "fastglt", "s_g": 0.2, "s_theta": 0.3}],
             "sweep": {"vary": "s_g", "methods": ["random"], "start": 0.1,
                       "step": 0.1, "stop": 0.2, "win_delta": 1.0},
             "fig2": {"levels": [0.2], "weight_level": 0.3}}
    out = tmp_path / "suite"
    run_suite(suite, out)
    written = {f for f in out.rglob("*") if f.is_file()}
    assert {"suite_summary.json", "efficiency.csv", "extreme_sparsity.csv",
            "fig2_left.csv", "fig2_right.csv"} <= {f.name for f in written}
    assert written <= replaced
    replaced.clear()
    assert set(analyze_dir(out)) == {"efficiency.csv", "fig2_left.csv"}
    assert replaced == {out / "efficiency.csv", out / "fig2_left.csv"}
    bundle = save_bundle(tiny_dataset([(0, 1), (1, 2)], 3), tmp_path / "b")
    written = set(bundle.iterdir())
    assert len(written) == 5 and written <= replaced
