import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastglt.masks import (BinaryMasks, SparsityPlan, init_soft_masks,
                           intermediate_sparsity, kept_count, load_mask,
                           load_soft_values, one_shot_threshold, save_mask,
                           save_soft_values, sparsity)

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
    rng = np.random.default_rng(0)
    masks = BinaryMasks(edges=rng.random(7) < 0.5,
                        theta0=rng.random((3, 4)) < 0.5,
                        theta1=rng.random((4, 2)) < 0.5)
    flat = masks.weights_flat()
    assert flat.size == masks.weight_universe == 20
    back = masks.with_weights_flat(flat)
    np.testing.assert_array_equal(back.theta0, masks.theta0)
    np.testing.assert_array_equal(back.theta1, masks.theta1)
    assert masks.weight_sparsity() == sparsity(flat)


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
    np.testing.assert_allclose(load_soft_values(tmp_path / "s.f32"), vals)


def test_soft_values_reject_trailing_bytes(tmp_path):
    path = tmp_path / "cut.f32"
    save_soft_values(np.array([1.0, 2.0]), path)
    path.write_bytes(path.read_bytes() + b"\x00\x01")    # 10 bytes
    with pytest.raises(ValueError, match="cut.f32"):
        load_soft_values(path)
