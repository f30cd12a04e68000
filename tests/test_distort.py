import hashlib

import numpy as np
import pytest

from pcqa.colors import rgb_to_hsl, rgb_to_ycbcr
from pcqa.distort import (
    REGISTRY, NATIVE_IDS, EXTERNAL_IDS, AdapterConfig, AdapterFailedError,
    AdapterNotConfiguredError, AdapterOutputError, AdapterToolMissingError,
    DistortionError, DistortionSpec, anchor_boxes, apply_distortion,
    external_codec, gaussian_snr_sigma, rng_for_spec,
)
from pcqa.pcio import PointCloud, bounding_box, load_ply, save_ply

from conftest import grid_cloud, random_cloud, textured_ref


def flat_cloud(n=1000, value=128, extent=40.0, seed=0):
    r = np.random.default_rng(seed)
    pos = r.uniform(0, extent, (n, 3))
    col = np.full((n, 3), value)
    return PointCloud(pos, col)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Registry and dispatch
# ---------------------------------------------------------------------------


def test_registry_complete():
    assert sorted(REGISTRY) == list(range(1, 32))
    for info in REGISTRY.values():
        assert len(info.level_params) == 7
    assert len(NATIVE_IDS) == 23
    assert set(EXTERNAL_IDS) == {23, 25, 26, 27, 28, 29, 30, 31}


def test_spec_validation():
    with pytest.raises(DistortionError):
        DistortionSpec(0, 1, 0)
    with pytest.raises(DistortionError):
        DistortionSpec(1, 8, 0)


def test_apply_is_deterministic():
    cloud = grid_cloud(np.random.default_rng(3), n=200)
    for did in (1, 8, 11, 17, 19, 24):
        spec = DistortionSpec(did, 4, seed=987654321)
        a = apply_distortion(cloud, spec)
        b = apply_distortion(cloud, spec)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.colors, b.colors)


def test_downsample_keeps_085_of_points():
    cloud = flat_cloud(n=1000)
    out = apply_distortion(cloud, DistortionSpec(11, 1, seed=5))
    assert len(out) == 850


def test_mean_shift_level1_adds_10():
    cloud = flat_cloud(n=100, value=100)
    out = apply_distortion(cloud, DistortionSpec(5, 1, seed=0))
    np.testing.assert_array_equal(out.colors, 110)
    np.testing.assert_array_equal(out.positions, cloud.positions)


def test_color_only_ids_keep_geometry():
    cloud = grid_cloud(np.random.default_rng(1), n=150)
    for did in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 22):
        out = apply_distortion(cloud, DistortionSpec(did, 3, seed=11))
        assert len(out) == len(cloud), did
        np.testing.assert_array_equal(out.positions, cloud.positions)


def test_geometry_ids_keep_colors():
    cloud = grid_cloud(np.random.default_rng(2), n=150)
    for did in (17, 18):
        out = apply_distortion(cloud, DistortionSpec(did, 5, seed=4))
        assert len(out) == len(cloud)
        np.testing.assert_array_equal(out.colors, cloud.colors)


# ---------------------------------------------------------------------------
# Pointwise color noise
# ---------------------------------------------------------------------------


def test_uniform_noise_level1_bounds():
    cloud = flat_cloud(n=2000, value=128)
    out = REGISTRY[15].generate(cloud, 1, rng(1))
    assert out.colors.min() >= 118 and out.colors.max() <= 138
    assert not np.array_equal(out.colors, cloud.colors)


def test_saltpepper_level7_exact_count():
    cloud = flat_cloud(n=1000, value=128)
    out = REGISTRY[12].generate(cloud, 7, rng(2))
    changed = np.any(out.colors != cloud.colors, axis=1)
    assert changed.sum() == 300  # round(0.30 * 1000)
    assert np.isin(out.colors[changed], (0, 255)).all()
    # whole points become white or black spots
    assert np.all(out.colors[changed][:, 0] == out.colors[changed][:, 1])


def test_color_noise_level1_selection_and_equal_channels():
    cloud = flat_cloud(n=1000, value=100)
    out = REGISTRY[1].generate(cloud, 1, rng(3))
    delta = out.colors.astype(int) - 100
    changed = np.any(delta != 0, axis=1)
    # same offset applied to R, G, B of each selected point
    assert np.all(delta[changed][:, 0] == delta[changed][:, 1])
    assert np.all(delta[changed][:, 1] == delta[changed][:, 2])
    assert changed.sum() <= 100  # integer rounding may leave some offsets at 0
    assert np.abs(delta).max() <= 10


def test_gaussian_snr_sigma_hits_target():
    # sample-statistics oracle over 1e5 points: empirical SNR within 0.3 dB
    r = rng(7)
    cloud = flat_cloud(n=100_000, value=128)
    signal = cloud.colors.astype(float)
    for level, target in zip((1, 4, 7), (13.0, 7.0, 1.0)):
        sigma = gaussian_snr_sigma(cloud.colors, REGISTRY[2].param(level))
        noise = r.normal(0, sigma, signal.shape)
        snr = 10 * np.log10(np.mean(signal**2) / np.mean(noise**2))
        assert abs(snr - target) <= 0.3


def test_gamma_noise_positive_shift():
    cloud = flat_cloud(n=3000, value=30)
    out = REGISTRY[14].generate(cloud, 1, rng(8))
    delta = out.colors.astype(float) - 30
    # sum of 3 exponentials with a=0.1: mean 30
    assert abs(delta.mean() - 30.0) < 2.0
    assert delta.min() >= 0


def test_poisson_noise_mean():
    cloud = flat_cloud(n=3000, value=20)
    out = REGISTRY[16].generate(cloud, 1, rng(9))
    delta = out.colors.astype(float) - 20
    assert abs(delta.mean() - 10.0) < 1.0


# ---------------------------------------------------------------------------
# Structured noise
# ---------------------------------------------------------------------------


def test_correlated_noise_neighbor_correlation():
    # 1-NN pairs must correlate strongly after spatial averaging
    r = np.random.default_rng(12)
    cloud = PointCloud(r.uniform(0, 30, (10_000, 3)), np.full((10_000, 3), 128))
    out = REGISTRY[8].generate(cloud, 3, rng(13))
    noise = out.colors.astype(float) - 128.0
    from pcqa.pcio import SpatialIndex
    index = SpatialIndex(cloud)
    nbr = index.neighborhoods(cloud.positions, 2)[:, 1]
    a, b = noise[:, 0], noise[nbr, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert corr > 0.3


def test_correlated_noise_sigma_restored():
    r = np.random.default_rng(14)
    cloud = PointCloud(r.uniform(0, 30, (20_000, 3)), np.full((20_000, 3), 128))
    out = REGISTRY[8].generate(cloud, 2, rng(15))
    noise = out.colors.astype(float) - 128.0
    assert abs(noise.std() - 20.0) / 20.0 < 0.05


def test_multiplicative_fixes_zero():
    cloud = flat_cloud(n=500, value=0)
    out = REGISTRY[9].generate(cloud, 7, rng(16))
    np.testing.assert_array_equal(out.colors, 0)


def test_multiplicative_scales_with_value():
    cloud = flat_cloud(n=50_000, value=200)
    out = REGISTRY[9].generate(cloud, 7, rng(17))
    delta = out.colors.astype(float) - 200.0
    expected_sigma = 200.0 * np.sqrt(15.5e-4)
    assert abs(delta.std() - expected_sigma) / expected_sigma < 0.05


def test_high_frequency_variance_matches_injection():
    # constant colors: output variance on the [0,1] scale equals the
    # injected variance (sample-variance oracle)
    r = np.random.default_rng(18)
    cloud = PointCloud(r.uniform(0, 30, (20_000, 3)), np.full((20_000, 3), 128))
    for level in (1, 3, 5):
        var = REGISTRY[3].param(level)
        out = REGISTRY[3].generate(cloud, level, rng(19))
        sample_var = np.var(out.colors.astype(float) / 255.0, axis=0).mean()
        assert abs(sample_var - var) / var < 0.05


def test_high_frequency_noise_is_high_frequency():
    # injected noise has near-zero local mean by construction
    r = np.random.default_rng(20)
    cloud = PointCloud(r.uniform(0, 20, (5000, 3)), np.full((5000, 3), 128))
    out = REGISTRY[3].generate(cloud, 5, rng(21))
    noise = out.colors.astype(float) - 128.0
    from pcqa.pcio import SpatialIndex
    index = SpatialIndex(cloud)
    nbr = index.neighborhoods(cloud.positions, 9)[:, 1:]
    local_mean = noise[nbr, 0].mean(axis=1)
    assert np.abs(local_mean).mean() < 0.35 * noise[:, 0].std()


def test_neighbor_families_require_9_points():
    cloud = flat_cloud(n=8)
    with pytest.raises(DistortionError, match="9 points"):
        REGISTRY[8].generate(cloud, 1, rng(22))


# ---------------------------------------------------------------------------
# Color transforms
# ---------------------------------------------------------------------------


def test_quantization_bin_center():
    cloud = PointCloud(np.zeros((2, 3)), [[0, 0, 0], [255, 255, 255]])
    out = REGISTRY[4].generate(cloud, 1, rng(0))
    np.testing.assert_array_equal(out.colors[0], 13)  # floor(0/27)*27 + 13
    np.testing.assert_array_equal(out.colors[1], 255)  # cropped bin center 256


def test_contrast_fixes_endpoints():
    cloud = PointCloud(np.zeros((2, 3)), [[255, 255, 255], [0, 0, 0]])
    out = REGISTRY[6].generate(cloud, 1, rng(0))
    np.testing.assert_array_equal(out.colors[0], 255)
    np.testing.assert_array_equal(out.colors[1], 0)


def test_contrast_darkens_midtones():
    cloud = flat_cloud(n=10, value=128)
    out = REGISTRY[6].generate(cloud, 7, rng(0))
    assert np.all(out.colors < 128)


def test_saturation_level7_fully_desaturates():
    cloud = random_cloud(np.random.default_rng(23), n=300)
    out = REGISTRY[7].generate(cloud, 7, rng(0))
    assert np.all(out.colors[:, 0] == out.colors[:, 1])
    assert np.all(out.colors[:, 1] == out.colors[:, 2])


def test_saturation_reduces_saturation_monotonically():
    cloud = random_cloud(np.random.default_rng(24), n=500)
    sats = []
    for level in (1, 4, 7):
        out = REGISTRY[7].generate(cloud, level, rng(0))
        sats.append(rgb_to_hsl(out.colors / 255.0)[:, 1].mean())
    assert sats[0] > sats[1] > sats[2]


def test_luminance_shifts_luma():
    cloud = random_cloud(np.random.default_rng(25), n=400)
    # mid-range colors so the +20 luma offset does not crop
    cloud = cloud.with_colors(np.clip(cloud.colors, 40, 200))
    out = REGISTRY[22].generate(cloud, 1, rng(0))
    y_in = rgb_to_ycbcr(cloud.colors.astype(float))[:, 0]
    y_out = rgb_to_ycbcr(out.colors.astype(float))[:, 0]
    assert abs((y_out - y_in).mean() - 20.0) < 1.5


def test_dither_quantization_palette_size():
    cloud = random_cloud(np.random.default_rng(26), n=600)
    for level, k in ((1, 24), (7, 2)):
        out = REGISTRY[10].generate(cloud, level, rng(27))
        n_colors = len(np.unique(out.colors, axis=0))
        assert n_colors <= k


# ---------------------------------------------------------------------------
# Geometry noise
# ---------------------------------------------------------------------------


def test_gaussian_shift_sigma():
    # sample sigma per axis within 3% of the target over 1e5 points
    r = np.random.default_rng(28)
    cloud = PointCloud(r.uniform(0, 100, (100_000, 3)), np.zeros((100_000, 3)))
    diag = bounding_box(cloud).diagonal
    out = REGISTRY[17].generate(cloud, 1, rng(29))
    disp = out.positions - cloud.positions
    target = 0.001 * diag
    for axis in range(3):
        assert abs(disp[:, axis].std() - target) / target < 0.03


def test_uniform_shift_exact_count_and_range():
    cloud = flat_cloud(n=1000, extent=100.0, seed=30)
    diag = bounding_box(cloud).diagonal
    out = REGISTRY[18].generate(cloud, 1, rng(31))
    disp = out.positions - cloud.positions
    moved = np.any(disp != 0, axis=1)
    assert moved.sum() == 100  # round(0.10 * N)
    assert np.abs(disp).max() <= 0.005 * diag + 1e-12


def test_geometry_noise_zero_extent_errors():
    cloud = PointCloud(np.zeros((5, 3)), np.zeros((5, 3)))
    with pytest.raises(DistortionError, match="zero-extent"):
        REGISTRY[17].generate(cloud, 1, rng(32))


def test_mean_displacement_increases_with_level():
    cloud = flat_cloud(n=2000, extent=50.0, seed=33)
    means = []
    for level in range(1, 8):
        vals = []
        for seed in range(5):
            out = REGISTRY[17].generate(cloud, level, rng(seed))
            vals.append(np.linalg.norm(out.positions - cloud.positions, axis=1).mean())
        means.append(np.mean(vals))
    assert all(b > a for a, b in zip(means, means[1:]))


# ---------------------------------------------------------------------------
# Local distortions
# ---------------------------------------------------------------------------


def test_anchor_counts_per_level():
    cloud = grid_cloud(np.random.default_rng(34), n=500)
    expected = (1, 2, 4, 6, 9, 12, 16)
    for level in range(1, 8):
        centers, _ = anchor_boxes(cloud, level, rng(35))
        assert len(centers) == expected[level - 1]


def test_anchor_nesting_same_seed():
    cloud = grid_cloud(np.random.default_rng(36), n=500)
    prev = None
    for level in range(1, 8):
        centers, _ = anchor_boxes(cloud, level, rng(37))
        if prev is not None:
            np.testing.assert_array_equal(centers[: len(prev)], prev)
        prev = centers


def test_anchor_side_is_03_of_max_side():
    cloud = grid_cloud(np.random.default_rng(38), n=200)
    _, half = anchor_boxes(cloud, 1, rng(39))
    assert half * 2 == pytest.approx(0.3 * bounding_box(cloud).max_side)


def test_local_missing_deletes_inside_anchors():
    cloud = grid_cloud(np.random.default_rng(40), n=800)
    out = REGISTRY[19].generate(cloud, 3, rng(41))
    centers, half = anchor_boxes(cloud, 3, rng(41))
    assert len(out) < len(cloud)
    for c in centers:
        inside = np.all(np.abs(out.positions - c) <= half, axis=1)
        assert not inside.any()


def test_local_missing_empty_anchor_is_identity():
    # all anchor cubes centered at the single selected point delete it only
    pts = np.array([[0, 0, 0], [100, 0, 0], [0, 100, 0], [0, 0, 100]], dtype=float)
    cloud = PointCloud(pts, np.zeros((4, 3)))
    out = REGISTRY[19].generate(cloud, 1, rng(42))
    assert len(out) == 3  # exactly the anchored point disappears


def test_local_missing_fully_deleted_errors():
    cloud = PointCloud(np.zeros((5, 3)) + [[0, 0, 0]], np.zeros((5, 3)))
    with pytest.raises(DistortionError, match="fully deleted"):
        REGISTRY[19].generate(cloud, 1, rng(43))


def test_local_offset_translates_anchored_points():
    cloud = grid_cloud(np.random.default_rng(44), n=600)
    out = REGISTRY[20].generate(cloud, 2, rng(45))
    disp = out.positions - cloud.positions
    moved = np.any(disp != 0, axis=1)
    assert moved.any()
    shift = 0.05 * bounding_box(cloud).max_side
    np.testing.assert_allclose(disp[moved], shift, rtol=1e-12)
    np.testing.assert_array_equal(out.colors, cloud.colors)


def test_local_rotation_preserves_distance_to_centroid():
    cloud = grid_cloud(np.random.default_rng(46), n=600)
    out = REGISTRY[21].generate(cloud, 7, rng(47))
    centers, half = anchor_boxes(cloud, 7, rng(47))
    moved = np.any(out.positions != cloud.positions, axis=1)
    assert moved.any()
    # every moved point keeps its distance to its anchor center
    for i in np.flatnonzero(moved):
        dists_before = np.linalg.norm(cloud.positions[i] - centers, axis=1)
        j = np.argmin(dists_before)  # its anchor is among the containing ones
        containing = np.all(np.abs(cloud.positions[i] - centers) <= half, axis=1)
        assert containing.any()
        j = np.flatnonzero(containing)[0]
        d_before = np.linalg.norm(cloud.positions[i] - centers[j])
        d_after = np.linalg.norm(out.positions[i] - centers[j])
        assert abs(d_before - d_after) < 1e-9


def test_local_rotation_angle_about_x():
    # single anchored point: verify the rotation angle in the yz plane
    pts = np.array([[0, 0, 0], [0, 5, 0], [200, 0, 0], [0, 200, 0], [0, 0, 200]],
                   dtype=float)
    cloud = PointCloud(pts, np.zeros((5, 3)))
    for level, angle in ((1, 20.0), (7, 50.0)):
        out = REGISTRY[21].generate(cloud, level, rng_for_spec(DistortionSpec(21, level, 48)))
        moved = np.flatnonzero(np.any(out.positions != pts, axis=1))
        for i in moved:
            centers, half = anchor_boxes(cloud, level, rng_for_spec(DistortionSpec(21, level, 48)))
            containing = np.all(np.abs(pts[i] - centers) <= half, axis=1)
            j = np.flatnonzero(containing)[0]
            v0 = (pts[i] - centers[j])[1:]
            v1 = (out.positions[i] - centers[j])[1:]
            if np.linalg.norm(v0) > 1e-9:
                cosang = v0 @ v1 / (np.linalg.norm(v0) * np.linalg.norm(v1))
                assert np.degrees(np.arccos(np.clip(cosang, -1, 1))) == pytest.approx(angle, abs=1e-6)


# ---------------------------------------------------------------------------
# Downsample / octree
# ---------------------------------------------------------------------------


def test_downsample_counts():
    cloud = flat_cloud(n=1000)
    expected = (850, 700, 550, 400, 300, 200, 100)
    for level in range(1, 8):
        out = REGISTRY[11].generate(cloud, level, rng(49))
        assert len(out) == expected[level - 1]


def test_downsample_tiny_cloud():
    cloud = flat_cloud(n=10)
    out = REGISTRY[11].generate(cloud, 7, rng(50))
    assert len(out) == 1


def test_downsample_is_subset():
    cloud = grid_cloud(np.random.default_rng(51), n=300)
    out = REGISTRY[11].generate(cloud, 3, rng(52))
    rows = {tuple(r) for r in cloud.positions}
    assert all(tuple(r) in rows for r in out.positions)


def test_octree_merges_one_voxel():
    pts = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    cloud = PointCloud(pts, [[0, 0, 0], [255, 255, 255]])
    out = REGISTRY[24].generate(cloud, 1, rng(0))  # side 8
    assert len(out) == 1
    np.testing.assert_array_equal(out.positions, [[4.0, 4.0, 4.0]])
    np.testing.assert_array_equal(out.colors, [[128, 128, 128]])  # round(127.5)


def test_octree_distinct_voxel_centers_preserved():
    side = 8.0
    idx = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 1], [3, 3, 3]])
    cloud = PointCloud((idx + 0.5) * side, np.zeros((4, 3)))
    out = REGISTRY[24].generate(cloud, 1, rng(0))
    assert len(out) == 4
    np.testing.assert_allclose(np.sort(out.positions, axis=0),
                               np.sort(cloud.positions, axis=0))


def test_octree_count_non_increasing_in_level():
    cloud = grid_cloud(np.random.default_rng(53), n=500, extent=100)
    counts = [len(REGISTRY[24].generate(cloud, level, rng(0))) for level in range(1, 8)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# External adapters
# ---------------------------------------------------------------------------


def _passthrough_adapter():
    return AdapterConfig(command="cp", args=("{in}", "{out}"))


def test_external_passthrough_identity():
    cloud = grid_cloud(np.random.default_rng(54), n=100)
    spec = DistortionSpec(25, 1, seed=1)
    out = external_codec(cloud, spec, _passthrough_adapter())
    np.testing.assert_allclose(out.positions, cloud.positions)
    np.testing.assert_array_equal(out.colors, cloud.colors)


def test_external_unconfigured_errors():
    cloud = flat_cloud(n=10)
    with pytest.raises(AdapterNotConfiguredError, match="not configured"):
        apply_distortion(cloud, DistortionSpec(25, 1, seed=1), adapters={})


def test_external_param_template_substitution(tmp_path):
    # echo-style adapter records its argv; id 25 level 1 must receive qp=27
    script = tmp_path / "fake_codec.sh"
    script.write_text("#!/bin/sh\necho \"$1\" > \"$4\".args\ncp \"$2\" \"$3\"\n")
    script.chmod(0o755)
    argv_file = str(tmp_path / "argv")  # the script writes to argv_file + ".args"
    adapter = AdapterConfig(command=str(script), args=("qp={p1}", "{in}", "{out}", argv_file))
    cloud = grid_cloud(np.random.default_rng(55), n=50)
    external_codec(cloud, DistortionSpec(25, 1, seed=1), adapter)
    assert (tmp_path / "argv.args").read_text().strip() == "qp=27"
    # two-parameter codec: VPCC level 3 -> geometry qp 24, texture qp 32
    adapter2 = AdapterConfig(command=str(script), args=("g{p1}t{p2}", "{in}", "{out}", argv_file))
    external_codec(cloud, DistortionSpec(28, 3, seed=1), adapter2)
    assert (tmp_path / "argv.args").read_text().strip() == "g24t32"


def test_external_tool_missing():
    adapter = AdapterConfig(command="/nonexistent/tool", args=("{in}", "{out}"))
    cloud = flat_cloud(n=10)
    with pytest.raises(AdapterToolMissingError):
        external_codec(cloud, DistortionSpec(25, 1, seed=1), adapter)


def test_external_nonzero_exit():
    adapter = AdapterConfig(command="false", args=())
    cloud = flat_cloud(n=10)
    with pytest.raises(AdapterFailedError):
        external_codec(cloud, DistortionSpec(25, 1, seed=1), adapter)


def test_external_unreadable_output():
    adapter = AdapterConfig(command="true", args=())  # never writes {out}
    cloud = flat_cloud(n=10)
    with pytest.raises(AdapterOutputError):
        external_codec(cloud, DistortionSpec(25, 1, seed=1), adapter)


# ---------------------------------------------------------------------------
# Crop bounds and nesting invariants
# ---------------------------------------------------------------------------

_COLOR_IDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 22)


def test_crop_bounds_all_color_distortions():
    r = np.random.default_rng(56)
    cloud = PointCloud(r.uniform(0, 40, (3000, 3)), r.integers(0, 256, (3000, 3)))
    for did in _COLOR_IDS:
        for level in (1, 7):
            out = apply_distortion(cloud, DistortionSpec(did, level, seed=57))
            assert out.colors.min() >= 0 and out.colors.max() <= 255, did


def test_local_level_nesting_missing_subset():
    cloud = grid_cloud(np.random.default_rng(58), n=800)
    deleted_prev: set = set()
    for level in range(1, 8):
        out = apply_distortion(cloud, DistortionSpec(19, level, seed=59))
        kept = {tuple(p) for p in out.positions}
        deleted = {tuple(p) for p in cloud.positions} - kept
        assert deleted_prev.issubset(deleted)
        deleted_prev = deleted


# ---------------------------------------------------------------------------
# Pinned catalogue output
# ---------------------------------------------------------------------------

# SHA-256 over every native id x level 1-7 x seeds (0, 1) x the two clouds
# below; pins each generator's output bit for bit.
_CATALOGUE_SHA256 = "24abec8976f718ed527127ff405396c88149e9139b16f3756826c40bf52e3547"


def test_native_catalogue_output_is_pinned():
    clouds = (grid_cloud(np.random.default_rng(60), n=120),
              textured_ref(np.random.default_rng(61), n=150, extent=40))
    h = hashlib.sha256()
    for cloud in clouds:
        for did in NATIVE_IDS:
            for level in range(1, 8):
                for seed in (0, 1):
                    out = apply_distortion(cloud, DistortionSpec(did, level, seed))
                    h.update(f"{did},{level},{seed},{len(out)};".encode())
                    h.update(out.positions.tobytes())
                    h.update(out.colors.tobytes())
    assert h.hexdigest() == _CATALOGUE_SHA256
