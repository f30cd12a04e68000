from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcqa.colors import rgb_to_ycbcr
from pcqa.distort import DistortionSpec, apply_distortion
from pcqa import frmetrics as fr, pcio
from pcqa.pcio import DEFAULT_NORMAL_K, PointCloud, SpatialIndex, bounding_box, estimate_normals

from conftest import grid_cloud, random_cloud


# ---------------------------------------------------------------------------
# Brute-force oracles (independent O(N^2) correspondence search)
# ---------------------------------------------------------------------------


def brute_p2point(reference, degraded, pooling):
    d2 = ((degraded.positions[:, None, :] - reference.positions[None, :, :]) ** 2).sum(-1)
    e = d2.min(axis=1)
    return e.mean() if pooling == "mse" else e.max()


def brute_nearest_ids(reference, degraded):
    d2 = ((degraded.positions[:, None, :] - reference.positions[None, :, :]) ** 2).sum(-1)
    # ties: lower reference id wins
    return d2.argmin(axis=1)


def brute_p2plane(reference, degraded, pooling):
    ids = brute_nearest_ids(reference, degraded)
    v = degraded.positions - reference.positions[ids]
    proj = np.einsum("ni,ni->n", v, reference.normals[ids])
    e = proj**2
    return e.mean() if pooling == "mse" else e.max()


def brute_psnr_yuv(reference, degraded, pooling):
    def oneway(ref, deg):
        ids = brute_nearest_ids(ref, deg)
        diff = rgb_to_ycbcr(deg.colors.astype(float)) - rgb_to_ycbcr(ref.colors[ids].astype(float))
        sq = diff**2
        return sq.mean(axis=0) if pooling == "mse" else sq.max(axis=0)

    e = np.maximum(oneway(reference, degraded), oneway(degraded, reference))
    peak2 = 255.0**2
    psnr = [100.0 if c < peak2 * 1e-10 else min(10 * np.log10(peak2 / c), 100.0) for c in e]
    return (6 * psnr[0] + psnr[1] + psnr[2]) / 8


# ---------------------------------------------------------------------------
# p2point
# ---------------------------------------------------------------------------


def test_p2point_identical_zero(rng):
    cloud = random_cloud(rng, n=60)
    assert fr.p2point(cloud, cloud, "mse") == 0.0
    assert fr.p2point(cloud, cloud, "hausdorff") == 0.0


def test_p2point_hand_case():
    ref = PointCloud([[0.0, 0.0, 0.0]], [[0, 0, 0]])
    deg = PointCloud([[3.0, 4.0, 0.0]], [[0, 0, 0]])
    assert fr.p2point(ref, deg, "mse") == pytest.approx(25.0)
    assert fr.p2point(ref, deg, "hausdorff") == pytest.approx(25.0)


def test_p2point_matches_brute_force(rng):
    for _ in range(10):
        ref = random_cloud(rng, n=int(rng.integers(5, 200)))
        deg = random_cloud(rng, n=int(rng.integers(5, 200)))
        for pooling in ("mse", "hausdorff"):
            got = fr.p2point(ref, deg, pooling)
            want = brute_p2point(ref, deg, pooling)
            assert got == pytest.approx(want, abs=1e-9)


def test_p2point_symmetric_is_max_of_directions(rng):
    ref = random_cloud(rng, n=80)
    deg = random_cloud(rng, n=50)
    sym = fr.p2point(ref, deg, "mse", symmetric=True)
    assert sym == pytest.approx(
        max(brute_p2point(ref, deg, "mse"), brute_p2point(deg, ref, "mse")), abs=1e-9)
    # symmetry of the final score
    assert sym == pytest.approx(fr.p2point(deg, ref, "mse", symmetric=True), abs=1e-12)


def test_p2point_unknown_pooling_rejected(rng):
    with pytest.raises(ValueError, match="pooling"):
        fr.p2point(random_cloud(rng, 5), random_cloud(rng, 5), "bogus")


# ---------------------------------------------------------------------------
# p2plane
# ---------------------------------------------------------------------------


def test_p2plane_hand_case():
    ref = PointCloud([[0.0, 0.0, 0.0]], [[0, 0, 0]],
                     normals=[[0.0, 0.0, 1.0]])
    deg = PointCloud([[1.0, 0.0, 0.5]], [[0, 0, 0]])
    assert fr.p2plane(ref, deg, "mse") == pytest.approx(0.25)


def test_p2plane_tangent_displacement_is_zero():
    ref = PointCloud([[0.0, 0.0, 0.0]], [[0, 0, 0]], normals=[[0.0, 0.0, 1.0]])
    deg = PointCloud([[2.0, -1.0, 0.0]], [[0, 0, 0]])
    assert fr.p2plane(ref, deg, "mse") == 0.0


def test_p2plane_leq_p2point(rng):
    for _ in range(5):
        ref, _ = estimate_normals(random_cloud(rng, n=100), k=8)
        deg = random_cloud(rng, n=60)
        for pooling in ("mse", "hausdorff"):
            assert fr.p2plane(ref, deg, pooling) <= fr.p2point(ref, deg, pooling) + 1e-12


def test_p2plane_matches_brute_force(rng):
    for _ in range(5):
        ref, _ = estimate_normals(random_cloud(rng, n=120), k=8)
        deg = random_cloud(rng, n=80)
        for pooling in ("mse", "hausdorff"):
            got = fr.p2plane(ref, deg, pooling)
            want = brute_p2plane(ref, deg, pooling)
            assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# Geometry PSNR
# ---------------------------------------------------------------------------


def test_psnr_error_equals_peak_squared_is_zero_db(rng):
    cloud = random_cloud(rng, n=40)
    peak = bounding_box(cloud).diagonal
    assert fr.psnr_from_geometry(peak * peak, cloud) == pytest.approx(0.0)


def test_psnr_zero_error_is_capped(rng):
    cloud = random_cloud(rng, n=40)
    assert fr.psnr_from_geometry(0.0, cloud) == 100.0


def test_psnr_direct_formula():
    # peak 5 (diagonal of a (3,4,0) box), error 25 -> 0 dB
    cloud = PointCloud([[0, 0, 0], [3, 4, 0]], [[0, 0, 0], [0, 0, 0]])
    assert bounding_box(cloud).diagonal == pytest.approx(5.0)
    assert fr.psnr_from_geometry(25.0, cloud) == pytest.approx(0.0)


def test_psnr_zero_extent_errors():
    cloud = PointCloud([[1.0, 1.0, 1.0]], [[0, 0, 0]])
    with pytest.raises(ValueError, match="zero-extent"):
        fr.psnr_from_geometry(1.0, cloud)


def test_psnr_negative_error_rejected(rng):
    with pytest.raises(ValueError):
        fr.psnr_from_geometry(-1.0, random_cloud(rng, 10))


# ---------------------------------------------------------------------------
# PSNRyuv
# ---------------------------------------------------------------------------


def test_psnr_yuv_identical_capped(rng):
    cloud = random_cloud(rng, n=50)
    assert fr.psnr_yuv(cloud, cloud, "mse") == 100.0
    assert fr.psnr_yuv(cloud, cloud, "hausdorff") == 100.0


def test_psnr_yuv_gray_offset_hits_luma_only():
    # gray colors: YCbCr luma equals the gray level, chroma exactly 128
    pos = np.arange(30, dtype=float).reshape(10, 3)
    ref = PointCloud(pos, np.full((10, 3), 100))
    d = 7
    deg = PointCloud(pos, np.full((10, 3), 100 + d))
    want_y = 10 * np.log10(255.0**2 / d**2)
    got = fr.psnr_yuv(ref, deg, "mse")
    assert got == pytest.approx((6 * want_y + 100 + 100) / 8, abs=1e-9)


def test_psnr_yuv_matches_brute_force(rng):
    for _ in range(8):
        ref = random_cloud(rng, n=int(rng.integers(5, 200)))
        deg = random_cloud(rng, n=int(rng.integers(5, 200)))
        for pooling in ("mse", "hausdorff"):
            got = fr.psnr_yuv(ref, deg, pooling)
            want = brute_psnr_yuv(ref, deg, pooling)
            assert got == pytest.approx(want, abs=1e-9)


def test_psnr_yuv_symmetric(rng):
    ref = random_cloud(rng, n=70)
    deg = random_cloud(rng, n=90)
    assert fr.psnr_yuv(ref, deg) == pytest.approx(fr.psnr_yuv(deg, ref), abs=1e-12)


# ---------------------------------------------------------------------------
# Pooling relation, dispatch, applicability
# ---------------------------------------------------------------------------


def test_hausdorff_geq_mse_everywhere(rng):
    for _ in range(10):
        ref = random_cloud(rng, n=60)
        deg = random_cloud(rng, n=60)
        assert fr.p2point(ref, deg, "hausdorff") >= fr.p2point(ref, deg, "mse")
        # PSNR form flips the inequality (bigger error, smaller dB)
        assert (fr.psnr_yuv(ref, deg, "hausdorff") <= fr.psnr_yuv(ref, deg, "mse") + 1e-12)


def test_compute_metric_dispatch(rng):
    ref = grid_cloud(rng, n=100)
    deg = grid_cloud(rng, n=90)
    values = {m: fr.compute_metric(m, ref, deg) for m in fr.BUILTIN_METRICS}
    assert all(np.isfinite(v) for v in values.values())
    assert values["H-p2po"] <= values["M-p2po"]  # max error >= mean error in dB


def test_metric_applicability_rules():
    # geometry metrics undefined for pure color distortions
    assert not fr.metric_applicable("M-p2po", 5)
    assert not fr.metric_applicable("H-p2pl", 2)
    assert fr.metric_applicable("M-p2po", 11)
    assert fr.metric_applicable("M-p2po", 17)
    assert fr.metric_applicable("PSNRyuv", 5)
    assert fr.metric_applicable("PSNRyuv", 17)
    # codec families: geometry metrics only where geometry is lossy
    assert fr.metric_applicable("M-p2po", 27)
    assert not fr.metric_applicable("M-p2po", 25)


# ---------------------------------------------------------------------------
# External score ingestion
# ---------------------------------------------------------------------------


def test_ingest_single_row(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("metric_name,reference_id,degraded_id,value\nPCQM,r1,d1,0.42\n")
    scores = fr.ingest_external_scores(p)
    assert len(scores) == 1
    assert list(scores) == [("PCQM", "d1")]
    assert scores[("PCQM", "d1")] == pytest.approx(0.42)


def test_ingest_passthrough_no_rescale(tmp_path):
    p = tmp_path / "s.csv"
    rows = "\n".join(f"PCQM,r1,d{i},{v}" for i, v in enumerate((0.0, 0.5, 1.0)))
    p.write_text("metric_name,reference_id,degraded_id,value\n" + rows + "\n")
    scores = fr.ingest_external_scores(p)
    assert list(scores.values()) == [0.0, 0.5, 1.0]


def test_ingest_duplicate_key_errors(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("metric_name,reference_id,degraded_id,value\n"
                 "PCQM,r1,d1,0.1\nPCQM,r1,d1,0.2\n")
    with pytest.raises(ValueError, match="duplicate.*PCQM.*d1"):
        fr.ingest_external_scores(p)


def test_ingest_missing_column_errors(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("metric_name,degraded_id,value\nPCQM,d1,0.1\n")
    with pytest.raises(ValueError, match="missing columns: reference_id"):
        fr.ingest_external_scores(p)


def test_ingest_non_numeric_errors(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("metric_name,reference_id,degraded_id,value\nPCQM,r1,d1,abc\n")
    with pytest.raises(ValueError, match="non-numeric"):
        fr.ingest_external_scores(p)


def test_ingest_rejects_empty_names_and_non_finite_values(tmp_path):
    p = tmp_path / "s.csv"
    for row, message in ((",r1,d1,1.0", "metric name must be non-empty"),
                         ("m,,d1,1.0", "provenance ids must be non-empty"),
                         ("m,r1,d1,inf", "metric value must be finite, got inf")):
        p.write_text("metric_name,reference_id,degraded_id,value\nm,r1,d0,1.0\n" + row + "\n")
        with pytest.raises(ValueError) as exc:
            fr.ingest_external_scores(p)
        assert str(exc.value) == f"{p}:3: {message}"


def test_monotonicity_probe_gaussian_shift():
    # symmetric M-p2po MSE is non-decreasing in level over a fixed seed set
    from pcqa.distort import DistortionSpec, apply_distortion
    cloud = grid_cloud(np.random.default_rng(60), n=400, extent=80)
    means = []
    for level in range(1, 8):
        vals = [fr.p2point(cloud, apply_distortion(cloud, DistortionSpec(17, level, seed)),
                           "mse", symmetric=True)
                for seed in range(3)]
        means.append(np.mean(vals))
    assert all(b >= a for a, b in zip(means, means[1:]))


# ---------------------------------------------------------------------------
# score_pair against the one-pass-per-metric code it replaced
# ---------------------------------------------------------------------------
# The oracle below is the per-metric implementation that score_pair
# replaced: each metric builds its own trees, runs its own nearest-neighbour
# queries and estimates normals again. score_pair must match it bit for bit.


def _old_pool(errors, pooling):
    if pooling == "mse":
        return float(errors.mean())
    if pooling == "hausdorff":
        return float(errors.max())
    raise ValueError(f"unknown pooling '{pooling}'")


def _p2point_oneway(reference, degraded, pooling):
    index = SpatialIndex(reference)
    _, dists = index.nearest(degraded.positions)
    return _old_pool(dists**2, pooling)


def _old_p2point(reference, degraded, pooling="mse", symmetric=False):
    fwd = _p2point_oneway(reference, degraded, pooling)
    if not symmetric:
        return fwd
    return max(fwd, _p2point_oneway(degraded, reference, pooling))


def _old_with_normals(cloud, k):
    if cloud.normals is not None:
        return cloud
    cloud, _ = estimate_normals(cloud, k=min(k, len(cloud)))
    return cloud


def _p2plane_oneway(reference, degraded, pooling):
    index = SpatialIndex(reference)
    ids, _ = index.nearest(degraded.positions)
    vectors = degraded.positions - reference.positions[ids]
    proj = np.einsum("ni,ni->n", vectors, reference.normals[ids])
    return _old_pool(proj**2, pooling)


def _old_p2plane(reference, degraded, pooling="mse", symmetric=False):
    ref = _old_with_normals(reference, DEFAULT_NORMAL_K)
    fwd = _p2plane_oneway(ref, degraded, pooling)
    if not symmetric:
        return fwd
    deg = _old_with_normals(degraded, DEFAULT_NORMAL_K)
    return max(fwd, _p2plane_oneway(deg, reference, pooling))


def _yuv_errors_oneway(reference, degraded, pooling):
    index = SpatialIndex(reference)
    ids, _ = index.nearest(degraded.positions)
    ref_ycc = rgb_to_ycbcr(reference.colors[ids].astype(np.float64))
    deg_ycc = rgb_to_ycbcr(degraded.colors.astype(np.float64))
    sq = (deg_ycc - ref_ycc) ** 2
    if pooling == "mse":
        return sq.mean(axis=0)
    if pooling == "hausdorff":
        return sq.max(axis=0)
    raise ValueError(f"unknown pooling '{pooling}'")


def _old_psnr_yuv(reference, degraded, pooling="mse"):
    fwd = _yuv_errors_oneway(reference, degraded, pooling)
    bwd = _yuv_errors_oneway(degraded, reference, pooling)
    errors = np.maximum(fwd, bwd)
    psnr = [fr._capped_psnr(255.0 * 255.0, float(e)) for e in errors]
    return (6.0 * psnr[0] + psnr[1] + psnr[2]) / 8.0


def _old_compute_metric(metric, reference, degraded):
    geo = fr.psnr_from_geometry
    if metric == fr.M_P2PO:
        return geo(_old_p2point(reference, degraded, "mse", symmetric=True), reference)
    if metric == fr.H_P2PO:
        return geo(_old_p2point(reference, degraded, "hausdorff", symmetric=True), reference)
    if metric == fr.M_P2PL:
        return geo(_old_p2plane(reference, degraded, "mse", symmetric=True), reference)
    if metric == fr.H_P2PL:
        return geo(_old_p2plane(reference, degraded, "hausdorff", symmetric=True), reference)
    if metric == fr.PSNR_YUV:
        return _old_psnr_yuv(reference, degraded, "mse")
    if metric == fr.H_PSNR_YUV:
        return _old_psnr_yuv(reference, degraded, "hausdorff")
    raise ValueError(f"unknown builtin metric '{metric}'")


_grid_point = st.tuples(*[st.integers(0, 3)] * 3)  # tiny grid: many exact ties
_real_point = st.tuples(*[st.floats(-50, 50, allow_nan=False, width=32)] * 3)
_normal = st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@st.composite
def _clouds(draw, points):
    pos = draw(st.lists(points, min_size=3, max_size=10, unique=True))
    n = len(pos)
    cols = draw(st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=n, max_size=n))
    normals = None
    if draw(st.booleans()):
        normals = np.array(draw(st.lists(_normal, min_size=n, max_size=n)))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(np.array(pos, dtype=float), np.array(cols), normals=normals)


_pairs = st.one_of(
    st.tuples(_clouds(_grid_point), _clouds(_grid_point)),
    st.tuples(_clouds(_real_point), _clouds(_real_point)))


def _assert_matches_oracle(ref, deg, metrics):
    got = fr.score_pair(ref, deg, metrics)
    assert list(got) == list(metrics)
    for m in metrics:
        assert repr(got[m]) == repr(_old_compute_metric(m, ref, deg)), m
        assert repr(fr.compute_metric(m, ref, deg)) == repr(got[m]), m


@settings(max_examples=150, deadline=None)
@given(pair=_pairs,
       metrics=st.lists(st.sampled_from(fr.BUILTIN_METRICS), min_size=1, unique=True))
def test_score_pair_matches_per_metric_oracle(pair, metrics):
    ref, deg = pair
    _assert_matches_oracle(ref, deg, tuple(metrics))


def _assert_public_match_oracle(ref, deg, pooling, symmetric):
    assert (repr(fr.p2point(ref, deg, pooling, symmetric))
            == repr(_old_p2point(ref, deg, pooling, symmetric)))
    assert (repr(fr.p2plane(ref, deg, pooling, symmetric))
            == repr(_old_p2plane(ref, deg, pooling, symmetric)))
    assert repr(fr.psnr_yuv(ref, deg, pooling)) == repr(_old_psnr_yuv(ref, deg, pooling))


@settings(max_examples=60, deadline=None)
@given(pair=_pairs, pooling=st.sampled_from(["mse", "hausdorff"]), symmetric=st.booleans())
def test_public_metrics_match_per_metric_oracle(pair, pooling, symmetric):
    _assert_public_match_oracle(*pair, pooling, symmetric)


def test_score_pair_every_metric_subset(rng):
    pairs = [(grid_cloud(rng, n=120, extent=8), grid_cloud(rng, n=90, extent=8)),
             (random_cloud(rng, n=150), random_cloud(rng, n=80))]
    ref, _ = estimate_normals(random_cloud(rng, n=100), k=8)
    pairs.append((ref, random_cloud(rng, n=70)))
    subsets = [c for r in range(1, 7) for c in combinations(fr.BUILTIN_METRICS, r)]
    assert len(subsets) == 63
    for ref, deg in pairs:
        for metrics in subsets:
            _assert_matches_oracle(ref, deg, metrics)
        for pooling in ("mse", "hausdorff"):
            for symmetric in (False, True):
                _assert_public_match_oracle(ref, deg, pooling, symmetric)


@pytest.mark.parametrize("did", [2, 5, 10])
def test_score_pair_of_a_colour_only_distortion_matches_the_tree_oracle(rng, monkeypatch, did):
    # repeated positions, some with a signed zero, get different colours:
    # each point must take its lowest-id twin's colour, as the tree does
    pos = grid_cloud(rng, n=80, extent=5).positions[rng.integers(0, 80, 240)]
    pos[(pos == 0.0) & (rng.random(pos.shape) < 0.5)] = -0.0
    ref = PointCloud(pos, rng.integers(0, 256, pos.shape))
    deg = apply_distortion(ref, DistortionSpec(did, 3, 1))
    assert np.array_equal(deg.positions, ref.positions) and np.signbit(deg.positions).any()
    no_plane = tuple(m for m in fr.BUILTIN_METRICS if m not in fr.PLANE_METRICS)
    monkeypatch.setattr(pcio, "SpatialIndex", None)  # score_pair may build no tree
    for r in range(1, len(no_plane) + 1):
        for metrics in combinations(no_plane, r):
            _assert_matches_oracle(ref, deg, metrics)


@pytest.mark.parametrize("did", [11, 17, 19, 24])
@pytest.mark.parametrize("level", [1, 4, 7])
def test_score_pair_of_a_geometry_distortion_matches_the_tree_oracle(rng, did, level):
    # downsampling (11) and local missing (19) keep a subset of the points,
    # octree (24) part of them, Gaussian shifting (17) moves them all; the
    # reference repeats positions, some with a signed zero, so twin lookups
    # must find the lowest id as the tree does
    pos = grid_cloud(rng, n=200, extent=40).positions[rng.integers(0, 200, 260)]
    pos[(pos == 0.0) & (rng.random(pos.shape) < 0.5)] = -0.0
    ref = PointCloud(pos, rng.integers(0, 256, pos.shape))
    deg = apply_distortion(ref, DistortionSpec(did, level, 1))
    _assert_matches_oracle(ref, deg, fr.BUILTIN_METRICS)
    # as the score stage calls it: the reference's normals made once, over
    # the tree that then serves the forward query
    with_normals = fr.with_normals(ref)
    got = fr.score_pair(with_normals, deg, fr.BUILTIN_METRICS)
    for m in fr.BUILTIN_METRICS:
        assert repr(got[m]) == repr(_old_compute_metric(m, with_normals, deg)), m


def test_score_pair_rejects_unknown_metric(rng):
    cloud = random_cloud(rng, n=10)
    with pytest.raises(ValueError, match="unknown builtin metric 'PCQM'"):
        fr.score_pair(cloud, cloud, ("M-p2po", "PCQM"))
    assert fr.score_pair(cloud, cloud, ()) == {}
