import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pcqa import pcio
from pcqa.pcio import (
    PointCloud, PlyError, SpatialIndex, atomic_write, bounding_box, estimate_normals,
    load_ply, save_ply,
)

from conftest import grid_cloud, random_cloud


# ---------------------------------------------------------------------------
# PointCloud invariants
# ---------------------------------------------------------------------------


def test_cloud_requires_matching_shapes():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros((2, 3)))


def test_cloud_rejects_out_of_range_color():
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        PointCloud(np.zeros((1, 3)), [[0, 0, 256]])


def test_cloud_rejects_empty():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))


def test_cloud_rejects_non_unit_normals():
    with pytest.raises(ValueError, match="unit length"):
        PointCloud(np.zeros((1, 3)), [[1, 2, 3]], normals=[[0.5, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------


def test_ascii_ply_known_values(tmp_path):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
        "0 0 0 255 0 0\n"
        "1 0 0 0 255 0\n"
        "0 1 0.5 0 0 255\n"
    )
    path = tmp_path / "a.ply"
    path.write_text(text)
    cloud = load_ply(path)
    assert len(cloud) == 3
    np.testing.assert_array_equal(cloud.positions, [[0, 0, 0], [1, 0, 0], [0, 1, 0.5]])
    np.testing.assert_array_equal(cloud.colors, [[255, 0, 0], [0, 255, 0], [0, 0, 255]])


def test_single_point_header_count(tmp_path):
    cloud = PointCloud([[1.0, 2.0, 3.0]], [[10, 20, 30]])
    path = tmp_path / "one.ply"
    save_ply(cloud, path, mode="ascii")
    assert b"element vertex 1" in path.read_bytes()
    again = load_ply(path)
    assert len(again) == 1


@pytest.mark.parametrize("mode", ["ascii", "binary_le"])
def test_roundtrip_float32_grid(tmp_path, rng, mode):
    # float-precision storage: bit exact when inputs are f32 representable
    for trial in range(20):
        cloud = grid_cloud(rng, n=50)
        path = tmp_path / f"{mode}_{trial}.ply"
        save_ply(cloud, path, mode=mode)
        back = load_ply(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        np.testing.assert_array_equal(back.colors, cloud.colors)


def test_roundtrip_binary_double_bit_exact(tmp_path, rng):
    for trial in range(20):
        cloud = random_cloud(rng, n=64)
        path = tmp_path / f"d{trial}.ply"
        save_ply(cloud, path, mode="binary_le", coord_dtype="double")
        back = load_ply(path)
        assert np.array_equal(back.positions, cloud.positions)  # bit exact
        np.testing.assert_array_equal(back.colors, cloud.colors)


def test_roundtrip_ascii_close(tmp_path, rng):
    cloud = random_cloud(rng, n=100)
    path = tmp_path / "a.ply"
    save_ply(cloud, path, mode="ascii")
    back = load_ply(path)
    np.testing.assert_allclose(back.positions, cloud.positions, atol=1e-4, rtol=1e-6)


def test_missing_color_property_errors(tmp_path):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n"
    )
    path = tmp_path / "nocolor.ply"
    path.write_text(text)
    with pytest.raises(PlyError, match="missing attribute"):
        load_ply(path)


def test_zero_vertices_errors(tmp_path):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 0\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    path = tmp_path / "zero.ply"
    path.write_text(text)
    with pytest.raises(PlyError):
        load_ply(path)


def test_truncated_body_errors(tmp_path, rng):
    cloud = grid_cloud(rng, n=40)
    path = tmp_path / "t.ply"
    save_ply(cloud, path, mode="binary_le")
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(PlyError, match="truncated"):
        load_ply(path)


def test_wrong_property_type_errors(tmp_path):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property int x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n0 0 0 1 2 3\n"
    )
    path = tmp_path / "badtype.ply"
    path.write_text(text)
    with pytest.raises(PlyError, match="float or double"):
        load_ply(path)


def test_not_a_ply_errors(tmp_path):
    path = tmp_path / "x.ply"
    path.write_bytes(b"obj\n")
    with pytest.raises(PlyError, match="magic"):
        load_ply(path)


ASCII_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 2\n"
    "property float x\nproperty float y\nproperty float z\n"
    "property uchar red\nproperty uchar green\nproperty uchar blue\n"
    "end_header\n"
)


@pytest.mark.parametrize("body, error, match", [
    ("0 0 0 1 2 3\n1 1 1 12.7 5 6\n", ValueError, "color components must be integers"),
    ("0 0 0 1 2 3\n1 1 1 -0.5 5 6\n", ValueError, "color components must be integers"),
    ("0 0 0 1 2 3\n1 1 1 256 5 6\n", ValueError, r"color components must lie in \[0, 255\]"),
    ("0 0 0 1 2 3\n1 1 1 4 5\n", PlyError, "truncated"),
    ("0 0 0 1 2 3\n", PlyError, "truncated body: 1 of 2 vertex rows"),
    ("0 0 0 1 2 3\n1 1 one 4 5 6\n", PlyError, "non-numeric body: could not convert string 'one'"),
], ids=["fractional-colour", "negative-colour", "colour-256", "short-row", "missing-row",
        "non-numeric-token"])
def test_bad_ascii_body_errors(tmp_path, body, error, match):
    path = tmp_path / "bad.ply"
    path.write_text(ASCII_HEADER + body)
    with pytest.raises(error, match=match):
        load_ply(path)


def test_ascii_body_ignores_blank_lines_and_extra_columns(tmp_path):
    path = tmp_path / "a.ply"
    path.write_text(ASCII_HEADER + "0 0 0 1 2 3 9\n\n1 1 1 4 5 6\nnot a vertex\n")
    cloud = load_ply(path)
    np.testing.assert_array_equal(cloud.positions, [[0, 0, 0], [1, 1, 1]])
    np.testing.assert_array_equal(cloud.colors, [[1, 2, 3], [4, 5, 6]])


# SHA-256 of what save_ply writes for one seeded cloud in each mode
SAVED_PLY_SHA256 = {
    ("ascii", "float"): "e4df9482756cdc24e0e20038c80d7628ea606f76a08db6b7816cfa3f3ccefbdb",
    ("ascii", "double"): "f897c91cf46915a8772f62094ec470f832a80e73ae834834936dd5b74146b963",
    ("binary_le", "float"): "fbe80569f7d9be0ec93e31059538a60009e46923a3db221847bf4f694395295d",
    ("binary_le", "double"): "d6bb1053914fc64a095f24296dab477316707e5a2b6f2d25aa725c8bad4ef1cb",
}


@pytest.mark.parametrize("mode, coord_dtype", list(SAVED_PLY_SHA256))
def test_save_ply_bytes_are_pinned(tmp_path, mode, coord_dtype):
    cloud = random_cloud(np.random.default_rng(17), n=300, extent=50.0, jitter=5.0)
    assert cloud.positions.min() < 0  # the pin covers negative coordinates too
    path = tmp_path / "c.ply"
    save_ply(cloud, path, mode=mode, coord_dtype=coord_dtype)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_PLY_SHA256[mode, coord_dtype]


# ---------------------------------------------------------------------------
# Voxel means
# ---------------------------------------------------------------------------


def _voxel_means_by_unique(positions, size, values):
    """Oracle: voxel_means as it was, with np.unique over the cell rows."""
    cells = np.floor(positions / size).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.stack([np.bincount(inverse, weights=column) for column in values.T], axis=1)
    return uniq, sums / np.bincount(inverse)[:, None]


@st.composite
def voxel_cases(draw):
    """One point or up to 200, negative and fractional, part of them snapped
    to integers and a third repeating the first point, so cells are shared;
    a voxel size; 8-bit colours or float features."""
    n = draw(st.one_of(st.just(1), st.integers(2, 200)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extent = draw(st.sampled_from([0.5, 3.0, 40.0, 1e4]))
    positions = r.uniform(-extent, extent, (n, 3))
    snap = r.random(n) < draw(st.floats(0, 1))
    positions[snap] = np.round(positions[snap])
    positions[r.integers(0, n, n // 3)] = positions[0]
    size = draw(st.sampled_from([0.1, 0.5, 1.0, 1.7, 4.0]))
    if draw(st.booleans()):
        values = r.integers(0, 256, (n, 3)).astype(np.uint8)
    else:
        values = r.normal(size=(n, draw(st.integers(1, 4))))
    return positions, size, values


@settings(max_examples=200, deadline=None)
@given(voxel_cases())
def test_voxel_means_equals_the_unique_rows_version(case):
    got, want = pcio.voxel_means(*case), _voxel_means_by_unique(*case)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Bounding box
# ---------------------------------------------------------------------------


def test_unit_cube_diagonal():
    cloud = PointCloud([[0, 0, 0], [1, 1, 1]], [[0, 0, 0], [1, 1, 1]])
    box = bounding_box(cloud)
    assert box.diagonal == pytest.approx(np.sqrt(3.0))
    assert box.max_side == 1.0


def test_single_point_box_degenerate():
    cloud = PointCloud([[2.0, 3.0, 4.0]], [[0, 0, 0]])
    box = bounding_box(cloud)
    assert box.diagonal == 0.0
    assert box.max_side == 0.0


def test_box_matches_linear_scan(rng):
    cloud = random_cloud(rng, n=100)
    box = bounding_box(cloud)
    lo = np.array([min(cloud.positions[:, a]) for a in range(3)])
    hi = np.array([max(cloud.positions[:, a]) for a in range(3)])
    np.testing.assert_array_equal(box.min_corner, lo)
    np.testing.assert_array_equal(box.max_corner, hi)


# ---------------------------------------------------------------------------
# Spatial index
# ---------------------------------------------------------------------------


def test_knn_self_query(rng):
    cloud = random_cloud(rng, n=50)
    index = SpatialIndex.from_cloud(cloud)
    ids, dists = index.k_nearest(cloud.positions[17], 1)
    assert ids[0] == 17
    assert dists[0] == 0.0


def test_knn_k_equals_n(rng):
    cloud = random_cloud(rng, n=30)
    index = SpatialIndex.from_cloud(cloud)
    ids, dists = index.k_nearest(np.zeros(3), len(cloud))
    assert sorted(ids) == list(range(len(cloud)))
    assert np.all(np.diff(dists) >= 0)


def test_knn_out_of_range_k(rng):
    index = SpatialIndex.from_cloud(random_cloud(rng, n=10))
    with pytest.raises(ValueError):
        index.k_nearest(np.zeros(3), 0)
    with pytest.raises(ValueError):
        index.k_nearest(np.zeros(3), 11)


def _brute_knn(positions, query, k):
    d = np.linalg.norm(positions - query, axis=1)
    order = np.lexsort((np.arange(len(positions)), d))
    return order[:k]


def test_knn_matches_exhaustive_search(rng):
    cloud = random_cloud(rng, n=200)
    index = SpatialIndex.from_cloud(cloud)
    for _ in range(50):
        q = rng.uniform(-5, 55, 3)
        ids, _ = index.k_nearest(q, 5)
        np.testing.assert_array_equal(ids, _brute_knn(cloud.positions, q, 5))


def test_knn_tie_break_by_id_on_grid():
    # symmetric grid: many exact ties; the lower id must win
    pts = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)],
                   dtype=float)
    cloud = PointCloud(pts, np.zeros_like(pts))
    index = SpatialIndex.from_cloud(cloud)
    ids, dists = index.k_nearest(np.array([1.0, 1.0, 1.0]), 7)
    assert ids[0] == 13  # the center itself
    # six face neighbors tie at distance 1; ids ascending
    assert list(dists[1:]) == [1.0] * 6
    assert list(ids[1:]) == sorted(ids[1:])
    nearest_id, _ = index.nearest(np.array([[1.0, 1.0, 1.0]]))
    assert nearest_id[0] == 13


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10_000))
def test_knn_property_vs_exhaustive(n, seed):
    r = np.random.default_rng(seed)
    pts = np.floor(r.uniform(0, 8, (n, 3)) * 2) / 2  # coarse grid forces ties
    cloud = PointCloud(pts, np.zeros((n, 3)))
    index = SpatialIndex.from_cloud(cloud)
    k = int(r.integers(1, n + 1))
    q = r.uniform(0, 8, 3)
    ids, _ = index.k_nearest(q, k)
    np.testing.assert_array_equal(ids, _brute_knn(pts, q, k))


# ---------------------------------------------------------------------------
# Normal estimation
# ---------------------------------------------------------------------------


def test_normals_planar_grid():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(100)], axis=1)
    cloud = PointCloud(pts, np.zeros((100, 3)))
    with_normals, degenerate = estimate_normals(cloud, k=8)
    assert not degenerate.any()
    dots = np.abs(with_normals.normals @ np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(dots, 1.0, atol=1e-6)


def test_normals_sphere_point_outward():
    # Fibonacci sphere: uniform sampling, analytic normals = radial directions
    n = 400
    i = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    v = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    cloud = PointCloud(v * 10.0, np.zeros((n, 3)))
    with_normals, degenerate = estimate_normals(cloud, k=8)
    assert not degenerate.any()
    dots = np.einsum("ni,ni->n", with_normals.normals, v)
    assert np.all(dots > 0.9)


def test_normals_coincident_points_flagged():
    pts = np.zeros((3, 3))
    cloud = PointCloud(pts, np.zeros((3, 3)))
    with_normals, degenerate = estimate_normals(cloud, k=3)
    assert degenerate.all()
    np.testing.assert_array_equal(with_normals.normals, [[0, 0, 1]] * 3)


def test_normals_collinear_points_flagged():
    pts = np.stack([np.arange(6.0), np.zeros(6), np.zeros(6)], axis=1)
    cloud = PointCloud(pts, np.zeros((6, 3)))
    _, degenerate = estimate_normals(cloud, k=4)
    assert degenerate.all()


def test_normals_k_out_of_range(rng):
    cloud = random_cloud(rng, n=10)
    with pytest.raises(ValueError):
        estimate_normals(cloud, k=11)
    with pytest.raises(ValueError):
        estimate_normals(cloud, k=2)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 80), st.integers(0, 10_000), st.booleans())
def test_normals_over_the_clouds_own_index_are_byte_equal(n, seed, on_grid):
    r = np.random.default_rng(seed)
    if on_grid:  # distinct integer points: many equal neighbour distances
        cloud = grid_cloud(r, n=n, extent=6)
    else:
        cloud = random_cloud(r, n=n)
    assume(len(cloud) >= 3)
    k = int(r.integers(3, min(len(cloud), 16) + 1))
    plain, plain_degenerate = estimate_normals(cloud, k)
    shared, shared_degenerate = estimate_normals(cloud, k, index=SpatialIndex.from_cloud(cloud))
    assert shared.normals.tobytes() == plain.normals.tobytes()
    assert shared_degenerate.tobytes() == plain_degenerate.tobytes()


def test_normals_reject_an_index_of_another_cloud(rng):
    cloud = random_cloud(rng, n=20)
    other = SpatialIndex.from_cloud(random_cloud(rng, n=21))
    with pytest.raises(ValueError, match="21 points .* 20-point cloud"):
        estimate_normals(cloud, k=8, index=other)


def test_atomic_write_failure_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"previous")
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_write(path, "wb") as f:
            f.write(b"partial new content")
            f.flush()
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]
    with atomic_write(path) as f:
        f.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]


@pytest.mark.parametrize("mode", ["ascii", "binary_le"])
def test_save_ply_failure_mid_write_keeps_previous_file(tmp_path, rng, monkeypatch, mode):
    path = tmp_path / "cloud.ply"
    save_ply(grid_cloud(rng, n=50), path, mode=mode)
    before = path.read_bytes()
    real_open = open

    class FailsAfterHeader:
        """A file whose second write, the one after the PLY header, fails."""

        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self.f.write(data)

    monkeypatch.setattr(pcio, "open", lambda *a, **k: FailsAfterHeader(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_ply(grid_cloud(rng, n=80), path, mode=mode)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cloud.ply"]
