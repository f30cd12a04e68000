import hashlib
import inspect
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pcqa import frmetrics as fr, pcio
from pcqa.colors import rgb_to_ycbcr
from pcqa.pcio import (
    DEFAULT_NORMAL_K, PointCloud, PlyError, SpatialIndex, atomic_write, bounding_box,
    estimate_normals, load_ply, save_ply,
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


@pytest.mark.parametrize("value, match", [
    (np.nan, "integers"), (np.inf, r"\[0, 255\]"), (-np.inf, r"\[0, 255\]"),
    (1e30, r"\[0, 255\]"), (-1e30, r"\[0, 255\]"),
], ids=["nan", "inf", "minus-inf", "huge", "minus-huge"])
def test_cloud_refuses_a_colour_that_the_integer_cast_cannot_hold(value, match):
    # checked before the cast, which would warn (an error under pytest)
    with pytest.raises(ValueError, match=f"color components must .*{match}"):
        PointCloud(np.zeros((2, 3)), [[0, 0, 0], [1, value, 2]])


def test_cloud_rejects_empty():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))


def test_cloud_rejects_non_unit_normals():
    with pytest.raises(ValueError, match="unit length"):
        PointCloud(np.zeros((1, 3)), [[1, 2, 3]], normals=[[0.5, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------


VERTEX_PROPS = ("property float x\nproperty float y\nproperty float z\n"
                "property uchar red\nproperty uchar green\nproperty uchar blue\n")


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
    save_ply(cloud, path)
    assert b"element vertex 1" in path.read_bytes()
    again = load_ply(path)
    assert len(again) == 1


def _ascii_ply(cloud, coord="float"):
    """ASCII PLY text of a cloud as another tool writes it; the shortest
    decimal of each float64 coordinate reads back bit for bit."""
    rows = [" ".join(map(repr, [*xyz, *rgb])) + "\n"
            for xyz, rgb in zip(cloud.positions.tolist(), cloud.colors.tolist())]
    return (f"ply\nformat ascii 1.0\nelement vertex {len(cloud)}\n"
            + VERTEX_PROPS.replace("float", coord) + "end_header\n" + "".join(rows))


@pytest.mark.parametrize("mode", ["ascii", "binary_le"])
def test_roundtrip_float32_grid(tmp_path, rng, mode):
    # float-precision storage: bit exact when inputs are f32 representable;
    # save_ply writes binary only, so the ASCII file is written as text
    for trial in range(20):
        cloud = grid_cloud(rng, n=50)
        path = tmp_path / f"{mode}_{trial}.ply"
        if mode == "ascii":
            path.write_text(_ascii_ply(cloud))
        else:
            save_ply(cloud, path)
        back = load_ply(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        np.testing.assert_array_equal(back.colors, cloud.colors)


def test_roundtrip_binary_double_bit_exact(tmp_path, rng):
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex 64\n"
              + VERTEX_PROPS.replace("float", "double") + "end_header\n")
    record = np.dtype([(name, "<f8") for name in "xyz"]
                      + [(name, "u1") for name in ("red", "green", "blue")])
    for trial in range(20):
        cloud = random_cloud(rng, n=64)
        rec = np.empty(64, dtype=record)
        for name, column in zip(record.names, [*cloud.positions.T, *cloud.colors.T]):
            rec[name] = column
        path = tmp_path / f"d{trial}.ply"
        path.write_bytes(header.encode("ascii") + rec.tobytes())
        back = load_ply(path)
        assert np.array_equal(back.positions, cloud.positions)  # bit exact
        np.testing.assert_array_equal(back.colors, cloud.colors)


def test_roundtrip_ascii_close(tmp_path, rng):
    cloud = random_cloud(rng, n=100)
    path = tmp_path / "a.ply"
    path.write_text(_ascii_ply(cloud, coord="double"))
    back = load_ply(path)
    assert np.array_equal(back.positions, cloud.positions)  # the text holds every bit
    np.testing.assert_array_equal(back.colors, cloud.colors)


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
    save_ply(cloud, path)
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


@pytest.mark.parametrize("bad_line, match", [
    ("format", "no format"),
    ("element", "no element name"),
    ("element vertex", "vertex count must be a non-negative int"),
    ("element vertex abc", "vertex count must be a non-negative int"),
    ("element vertex -3", "vertex count must be a non-negative int"),
    ("property float", "a property needs a type and a name"),
], ids=["format-without-value", "element-without-name", "vertex-without-count",
        "non-numeric-count", "negative-count", "property-without-name"])
def test_malformed_header_line_errors_naming_the_line(tmp_path, bad_line, match):
    lines = ["ply", "format ascii 1.0", "element vertex 1",
             "property float x", "property float y", "property float z",
             "property uchar red", "property uchar green", "property uchar blue",
             "end_header", "0 0 0 1 2 3"]
    keyword = bad_line.split()[0]
    at = next(i for i, ln in enumerate(lines) if ln.startswith(keyword))
    lines.insert(at, bad_line)  # before the first good line of its kind
    path = tmp_path / "bad.ply"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PlyError, match=f"malformed header line '{bad_line}': {match}"):
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
    ("0 0 0 1 2 3\n1 1 1 nan 5 6\n", ValueError, "color components must be integers"),
    ("0 0 0 1 2 3\n1 1 1 inf 5 6\n", ValueError, r"color components must lie in \[0, 255\]"),
    ("0 0 0 1 2 3\n1 1 1 -inf 5 6\n", ValueError, r"color components must lie in \[0, 255\]"),
    ("0 0 0 1 2 3\n1 1 1 1e30 5 6\n", ValueError, r"color components must lie in \[0, 255\]"),
    ("0 0 0 1 2 3\n1 1 1 1e400 5 6\n", ValueError, r"color components must lie in \[0, 255\]"),
], ids=["fractional-colour", "negative-colour", "colour-256", "short-row", "missing-row",
        "non-numeric-token", "nan-colour", "inf-colour", "minus-inf-colour", "huge-colour",
        "overflowing-colour"])
def test_bad_ascii_body_errors(tmp_path, body, error, match):
    path = tmp_path / "bad.ply"
    path.write_text(ASCII_HEADER + body)
    with pytest.raises(error, match=match):
        load_ply(path)


_HOSTILE_TOKENS = (b"nan", b"inf", b"1e400", b"256", b"-1", b"3.5", b"", b"list", b"face")


def _mutate(data: bytes, draw) -> bytes:
    """1-4 mutations of `data`: a byte flip, a truncation, a duplicated
    span or a whitespace-separated token swapped for a hostile one."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "truncate", "duplicate", "token"]))
        if kind == "token":
            tokens = re.split(rb"(\s+)", data)  # the separators at the odd positions
            tokens[draw(st.sampled_from(range(0, len(tokens), 2)))] = draw(
                st.sampled_from(_HOSTILE_TOKENS))
            data = b"".join(tokens)
        elif data:
            i = draw(st.integers(0, len(data) - 1))
            if kind == "flip":
                data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
            elif kind == "truncate":
                data = data[:i]
            else:
                j = draw(st.integers(i, len(data)))
                data = data[:j] + data[i:j] + data[j:]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["ascii", "binary_le"]), st.data())
def test_a_mutated_ply_loads_or_raises_a_value_error(fuzz_dir, mode, data):
    cloud = PointCloud([[0.0, 0.0, 0.0], [1.5, 2.0, 3.0], [4.0, 5.0, 6.25]],
                       [[0, 1, 2], [250, 251, 255], [7, 8, 9]])
    path = fuzz_dir / "mutated.ply"
    if mode == "ascii":
        path.write_text(_ascii_ply(cloud))
    else:
        save_ply(cloud, path)
    path.write_bytes(_mutate(path.read_bytes(), data.draw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is an escape too
        try:
            assert isinstance(load_ply(path), PointCloud)
        except ValueError:  # PlyError is one
            pass


def test_ascii_body_ignores_blank_lines_and_extra_columns(tmp_path):
    path = tmp_path / "a.ply"
    path.write_text(ASCII_HEADER + "0 0 0 1 2 3 9\n\n1 1 1 4 5 6\nnot a vertex\n")
    cloud = load_ply(path)
    np.testing.assert_array_equal(cloud.positions, [[0, 0, 0], [1, 1, 1]])
    np.testing.assert_array_equal(cloud.colors, [[1, 2, 3], [4, 5, 6]])


def test_binary_element_before_vertex_errors_naming_it(tmp_path):
    # read from the first byte, the camera's float would become vertex 0's x
    vertices = np.array([(1, 1, 0, 1, 2, 3), (2, 2, 0, 4, 5, 6)],
                        dtype="<f4, <f4, <f4, u1, u1, u1")
    path = tmp_path / "camera.ply"
    path.write_bytes(("ply\nformat binary_little_endian 1.0\nelement camera 1\n"
                      "property float view\nelement vertex 2\n" + VERTEX_PROPS
                      + "end_header\n").encode("ascii")
                     + np.float32(7).tobytes() + vertices.tobytes())
    with pytest.raises(PlyError, match="element 'camera' comes before 'vertex'"):
        load_ply(path)


def test_ascii_element_before_vertex_errors_naming_it(tmp_path):
    path = tmp_path / "face.ply"
    path.write_text("ply\nformat ascii 1.0\nelement face 1\nproperty list uchar int "
                    "vertex_indices\nelement vertex 2\n" + VERTEX_PROPS + "end_header\n"
                    "3 0 1 1\n0 0 0 1 2 3\n1 1 1 4 5 6\n")
    with pytest.raises(PlyError, match="element 'face' comes before 'vertex'"):
        load_ply(path)


def test_elements_after_vertex_still_load(tmp_path):
    path = tmp_path / "mesh.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 2\n" + VERTEX_PROPS
                    + "element face 1\nproperty list uchar int vertex_indices\n"
                    "end_header\n0 0 0 1 2 3\n1 1 1 4 5 6\n3 0 1 1\n")
    cloud = load_ply(path)
    np.testing.assert_array_equal(cloud.positions, [[0, 0, 0], [1, 1, 1]])
    np.testing.assert_array_equal(cloud.colors, [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_vertex_count_past_the_body_errors_naming_count_and_bytes(tmp_path, fmt):
    # 10^12 rows would need terabytes: the bytes after the header bound the claim
    n = 999_999_999_999
    body = (b"0 0 0 1 2 3\n" if fmt == "ascii"
            else np.zeros(1, dtype="<f4, <f4, <f4, u1, u1, u1").tobytes())
    path = tmp_path / "huge.ply"
    path.write_bytes(f"ply\nformat {fmt} 1.0\nelement vertex {n}\n{VERTEX_PROPS}"
                     "end_header\n".encode("ascii") + body)
    with pytest.raises(PlyError, match=f"truncated body: .*{n}.* {len(body)} "):
        load_ply(path)


def test_ascii_body_of_the_fewest_bytes_its_rows_can_take_loads(tmp_path):
    # 2 bytes per property and row, less the last newline: the bound is tight
    path = tmp_path / "tight.ply"
    path.write_text(ASCII_HEADER + "0 0 0 1 2 3\n1 1 1 4 5 6")
    np.testing.assert_array_equal(load_ply(path).colors, [[1, 2, 3], [4, 5, 6]])


# SHA-256 of what save_ply writes for one seeded cloud; the id names the layout
@pytest.mark.parametrize("sha256", [
    "fbe80569f7d9be0ec93e31059538a60009e46923a3db221847bf4f694395295d",
], ids=["binary_le-float"])
def test_save_ply_bytes_are_pinned(tmp_path, sha256):
    cloud = random_cloud(np.random.default_rng(17), n=300, extent=50.0, jitter=5.0)
    assert cloud.positions.min() < 0  # the pin covers negative coordinates too
    path = tmp_path / "c.ply"
    save_ply(cloud, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


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
    index = SpatialIndex(cloud)
    ids, dists = index.nearest(cloud.positions[17:18])
    assert ids[0] == 17
    assert dists[0] == 0.0


def test_knn_k_equals_n(rng):
    cloud = random_cloud(rng, n=30)
    ids = SpatialIndex(cloud).neighborhoods(np.zeros(3), len(cloud))[0]
    assert sorted(ids) == list(range(len(cloud)))
    assert np.all(np.diff(np.linalg.norm(cloud.positions[ids], axis=1)) >= 0)


def test_knn_out_of_range_k(rng):
    index = SpatialIndex(random_cloud(rng, n=10))
    with pytest.raises(ValueError):
        index.neighborhoods(np.zeros(3), 0)
    with pytest.raises(ValueError):
        index.neighborhoods(np.zeros(3), 11)


def _brute_nearest(positions, queries):
    """Oracle: each query's lowest id among its exact-distance ties."""
    d2 = ((positions[None] - queries[:, None]) ** 2).sum(axis=2)
    return (d2 == d2.min(axis=1, keepdims=True)).argmax(axis=1), np.sqrt(d2.min(axis=1))


def test_knn_matches_exhaustive_search(rng):
    cloud = random_cloud(rng, n=200)
    queries = rng.uniform(-5, 55, (50, 3))
    ids, _ = SpatialIndex(cloud).nearest(queries)
    np.testing.assert_array_equal(ids, _brute_nearest(cloud.positions, queries)[0])


class _CountingTree:
    """A k-d tree stand-in that counts the query rounds."""

    def __init__(self, tree):
        self.tree, self.n, self.rounds = tree, tree.n, 0

    def query(self, *args, **kwargs):
        self.rounds += 1
        return self.tree.query(*args, **kwargs)


def test_knn_tie_break_by_id_on_grid():
    # symmetric grid: many exact ties; the lower id must win
    pts = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)],
                   dtype=float)
    index = SpatialIndex(PointCloud(pts, np.zeros_like(pts)))
    index._tree = tree = _CountingTree(index._tree)
    ids, dists = index.nearest(np.array([[1.0, 1.0, 1.0], [1.5, 1.5, 1.5], [0.5, 1.0, 1.0]]))
    assert tree.rounds == 4  # the cell centre ties 8 ways: 2, 4, then 8 candidates all tie
    # the centre itself; the lowest of 8 cube corners, (1, 1, 1); of 2 face neighbours, (0, 1, 1)
    assert list(ids) == [13, 13, 4]
    assert list(dists) == [0.0, np.sqrt(0.75), 0.5]


@st.composite
def tie_cases(draw):
    """Points on an integer grid, repeated when there are more than the grid
    holds, and half-integer queries: a query at a cell centre ties with up to
    8 corners, more than the first round's 4 candidates. Clouds of 1 and 2
    points included."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 80)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(1, 4))
    pts = r.integers(0, side + 1, (n, 3)).astype(float)
    queries = r.integers(-1, 2 * side + 2, (draw(st.integers(1, 40)), 3)) / 2
    return pts, queries


@settings(max_examples=200, deadline=None)
@given(tie_cases())
def test_knn_property_vs_exhaustive(case):
    pts, queries = case
    ids, dists = SpatialIndex(PointCloud(pts, np.zeros_like(pts))).nearest(queries)
    want_ids, want_dists = _brute_nearest(pts, queries)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(dists, want_dists)


@settings(max_examples=200, deadline=None)
@given(tie_cases(), st.integers(0, 2**32 - 1))
def test_coincident_nearest_is_the_trees_self_query(case, seed):
    # grid points repeat; a signed zero must tie with its unsigned twin
    pts, _ = case
    pts[(pts == 0.0) & (np.random.default_rng(seed).random(pts.shape) < 0.5)] = -0.0
    cloud = PointCloud(pts, np.zeros_like(pts))
    ids = pcio.coincident_twins(cloud.positions, cloud.positions)[0]
    np.testing.assert_array_equal(ids, _brute_nearest(pts, pts)[0])
    np.testing.assert_array_equal(ids, SpatialIndex(cloud).nearest(cloud.positions)[0])


@st.composite
def twin_cases(draw):
    """Two clouds on `tie_cases` grids, points repeated: the second is a
    shuffled subset of the first, a partial overlap (part of the first plus
    points of its own) or drawn on its own. A random part of the zero
    coordinates are -0.0, which must equal +0.0."""
    a, _ = draw(tie_cases())
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    relation = draw(st.sampled_from(["subset", "overlap", "own"]))
    keep = a[r.permutation(len(a))[:r.integers(1, len(a) + 1)]]
    if relation == "subset":
        b = keep
    else:
        own, _ = draw(tie_cases())
        b = own if relation == "own" else r.permutation(np.concatenate([keep, own]))
    for pts in (a, b):
        pts[(pts == 0.0) & (r.random(pts.shape) < 0.5)] = -0.0
    return a, b


@settings(max_examples=200, deadline=None)
@given(twin_cases())
def test_coincident_twins_are_the_exact_matches_of_search(case):
    a, b = case
    a_twins, b_twins = pcio.coincident_twins(a, b)
    for queries, targets, twins in ((a, b, a_twins), (b, a, b_twins)):
        want, dists = _brute_nearest(targets, queries)
        tree = SpatialIndex(PointCloud(targets, np.zeros_like(targets))).nearest(queries)[0]
        has = dists == 0.0
        np.testing.assert_array_equal(twins[has], want[has])
        np.testing.assert_array_equal(twins[has], tree[has])
        np.testing.assert_array_equal(twins[~has], -1)


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
    # a cloud whose tree served a query first, against a fresh copy's
    cloud.index.nearest(cloud.positions[:1])
    shared, shared_degenerate = estimate_normals(cloud, k)
    assert shared.index is cloud.index
    fresh, fresh_degenerate = estimate_normals(PointCloud(cloud.positions.copy(), cloud.colors), k)
    assert shared.normals.tobytes() == fresh.normals.tobytes()
    assert shared_degenerate.tobytes() == fresh_degenerate.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 80), st.integers(0, 10_000), st.booleans())
def test_normals_at_rows_are_the_full_estimates_rows_bit_for_bit(n, seed, on_grid):
    # each row's neighbourhood, mean, covariance and eigensolve must not
    # depend on which other rows are estimated with it
    r = np.random.default_rng(seed)
    cloud = grid_cloud(r, n=n, extent=6) if on_grid else random_cloud(r, n=n)
    assume(len(cloud) >= 3)
    k = int(r.integers(3, min(len(cloud), 16) + 1))
    full, full_degenerate = estimate_normals(cloud, k)
    m = len(cloud)
    for rows in (np.array([], dtype=np.intp), r.integers(0, m, 1), r.choice(m, 2, replace=False),
                 r.choice(m, r.integers(1, m + 1), replace=False), np.arange(m)):
        normals, degenerate = estimate_normals(cloud, k, rows=rows)
        assert normals.shape == (len(rows), 3)
        assert normals.tobytes() == full.normals[rows].tobytes()
        assert degenerate.tobytes() == full_degenerate[rows].tobytes()


# ---------------------------------------------------------------------------
# A cloud's own tree
# ---------------------------------------------------------------------------


def test_a_cloud_builds_its_tree_once_and_copies_with_its_positions_keep_it(rng, monkeypatch):
    builds = []
    build = SpatialIndex.__init__

    def counted(self, cloud):
        builds.append(len(cloud))
        build(self, cloud)
    monkeypatch.setattr(SpatialIndex, "__init__", counted)
    cloud = random_cloud(rng, n=40)
    assert builds == []  # built on first use only
    ids, _ = cloud.index.nearest(cloud.positions[:3])
    with_normals, _ = estimate_normals(cloud, k=8)
    assert builds == [40] and list(ids) == [0, 1, 2]
    assert with_normals.index is cloud.index
    assert with_normals.with_colors(255 - cloud.colors).index is cloud.index
    assert cloud.with_normals(with_normals.normals).index is cloud.index
    moved = with_normals.with_positions(cloud.positions[::-1])
    assert moved.index is not cloud.index and builds == [40, 40]
    assert list(moved.index.nearest(cloud.positions[:3])[0]) == [39, 38, 37]


def test_derived_data_is_built_once_and_never_carried_to_a_changed_copy(rng, monkeypatch):
    cloud = random_cloud(rng, n=40)
    ycc, normals = cloud.ycbcr, cloud.plane_normals
    assert ycc is cloud.ycbcr and normals is cloud.plane_normals  # kept
    np.testing.assert_array_equal(ycc, rgb_to_ycbcr(cloud.colors.astype(np.float64)))
    full = estimate_normals(cloud, k=DEFAULT_NORMAL_K)[0].normals
    np.testing.assert_array_equal(normals, full)

    # new colours: the copy converts its own, bit for bit
    c2 = 255 - cloud.colors
    np.testing.assert_array_equal(cloud.with_colors(c2).ycbcr,
                                  rgb_to_ycbcr(c2.astype(np.float64)))
    # new positions: the copy estimates its own normals
    p2 = cloud.positions * np.array([1.0, 2.0, 0.5])
    np.testing.assert_array_equal(
        cloud.with_positions(p2).plane_normals,
        estimate_normals(PointCloud(p2, cloud.colors), k=DEFAULT_NORMAL_K)[0].normals)
    # given normals are returned as they are, with no estimate
    monkeypatch.setattr(pcio, "estimate_normals", None)
    given = np.tile((1.0, 0.0, 0.0), (len(cloud), 1))
    np.testing.assert_array_equal(cloud.with_normals(given).plane_normals, given)
    own = PointCloud(cloud.positions, cloud.colors, given)
    assert own.plane_normals is own.normals


@pytest.mark.parametrize("n", [1, 2])
def test_a_cloud_too_small_for_a_plane_fit_gets_the_default_normal(rng, monkeypatch, n):
    monkeypatch.setattr(pcio, "estimate_normals", None)  # nothing to estimate
    cloud = random_cloud(rng, n=n)
    np.testing.assert_array_equal(cloud.plane_normals, [[0.0, 0.0, 1.0]] * n)


def test_no_function_takes_a_tree_as_an_argument():
    # a tree is only ever its cloud's `index`, and its p2plane normals its
    # `plane_normals`: a second path that lends one, or a flag that asks a
    # loader for them, would have to check that they belong to the cloud
    for f in (fr.score_pair, estimate_normals):
        assert "index" not in inspect.signature(f).parameters, f.__name__
    for path in sorted(Path(pcio.__file__).parent.rglob("*.py")):
        text = path.read_text()
        assert "index=" not in text and "_lazy_index" not in text, path
        assert not re.search(r"\w+: SpatialIndex", text), path
        assert not re.search(r"\bnormals: bool\b", text), path


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


def test_save_ply_failure_mid_write_keeps_previous_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "cloud.ply"
    save_ply(grid_cloud(rng, n=50), path)
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
        save_ply(grid_cloud(rng, n=80), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cloud.ply"]
