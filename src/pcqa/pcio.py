"""Point cloud data model, PLY I/O, spatial indexing and normal estimation.

Positions are kept as float64 internally regardless of the on-disk precision
so that metric arithmetic downstream stays stable.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .colors import rgb_to_ycbcr

__all__ = [
    "PointCloud",
    "BoundingBox",
    "SpatialIndex",
    "coincident_twins",
    "PlyError",
    "load_ply",
    "save_ply",
    "atomic_write",
    "read_csv_rows",
    "bounding_box",
    "voxel_means",
    "estimate_normals",
    "DEFAULT_NORMAL_K",
]

DEFAULT_NORMAL_K = 12


class PlyError(ValueError):
    """Malformed, truncated or unsupported PLY content."""


@dataclass(frozen=True)
class PointCloud:
    """N points with XYZ positions, 8-bit RGB colors and optional unit normals.

    Its k-d tree `index` (shared by every query and normal estimate on
    it), p2plane `plane_normals` and `ycbcr` colours are built on first use
    and kept.
    """

    positions: np.ndarray  # (N, 3) float64
    colors: np.ndarray  # (N, 3) uint8
    normals: np.ndarray | None = None  # (N, 3) float64, unit rows

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        col = np.asarray(self.colors)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if col.shape != pos.shape:
            raise ValueError(
                f"colors shape {col.shape} does not match positions {pos.shape}"
            )
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        # checked before the cast, which would warn on NaN, inf or a huge value
        if np.any(col != np.round(col)):  # NaN too
            raise ValueError("color components must be integers")
        if not (col.min() >= 0 and col.max() <= 255):
            raise ValueError("color components must lie in [0, 255]")
        col8 = np.ascontiguousarray(col.astype(np.uint8))
        nrm = self.normals
        if nrm is not None:
            nrm = np.ascontiguousarray(np.asarray(nrm, dtype=np.float64))
            if nrm.shape != pos.shape:
                raise ValueError("normals shape must match positions")
            lens = np.linalg.norm(nrm, axis=1)
            if np.any(np.abs(lens - 1.0) > 1e-6):
                raise ValueError("normals must be unit length within 1e-6")
            nrm.setflags(write=False)
        # immutable after construction: safe to share across threads
        pos.setflags(write=False)
        col8.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col8)
        object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @functools.cached_property
    def index(self) -> "SpatialIndex":
        return SpatialIndex(self)

    @functools.cached_property
    def plane_normals(self) -> np.ndarray:
        """Its own normals, else (0, 0, 1) below 3 points, else estimated."""
        if self.normals is not None:
            return self.normals
        if len(self) < 3:
            return np.tile((0.0, 0.0, 1.0), (len(self), 1))
        return estimate_normals(self, k=min(DEFAULT_NORMAL_K, len(self)))[0].normals

    @functools.cached_property
    def ycbcr(self) -> np.ndarray:
        return rgb_to_ycbcr(self.colors.astype(np.float64))

    def _same_positions(self, **changes) -> "PointCloud":
        """A copy with `changes` that keeps the positions array, and so
        this cloud's tree if it is built; nothing else built is carried."""
        cloud = dataclasses.replace(self, **changes)
        if "index" in self.__dict__:
            cloud.__dict__["index"] = self.index
        return cloud

    def with_positions(self, positions: np.ndarray) -> "PointCloud":
        return dataclasses.replace(self, positions=positions, normals=None)

    def with_colors(self, colors: np.ndarray) -> "PointCloud":
        return self._same_positions(colors=colors)

    def with_normals(self, normals: np.ndarray) -> "PointCloud":
        return self._same_positions(normals=normals)


@dataclass(frozen=True)
class BoundingBox:
    min_corner: np.ndarray
    max_corner: np.ndarray

    @property
    def side_lengths(self) -> np.ndarray:
        return self.max_corner - self.min_corner

    @property
    def max_side(self) -> float:
        return float(self.side_lengths.max())

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.side_lengths))


def bounding_box(cloud: PointCloud) -> BoundingBox:
    """Componentwise extrema of the positions."""
    return BoundingBox(cloud.positions.min(axis=0), cloud.positions.max(axis=0))


def _equal_row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable lexicographic order of the (N, 3) `rows` (by column 0, then
    1, then 2), and a mask over that order that marks the first row of each
    run of equal rows; within a run the ids ascend."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    return order, first


def voxel_means(
    positions: np.ndarray, size: float, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Occupied cells of a grid of side `size` (int64, sorted) and the mean
    of the `values` rows that fall in each cell.

    A cell index must lie within +-2**62, the range a `SparseTensor` can
    index; a coordinate whose cell does not raises ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked before the cast
        floored = np.floor(positions / size)
    outside = ~(np.abs(floored) <= 2**62)  # inf and NaN too
    if np.any(outside):
        raise ValueError(f"coordinate {float(positions[outside][0])!r} at voxel size "
                         f"{float(size)!r} lies outside the +-2**62 cells a grid can index")
    cells = floored.astype(np.int64)
    order, first = _equal_row_runs(cells)
    inverse = np.empty(len(cells), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    uniq = cells[order[first]]
    sums = np.stack([np.bincount(inverse, weights=column) for column in values.T], axis=1)
    return uniq, sums / np.bincount(inverse)[:, None]


# ---------------------------------------------------------------------------
# PLY serialization
# ---------------------------------------------------------------------------

_PLY_NP_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}
_XYZ = ("x", "y", "z")
_RGB = ("red", "green", "blue")


def _record_dtype(props: list[tuple[str, str]]) -> np.dtype:
    """The little-endian vertex record of a (name, PLY type) property list."""
    return np.dtype([(name, "<" + _PLY_NP_TYPES[ptype]) for name, ptype in props])


def _parse_header(f) -> tuple[str, int, list[tuple[str, str]]]:
    line = f.readline().strip()
    if line != b"ply":
        raise PlyError("not a PLY file (missing 'ply' magic)")
    fmt = None
    vertex_count = None
    properties: list[tuple[str, str]] = []
    in_vertex = False
    while True:
        raw = f.readline()
        if not raw:
            raise PlyError("truncated header (no end_header)")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment"):
            continue
        if line == "end_header":
            break
        keyword, *args = line.split()
        if keyword == "format":
            if not args:
                raise PlyError(f"malformed header line '{line}': no format")
            if args[0] == "ascii":
                fmt = "ascii"
            elif args[0] == "binary_little_endian":
                fmt = "binary_le"
            else:
                raise PlyError(f"unsupported PLY format '{args[0]}'")
        elif keyword == "element":
            if not args:
                raise PlyError(f"malformed header line '{line}': no element name")
            in_vertex = args[0] == "vertex"
            if not in_vertex and vertex_count is None:  # its body would precede the vertices
                raise PlyError(f"element '{args[0]}' comes before 'vertex'; vertex must be "
                               "the first element")
            if in_vertex:
                if len(args) < 2 or not args[1].isdecimal():
                    raise PlyError(f"malformed header line '{line}': vertex count must "
                                   "be a non-negative int")
                vertex_count = int(args[1])
        elif keyword == "property" and in_vertex:
            if len(args) < 2:
                raise PlyError(f"malformed header line '{line}': a property needs a type "
                               "and a name")
            if args[0] == "list":
                raise PlyError("list properties are not supported on vertices")
            ptype, pname = args[:2]
            if ptype not in _PLY_NP_TYPES:
                raise PlyError(f"unknown property type '{ptype}'")
            properties.append((pname, ptype))
    if fmt is None:
        raise PlyError("header missing 'format' line")
    if vertex_count is None:
        raise PlyError("header missing 'element vertex' line")
    if vertex_count == 0:
        raise PlyError("PLY declares zero vertices")
    return fmt, vertex_count, properties


def load_ply(path: str | Path) -> PointCloud:
    """Read an ASCII or binary-little-endian PLY with xyz + rgb vertex data.

    Raises PlyError on malformed headers, missing attributes, type
    mismatches and truncated or non-numeric bodies; the colour values go
    to PointCloud as read, which refuses any that is not an integer in
    [0, 255].
    """
    with open(path, "rb") as f:
        fmt, n, props = _parse_header(f)
        types = dict(props)
        for names, allowed, kind in ((_XYZ, ("f4", "f8"), "float or double"),
                                     (_RGB, ("u1",), "uchar")):
            for name in names:
                if name not in types:
                    raise PlyError(f"missing attribute '{name}'")
                if _PLY_NP_TYPES[types[name]] not in allowed:
                    raise PlyError(f"property '{name}' must be {kind}, got {types[name]}")
        # the count sizes the read below: check it against the bytes that follow the header
        left = os.fstat(f.fileno()).st_size - f.tell()
        if fmt == "binary_le":
            dtype = _record_dtype(props)
            if dtype.itemsize * n > left:
                raise PlyError(f"truncated body: {n} vertices need {dtype.itemsize * n} "
                               f"bytes, but {left} follow the header")
            rec = np.frombuffer(f.read(dtype.itemsize * n), dtype=dtype, count=n)
        else:
            # a row takes at least 2 bytes per property (1 digit, 1 separator),
            # bar the last newline: read (and allocate) no more rows than fit
            fit = (left + 1) // (2 * len(props))
            try:
                with warnings.catch_warnings():  # blank lines are skipped, not counted
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(f, max_rows=min(n, fit), usecols=range(len(props)),
                                      ndmin=2, comments=None)
            except ValueError as exc:
                raise PlyError(f"truncated or non-numeric body: {exc}") from None
            if len(rows) < n:
                raise PlyError(f"truncated body: {len(rows)} of {n} vertex rows; the {left} "
                               f"bytes after the header hold at most {fit}")
            rec = dict(zip([name for name, _ in props], rows.T))
    return PointCloud(positions=np.stack([rec[name] for name in _XYZ], axis=1),
                      colors=np.stack([rec[name] for name in _RGB], axis=1))


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temp file beside `path` and rename it over `path` when the block
    ends without error; otherwise the temp file goes and `path` is untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_csv_rows(path: str | Path, required: set[str], name: str) -> Iterator[tuple[str, dict]]:
    """Yield ("file:line", row) for each data row of a headed CSV that has
    every `required` column; the caller converts the values and prefixes
    its errors with the "file:line". `name` ("rating", "score") names the
    CSV in the missing-column error."""
    with open(path, newline="", encoding="utf-8-sig") as f:  # spreadsheets write a BOM
        reader = csv.DictReader(f)
        try:
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                missing = sorted(required - set(reader.fieldnames or ()))
                raise ValueError(f"{path}: {name} CSV missing columns: {', '.join(missing)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if None in row.values():  # DictReader pads a short row with None
                    raise ValueError(f"{where}: row has fewer fields than the header")
                yield where, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from None


def save_ply(cloud: PointCloud, path: str | Path) -> None:
    """Write the cloud as binary little-endian PLY with float coordinates,
    the conventional MPEG layout; re-loadable by :func:`load_ply`."""
    props = [(name, "float") for name in _XYZ] + [(name, "uchar") for name in _RGB]
    rec = np.empty(len(cloud), dtype=_record_dtype(props))
    for (name, _), column in zip(props, [*cloud.positions.T, *cloud.colors.T]):
        rec[name] = column
    header = (f"ply\nformat binary_little_endian 1.0\nelement vertex {len(cloud)}\n"
              + "".join(f"property {ptype} {name}\n" for name, ptype in props)
              + "end_header\n")
    with atomic_write(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.tobytes())


# ---------------------------------------------------------------------------
# Spatial index
# ---------------------------------------------------------------------------


class SpatialIndex:
    """k-d tree over one cloud's positions with deterministic tie handling.

    Ties at equal distance are broken by the lower point id so that every
    downstream correspondence is reproducible.
    """

    def __init__(self, cloud: PointCloud):
        # SciPy loads with the first tree: only the full-reference stages build one
        from scipy.spatial import cKDTree

        self._tree = cKDTree(cloud.positions)

    def __len__(self) -> int:
        return self._tree.n

    def nearest(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized 1-NN of an (M, 3) query array, with the (distance, id)
        tie rule per query row.

        Each round asks for k candidates, from k = 2. A row whose k
        candidates all tie at one distance goes to the next round with twice
        the k, until a farther candidate shows that no lower id is hidden
        (few rows do: ties at k = 2 are rare off a lattice)."""
        queries = np.asarray(queries, dtype=np.float64)
        n = len(self)
        best_i = np.empty(len(queries), dtype=np.intp)
        best_d = np.empty(len(queries))
        rows, k = np.arange(len(queries)), min(n, 2)
        while len(rows):
            dists, ids = self._tree.query(queries[rows], k=range(1, k + 1))
            tied = dists == dists[:, :1]
            best_d[rows] = dists[:, 0]
            best_i[rows] = np.where(tied, ids, n).min(axis=1)  # lower id wins a tie
            # a row whose k candidates all tie may hide a lower id past the k-th
            rows = rows[(k < n) & tied.all(axis=1)]
            k = min(n, 2 * k)
        return best_i, best_d

    def neighborhoods(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Plain batched kNN ids (no tie post-processing), shape (M, k)."""
        n = len(self)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range [1, {n}]")
        return self._tree.query(np.atleast_2d(queries), k=range(1, k + 1))[1]


def coincident_twins(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of `a`'s lowest id among the rows of `b` at exactly its
    position (-0.0 equal to +0.0), and each row of `b`'s lowest id among the
    rows of `a`; -1 where there is none. One stable sort of both clouds.

    Where a twin exists it is what `SpatialIndex(b).nearest(a)` returns,
    at distance 0.0, wherever distinct positions have a nonzero squared
    distance, as all float32 positions (every PLY this package writes) do.
    Only two positions that differ solely in coordinates below about 1e-146
    in magnitude have a squared distance that underflows to 0: the tree
    ties them and may return the other one.
    """
    n = len(a)
    order, first = _equal_row_runs(np.concatenate([a, b]))  # -0.0 ties +0.0
    run = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    in_a = order < n
    none = len(order)  # above every id: no twin in that run
    lowest_a = np.minimum.reduceat(np.where(in_a, order, none), starts)
    lowest_b = np.minimum.reduceat(np.where(in_a, none, order - n), starts)
    a_twins = np.empty(n, dtype=np.intp)
    b_twins = np.empty(len(b), dtype=np.intp)
    a_twins[order[in_a]] = lowest_b[run[in_a]]
    b_twins[order[~in_a] - n] = lowest_a[run[~in_a]]
    a_twins[a_twins == none] = -1
    b_twins[b_twins == none] = -1
    return a_twins, b_twins


# ---------------------------------------------------------------------------
# Normal estimation
# ---------------------------------------------------------------------------


def estimate_normals(
    cloud: PointCloud, k: int = DEFAULT_NORMAL_K, rows: np.ndarray | None = None,
) -> tuple[PointCloud | np.ndarray, np.ndarray]:
    """PCA plane-fit normals from each point's k-neighborhood (self
    included), found in the cloud's own tree.

    The normal is the eigenvector of the smallest covariance eigenvalue,
    oriented away from the neighborhood centroid. Degenerate neighborhoods
    (coincident or collinear points) receive the default normal (0, 0, 1)
    and are flagged in the returned boolean mask.

    `rows`, if given, are the point ids to estimate at, for a caller that
    reads no others: the result is then the bare (len(rows), 3) normals,
    bit-equal to the full estimate's rows (each row's neighbourhood and
    arithmetic are its own), and the mask covers those rows only.
    """
    n = len(cloud)
    if not 3 <= k <= n:
        raise ValueError(f"k={k} out of range [3, {n}]")
    positions = cloud.positions if rows is None else cloud.positions[rows]
    nbr_ids = cloud.index.neighborhoods(positions, k)  # (M, k)
    nbrs = cloud.positions[nbr_ids]  # (M, k, 3)
    centroids = nbrs.mean(axis=1)  # (M, 3)
    centered = nbrs - centroids[:, None, :]
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    normals = eigvecs[:, :, 0].copy()

    scale = np.maximum(eigvals[:, 2], 1e-300)
    degenerate = (eigvals[:, 1] <= 1e-12 * scale) | (eigvals[:, 2] <= 1e-30)

    # orient away from the neighborhood centroid; canonical sign when ambiguous
    outward = np.einsum("ni,ni->n", normals, positions - centroids)
    flip = outward < 0
    ambiguous = np.abs(outward) <= 1e-12 * np.sqrt(scale)
    if np.any(ambiguous):
        comp = np.argmax(np.abs(normals[ambiguous]), axis=1)
        lead = normals[ambiguous, comp]
        flip[np.flatnonzero(ambiguous)] = lead < 0
    normals[flip] *= -1.0

    lens = np.linalg.norm(normals, axis=1)
    ok = lens > 0
    normals[ok] /= lens[ok, None]
    normals[degenerate] = (0.0, 0.0, 1.0)
    return (cloud.with_normals(normals) if rows is None else normals), degenerate
