"""Point cloud data model, PLY I/O, spatial indexing and normal estimation.

Positions are kept as float64 internally regardless of the on-disk precision
so that metric arithmetic downstream stays stable.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "BoundingBox",
    "SpatialIndex",
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
    """N points with XYZ positions, 8-bit RGB colors and optional unit normals."""

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
        col_int = np.asarray(col, dtype=np.int64)
        if np.any(col != col_int):
            raise ValueError("color components must be integers")
        if col_int.min() < 0 or col_int.max() > 255:
            raise ValueError("color components must lie in [0, 255]")
        col8 = np.ascontiguousarray(col_int.astype(np.uint8))
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

    def with_positions(self, positions: np.ndarray) -> "PointCloud":
        return dataclasses.replace(self, positions=positions, normals=None)

    def with_colors(self, colors: np.ndarray) -> "PointCloud":
        return dataclasses.replace(self, colors=colors)

    def with_normals(self, normals: np.ndarray) -> "PointCloud":
        return dataclasses.replace(self, normals=normals)


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


def voxel_means(
    positions: np.ndarray, size: float, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Occupied cells of a grid of side `size` (int64, sorted) and the mean
    of the `values` rows that fall in each cell."""
    cells = np.floor(positions / size).astype(np.int64)
    order = np.lexsort(cells.T[::-1])  # rows by column 0, then 1, then 2
    ordered = cells[order]
    first = np.ones(len(cells), dtype=bool)  # the first row of each cell in `ordered`
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(cells), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    uniq = ordered[first]
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
        parts = line.split()
        if parts[0] == "format":
            if parts[1] == "ascii":
                fmt = "ascii"
            elif parts[1] == "binary_little_endian":
                fmt = "binary_le"
            else:
                raise PlyError(f"unsupported PLY format '{parts[1]}'")
        elif parts[0] == "element":
            if parts[1] == "vertex":
                vertex_count = int(parts[2])
                in_vertex = True
            else:
                in_vertex = False
        elif parts[0] == "property" and in_vertex:
            if parts[1] == "list":
                raise PlyError("list properties are not supported on vertices")
            ptype, pname = parts[1], parts[2]
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
        if fmt == "binary_le":
            dtype = _record_dtype(props)
            body = f.read(dtype.itemsize * n)
            if len(body) != dtype.itemsize * n:
                raise PlyError("truncated body")
            rec = np.frombuffer(body, dtype=dtype, count=n)
        else:
            try:
                with warnings.catch_warnings():  # blank lines are skipped, not counted
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(f, max_rows=n, usecols=range(len(props)), ndmin=2,
                                      comments=None)
            except ValueError as exc:
                raise PlyError(f"truncated or non-numeric body: {exc}") from None
            if len(rows) < n:
                raise PlyError(f"truncated body: {len(rows)} of {n} vertex rows")
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
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            missing = sorted(required - set(reader.fieldnames or ()))
            raise ValueError(f"{name} CSV missing columns: {', '.join(missing)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if None in row.values():  # DictReader pads a short row with None
                raise ValueError(f"{where}: row has fewer fields than the header")
            yield where, row


def save_ply(
    cloud: PointCloud,
    path: str | Path,
    mode: str = "binary_le",
    coord_dtype: str = "float",
) -> None:
    """Write the cloud as PLY; re-loadable by :func:`load_ply`.

    mode is 'ascii' or 'binary_le'. coord_dtype 'float' matches the
    conventional MPEG layout; 'double' preserves float64 positions
    bit-exactly in binary mode.
    """
    if mode not in ("ascii", "binary_le"):
        raise ValueError(f"unknown mode '{mode}'")
    if coord_dtype not in ("float", "double"):
        raise ValueError(f"coord_dtype must be 'float' or 'double', got '{coord_dtype}'")
    props = [(name, coord_dtype) for name in _XYZ] + [(name, "uchar") for name in _RGB]
    rec = np.empty(len(cloud), dtype=_record_dtype(props))
    for (name, _), column in zip(props, [*cloud.positions.T, *cloud.colors.T]):
        rec[name] = column
    fmt_line = "ascii 1.0" if mode == "ascii" else "binary_little_endian 1.0"
    header = (f"ply\nformat {fmt_line}\nelement vertex {len(cloud)}\n"
              + "".join(f"property {ptype} {name}\n" for name, ptype in props)
              + "end_header\n")
    with atomic_write(path, "wb") as f:
        f.write(header.encode("ascii"))
        if mode == "binary_le":
            f.write(rec.tobytes())
        else:
            digits = 9 if coord_dtype == "float" else 17
            np.savetxt(f, rec, fmt=[f"%.{digits}g"] * 3 + ["%d"] * 3)


# ---------------------------------------------------------------------------
# Spatial index
# ---------------------------------------------------------------------------


class SpatialIndex:
    """k-d tree over one cloud's positions with deterministic tie handling.

    Ties at equal distance are broken by the lower point id so that every
    downstream correspondence is reproducible.
    """

    def __init__(self, positions: np.ndarray):
        pts = np.asarray(positions, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError("positions must be a non-empty (N, 3) array")
        self._points = pts
        self._tree = cKDTree(pts)

    @classmethod
    def from_cloud(cls, cloud: PointCloud) -> "SpatialIndex":
        return cls(cloud.positions)

    def __len__(self) -> int:
        return self._points.shape[0]

    def k_nearest(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and distances of the k nearest points, sorted by (distance, id)."""
        n = len(self)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range [1, {n}]")
        query = np.asarray(query, dtype=np.float64).reshape(3)
        kk = min(n, k + 16)
        while True:
            dists, ids = self._tree.query(query, k=kk)
            dists = np.atleast_1d(dists)
            ids = np.atleast_1d(ids)
            # all candidates tied with the k-th smallest must be present
            if kk == n or dists[-1] > dists[k - 1]:
                break
            kk = min(n, kk * 2)
        order = np.lexsort((ids, dists))
        return ids[order][:k], dists[order][:k]

    def nearest(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized 1-NN of an (M, 3) query array, with the (distance, id)
        tie rule per query row."""
        queries = np.asarray(queries, dtype=np.float64)
        n = len(self)
        k0 = min(n, 4)
        dists, ids = self._tree.query(queries, k=k0)
        if k0 == 1:
            dists = dists[:, None]
            ids = ids[:, None]
        best_d = dists[:, 0].copy()
        tied = dists == best_d[:, None]
        # lower id wins among exact distance ties
        id_pool = np.where(tied, ids, n)
        best_i = id_pool.min(axis=1)
        unresolved = np.flatnonzero((k0 < n) & tied.all(axis=1))
        for row in unresolved:
            rid, _ = self.k_nearest(queries[row], 1)
            best_i[row] = rid[0]
        return best_i, best_d

    def neighborhoods(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Plain batched kNN ids (no tie post-processing), shape (M, k)."""
        n = len(self)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range [1, {n}]")
        _, ids = self._tree.query(np.atleast_2d(queries), k=k)
        if k == 1:
            ids = ids[:, None]
        return ids


# ---------------------------------------------------------------------------
# Normal estimation
# ---------------------------------------------------------------------------


def estimate_normals(
    cloud: PointCloud, k: int = DEFAULT_NORMAL_K, index: SpatialIndex | None = None
) -> tuple[PointCloud, np.ndarray]:
    """PCA plane-fit normals from each point's k-neighborhood (self included).

    `index`, if given, must be the cloud's own SpatialIndex; it saves
    building a second tree over the same positions.

    The normal is the eigenvector of the smallest covariance eigenvalue,
    oriented away from the neighborhood centroid. Degenerate neighborhoods
    (coincident or collinear points) receive the default normal (0, 0, 1)
    and are flagged in the returned boolean mask.
    """
    n = len(cloud)
    if not 3 <= k <= n:
        raise ValueError(f"k={k} out of range [3, {n}]")
    if index is None:
        index = SpatialIndex.from_cloud(cloud)
    elif len(index) != n:
        raise ValueError(f"index over {len(index)} points does not belong to a {n}-point cloud")
    nbr_ids = index.neighborhoods(cloud.positions, k)  # (N, k)
    nbrs = cloud.positions[nbr_ids]  # (N, k, 3)
    centroids = nbrs.mean(axis=1)  # (N, 3)
    centered = nbrs - centroids[:, None, :]
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    normals = eigvecs[:, :, 0].copy()

    scale = np.maximum(eigvals[:, 2], 1e-300)
    degenerate = (eigvals[:, 1] <= 1e-12 * scale) | (eigvals[:, 2] <= 1e-30)

    # orient away from the neighborhood centroid; canonical sign when ambiguous
    outward = np.einsum("ni,ni->n", normals, cloud.positions - centroids)
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
    return cloud.with_normals(normals), degenerate
