"""Full-reference quality metrics used for pseudo-MOS generation.

Implements the geometric p2point / p2plane errors with MSE and Hausdorff
pooling in PSNR form, and the luma-weighted PSNRyuv color metric.
Externally computed metric scores (e.g. structural metrics from other
tools) are ingested from CSV and carried alongside.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .distort import REGISTRY
from .pcio import (
    DEFAULT_NORMAL_K, PointCloud, bounding_box, coincident_twins, estimate_normals,
    read_csv_rows,
)

__all__ = [
    "M_P2PO", "M_P2PL", "H_P2PO", "H_P2PL", "PSNR_YUV", "H_PSNR_YUV",
    "BUILTIN_METRICS", "GEOMETRY_METRICS", "PLANE_METRICS", "PSNR_CAP_DB",
    "metric_order_key", "metric_applicable",
    "p2point", "p2plane", "psnr_from_geometry", "psnr_yuv",
    "compute_metric", "score_pair", "ingest_external_scores",
]

M_P2PO = "M-p2po"
M_P2PL = "M-p2pl"
H_P2PO = "H-p2po"
H_P2PL = "H-p2pl"
PSNR_YUV = "PSNRyuv"
H_PSNR_YUV = "H-PSNRyuv"

BUILTIN_METRICS = (M_P2PO, M_P2PL, H_P2PO, H_P2PL, PSNR_YUV, H_PSNR_YUV)
GEOMETRY_METRICS = frozenset({M_P2PO, M_P2PL, H_P2PO, H_P2PL})
PLANE_METRICS = frozenset({M_P2PL, H_P2PL})  # the metrics that need normals

PSNR_CAP_DB = 100.0
_CAP_RATIO = 1e-10  # errors below peak^2 * ratio saturate at the cap


def metric_order_key(metric: str) -> tuple[int, str]:
    """Deterministic ordering: builtins first in canonical order, then names."""
    if metric in BUILTIN_METRICS:
        return (BUILTIN_METRICS.index(metric), "")
    return (len(BUILTIN_METRICS), metric)


def metric_applicable(metric: str, distortion_id: int) -> bool:
    """Geometry metrics are undefined for distortions that keep positions fixed."""
    if metric in GEOMETRY_METRICS:
        return REGISTRY[distortion_id].moves_geometry
    return True


# metric id -> (per-point error, pooling); the geometric errors become PSNR
# against the reference bounding-box diagonal, the YCbCr errors against 255
_METRICS = {
    M_P2PO: ("point", "mse"), H_P2PO: ("point", "hausdorff"),
    M_P2PL: ("plane", "mse"), H_P2PL: ("plane", "hausdorff"),
    PSNR_YUV: ("yuv", "mse"), H_PSNR_YUV: ("yuv", "hausdorff"),
}
_POOLINGS = {"mse": np.mean, "hausdorff": np.max}


def _errors_oneway(nearest: tuple[np.ndarray, np.ndarray], reference: PointCloud,
                   normals: np.ndarray | None, degraded: PointCloud,
                   kinds: set[str]) -> dict[str, np.ndarray]:
    """Each kind's per-point errors of `degraded` against its `nearest`
    `reference` points, given as the (ids, distances) of one
    nearest-neighbour query; the plane errors project on the reference
    `normals`, of which they read only the rows at a nonzero distance."""
    ids, dists = nearest
    errors = {}
    if "point" in kinds:
        errors["point"] = dists**2
    if "plane" in kinds:
        vectors = degraded.positions - reference.positions[ids]
        errors["plane"] = np.einsum("ni,ni->n", vectors, normals[ids]) ** 2
    if "yuv" in kinds:
        errors["yuv"] = (degraded.ycbcr - reference.ycbcr[ids]) ** 2
    return errors


def _nearest(queries: np.ndarray, twins: np.ndarray | None,
             cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """(ids, distances) of each query's nearest neighbour in `cloud`: its
    exact `twins` id (-1: none) at distance 0.0, or else a query of the
    cloud's tree."""
    if twins is None:
        return cloud.index.nearest(queries)
    ids, dists = twins.copy(), np.zeros(len(twins))
    missing = np.flatnonzero(twins < 0)
    if len(missing):
        ids[missing], dists[missing] = cloud.index.nearest(queries[missing])
    return ids, dists


def _normals_read(cloud: PointCloud, nearest: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The normals that the plane errors of `nearest`, (ids, distances)
    into `cloud`, read: its `plane_normals` if they are given or need no
    estimate, or else estimates at just the rows reached at a nonzero
    distance and zeros at the rest. At distance 0 the error is
    (0 * n)^2 = +0.0 for any finite normal n."""
    if cloud.normals is not None or len(cloud) < 3:
        return cloud.plane_normals
    ids, dists = nearest
    rows = np.unique(ids[dists > 0])
    normals = np.zeros((len(cloud), 3))
    if len(rows):
        normals[rows] = estimate_normals(cloud, k=min(DEFAULT_NORMAL_K, len(cloud)),
                                         rows=rows)[0]
    return normals


def _pair_errors(reference: PointCloud, degraded: PointCloud, kinds: set[str],
                 symmetric: bool) -> list[dict[str, np.ndarray]]:
    """Per-point errors of degraded vs reference and, when symmetric, of
    reference vs degraded, from one nearest-neighbour pass per direction.

    A pair with identical positions (a colour-only distortion) and no
    p2plane errors, or whose degraded cloud has fewer points (a distortion
    that drops points), first gets one lookup of each point's exact twin in
    the other cloud; only the points without one are queried in a tree.
    Each cloud owns and keeps its tree, normals and YCbCr colours once
    built (`PointCloud.index`, `plane_normals`, `ycbcr`). The reference's
    normals are estimated in full, the degraded cloud's only at the rows
    that the backward plane errors read."""
    lookup = len(degraded) < len(reference) or (
        "plane" not in kinds and np.array_equal(reference.positions, degraded.positions))
    fwd_twins, bwd_twins = (coincident_twins(degraded.positions, reference.positions)
                            if lookup else (None, None))
    fwd = _nearest(degraded.positions, fwd_twins, reference)
    ref_normals = reference.plane_normals if "plane" in kinds else None
    errors = [_errors_oneway(fwd, reference, ref_normals, degraded, kinds)]
    if symmetric:
        bwd = _nearest(reference.positions, bwd_twins, degraded)
        deg_normals = _normals_read(degraded, bwd) if "plane" in kinds else None
        errors.append(_errors_oneway(bwd, degraded, deg_normals, reference, kinds))
    return errors


def _pool(directions: list[dict[str, np.ndarray]], kind: str, pooling: str) -> np.ndarray:
    """Pool each direction's errors of one kind; the worse direction wins."""
    if pooling not in _POOLINGS:
        raise ValueError(f"unknown pooling '{pooling}'")
    return np.maximum.reduce([_POOLINGS[pooling](d[kind], axis=0) for d in directions])


def p2point(reference: PointCloud, degraded: PointCloud, pooling: str = "mse",
            symmetric: bool = False) -> float:
    """Squared nearest-neighbor distance statistic of degraded vs reference.

    The symmetric form (max over both directions) is what the final metric
    scores use.
    """
    return float(_pool(_pair_errors(reference, degraded, {"point"}, symmetric), "point", pooling))


def p2plane(reference: PointCloud, degraded: PointCloud, pooling: str = "mse",
            symmetric: bool = False) -> float:
    """p2point errors projected on the reference surface normals."""
    return float(_pool(_pair_errors(reference, degraded, {"plane"}, symmetric), "plane", pooling))


def _capped_psnr(peak_sq: float, error: float) -> float:
    if error < peak_sq * _CAP_RATIO:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(peak_sq / error), PSNR_CAP_DB)


def psnr_from_geometry(error: float, reference: PointCloud) -> float:
    """PSNR in dB with peak = reference bounding-box diagonal, capped at 100."""
    if error < 0:
        raise ValueError("error must be non-negative")
    peak = bounding_box(reference).diagonal
    if peak <= 0:
        raise ValueError("zero-extent reference bounding box")
    return _capped_psnr(peak * peak, error)


def _psnr_from_ycc(errors: np.ndarray) -> float:
    psnr = [_capped_psnr(255.0 * 255.0, float(e)) for e in errors]
    return (6.0 * psnr[0] + psnr[1] + psnr[2]) / 8.0


def psnr_yuv(reference: PointCloud, degraded: PointCloud, pooling: str = "mse") -> float:
    """Symmetric luma-weighted color PSNR: (6*Y + Cb + Cr) / 8, capped at 100 dB."""
    return _psnr_from_ycc(_pool(_pair_errors(reference, degraded, {"yuv"}, True), "yuv", pooling))


def score_pair(reference: PointCloud, degraded: PointCloud,
               metrics: tuple[str, ...] = BUILTIN_METRICS) -> dict[str, float]:
    """The requested builtin metrics of one (reference, degraded) pair, all
    from one nearest-neighbour pass per direction. A cloud owns and keeps
    its tree, p2plane normals and YCbCr colours (`PointCloud.index`,
    `plane_normals`, `ycbcr`), so scoring many samples against one reference
    object, as a `pcqa score` worker does with the one cloud it keeps per
    reference path, derives each once.

    The pass searches only what the errors read. When the two clouds have
    identical positions and no p2plane metric is asked for, or the degraded
    cloud has fewer points, each point's lowest-id exact twin in the other
    cloud is found by one sort of both (`pcio.coincident_twins`), at
    distance 0.0, and only the points without one are queried in a k-d
    tree; otherwise each direction is one k-d tree query. The degraded
    cloud's normals are estimated only at the rows that a reference point
    reaches at a nonzero distance. For float32 positions every score is
    bit-identical to that of one tree query per direction with full
    normals (see `pcio.coincident_twins` for the exception)."""
    unknown = [m for m in metrics if m not in _METRICS]
    if unknown:
        raise ValueError(f"unknown builtin metric '{unknown[0]}'")
    if not metrics:
        return {}
    errors = _pair_errors(reference, degraded, {_METRICS[m][0] for m in metrics}, True)
    scores = {}
    for metric in metrics:
        kind, pooling = _METRICS[metric]
        pooled = _pool(errors, kind, pooling)
        scores[metric] = (_psnr_from_ycc(pooled) if kind == "yuv"
                          else psnr_from_geometry(float(pooled), reference))
    return scores


def compute_metric(metric: str, reference: PointCloud, degraded: PointCloud) -> float:
    """Evaluate one builtin metric id on a (reference, degraded) pair."""
    return score_pair(reference, degraded, (metric,))[metric]


def ingest_external_scores(path: str | Path) -> dict[tuple[str, str], float]:
    """Read externally computed scores as {(metric, degraded_id): value};
    values pass through without rescaling."""
    required = {"metric_name", "reference_id", "degraded_id", "value"}
    scores: dict[tuple[str, str], float] = {}
    for where, row in read_csv_rows(Path(path), required, "score"):
        try:
            value = float(row["value"])
        except ValueError:
            raise ValueError(f"{where}: non-numeric value {row['value']!r}") from None
        key = (row["metric_name"], row["degraded_id"])
        if key in scores:
            raise ValueError(f"{where}: duplicate score for (metric, degraded) key {key}")
        if not row["metric_name"]:
            raise ValueError(f"{where}: metric name must be non-empty")
        if not row["reference_id"] or not row["degraded_id"]:
            raise ValueError(f"{where}: provenance ids must be non-empty")
        if not math.isfinite(value):
            raise ValueError(f"{where}: metric value must be finite, got {value}")
        scores[key] = value
    return scores
