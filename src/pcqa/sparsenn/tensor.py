"""Sparse tensor representation and kernel maps for sub-manifold convolution.

A sparse tensor is a coordinate list (x, y, z, b) plus a feature matrix; a
kernel map lists, per kernel offset, the (input row, output row) pairs that
realize the convolution's gather/scatter. Rows are kept in a canonical
order so identical coordinate sets always produce identical summation
order, independent of input row permutation.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..pcio import PointCloud, voxel_means

__all__ = ["SparseTensor", "KernelMap", "KERNEL_OFFSETS", "voxelize", "build_kernel_map"]

# 3x3x3 kernel offsets in fixed lexicographic order; index CENTRE is (0, 0, 0)
KERNEL_OFFSETS = np.array(
    list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64
)
CENTRE = 13


class SparseTensor:
    """Unique integer coordinates (N, 4) with per-row features (N, C_f)."""

    def __init__(self, coords: np.ndarray, feats: np.ndarray):
        coords = np.asarray(coords, dtype=np.int64)
        feats = np.asarray(feats, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 4:
            raise ValueError(f"coords must be (N, 4), got {coords.shape}")
        if feats.ndim != 2 or feats.shape[0] != coords.shape[0]:
            raise ValueError("feats row count must match coords")
        if coords.shape[0] < 1:
            raise ValueError("sparse tensor must contain at least one site")

        self._mins = coords.min(axis=0)
        self._spans = coords.max(axis=0) - self._mins + 3  # +-1 margin for kernel offsets
        # coordinates 2**63 - 3 or more apart wrap their int64 span to below 3
        if np.any(self._spans < 3) or np.prod(self._spans.astype(np.float64)) >= 2**62:
            raise ValueError("coordinate extent too large to index")
        keys = self._pack(coords)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("coordinate rows must be unique (including batch index)")
        self.coords = coords[order]
        self.feats = np.ascontiguousarray(feats[order])
        self._keys = keys
        self.coords.setflags(write=False)

    def _pack(self, coords: np.ndarray) -> np.ndarray:
        shifted = coords - self._mins + 1
        s = self._spans
        return ((shifted[:, 0] * s[1] + shifted[:, 1]) * s[2] + shifted[:, 2]) * s[3] + shifted[:, 3]

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def n_channels(self) -> int:
        return self.feats.shape[1]

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """Row of each packed key, -1 where unoccupied."""
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[pos] == keys, pos, -1)


class KernelMap:
    """Per-offset (input row, output row) pairs, output rows ascending."""

    def __init__(self, pairs: list[tuple[np.ndarray, np.ndarray]]):
        self.pairs = pairs

    def pair_counts(self) -> list[int]:
        return [len(p[0]) for p in self.pairs]

    @functools.cached_property
    def lower_rows(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The output rows that offsets 0-12 reach, ascending, and each of
        those offsets' output rows as positions among them."""
        hit = np.zeros(len(self.pairs[CENTRE][1]), dtype=bool)  # the centre pairs every site
        for _, out_rows in self.pairs[:CENTRE]:
            hit[out_rows] = True
        at = np.cumsum(hit) - 1
        return np.flatnonzero(hit), [at[out_rows] for _, out_rows in self.pairs[:CENTRE]]


IN_CHANNELS = 3  # the feature width voxelize emits: one per RGB channel


def voxelize(cloud: PointCloud, voxel_size: float = 1.0) -> SparseTensor:
    """Quantize positions to a voxel grid; duplicate sites merge with mean
    features. Features are RGB / 255 - 0.5 per channel; the batch column is 0."""
    if voxel_size <= 0:
        raise ValueError("voxel size must be positive")
    feats = cloud.colors.astype(np.float64) / 255.0 - 0.5
    uniq, merged = voxel_means(cloud.positions, voxel_size, feats)
    return SparseTensor(np.pad(uniq, ((0, 0), (0, 1))), merged)


def build_kernel_map(tensor: SparseTensor) -> KernelMap:
    """Sub-manifold kernel map: output sites equal input sites; for each
    offset i the pairs are (row of u+i, row of u) over occupied u+i."""
    # packing is linear and every u+i lies in the padded box: key(u+i) = key(u) + delta(i)
    deltas = tensor._pack(np.pad(KERNEL_OFFSETS[:CENTRE], ((0, 0), (0, 1))) + tensor._mins - 1)
    in_rows = tensor._rows(tensor._keys + deltas[:, None])
    half = [(rows[ok], np.flatnonzero(ok)) for rows, ok in zip(in_rows, in_rows >= 0)]
    # offset 26 - i is -(offset i): v = u + i pairs (row of u, row of v) there, and
    # the rows of v ascend with those of u because key(v) = key(u) + delta(i)
    centre = np.arange(len(tensor))
    return KernelMap(half + [(centre, centre)] + [(o, i) for i, o in reversed(half)])
