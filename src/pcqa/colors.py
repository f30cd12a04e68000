"""Color space conversions shared by the distortion bank and the FR metrics.

YCbCr uses BT.601 full-range coefficients; HSL follows the standard
lightness-based definition. All conversions operate on float arrays.
"""

from __future__ import annotations

import numpy as np

# BT.601 luma weights (full range, sum exactly 1)
KR, KG, KB = 0.299, 0.587, 0.114


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """(N, 3) RGB in [0, 255] floats -> (N, 3) YCbCr, chroma centered at 128."""
    rgb = np.asarray(rgb, dtype=np.float64)
    r, g, b = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    y = KR * r + KG * g + KB * b
    cb = (b - y) / (2.0 * (1.0 - KB)) + 128.0
    cr = (r - y) / (2.0 * (1.0 - KR)) + 128.0
    return np.stack([y, cb, cr], axis=1)


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    ycc = np.asarray(ycc, dtype=np.float64)
    y = ycc[:, 0]
    cb = ycc[:, 1] - 128.0
    cr = ycc[:, 2] - 128.0
    r = y + 2.0 * (1.0 - KR) * cr
    b = y + 2.0 * (1.0 - KB) * cb
    g = (y - KR * r - KB * b) / KG
    return np.stack([r, g, b], axis=1)


def rgb_to_hsl(rgb01: np.ndarray) -> np.ndarray:
    """(N, 3) RGB in [0, 1] -> (N, 3) HSL with hue in degrees [0, 360)."""
    rgb01 = np.asarray(rgb01, dtype=np.float64)
    r, g, b = rgb01[:, 0], rgb01[:, 1], rgb01[:, 2]
    maxc = rgb01.max(axis=1)
    minc = rgb01.min(axis=1)
    chroma = maxc - minc
    light = (maxc + minc) / 2.0

    sat = np.zeros_like(light)
    nz = chroma > 0
    denom = 1.0 - np.abs(2.0 * light[nz] - 1.0)
    sat[nz] = chroma[nz] / np.maximum(denom, 1e-12)

    hue = np.zeros_like(light)
    is_r = nz & (maxc == r)
    is_g = nz & (maxc == g) & ~is_r
    is_b = nz & ~is_r & ~is_g
    hue[is_r] = np.mod((g[is_r] - b[is_r]) / chroma[is_r], 6.0)
    hue[is_g] = (b[is_g] - r[is_g]) / chroma[is_g] + 2.0
    hue[is_b] = (r[is_b] - g[is_b]) / chroma[is_b] + 4.0
    return np.stack([hue * 60.0, sat, light], axis=1)


def hsl_to_rgb(hsl: np.ndarray) -> np.ndarray:
    hsl = np.asarray(hsl, dtype=np.float64)
    h, s, li = hsl[:, 0], hsl[:, 1], hsl[:, 2]
    c = (1.0 - np.abs(2.0 * li - 1.0)) * s
    hp = np.mod(h, 360.0) / 60.0
    x = c * (1.0 - np.abs(np.mod(hp, 2.0) - 1.0))
    z = np.zeros_like(c)
    sector = np.minimum(hp.astype(np.int64), 5)
    sectors = [sector == k for k in range(6)]
    r1 = np.select(sectors, [c, x, z, z, x, c])
    g1 = np.select(sectors, [x, c, c, x, z, z])
    b1 = np.select(sectors, [z, z, x, c, c, x])
    m = li - c / 2.0
    return np.stack([r1 + m, g1 + m, b1 + m], axis=1)


def finalize_colors(values: np.ndarray) -> np.ndarray:
    """Round half-up and crop to the valid [0, 255] color range."""
    return np.clip(np.floor(np.asarray(values, dtype=np.float64) + 0.5), 0, 255).astype(np.int64)
