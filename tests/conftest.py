import sys
from pathlib import Path

import numpy as np
import pytest

from pcqa.pcio import PointCloud

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from run_demo_pipeline import make_reference as textured_ref  # noqa: E402  (re-exported)


def random_cloud(rng: np.random.Generator, n: int = 200, extent: float = 50.0,
                 jitter: float = 0.0) -> PointCloud:
    """Uniform random positions with random colors."""
    pos = rng.uniform(0, extent, (n, 3))
    if jitter:
        pos += rng.normal(0, jitter, pos.shape)
    col = rng.integers(0, 256, (n, 3))
    return PointCloud(pos, col)


def grid_cloud(rng: np.random.Generator, n: int = 300, extent: int = 60) -> PointCloud:
    """Distinct integer-grid positions (MPEG-style), random colors."""
    pts = np.unique(rng.integers(0, extent, (n * 3, 3)), axis=0)
    rng.shuffle(pts)
    pts = pts[:n]
    col = rng.integers(0, 256, (len(pts), 3))
    return PointCloud(pts.astype(float), col)


def shell_cloud(rng: np.random.Generator, n: int = 200, radius: float = 8.0) -> PointCloud:
    """Surface-like cloud on an integer sphere shell; compact kernel maps."""
    v = rng.normal(size=(n * 4, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = np.unique(np.floor(v * radius).astype(int), axis=0)
    rng.shuffle(pts)
    pts = pts[:n]
    col = rng.integers(0, 256, (len(pts), 3))
    return PointCloud(pts.astype(float), col)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
