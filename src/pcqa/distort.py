"""Deterministic synthesis of the 31-type distortion catalogue.

Native generators cover photometric noise and transforms (ids 1-10, 12-16,
22), geometric noise (17, 18), local patch distortions (19-21), random
down-sampling (11) and octree grid compression (24). Reconstruction and
codec distortions (23, 25-31) run through external-process adapters.

`REGISTRY` is the catalogue: each native row names its generator, a pure
function of (cloud, that level's parameter, rng). The rng is a
counter-based Philox stream keyed by the job seed so batch generation is
reproducible at any parallelism.
"""

from __future__ import annotations

import fcntl
import hashlib
import shlex
import subprocess
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .colors import finalize_colors, rgb_to_hsl, hsl_to_rgb, rgb_to_ycbcr, ycbcr_to_rgb
from .pcio import PointCloud, SpatialIndex, bounding_box, load_ply, save_ply, voxel_means

__all__ = [
    "DistortionSpec",
    "GeneratorInfo",
    "REGISTRY",
    "NATIVE_IDS",
    "EXTERNAL_IDS",
    "DistortionError",
    "AdapterError",
    "AdapterNotConfiguredError",
    "AdapterToolMissingError",
    "AdapterFailedError",
    "AdapterOutputError",
    "AdapterConfig",
    "apply_distortion",
    "external_codec",
    "anchor_boxes",
    "gaussian_snr_sigma",
    "rng_for_spec",
]


class DistortionError(ValueError):
    """Invalid spec or a generator contract violation (e.g. empty output)."""


class AdapterError(RuntimeError):
    """Base for external-codec adapter failures."""


class AdapterNotConfiguredError(AdapterError):
    pass


class AdapterToolMissingError(AdapterError):
    pass


class AdapterFailedError(AdapterError):
    pass


class AdapterOutputError(AdapterError):
    pass


@dataclass(frozen=True)
class DistortionSpec:
    """(distortion id, level, seed); fully determines one degradation."""

    distortion_id: int
    level: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.distortion_id <= 31:
            raise DistortionError(f"distortion_id {self.distortion_id} out of range 1-31")
        if not 1 <= self.level <= 7:
            raise DistortionError(f"level {self.level} out of range 1-7")


@dataclass(frozen=True)
class GeneratorInfo:
    distortion_id: int
    name: str
    category: str  # photometric | geometric | local | compression | external
    level_params: tuple  # exactly 7 per-level entries
    moves_geometry: bool
    generator: Callable | None = None  # (cloud, param, rng); None: external adapter

    def param(self, level: int):
        if not 1 <= level <= 7:
            raise DistortionError(f"level {level} out of range 1-7")
        return self.level_params[level - 1]

    def generate(self, cloud: PointCloud, level: int, rng: np.random.Generator) -> PointCloud:
        """This row's native output at `level`; external rows have none."""
        if self.generator is None:
            raise DistortionError(f"distortion id {self.distortion_id} has no native generator")
        return self.generator(cloud, self.param(level), rng)


_CUM_ANCHORS = (1, 2, 4, 6, 9, 12, 16)  # prefix sums of 1,1,2,2,3,3,4
_ANCHOR_SIDE_FACTOR = 0.3
_LOCAL_OFFSET_FACTOR = 0.05


def _round_count(x: float) -> int:
    return int(np.floor(x + 0.5))


def _neighbor8(cloud: PointCloud) -> np.ndarray:
    """Ids of the 8 nearest other points per point, shape (N, 8)."""
    if len(cloud) < 9:
        raise DistortionError("neighbor-based noise requires at least 9 points")
    index = SpatialIndex.from_cloud(cloud)
    ids = index.neighborhoods(cloud.positions, 9)
    return ids[:, 1:]


def gaussian_snr_sigma(colors: np.ndarray, snr_db: float) -> float:
    """Noise sigma so that signal power / noise power hits the dB target."""
    p_signal = float(np.mean(np.asarray(colors, dtype=np.float64) ** 2))
    return float(np.sqrt(p_signal / 10.0 ** (snr_db / 10.0)))


# ---------------------------------------------------------------------------
# Photometric generators
# ---------------------------------------------------------------------------


def _color_noise(cloud: PointCloud, param: tuple, rng: np.random.Generator) -> PointCloud:
    n = len(cloud)
    colors = cloud.colors.astype(np.float64)
    frac, amp = param
    m = _round_count(frac * n)
    picked = rng.choice(n, size=m, replace=False)
    offsets = rng.uniform(-amp, amp, size=m)
    colors[picked] += offsets[:, None]  # same draw on R, G, B
    return cloud.with_colors(finalize_colors(colors))


def _gaussian_noise(cloud: PointCloud, snr_db: float, rng: np.random.Generator) -> PointCloud:
    sigma = gaussian_snr_sigma(cloud.colors, snr_db)
    colors = cloud.colors + rng.normal(0.0, sigma, size=(len(cloud), 3))
    return cloud.with_colors(finalize_colors(colors))


def _saltpepper_noise(cloud: PointCloud, frac: float, rng: np.random.Generator) -> PointCloud:
    n = len(cloud)
    colors = cloud.colors.astype(np.float64)
    m = _round_count(frac * n)
    picked = rng.choice(n, size=m, replace=False)
    colors[picked] = rng.integers(0, 2, size=m)[:, None] * 255.0
    return cloud.with_colors(finalize_colors(colors))


def _rayleigh_noise(cloud: PointCloud, scale: float, rng: np.random.Generator) -> PointCloud:
    colors = cloud.colors + rng.rayleigh(scale, size=(len(cloud), 3))
    return cloud.with_colors(finalize_colors(colors))


def _gamma_noise(cloud: PointCloud, a: float, rng: np.random.Generator) -> PointCloud:
    n = len(cloud)
    noise = np.zeros((n, 3))
    for _ in range(3):  # sum of B = 3 exponential variates
        noise += -np.log1p(-rng.random(size=(n, 3))) / a
    return cloud.with_colors(finalize_colors(cloud.colors + noise))


def _uniform_noise(cloud: PointCloud, amp: float, rng: np.random.Generator) -> PointCloud:
    colors = cloud.colors + rng.uniform(-amp, amp, size=(len(cloud), 3))
    return cloud.with_colors(finalize_colors(colors))


def _poisson_noise(cloud: PointCloud, lam: float, rng: np.random.Generator) -> PointCloud:
    colors = cloud.colors + rng.poisson(lam, size=(len(cloud), 3))
    return cloud.with_colors(finalize_colors(colors))


def _correlated_noise(cloud: PointCloud, sigma: float, rng: np.random.Generator) -> PointCloud:
    nbr = _neighbor8(cloud)
    draws = rng.normal(0.0, sigma, size=(len(cloud), 3))
    noise = draws[nbr].mean(axis=1)
    std = noise.std(axis=0)
    noise *= sigma / np.maximum(std, 1e-12)
    return cloud.with_colors(finalize_colors(cloud.colors + noise))


def _multiplicative_noise(cloud: PointCloud, var: float, rng: np.random.Generator) -> PointCloud:
    factor = rng.normal(0.0, np.sqrt(var), size=(len(cloud), 3))
    return cloud.with_colors(finalize_colors(cloud.colors * (1.0 + factor)))


def _high_frequency_noise(cloud: PointCloud, var: float, rng: np.random.Generator) -> PointCloud:
    nbr = _neighbor8(cloud)
    draws = rng.normal(0.0, 1.0, size=(len(cloud), 3))
    highpass = draws - draws[nbr].mean(axis=1)
    std = highpass.std(axis=0)
    highpass *= np.sqrt(var) / np.maximum(std, 1e-12)
    colors = cloud.colors + 255.0 * highpass  # variance target lives on the [0,1] scale
    return cloud.with_colors(finalize_colors(colors))


def _quantization(cloud: PointCloud, q: int, rng: np.random.Generator) -> PointCloud:
    out = (cloud.colors.astype(np.int64) // q) * q + q // 2
    return cloud.with_colors(finalize_colors(out))


def _mean_shift(cloud: PointCloud, shift: int, rng: np.random.Generator) -> PointCloud:
    return cloud.with_colors(finalize_colors(cloud.colors.astype(np.float64) + shift))


def _contrast(cloud: PointCloud, gamma: float, rng: np.random.Generator) -> PointCloud:
    out = 255.0 * (cloud.colors.astype(np.float64) / 255.0) ** gamma
    return cloud.with_colors(finalize_colors(out))


def _saturation(cloud: PointCloud, delta: float, rng: np.random.Generator) -> PointCloud:
    hsl = rgb_to_hsl(cloud.colors.astype(np.float64) / 255.0)
    hsl[:, 1] = np.clip(hsl[:, 1] * (1.0 + delta), 0.0, 1.0)
    return cloud.with_colors(finalize_colors(hsl_to_rgb(hsl) * 255.0))


def _luminance(cloud: PointCloud, offset: int, rng: np.random.Generator) -> PointCloud:
    ycc = rgb_to_ycbcr(cloud.colors.astype(np.float64))
    ycc[:, 0] += offset
    return cloud.with_colors(finalize_colors(ycbcr_to_rgb(ycc)))


def _kmeans_palette(colors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    uniq = np.unique(colors, axis=0).astype(np.float64)
    k_eff = min(k, len(uniq))
    centers = uniq[np.sort(rng.choice(len(uniq), size=k_eff, replace=False))]
    pts = colors.astype(np.float64)
    assign = np.zeros(len(pts), dtype=np.int64)
    for _ in range(30):  # Lloyd iterations, or fewer once converged
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k_eff):
            members = pts[new_assign == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        if np.array_equal(new_assign, assign) and np.allclose(new_centers, centers):
            break
        assign, centers = new_assign, new_centers
    return centers


def _palette_spacing(centers: np.ndarray) -> float:
    if len(centers) < 2:
        return 0.0
    d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min(axis=1)).mean())


def _dither_quantization(cloud: PointCloud, k: int, rng: np.random.Generator) -> PointCloud:
    """Dithered k-color palette quantization; the only transform that draws."""
    colors = cloud.colors.astype(np.float64)
    centers = _kmeans_palette(cloud.colors, k, rng)
    q = _palette_spacing(centers)
    dithered = colors + rng.uniform(-q / 2.0, q / 2.0, size=colors.shape)
    d2 = ((dithered[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return cloud.with_colors(finalize_colors(centers[d2.argmin(axis=1)]))


# ---------------------------------------------------------------------------
# Geometric generators
# ---------------------------------------------------------------------------


def _diagonal(cloud: PointCloud) -> float:
    """Bounding-box diagonal, the scale of the per-point position shifts."""
    diag = bounding_box(cloud).diagonal
    if diag <= 0:
        raise DistortionError("zero-extent bounding box")
    return diag


def _gaussian_shifting(cloud: PointCloud, frac: float, rng: np.random.Generator) -> PointCloud:
    sigma = frac * _diagonal(cloud)
    return cloud.with_positions(cloud.positions + rng.normal(0.0, sigma, size=(len(cloud), 3)))


def _uniform_shifting(cloud: PointCloud, param: tuple, rng: np.random.Generator) -> PointCloud:
    n = len(cloud)
    pos = cloud.positions.copy()
    frac, pct = param
    m = _round_count(frac * n)
    picked = rng.choice(n, size=m, replace=False)
    amp = pct * _diagonal(cloud)
    pos[picked] += rng.uniform(-amp, amp, size=(m, 3))
    return cloud.with_positions(pos)


def anchor_boxes(
    cloud: PointCloud, level: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Axis-aligned anchor cube centers and half-side for a local distortion.

    The full 16-center sequence is drawn once so that level L's anchor set
    contains level L-1's under the same rng stream.
    """
    centers, half_side, _ = _anchors(cloud, REGISTRY[19].param(level), rng)
    return centers, half_side


def _anchors(
    cloud: PointCloud, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, float, np.ndarray]:
    """The first `count` anchor centers, their half-side, and the index of
    the first anchor containing each point (-1 if none)."""
    n = len(cloud)
    total = _CUM_ANCHORS[-1]
    if n >= total:
        centers_ids = rng.choice(n, size=total, replace=False)
    else:
        centers_ids = rng.integers(0, n, size=total)
    centers = cloud.positions[centers_ids[:count]]
    half_side = _ANCHOR_SIDE_FACTOR * bounding_box(cloud).max_side / 2.0
    member = np.full(n, -1, dtype=np.int64)
    for j in range(len(centers) - 1, -1, -1):
        inside = np.all(np.abs(cloud.positions - centers[j]) <= half_side, axis=1)
        member[inside] = j
    return centers, half_side, member


def _local_missing(cloud: PointCloud, count: int, rng: np.random.Generator) -> PointCloud:
    _, _, member = _anchors(cloud, count, rng)
    keep = member < 0
    if not keep.any():
        raise DistortionError("fully deleted")
    return PointCloud(cloud.positions[keep], cloud.colors[keep])


def _local_offset(cloud: PointCloud, count: int, rng: np.random.Generator) -> PointCloud:
    _, _, member = _anchors(cloud, count, rng)
    shift = _LOCAL_OFFSET_FACTOR * bounding_box(cloud).max_side
    pos = cloud.positions.copy()
    pos[member >= 0] += shift
    return cloud.with_positions(pos)


def _local_rotation(cloud: PointCloud, param: tuple, rng: np.random.Generator) -> PointCloud:
    count, degrees = param
    centers, _, member = _anchors(cloud, count, rng)
    angle = np.deg2rad(degrees)
    c, s = np.cos(angle), np.sin(angle)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    pos = cloud.positions.copy()
    for j in range(len(centers)):
        sel = member == j
        if sel.any():
            pos[sel] = (pos[sel] - centers[j]) @ rot_x.T + centers[j]
    return cloud.with_positions(pos)


def _downsample(cloud: PointCloud, removed: float, rng: np.random.Generator) -> PointCloud:
    """Keep a uniformly chosen subset of rows."""
    n = len(cloud)
    m = _round_count((1.0 - removed) * n)
    if m < 1:
        raise DistortionError("downsampling would empty the cloud")
    keep = np.sort(rng.choice(n, size=m, replace=False))
    return PointCloud(cloud.positions[keep], cloud.colors[keep])


def _octree(cloud: PointCloud, side: float, rng: np.random.Generator) -> PointCloud:
    """One point per occupied voxel at its center, member colors averaged."""
    voxels, colors = voxel_means(cloud.positions, side, cloud.colors)
    positions = (voxels + 0.5) * side
    return PointCloud(positions, finalize_colors(colors))


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

REGISTRY: dict[int, GeneratorInfo] = {
    info.distortion_id: info
    for info in [
        GeneratorInfo(1, "ColorNoise", "photometric",
                      ((0.10, 10), (0.20, 20), (0.30, 30), (0.40, 40),
                       (0.50, 50), (0.60, 60), (0.70, 70)), False, _color_noise),
        GeneratorInfo(2, "GaussianNoise", "photometric",
                      (13.0, 11.0, 9.0, 7.0, 5.0, 3.0, 1.0), False, _gaussian_noise),
        GeneratorInfo(3, "HighFrequencyNoise", "photometric",
                      (0.001, 0.003, 0.005, 0.0075, 0.01, 0.03, 0.05), False,
                      _high_frequency_noise),
        GeneratorInfo(4, "QuantizationNoise", "photometric",
                      (27, 33, 39, 47, 55, 65, 76), False, _quantization),
        GeneratorInfo(5, "MeanShift", "photometric",
                      (10, 20, 30, 40, 50, 60, 70), False, _mean_shift),
        GeneratorInfo(6, "ContrastDistortion", "photometric",
                      (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7), False, _contrast),
        GeneratorInfo(7, "SaturationDistortion", "photometric",
                      (-0.10, -0.25, -0.40, -0.55, -0.70, -0.85, -1.00), False, _saturation),
        GeneratorInfo(8, "CorrelatedGaussianNoise", "photometric",
                      (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0), False, _correlated_noise),
        GeneratorInfo(9, "MultiplicativeGaussianNoise", "photometric",
                      (1e-4, 3e-4, 5.5e-4, 8e-4, 10.5e-4, 13e-4, 15.5e-4), False,
                      _multiplicative_noise),
        GeneratorInfo(10, "ColorQuantizationDither", "photometric",
                      (24, 16, 12, 8, 6, 4, 2), False, _dither_quantization),
        GeneratorInfo(11, "DownSample", "geometric",
                      (0.15, 0.30, 0.45, 0.60, 0.70, 0.80, 0.90), True, _downsample),
        GeneratorInfo(12, "SaltpepperNoise", "photometric",
                      (0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30), False, _saltpepper_noise),
        GeneratorInfo(13, "RayleighNoise", "photometric",
                      (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0), False, _rayleigh_noise),
        GeneratorInfo(14, "GammaNoise", "photometric",
                      (0.1, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03), False, _gamma_noise),
        GeneratorInfo(15, "UniformNoise", "photometric",
                      (10, 20, 30, 40, 50, 60, 70), False, _uniform_noise),
        GeneratorInfo(16, "PoissonNoise", "photometric",
                      (10, 20, 30, 40, 50, 60, 70), False, _poisson_noise),
        GeneratorInfo(17, "GaussianShifting", "geometric",
                      (0.001, 0.0025, 0.004, 0.0055, 0.007, 0.0085, 0.010), True,
                      _gaussian_shifting),
        GeneratorInfo(18, "UniformShifting", "geometric",
                      ((0.10, 0.005), (0.20, 0.01), (0.30, 0.02), (0.40, 0.03),
                       (0.50, 0.04), (0.60, 0.05), (0.70, 0.07)), True, _uniform_shifting),
        GeneratorInfo(19, "LocalMissing", "local", _CUM_ANCHORS, True, _local_missing),
        GeneratorInfo(20, "LocalOffset", "local", _CUM_ANCHORS, True, _local_offset),
        GeneratorInfo(21, "LocalRotation", "local",  # (anchor count, degrees)
                      tuple(zip(_CUM_ANCHORS, (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0))),
                      True, _local_rotation),
        GeneratorInfo(22, "LumaNoise", "photometric",
                      (20, 50, 70, 90, 110, 130, 150), False, _luminance),
        GeneratorInfo(23, "PoissonReconstruction", "external",
                      (15, 30, 45, 60, 70, 80, 90), True),
        GeneratorInfo(24, "Octree", "compression",
                      (8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0), True, _octree),
        GeneratorInfo(25, "GPCC_losslessG_lossyA", "external",
                      (27, 31, 35, 39, 43, 47, 51), False),
        GeneratorInfo(26, "GPCC_losslessG_nearlosslessA", "external",
                      (10, 16, 22, 28, 34, 40, 46), False),
        GeneratorInfo(27, "GPCC_lossyG_lossyA", "external",
                      ((0.9375, 27), (0.875, 31), (0.75, 35), (0.5, 39),
                       (0.25, 43), (0.125, 47), (0.0625, 51)), True),
        GeneratorInfo(28, "VPCC_lossyG_lossyA", "external",
                      ((16, 22), (20, 27), (24, 32), (28, 37),
                       (32, 42), (36, 47), (40, 51)), True),
        GeneratorInfo(29, "AVS_limitlossyG_lossyA", "external",
                      ((1.14286, 8), (1.33333, 16), (2, 24), (4, 32),
                       (8, 40), (12, 44), (16, 48)), True),
        GeneratorInfo(30, "AVS_losslessG_limitlossyA", "external",
                      (8, 16, 24, 32, 40, 44, 48), False),
        GeneratorInfo(31, "AVS_losslessG_lossyA", "external",
                      (8, 16, 24, 32, 40, 44, 48), False),
    ]
}

NATIVE_IDS = tuple(i for i, g in sorted(REGISTRY.items()) if g.category != "external")
EXTERNAL_IDS = tuple(i for i, g in sorted(REGISTRY.items()) if g.category == "external")


def rng_for_spec(spec: DistortionSpec) -> np.random.Generator:
    """Counter-based stream keyed by (seed, id, level).

    Local distortions drop the level from the key: their anchor sequence
    must nest across levels under the same seed.
    """
    if REGISTRY[spec.distortion_id].category == "local":
        spawn = (spec.distortion_id,)
    else:
        spawn = (spec.distortion_id, spec.level)
    ss = np.random.SeedSequence(
        entropy=spec.seed & 0xFFFFFFFFFFFFFFFF, spawn_key=spawn)
    return np.random.Generator(np.random.Philox(ss))


def apply_distortion(
    cloud: PointCloud,
    spec: DistortionSpec,
    adapters: dict[int, AdapterConfig] | None = None,
) -> PointCloud:
    """Run the REGISTRY row's generator for spec, or its external adapter.

    Bit-identical output for identical (cloud, spec) regardless of thread
    count; external ids additionally require a configured adapter.
    """
    info = REGISTRY[spec.distortion_id]
    if info.generator is not None:
        return info.generate(cloud, spec.level, rng_for_spec(spec))
    out, _ = external_codec(cloud, spec, (adapters or {}).get(spec.distortion_id))
    return out


# ---------------------------------------------------------------------------
# External adapters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdapterConfig:
    """Executable and argument template for one external distortion id.

    Placeholders {in} and {out} receive PLY paths; {p1}..{pk} receive the
    per-level parameters verbatim. Set `serialize` for tools that are not
    reentrant: invocations then take an exclusive cross-process lock.
    """

    command: str
    args: tuple[str, ...]
    serialize: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "AdapterConfig":
        return cls(command=str(d["command"]), args=tuple(str(a) for a in d.get("args", ())),
                   serialize=bool(d.get("serialize", False)))


def _format_param(p) -> str:
    if isinstance(p, float) and p == int(p):
        return str(int(p))
    return str(p)


@contextmanager
def _adapter_lock(adapter: AdapterConfig):
    if not adapter.serialize:
        yield
        return
    tag = hashlib.sha256(adapter.command.encode()).hexdigest()[:16]
    lock_path = Path(tempfile.gettempdir()) / f"pcqa_adapter_{tag}.lock"
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def external_codec(
    cloud: PointCloud,
    spec: DistortionSpec,
    adapter: AdapterConfig | None,
    workdir: str | Path | None = None,
) -> tuple[PointCloud, dict]:
    """Round-trip the cloud through an external tool; returns (cloud, provenance)."""
    if adapter is None:
        raise AdapterNotConfiguredError(
            f"adapter not configured for distortion id {spec.distortion_id}"
        )
    raw = REGISTRY[spec.distortion_id].param(spec.level)
    params = [_format_param(p) for p in (raw if isinstance(raw, tuple) else (raw,))]

    def run(dirpath: Path) -> PointCloud:
        in_path = dirpath / "input.ply"
        out_path = dirpath / "output.ply"
        save_ply(cloud, in_path, mode="binary_le")
        subs = {"in": str(in_path), "out": str(out_path)}
        subs.update({f"p{i + 1}": p for i, p in enumerate(params)})
        try:
            argv = [adapter.command] + [a.format(**subs) for a in adapter.args]
        except (KeyError, IndexError) as exc:
            raise AdapterFailedError(f"bad argument template: {exc}") from exc
        try:
            with _adapter_lock(adapter):
                proc = subprocess.run(argv, capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise AdapterToolMissingError(f"adapter tool missing: {adapter.command}") from exc
        if proc.returncode != 0:
            raise AdapterFailedError(
                f"{shlex.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
        try:
            return load_ply(out_path)
        except (OSError, ValueError) as exc:
            raise AdapterOutputError(f"unreadable adapter output: {exc}") from exc

    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="pcqa_adapter_") as tmp:
            result = run(Path(tmp))
    else:
        result = run(Path(workdir))
    provenance = {"tool": adapter.command, "params": params}
    return result, provenance
