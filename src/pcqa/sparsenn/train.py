"""Training loop: smooth-L1 loss, SGD with gradient accumulation,
per-epoch exponential lr decay, and scale/rotation augmentation.

Batch size is 1 (clouds have varying shapes); gradients accumulate over K
samples to emulate batch optimization. All randomness flows from the
config seed, so same-seed runs produce identical loss curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from ..pcio import PointCloud
from ..schema import Positive, PositiveInt, ValidationError, check
from .model import Model, backward, forward
from .tensor import voxelize

__all__ = [
    "TrainConfig", "TrainSample", "LossPoint",
    "smooth_l1", "augment", "sgd_step", "train", "predict",
]


@dataclass(frozen=True)
class TrainConfig:
    lr: Positive = 1e-3
    # multiplied in at each epoch end
    lr_decay: Annotated[float, (lambda d: 0 < d <= 1, "a number in (0, 1]")] = 0.99
    accum: PositiveInt = 8  # gradient accumulation length
    epochs: int = 1  # at least 1, checked in __post_init__
    max_steps: PositiveInt | None = None
    scale_range: tuple[float, float] = (0.8, 1.2)
    rotation_range: tuple[float, float] = (0.0, 360.0)  # degrees, [lo, hi)
    seed: int = 0

    def __post_init__(self):
        check(self, "train")
        # after the type check, so that a non-int still reads "must be an int"
        if self.epochs < 1:
            raise ValidationError(f"train epochs must be a positive int, got {self.epochs!r}")


@dataclass(frozen=True)
class TrainSample:
    sample_id: str
    cloud: PointCloud
    label: float


@dataclass(frozen=True)
class LossPoint:
    step: int
    epoch: int
    lr: float
    loss: float


def smooth_l1(q: float, q_bar: float) -> tuple[float, float]:
    """Loss and d(loss)/dq: quadratic inside |x| < 1, linear outside."""
    x = q - q_bar
    if abs(x) < 1.0:
        return 0.5 * x * x, x
    return abs(x) - 0.5, float(np.sign(x))


def augment(cloud: PointCloud, rng: np.random.Generator, config: TrainConfig) -> PointCloud:
    """Uniform scale about the centroid, then rotation about the vertical
    axis through the centroid; colors untouched."""
    s = rng.uniform(*config.scale_range)
    lo, hi = config.rotation_range
    theta = np.deg2rad(rng.uniform(lo, hi))
    if s == 1.0 and theta == 0.0:
        return cloud  # exact identity; keeps grid points off voxel boundaries
    c, si = np.cos(theta), np.sin(theta)
    rot_z = np.array([[c, -si, 0.0], [si, c, 0.0], [0.0, 0.0, 1.0]])
    centroid = cloud.positions.mean(axis=0)
    pos = (s * (cloud.positions - centroid)) @ rot_z.T + centroid
    return cloud.with_positions(pos)


def sgd_step(params: dict[str, np.ndarray], grad_sum: dict[str, np.ndarray],
             lr: float, k: int) -> None:
    """theta <- theta - lr * (sum of grads) / k, in place."""
    for name, g in grad_sum.items():
        params[name] -= lr * (g / k)


@dataclass
class TrainResult:
    model: Model
    losses: list[LossPoint] = field(default_factory=list)
    final_lr: float = 0.0


def train(model: Model, samples: list[TrainSample], config: TrainConfig) -> TrainResult:
    """Per sample: augment -> voxelize -> forward -> smooth-L1 -> backward,
    accumulate; one SGD step every `accum` samples, and one over the
    samples left when training ends; shuffle per epoch.
    A non-finite loss or accumulated gradient, or a cloud the voxel grid
    cannot index, raises ValueError naming the step and its samples."""
    if not samples:
        raise ValueError("training split is empty")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    lr = config.lr
    losses: list[LossPoint] = []
    grad_sum: dict[str, np.ndarray] = {}
    window: list[str] = []  # samples accumulated since the last SGD step
    step = 0
    done = False
    for epoch in range(config.epochs):
        order = rng.permutation(len(samples))
        for idx in order:
            sample = samples[idx]
            aug = augment(sample.cloud, rng, config)
            try:
                tensor = voxelize(aug, model.config.voxel_size)
            except ValueError as exc:
                raise ValueError(f"training step {step + 1} on sample {sample.sample_id}: "
                                 f"{exc}") from None
            q, cache = forward(model, tensor, training=True)
            loss, dq = smooth_l1(q, sample.label)
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at step {step + 1}: "
                                 f"loss {loss} on sample {sample.sample_id}")
            grad_sum = backward(model, cache, dq, grad_sum if window else None)
            window.append(sample.sample_id)
            step += 1
            losses.append(LossPoint(step=step, epoch=epoch, lr=lr, loss=loss))
            if len(window) == config.accum:
                _apply_window(model.params, grad_sum, window, lr, step)
                grad_sum = {}
                window = []
            if config.max_steps is not None and step >= config.max_steps:
                done = True
                break
        lr *= config.lr_decay
        if done:
            break
    if window:  # the samples after the last full window, at the lr of the last one
        _apply_window(model.params, grad_sum, window, losses[-1].lr, step)
    return TrainResult(model=model, losses=losses, final_lr=lr)


def _apply_window(params: dict[str, np.ndarray], grad_sum: dict[str, np.ndarray],
                  window: list[str], lr: float, step: int) -> None:
    """One SGD step with the gradients summed over the `window` samples; a
    non-finite gradient raises ValueError naming the step and the samples."""
    bad = [name for name, g in grad_sum.items() if not np.isfinite(g).all()]
    if bad:
        raise ValueError(f"training diverged at step {step}: non-finite gradient "
                         f"of {bad[0]} over samples {', '.join(window)}")
    sgd_step(params, grad_sum, lr, len(window))


def predict(model: Model, cloud: PointCloud) -> float:
    """Inference-mode score: voxelize without augmentation, BN folded into the convs."""
    tensor = voxelize(cloud, model.config.voxel_size)
    q, _ = forward(model, tensor, training=False)
    return q
