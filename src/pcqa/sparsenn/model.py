"""Hierarchical sparse-CNN quality regressor.

Four residual blocks of three sub-manifold conv layers (width 64) over the
RGB features `voxelize` emits, global average pooling per block,
concatenation to a 256-vector and a two-layer FC head.
Residual variants A-D differ only in the block shortcut; the shortcut table
`_SHORTCUTS` is the single place a variant is defined. The default D joins
the first layer's output into the third layer's pre-activation.

`forward` and `backward` are each one loop over the conv layers; the block
index only picks the shortcut row and the pooling tap.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Literal, get_args

import numpy as np

from ..pcio import atomic_write
from ..schema import Positive, PositiveInt, ValidationError, check
from .layers import (
    LayerCache, FCCache, fc_backward, fc_forward, global_pool,
    global_pool_backward, layer_backward, layer_forward,
)
from .tensor import IN_CHANNELS, KernelMap, SparseTensor, build_kernel_map

__all__ = [
    "ModelConfig", "Model", "RESIDUAL_VARIANTS",
    "init_model", "forward", "backward", "param_count",
    "save_checkpoint", "load_checkpoint", "CheckpointError",
]

Residual = Literal["A", "B", "C", "D"]
RESIDUAL_VARIANTS = get_args(Residual)

_MAGIC = b"PCQANET\x01"
_VERSION = 2
MAX_PARAMS = 10**8  # the default has 1.2M; bounds what a config makes init_model allocate
MAX_ARRAYS = 10**4  # the default has 64; bounds the arrays _layout lists (15 per block)


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    blocks: PositiveInt = 4
    width: PositiveInt = 64
    fc_hidden: PositiveInt = 32
    residual: Residual = "D"
    bn_eps: Positive = 1e-5
    bn_momentum: Annotated[float, (lambda m: 0 <= m < 1, "a number in [0, 1)")] = 0.9
    voxel_size: Positive = 1.0

    def __post_init__(self):
        check(self, "model")
        if self.param_count > MAX_PARAMS:
            raise ValidationError(f"model has {self.param_count:,} parameters, over {MAX_PARAMS:,}")
        if 15 * self.blocks + 4 > MAX_ARRAYS:  # _layout's arrays, in closed form
            raise ValidationError(f"model has {15 * self.blocks + 4:,} arrays, over {MAX_ARRAYS:,}")

    @property
    def param_count(self) -> int:  # _layout's trainable arrays, in closed form
        w, convs = self.width, 3 * self.blocks
        return (27 * w * (IN_CHANNELS + (convs - 1) * w) + 2 * w * convs
                + (self.feature_length + 2) * self.fc_hidden + 1)

    @property
    def feature_length(self) -> int:
        return self.blocks * self.width


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, np.ndarray]  # trainable
    state: dict[str, np.ndarray]  # batch-norm running statistics

    def layer_view(self, b: int, l: int) -> dict:
        p, s = self.params, self.state
        return {
            "w": p[f"conv{b}.{l}.w"],
            "gamma": p[f"conv{b}.{l}.gamma"],
            "beta": p[f"conv{b}.{l}.beta"],
            "running_mean": s[f"conv{b}.{l}.running_mean"],
            "running_var": s[f"conv{b}.{l}.running_var"],
        }


@dataclass(frozen=True)
class _Array:
    shape: tuple[int, ...]
    std: float = 0.0  # nonzero: drawn from N(0, std^2); zero: filled with `fill`
    fill: float = 0.0
    state: bool = False  # a batch-norm running statistic, not trainable


def _layout(config: ModelConfig) -> dict[str, _Array]:
    """Every array of a model with this config, in init_model's draw order."""
    w, layout = config.width, {}
    for b in range(config.blocks):
        for l in range(3):
            cin = IN_CHANNELS if (b == 0 and l == 0) else w
            layout[f"conv{b}.{l}.w"] = _Array((27, cin, w), std=np.sqrt(2.0 / (27 * cin)))
            layout[f"conv{b}.{l}.gamma"] = _Array((w,), fill=1.0)
            layout[f"conv{b}.{l}.beta"] = _Array((w,))
            layout[f"conv{b}.{l}.running_mean"] = _Array((w,), state=True)
            layout[f"conv{b}.{l}.running_var"] = _Array((w,), fill=1.0, state=True)
    s_len, hidden = config.feature_length, config.fc_hidden
    layout["fc1.w"] = _Array((s_len, hidden), std=np.sqrt(2.0 / s_len))
    layout["fc1.b"] = _Array((hidden,))
    layout["fc2.w"] = _Array((hidden, 1), std=np.sqrt(1.0 / hidden))
    layout["fc2.b"] = _Array((1,))
    return layout


def init_model(config: ModelConfig, seed: int = 0) -> Model:
    """He-style initialization from a counter-based stream."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    params: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}
    for name, a in _layout(config).items():
        arr = rng.normal(0.0, a.std, a.shape) if a.std else np.full(a.shape, a.fill)
        (state if a.state else params)[name] = arr
    return Model(config=config, params=params, state=state)


def param_count(model: Model) -> int:
    return sum(int(np.prod(a.shape)) for a in model.params.values())


# (source, join): the block activation `source` (0 = block input, 1 = layer
# 0's output) is layer `join`'s shortcut, added to its pre-activation.
_SHORTCUTS: dict[str, tuple[int, int] | None] = {"A": None, "B": (0, 1), "C": (0, 2), "D": (1, 2)}


def _shortcut(variant: str, b: int) -> tuple[int | None, int | None]:
    # block 0's 3-wide input cannot join a width-wide activation, so the
    # variants whose shortcut starts there (B, C) take D's row in block 0
    return _SHORTCUTS["D" if b == 0 and variant in ("B", "C") else variant] or (None, None)


def _spare(buffers: list[np.ndarray], busy: tuple, shape: tuple[int, int]) -> np.ndarray:
    """A buffer that is none of `busy` (a layer's input and its shortcut),
    appended when every one is: A needs two, B, C and D three."""
    for buf in buffers:
        if all(buf is not b for b in busy):
            return buf
    buffers.append(np.empty(shape))
    return buffers[-1]


@dataclass
class ModelCache:
    kmap: KernelMap
    n_rows: int
    layers: list[LayerCache]  # conv{b}.{l} at index 3 * b + l
    fc: FCCache


def forward(
    model: Model,
    tensor: SparseTensor,
    training: bool = False,
    kmap: KernelMap | None = None,
) -> tuple[float, ModelCache | None]:
    """Predicted quality score for one sparse tensor; unbounded scalar.

    Training normalizes by batch statistics, updates the running statistics
    in place and returns the ModelCache that `backward` needs; inference
    folds the running statistics into the convs, writes the activations into
    a few buffers that live for this call only, keeps nothing, returns None.
    A prebuilt kernel map may be passed when evaluating repeatedly on the
    same coordinate set (the map depends only on the coordinates).
    """
    cfg = model.config
    if tensor.n_channels != IN_CHANNELS:
        raise ValueError(f"tensor has {tensor.n_channels} channels, model expects {IN_CHANNELS}")
    if kmap is None:
        kmap = build_kernel_map(tensor)
    x = tensor.feats
    # inference rotates N x width buffers through the layers and one more
    # takes the centre tap; training keeps fresh arrays, which its cache holds
    shape = (len(tensor), cfg.width)
    buffers: list[np.ndarray] = []
    tmp = None if training else np.empty(shape)
    layers: list[LayerCache] = []
    pooled: list[np.ndarray] = []
    for b in range(cfg.blocks):
        source, join = _shortcut(cfg.residual, b)
        skip = None
        for l in range(3):
            if l == source:
                skip = x
            out = None if training else _spare(buffers, (x, skip), shape)
            x, c = layer_forward(model.layer_view(b, l), x, kmap, training, cfg.bn_momentum,
                                 cfg.bn_eps, shortcut=skip if l == join else None,
                                 out=out, tmp=tmp)
            layers.append(c)
        pooled.append(global_pool(x))
    q, fc_cache = fc_forward(model.params, np.concatenate(pooled))
    if not training:
        return q, None
    return q, ModelCache(kmap=kmap, n_rows=len(tensor), layers=layers, fc=fc_cache)


def backward(model: Model, cache: ModelCache, dq: float,
             grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Adds the gradients of dq * q w.r.t. every trainable parameter into
    `grads` (zeros of the parameters' shapes when None) and returns it."""
    cfg = model.config
    if grads is None:
        grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    ds = fc_backward(model.params, dq, cache.fc, grads)
    w = cfg.width
    d: np.ndarray | None = None
    for b in range(cfg.blocks - 1, -1, -1):
        source, join = _shortcut(cfg.residual, b)
        dpool = global_pool_backward(ds[b * w:(b + 1) * w], cache.n_rows)
        d = dpool if d is None else dpool + d
        for l in (2, 1, 0):
            layer_grads = {name: grads[f"conv{b}.{l}.{name}"] for name in ("w", "gamma", "beta")}
            d, dpre = layer_backward(model.layer_view(b, l), d, cache.layers[3 * b + l],
                                     layer_grads, cache.kmap)
            if l == join:
                dskip = dpre
            if l == source:
                d = d + dskip
    return grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Versioned binary: magic, config header, parameter and running-stat blobs."""
    arrays = [(n, model.params[n]) for n in sorted(model.params)]
    arrays += [(n, model.state[n]) for n in sorted(model.state)]
    header = json.dumps(
        {"config": dataclasses.asdict(model.config),
         "arrays": [[name, list(arr.shape)] for name, arr in arrays]},
        sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(header)))
        f.write(header)
        for _, arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Model:
    with open(path, "rb") as f:
        head = f.read(len(_MAGIC) + 8)
        if head[:len(_MAGIC)] != _MAGIC:
            raise CheckpointError("bad checkpoint magic")
        if len(head) != len(_MAGIC) + 8:
            raise CheckpointError("truncated checkpoint header")
        version, header_len = struct.unpack_from("<II", head, len(_MAGIC))
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        left = os.fstat(f.fileno()).st_size - f.tell()
        if header_len > left:  # the length sizes the read below
            raise CheckpointError(f"checkpoint header declares {header_len} bytes, but "
                                  f"{left} follow")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
            arrays = [(str(name), tuple(shape)) for name, shape in header["arrays"]]
            # every block stores arrays: name a corrupt count before it sizes anything
            blocks = header["config"].get("blocks")
            if type(blocks) is int and blocks > len(arrays):
                raise CheckpointError(f"checkpoint config has {blocks} blocks but the "
                                      f"header lists {len(arrays)} arrays")
            config = ModelConfig(**header["config"])
        except CheckpointError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad checkpoint header: {exc!r}") from None
        layout = _layout(config)
        loaded: dict[str, np.ndarray] = {}
        for name, shape in arrays:
            if name not in layout:
                raise CheckpointError(f"unexpected array '{name}' in checkpoint")
            want = layout[name].shape
            if shape != want:
                raise CheckpointError(f"array '{name}' has shape {shape}, expected {want}")
            size = 8 * int(np.prod(want))
            raw = f.read(size)
            if len(raw) != size:
                raise CheckpointError("truncated checkpoint blob")
            loaded[name] = np.frombuffer(raw, dtype="<f8").reshape(want).copy()
        if f.read(1):
            raise CheckpointError("trailing bytes after the last checkpoint blob")
    missing = set(layout) - set(loaded)
    if missing:
        raise CheckpointError(f"checkpoint missing arrays: {sorted(missing)[:3]}")
    return Model(config=config,
                 params={n: a for n, a in loaded.items() if not layout[n].state},
                 state={n: a for n, a in loaded.items() if layout[n].state})
