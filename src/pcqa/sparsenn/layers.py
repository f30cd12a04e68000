"""Forward/backward primitives: sparse convolution, batch norm, ReLU, FC.

Everything operates on float64 arrays; backward passes return exact
reverse-mode gradients validated against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import KernelMap

__all__ = [
    "conv_forward", "conv_backward",
    "bn_forward", "bn_backward", "BNCache",
    "relu_forward", "relu_backward",
    "layer_forward", "layer_backward", "LayerCache",
    "global_pool", "global_pool_backward",
    "fc_forward", "fc_backward", "FCCache",
]


def _scatter_matmul(w: np.ndarray, x: np.ndarray, pairs) -> np.ndarray:
    """out[dst] += x[src] @ w[k] for each offset k and its (src, dst) rows."""
    out = np.zeros((x.shape[0], w.shape[2]))
    for k, (src, dst) in enumerate(pairs):
        if len(src):
            # rows unique per offset, fancy accumulation is safe
            out[dst] += x[src] @ w[k]
    return out


def conv_forward(w: np.ndarray, feats: np.ndarray, kmap: KernelMap) -> np.ndarray:
    """f_out(u) = sum_i W_i f_in(u + i) over occupied neighbors."""
    return _scatter_matmul(w, feats, kmap.pairs)


def conv_backward(
    w: np.ndarray, feats: np.ndarray, dout: np.ndarray, kmap: KernelMap
) -> tuple[np.ndarray, np.ndarray]:
    """The input gradient is the forward loop run on the transposed kernel
    map: each W_i transposed, each offset's (input, output) rows swapped."""
    dw = np.zeros_like(w)
    for k, (in_rows, out_rows) in enumerate(kmap.pairs):
        if len(in_rows):
            dw[k] = feats[in_rows].T @ dout[out_rows]
    dfeats = _scatter_matmul(w.transpose(0, 2, 1), dout, [(o, i) for i, o in kmap.pairs])
    return dfeats, dw


@dataclass
class BNCache:
    xhat: np.ndarray
    inv_std: np.ndarray


def bn_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.9,
    eps: float = 1e-5,
    update_stats: bool = True,
) -> tuple[np.ndarray, BNCache | None]:
    """Batch norm over all rows; batch statistics in training, running
    statistics at inference. Running stats update in place."""
    if training:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean) * inv_std
        if update_stats:
            running_mean *= momentum
            running_mean += (1.0 - momentum) * mean
            running_var *= momentum
            running_var += (1.0 - momentum) * var
        return gamma * xhat + beta, BNCache(xhat=xhat, inv_std=inv_std)
    inv_std = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean) * inv_std
    return gamma * xhat + beta, None


def bn_backward(
    dy: np.ndarray, gamma: np.ndarray, cache: BNCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients through batch statistics (population variance form)."""
    n = dy.shape[0]
    dgamma = (dy * cache.xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx = (gamma * cache.inv_std / n) * (n * dy - dbeta - cache.xhat * dgamma)
    return dx, dgamma, dbeta


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = x > 0
    return x * mask, mask


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


@dataclass
class LayerCache:
    feats_in: np.ndarray
    bn: BNCache | None
    relu_mask: np.ndarray | None = None


def layer_forward(
    params: dict,
    feats: np.ndarray,
    kmap: KernelMap,
    training: bool,
    momentum: float,
    eps: float,
    activate: bool = True,
    update_stats: bool = True,
) -> tuple[np.ndarray, LayerCache]:
    """conv -> batch norm -> (optional) ReLU. `params` holds keys
    w/gamma/beta/running_mean/running_var."""
    z = conv_forward(params["w"], feats, kmap)
    y, bn_cache = bn_forward(
        z, params["gamma"], params["beta"],
        params["running_mean"], params["running_var"],
        training, momentum=momentum, eps=eps, update_stats=update_stats)
    cache = LayerCache(feats_in=feats, bn=bn_cache)
    if activate:
        out, mask = relu_forward(y)
        cache.relu_mask = mask
        return out, cache
    return y, cache


def layer_backward(
    params: dict,
    dout: np.ndarray,
    cache: LayerCache,
    kmap: KernelMap,
) -> tuple[np.ndarray, dict]:
    """Reverse of layer_forward. When the layer deferred its activation
    (residual join), the caller must pass gradients w.r.t. pre-activation."""
    if cache.relu_mask is not None:
        dout = relu_backward(dout, cache.relu_mask)
    dz, dgamma, dbeta = bn_backward(dout, params["gamma"], cache.bn)
    dfeats, dw = conv_backward(params["w"], cache.feats_in, dz, kmap)
    return dfeats, {"w": dw, "gamma": dgamma, "beta": dbeta}


def global_pool(feats: np.ndarray, mode: str = "avg") -> tuple[np.ndarray, np.ndarray | None]:
    """Per-channel reduction over rows; returns (vector, argmax cache)."""
    if mode == "avg":
        return feats.mean(axis=0), None
    if mode == "max":
        arg = feats.argmax(axis=0)
        return feats[arg, np.arange(feats.shape[1])], arg
    raise ValueError(f"unknown pooling mode '{mode}'")


def global_pool_backward(
    dvec: np.ndarray, n_rows: int, mode: str, arg: np.ndarray | None
) -> np.ndarray:
    if mode == "avg":
        return np.tile(dvec / n_rows, (n_rows, 1))
    out = np.zeros((n_rows, len(dvec)))
    out[arg, np.arange(len(dvec))] = dvec
    return out


@dataclass
class FCCache:
    s: np.ndarray
    h_pre: np.ndarray
    h: np.ndarray


def fc_forward(params: dict, s: np.ndarray) -> tuple[float, FCCache]:
    """Two fully connected layers with a ReLU between; scalar output."""
    h_pre = s @ params["fc1.w"] + params["fc1.b"]
    h = np.maximum(h_pre, 0.0)
    q = (h @ params["fc2.w"] + params["fc2.b"]).item()
    return q, FCCache(s=s, h_pre=h_pre, h=h)


def fc_backward(params: dict, dq: float, cache: FCCache) -> tuple[np.ndarray, dict]:
    dh = params["fc2.w"][:, 0] * dq
    dh_pre = dh * (cache.h_pre > 0)
    grads = {
        "fc2.w": cache.h[:, None] * dq,
        "fc2.b": np.array([dq]),
        "fc1.w": np.outer(cache.s, dh_pre),
        "fc1.b": dh_pre,
    }
    ds = params["fc1.w"] @ dh_pre
    return ds, grads
