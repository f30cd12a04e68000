"""Forward/backward primitives: sparse convolution, batch norm, ReLU, global
average pooling, FC.

Everything operates on float64 arrays. Backward passes return the input
gradient and add the exact reverse-mode parameter gradients into arrays the
caller owns; the tests validate them against finite differences.

Every conv layer is one contract in both modes: conv -> batch norm
(+ shortcut) -> ReLU in place. Batch norm is training-only: inference folds
it into the conv weights. A residual shortcut joins the pre-activation. The
training cache keeps the activation the layer returns, and backward reads
the ReLU mask from it (out > 0 exactly where the pre-activation is).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import KernelMap

__all__ = [
    "conv_forward", "conv_backward",
    "bn_forward", "bn_backward", "BNCache",
    "layer_forward", "layer_backward", "LayerCache",
    "global_pool", "global_pool_backward",
    "fc_forward", "fc_backward", "FCCache",
]


def conv_forward(w: np.ndarray, feats: np.ndarray, kmap: KernelMap, *,
                 out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """f_out(u) = sum_i W_i f_in(u + i) over occupied neighbors. The caller
    may lend two N x C_out arrays: `out` receives the result, `tmp` the
    centre-tap product; fresh ones are allocated when they are None."""
    if out is None:
        out = np.zeros((feats.shape[0], w.shape[2]))
    else:
        out.fill(0.0)
    for k, (in_rows, out_rows) in enumerate(kmap.pairs):
        if len(in_rows) == len(feats):
            # an offset paired at every site maps the site set into itself, and
            # a nonzero shift cannot (the site farthest along it has no
            # neighbour there): this is the centre, in_rows = out_rows = arange(N)
            out += np.matmul(feats, w[k], out=tmp)
        elif len(in_rows):
            # rows unique per offset, fancy accumulation is safe
            out[out_rows] += feats[in_rows] @ w[k]
    return out


def conv_backward(w: np.ndarray, feats: np.ndarray, dout: np.ndarray, dw: np.ndarray,
                  kmap: KernelMap) -> np.ndarray:
    """Adds the weight gradient into the caller's `dw` and returns the input
    gradient: the forward loop on the transposed kernel map, each W_i
    transposed and each offset's (input, output) rows swapped."""
    dfeats = np.zeros_like(feats)
    for k, (in_rows, out_rows) in enumerate(kmap.pairs):
        if len(in_rows) == len(feats):  # the centre, as in conv_forward
            dw[k] += feats.T @ dout
            dfeats += dout @ w[k].T
        elif len(in_rows):
            g = dout[out_rows]
            dw[k] += feats[in_rows].T @ g
            dfeats[in_rows] += g @ w[k].T
    return dfeats


@dataclass
class BNCache:
    xhat: np.ndarray
    inv_std: np.ndarray


def bn_forward(x: np.ndarray, params: dict, momentum: float,
               eps: float) -> tuple[np.ndarray, BNCache]:
    """Training-only batch norm by the batch statistics; moves the running ones in params."""
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    params["running_mean"] *= momentum
    params["running_mean"] += (1.0 - momentum) * mean
    params["running_var"] *= momentum
    params["running_var"] += (1.0 - momentum) * var
    return params["gamma"] * xhat + params["beta"], BNCache(xhat=xhat, inv_std=inv_std)


def bn_backward(
    dy: np.ndarray, gamma: np.ndarray, cache: BNCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients through batch statistics (population variance form)."""
    n = dy.shape[0]
    dgamma = (dy * cache.xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx = (gamma * cache.inv_std / n) * (n * dy - dbeta - cache.xhat * dgamma)
    return dx, dgamma, dbeta


@dataclass
class LayerCache:
    feats_in: np.ndarray
    bn: BNCache
    out: np.ndarray  # the returned activation: the next layer's feats_in or the block output


def layer_forward(
    params: dict,
    feats: np.ndarray,
    kmap: KernelMap,
    training: bool,
    momentum: float,
    eps: float,
    shortcut: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> tuple[np.ndarray, LayerCache | None]:
    """conv -> batch norm (+ shortcut) -> ReLU. `params` holds keys
    w/gamma/beta/running_mean/running_var. Training returns the cache for
    layer_backward. Inference returns None and folds the running-statistics
    batch norm into the conv (Jacob et al., CVPR 2018): w * scale, then
    + beta - mean * scale, with scale = gamma / sqrt(var + eps). Inference
    may lend conv_forward its `out` and `tmp` and then returns `out`, which
    must be neither `feats` nor `shortcut`; training allocates fresh ones."""
    if training:
        y, bn_cache = bn_forward(conv_forward(params["w"], feats, kmap), params, momentum, eps)
    else:
        scale = params["gamma"] / np.sqrt(params["running_var"] + eps)
        y = conv_forward(params["w"] * scale, feats, kmap, out=out, tmp=tmp)
        y += params["beta"] - params["running_mean"] * scale
    if shortcut is not None:
        y += shortcut  # y is this layer's own output, never the shortcut
    np.maximum(y, 0.0, out=y)
    return y, LayerCache(feats, bn_cache, y) if training else None


def layer_backward(
    params: dict,
    dout: np.ndarray,
    cache: LayerCache,
    grads: dict,
    kmap: KernelMap,
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse of layer_forward: adds the w/gamma/beta gradients into the
    matching arrays of `grads` and returns (input gradient, pre-activation
    gradient); the latter is also the gradient of the shortcut."""
    dpre = dout * (cache.out > 0)
    dz, dgamma, dbeta = bn_backward(dpre, params["gamma"], cache.bn)
    grads["gamma"] += dgamma
    grads["beta"] += dbeta
    return conv_backward(params["w"], cache.feats_in, dz, grads["w"], kmap), dpre


def global_pool(feats: np.ndarray) -> np.ndarray:
    """Global average pooling: the per-channel mean over rows."""
    return feats.mean(axis=0)


def global_pool_backward(dvec: np.ndarray, n_rows: int) -> np.ndarray:
    """Reverse of global_pool: each row receives dvec / n_rows."""
    return np.tile(dvec / n_rows, (n_rows, 1))


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


def fc_backward(params: dict, dq: float, cache: FCCache, grads: dict) -> np.ndarray:
    """Adds the head's gradients into `grads`; returns the gradient w.r.t. s."""
    dh_pre = params["fc2.w"][:, 0] * dq * (cache.h_pre > 0)
    grads["fc2.w"] += cache.h[:, None] * dq
    grads["fc2.b"] += dq
    grads["fc1.w"] += np.outer(cache.s, dh_pre)
    grads["fc1.b"] += dh_pre
    return params["fc1.w"] @ dh_pre
