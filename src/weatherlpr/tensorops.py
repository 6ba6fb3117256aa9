"""Dense array ops with matched backward rules.

Every forward returns (output, cache); the paired ``*_backward`` consumes the
cache plus the output gradient and returns input/parameter gradients. All ops
use float64 and a fixed accumulation order, so results are bit-reproducible.
"""
from __future__ import annotations

import math

import numpy as np

EPS_NORM = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _reflect_indices(n: int, pad: int) -> np.ndarray:
    if n == 1:
        return np.zeros(1 + 2 * pad, dtype=int)
    if pad >= n:
        raise ShapeError(f"reflect pad {pad} too large for extent {n}")
    return np.concatenate([np.arange(pad, 0, -1), np.arange(n), np.arange(n - 2, n - 2 - pad, -1)])


def pad_reflect(x: np.ndarray, ph: int, pw: int):
    """Reflect-pad the first two axes. Returns (padded, cache); with both
    pads 0 the padded array is ``x`` itself and the cache is None."""
    if ph == pw == 0:
        return x, None
    ih = _reflect_indices(x.shape[0], ph)
    iw = _reflect_indices(x.shape[1], pw)
    return x[np.ix_(ih, iw)], (x.shape, ih, iw)


def pad_reflect_backward(cache, gpad: np.ndarray) -> np.ndarray:
    if cache is None:
        return gpad
    shape, ih, iw = cache
    gx = np.zeros(shape, dtype=gpad.dtype)
    np.add.at(gx, (ih[:, None], iw[None, :]), gpad)
    return gx


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, groups: int = 1):
    """Same-size 2D convolution with reflect padding.

    x: (H, W, Cin); w: (kh, kw, Cin // groups, Cout); b: (Cout,).
    """
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d expects (H,W,Cin) and (kh,kw,Cin/g,Cout), got {x.shape} {w.shape}")
    H, W, cin = x.shape
    kh, kw, cg, cout = w.shape
    if cin != cg * groups:
        raise ShapeError(f"input channels {cin} != {cg} * groups {groups}")
    if cout % groups:
        raise ShapeError(f"output channels {cout} not divisible by groups {groups}")
    xp, pad_cache = pad_reflect(x, kh // 2, kw // 2)
    y = np.zeros((H, W, cout))
    gi, go = cin // groups, cout // groups
    for g in range(groups):
        xs = slice(g * gi, (g + 1) * gi)
        ys = slice(g * go, (g + 1) * go)
        for ki in range(kh):
            for kj in range(kw):
                y[:, :, ys] += xp[ki:ki + H, kj:kj + W, xs] @ w[ki, kj, :, ys]
    y += b
    return y, (xp, pad_cache, w, groups)


def conv2d_backward(cache, gy: np.ndarray):
    xp, pad_cache, w, groups = cache
    kh, kw, cg, cout = w.shape
    H, W, _ = gy.shape
    cin = cg * groups
    gi, go = cin // groups, cout // groups
    gw = np.zeros(w.shape)
    gxp = np.zeros_like(xp)
    for g in range(groups):
        xs = slice(g * gi, (g + 1) * gi)
        ys = slice(g * go, (g + 1) * go)
        gys = gy[:, :, ys]
        for ki in range(kh):
            for kj in range(kw):
                patch = xp[ki:ki + H, kj:kj + W, xs]
                gw[ki, kj, :, ys] = np.einsum("hwc,hwd->cd", patch, gys)
                gxp[ki:ki + H, kj:kj + W, xs] += gys @ w[ki, kj, :, ys].T
    gx = pad_reflect_backward(pad_cache, gxp)
    return gx, gw, gy.sum(axis=(0, 1))


def conv_transpose2x2(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Stride-2 transposed convolution with a 2x2 kernel (exact 2x upsampling).

    x: (h, w, cin); w: (2, 2, cin, cout); b: (cout,) -> y: (2h, 2w, cout).
    """
    if w.shape[:2] != (2, 2) or x.shape[2] != w.shape[2]:
        raise ShapeError(f"conv_transpose2x2 got x {x.shape}, w {w.shape}")
    h, ww, cin = x.shape
    cout = w.shape[3]
    y = np.einsum("hwc,ijcd->hiwjd", x, w).reshape(2 * h, 2 * ww, cout)
    return y + b, (x, w)


def conv_transpose2x2_backward(cache, gy: np.ndarray):
    x, w = cache
    h, ww, cin = x.shape
    cout = w.shape[3]
    g = gy.reshape(h, 2, ww, 2, cout)
    gx = np.einsum("hiwjd,ijcd->hwc", g, w)
    gw = np.einsum("hwc,hiwjd->ijcd", x, g)
    return gx, gw, gy.sum(axis=(0, 1))


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Channel-wise affine map over the last axis. x: (..., cin), w: (cin, cout),
    b: (cout,)."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear channel mismatch: {x.shape[-1]} vs {w.shape[0]}")
    y = x @ w
    y += b
    return y, (x, w)


def linear_backward(cache, gy: np.ndarray):
    x, w = cache
    gx = gy @ w.T
    gw = x.reshape(-1, w.shape[0]).T @ gy.reshape(-1, w.shape[1])
    return gx, gw, gy.reshape(-1, w.shape[1]).sum(axis=0)


def softmax(x: np.ndarray):
    """Softmax over the last axis; rows sum to one. Leaves x unmodified and
    allocates only the output."""
    y = x - x.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y, y


def softmax_backward(cache, gy: np.ndarray):
    y = cache
    gx = gy * y
    s = gx.sum(axis=-1, keepdims=True)
    np.subtract(gy, s, out=gx)
    gx *= y
    return gx


ATTENTION_TILE = 1 << 18  # logits per query tile: 2 MB of float64, inside a 4 MB L2


def attention(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale: float,
              keep: bool = True):
    """softmax((q @ kt) / scale) @ v, computed one tile of query rows at a time.

    q: (n, d); kt: (d, m); v: (m, dv) -> (n, dv). Every row goes through the
    same arithmetic as the one-shot expression, so only the peak memory
    depends on the tiling. The cache holds the (n, m) probabilities when
    ``keep`` is set, for ``attention_backward``; otherwise it is None.
    """
    if q.shape[1] != kt.shape[0] or kt.shape[1] != v.shape[0]:
        raise ShapeError(f"attention got q {q.shape}, kt {kt.shape}, v {v.shape}")
    n, m = q.shape[0], kt.shape[1]
    rows = max(1, ATTENTION_TILE // m)
    y = np.empty((n, v.shape[1]))
    p = np.empty((n, m)) if keep else None
    for i in range(0, n, rows):
        logits = q[i:i + rows] @ kt
        logits /= scale
        pt, _ = softmax(logits)
        np.matmul(pt, v, out=y[i:i + rows])
        if keep:
            p[i:i + rows] = pt
    return y, ((p, v) if keep else None)


def attention_backward(cache, gy: np.ndarray):
    """Gradients with respect to the softmax input (the scaled logits) and v.

    Callers apply the scale and the key/query products themselves."""
    if cache is None:
        raise RuntimeError("attention ran without keeping its probabilities; "
                           "no backward can follow it")
    p, v = cache
    gv = p.T @ gy
    return softmax_backward(p, gy @ v.T), gv


def moment_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, axes):
    """Normalize to zero mean / unit variance over ``axes``; per-channel affine.

    gain/bias are broadcast against x (channels on the last axis).
    """
    axes = tuple(axes)
    mu = x.mean(axis=axes, keepdims=True)
    xhat = x - mu
    var = np.square(xhat).mean(axis=axes, keepdims=True)
    s = np.sqrt(var + EPS_NORM)
    xhat /= s
    y = xhat * gain
    y += bias
    return y, (xhat, s, gain, axes)


def moment_norm_backward(cache, gy: np.ndarray):
    xhat, s, gain, axes = cache
    ghat = gy * gain
    gx = (ghat - ghat.mean(axis=axes, keepdims=True)
          - xhat * (ghat * xhat).mean(axis=axes, keepdims=True)) / s
    reduce_axes = tuple(i for i in range(gy.ndim) if i not in _gain_axes(gy, gain))
    ggain = (gy * xhat).sum(axis=reduce_axes)
    gbias = gy.sum(axis=reduce_axes)
    return gx, ggain.reshape(gain.shape), gbias.reshape(gain.shape)


def _gain_axes(x, gain):
    # gain lives on the trailing axes of x
    return tuple(range(x.ndim - gain.ndim, x.ndim))


def gap(x: np.ndarray):
    """Global average pooling over the two spatial axes. (H, W, C) -> (C,)."""
    if x.ndim != 3:
        raise ShapeError(f"gap expects (H,W,C), got {x.shape}")
    return x.mean(axis=(0, 1)), x.shape


def gap_backward(cache, gy: np.ndarray):
    H, W, C = cache
    return np.broadcast_to(gy / (H * W), (H, W, C)).copy()


_GELU_K = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray, keep: bool = True):
    """0.5 x (1 + tanh(k (x + 0.044715 x^3))), built in one buffer. The cache
    is (x, tanh) when ``keep`` is set, for ``gelu_backward``; otherwise it is
    None and the tanh buffer becomes the output."""
    t = x ** 3
    t *= 0.044715
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)
    if keep:
        y = 0.5 * x
        y *= 1.0 + t
        return y, (x, t)
    t += 1.0
    t *= 0.5 * x
    return t, None


def gelu_backward(cache, gy: np.ndarray):
    x, t = cache
    dinner = _GELU_K * (1.0 + 3 * 0.044715 * x ** 2)
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
    return gy * dy
