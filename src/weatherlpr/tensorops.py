"""Dense array ops with matched backward rules.

Every forward returns (output, cache); the paired ``*_backward`` consumes the
cache plus the output gradient and returns input/parameter gradients. All ops
use float64 and a fixed accumulation order, so results are bit-reproducible.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    if min(shape[:2]) == 1:
        np.add.at(gx, (ih[:, None], iw[None, :]), gpad)
        return gx
    # np.add.at's order as slice adds: each target sums its sources by row
    # phase (top, interior, bottom), and within one by column phase
    for rt, rs in _reflect_phases(shape[0], (len(ih) - shape[0]) // 2):
        for ct, cs in _reflect_phases(shape[1], (len(iw) - shape[1]) // 2):
            gx[rt, ct] += gpad[rs, cs]
    return gx


def _reflect_phases(n: int, pad: int):
    """(target, source) slices of a reflect-padded axis of extent n >= 2;
    at pad 0 the top and bottom phases are empty."""
    return [(slice(pad, 0, -1), slice(0, pad)), (slice(0, n), slice(pad, pad + n)),
            (slice(n - 1 - pad, n - 1), slice(2 * pad + n - 1, pad + n - 1, -1))]


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
    wb = _block_diagonal(w, groups)
    y = np.zeros((H, W, cout))
    for ki in range(kh):
        for kj in range(kw):
            y += xp[ki:ki + H, kj:kj + W] @ wb[ki, kj]
    y += b
    return y, (xp, pad_cache, w, groups)


def _block_diagonal(w: np.ndarray, groups: int) -> np.ndarray:
    """Grouped weights (kh, kw, Cin/groups, Cout) as the (kh, kw, Cin, Cout)
    weights of one ungrouped convolution, zero outside each group's block.
    The zeros add exact zeros to each output's sum over input channels, so a
    BLAS that sums those in order gives the bits of one product per group."""
    if groups == 1:
        return w
    kh, kw, gi, cout = w.shape
    wb = np.zeros((kh, kw, groups, gi, groups, cout // groups))
    r = np.arange(groups)
    wb[:, :, r, :, r] = np.moveaxis(w.reshape(kh, kw, gi, groups, -1), 3, 0)
    return wb.reshape(kh, kw, groups * gi, cout)


def conv2d_backward(cache, gy: np.ndarray):
    xp, pad_cache, w, groups = cache
    kh, kw, gi, cout = w.shape
    H, W, _ = gy.shape
    windows = sliding_window_view(xp, (kh, kw), axis=(0, 1)).reshape(H, W, groups, gi, kh, kw)
    gw = np.einsum("hwgcij,hwgd->ijcgd", windows, gy.reshape(H, W, groups, -1)).reshape(w.shape)
    # the transposed view at groups == 1: a contiguous copy moves the 1x1 bits
    wt = w.transpose(0, 1, 3, 2) if groups == 1 else np.ascontiguousarray(
        _block_diagonal(w, groups).transpose(0, 1, 3, 2))
    gxp = np.zeros_like(xp)
    for ki in range(kh):
        for kj in range(kw):
            gxp[ki:ki + H, kj:kj + W] += gy @ wt[ki, kj]
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


def softmax(x: np.ndarray, out=None):
    """Softmax over the last axis; rows sum to one. Writes into ``out``, which
    may be ``x`` itself; without it, leaves x unmodified and allocates only
    the output."""
    y = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y, y


# logits per query tile: 2 MB of float64, inside a 4 MB L2. Part of the bit
# contract: BLAS may pick another kernel for another tile, and move last bits
ATTENTION_TILE = 1 << 18


def softmax_backward(cache, gy: np.ndarray, out=None):
    """Writes into ``out``, which may be ``gy`` itself, in blocks of rows of one
    attention tile that stay in cache; no row's arithmetic depends on them.
    A 1-D softmax is one row, so it is one block whatever its length."""
    y = cache
    gx = np.empty_like(gy) if out is None else out
    rows = len(y) if y.ndim == 1 else max(1, ATTENTION_TILE // y.shape[-1])
    for i in range(0, len(y), rows):
        yt, gt, ot = y[i:i + rows], gy[i:i + rows], gx[i:i + rows]
        s = (gt * yt).sum(axis=-1, keepdims=True)
        np.subtract(gt, s, out=ot)
        ot *= yt
    return gx


def attention(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale: float,
              keep: bool = True):
    """softmax((q @ kt) / scale) @ v, computed one tile of query rows at a time.

    q: (n, d); kt: (d, m); v: (m, dv) -> (n, dv). The tiling sets the peak
    memory and is part of the bit contract (see ``ATTENTION_TILE``). The
    cache holds the (n, m) probabilities when ``keep`` is set, for
    ``attention_backward``; otherwise it is None.
    """
    if q.shape[1] != kt.shape[0] or kt.shape[1] != v.shape[0]:
        raise ShapeError(f"attention got q {q.shape}, kt {kt.shape}, v {v.shape}")
    n, m = q.shape[0], kt.shape[1]
    rows = max(1, ATTENTION_TILE // m)
    y = np.empty((n, v.shape[1]))
    p = np.empty((n, m)) if keep else None
    for i in range(0, n, rows):
        pt = np.matmul(q[i:i + rows], kt, out=p[i:i + rows] if keep else None)
        if scale != 1.0:  # x / 1.0 is x
            pt /= scale
        softmax(pt, out=pt)
        np.matmul(pt, v, out=y[i:i + rows])
    return y, ((p, v) if keep else None)


def attention_backward(cache, gy: np.ndarray):
    """Gradients with respect to the softmax input (the scaled logits) and v.

    Callers apply the scale and the key/query products themselves."""
    if cache is None:
        raise RuntimeError("attention ran without keeping its probabilities; "
                           "no backward can follow it")
    p, v = cache
    gv = p.T @ gy
    g = gy @ v.T
    return softmax_backward(p, g, out=g), gv


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
# inference GELU elements per block: 256 KB of float64 scratch, inside L2.
# Each element's operations do not depend on the blocking, so no bit does
GELU_BLOCK = 1 << 15


def gelu(x: np.ndarray, keep: bool = True, out=None):
    """0.5 x (1 + tanh(k (x + 0.044715 x^3))). With ``keep`` set it is built
    in one full-size buffer and the cache is (x, tanh), for ``gelu_backward``.
    Otherwise the cache is None and the same operations, in the same order,
    run on one scratch buffer of at most ``GELU_BLOCK`` elements at a time,
    whose results go into ``out``: a C-contiguous array of x's shape, which
    may be ``x`` itself. Without it, x is left unmodified and only the
    output is allocated."""
    if keep:
        if out is not None:
            raise ValueError("gelu writes into out only when keep is off")
        t = x ** 3
        t *= 0.044715
        t += x
        t *= _GELU_K
        np.tanh(t, out=t)
        y = 0.5 * x
        y *= 1.0 + t
        return y, (x, t)
    if out is None:
        out = np.empty(x.shape, x.dtype)
    elif out.shape != x.shape or not out.flags.c_contiguous:
        raise ShapeError(f"gelu out must be a C-contiguous {x.shape} array, got {out.shape}")
    xs, ys = x.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(GELU_BLOCK, xs.size), x.dtype)
    for i in range(0, xs.size, GELU_BLOCK):
        xb, yb = xs[i:i + GELU_BLOCK], ys[i:i + GELU_BLOCK]
        t = scratch[:len(xb)]
        np.power(xb, 3, out=t)
        t *= 0.044715
        t += xb
        t *= _GELU_K
        np.tanh(t, out=t)
        t += 1.0
        np.multiply(0.5, xb, out=yb)  # t * (0.5 x) is (0.5 x) * t
        yb *= t
    return out, None


def gelu_backward(cache, gy: np.ndarray):
    """gy * dy for dy = 0.5 (1 + t) + 0.5 x (1 - t^2) k (1 + 3 * 0.044715 x^2),
    in two buffers, each operation in that order (a * b is b * a)."""
    x, t = cache
    dinner = np.square(x)
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= _GELU_K
    dy = np.square(t)
    np.subtract(1.0, dy, out=dy)
    dy *= 0.5 * x
    dy *= dinner
    np.add(t, 1.0, out=dinner)
    dinner *= 0.5
    dy += dinner
    dy *= gy
    return dy
