"""Orthonormal 2D Haar decomposition / reconstruction for feature maps.

Analysis over each non-overlapping 2x2 block (a, b top row; c, d bottom row):

    LL = (a + b + c + d) / 2      HL = (a + b - c - d) / 2
    LH = (a - b + c - d) / 2      HH = (a - b - c + d) / 2

The sub-bands of an (H, W, C) map are one (H/2, W/2, 4C) stack whose
channels are [LL, LH, HL, HH], C each; this module alone knows that order.
The transform is orthonormal, so reconstruction uses the same coefficients
and energy is preserved exactly (up to float rounding).
"""
from __future__ import annotations

import numpy as np


def dwt2(f: np.ndarray) -> np.ndarray:
    """Decompose an (H, W, C) map with even H, W into its (H/2, W/2, 4C)
    [LL, LH, HL, HH] sub-band stack."""
    if f.ndim != 3 or f.shape[0] % 2 or f.shape[1] % 2:
        raise ValueError(f"dwt2 needs an (H, W, C) map with even H, W, got {f.shape}")
    a = f[0::2, 0::2]
    b = f[0::2, 1::2]
    c = f[1::2, 0::2]
    d = f[1::2, 1::2]
    return np.concatenate([(a + b + c + d) / 2, (a - b + c - d) / 2,
                           (a + b - c - d) / 2, (a - b - c + d) / 2], axis=-1)


def idwt2(s: np.ndarray) -> np.ndarray:
    """Exact inverse of dwt2: an (h, w, 4C) stack to its (2h, 2w, C) map."""
    ll, lh, hl, hh = np.split(s, 4, axis=-1)
    out = np.empty((2 * ll.shape[0], 2 * ll.shape[1]) + ll.shape[2:], dtype=ll.dtype)
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2
    out[0::2, 1::2] = (ll - lh + hl - hh) / 2
    out[1::2, 0::2] = (ll + lh - hl - hh) / 2
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2
    return out


def synthesis_kernel(channels: int) -> np.ndarray:
    """Transposed-conv kernel (2, 2, 4*channels, channels) equal to idwt2:
    a stride-2 transposed convolution with it maps a dwt2 stack back to its
    map. Input channel k's 2x2 filter is idwt2 of the one-hot stack e_k; one
    idwt2 call makes them all, with e_k at pixel k of a one-row stack."""
    n = 4 * channels
    filters = idwt2(np.eye(n)[None])    # (2, 2n, channels): e_k -> columns 2k, 2k+1
    return np.ascontiguousarray(filters.reshape(2, n, 2, channels).transpose(0, 2, 1, 3))
