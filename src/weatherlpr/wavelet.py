"""Orthonormal 2D Haar decomposition / reconstruction for feature maps.

Analysis over each non-overlapping 2x2 block (a, b top row; c, d bottom row):

    LL = (a + b + c + d) / 2      HL = (a + b - c - d) / 2
    LH = (a - b + c - d) / 2      HH = (a - b - c + d) / 2

The transform is orthonormal, so reconstruction uses the same coefficients
and energy is preserved exactly (up to float rounding).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WaveletSubbands:
    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    def __post_init__(self):
        if not (self.ll.shape == self.lh.shape == self.hl.shape == self.hh.shape):
            raise ValueError("sub-band shapes differ")


def dwt2(f: np.ndarray) -> WaveletSubbands:
    """Decompose an (H, W, ...) map with even H, W into four half-size sub-bands."""
    h, w = f.shape[0], f.shape[1]
    if h % 2 or w % 2:
        raise ValueError(f"dwt2 requires even spatial dims, got {h}x{w}")
    a = f[0::2, 0::2]
    b = f[0::2, 1::2]
    c = f[1::2, 0::2]
    d = f[1::2, 1::2]
    return WaveletSubbands(
        ll=(a + b + c + d) / 2,
        lh=(a - b + c - d) / 2,
        hl=(a + b - c - d) / 2,
        hh=(a - b - c + d) / 2,
    )


def idwt2(sb: WaveletSubbands) -> np.ndarray:
    """Exact inverse of dwt2."""
    ll, lh, hl, hh = sb.ll, sb.lh, sb.hl, sb.hh
    out = np.empty((2 * ll.shape[0], 2 * ll.shape[1]) + ll.shape[2:], dtype=ll.dtype)
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2
    out[0::2, 1::2] = (ll - lh + hl - hh) / 2
    out[1::2, 0::2] = (ll + lh - hl - hh) / 2
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2
    return out


def synthesis_kernel(channels: int) -> np.ndarray:
    """Transposed-conv kernel (2, 2, 4*channels, channels) equal to idwt2.

    Input channel layout is the concatenation [LL, LH, HL, HH]; applying a
    stride-2 transposed convolution with this kernel reproduces idwt2 exactly.
    """
    w = np.zeros((2, 2, 4 * channels, channels))
    # rows of the inverse Haar matrix, in (a, b, c, d) output-position order
    coeffs = {
        (0, 0): (0.5, 0.5, 0.5, 0.5),
        (0, 1): (0.5, -0.5, 0.5, -0.5),
        (1, 0): (0.5, 0.5, -0.5, -0.5),
        (1, 1): (0.5, -0.5, -0.5, 0.5),
    }
    for (di, dj), row in coeffs.items():
        for band, coeff in enumerate(row):
            for ch in range(channels):
                w[di, dj, band * channels + ch, ch] = coeff
    return w
