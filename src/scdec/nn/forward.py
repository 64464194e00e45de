"""Floating-point forward pass.

Hidden layers apply the configured transfer function; the two output nodes
are affine only and classify by sign, matching the hardware which keeps just
the sign bit of the output sum.
"""

from __future__ import annotations

import numpy as np

from .config import NetworkConfig, Weights
from .rotated import expand_rotated


def transfer_and_slope(fn: str, a: np.ndarray):
    """Values and slopes (one-sided at the kinks) of a transfer function at
    the float64 array ``a``, which is overwritten.

    sqnl is the saturating piecewise quadratic: -1 below -1, ``2x + x^2`` on
    [-1, 0), ``2x - x^2`` on [0, 1], 1 above 1.  It is computed as the
    fixed-point datapath does, ``2c - c|c|`` with ``c = clip(x, -1, 1)``,
    and its slope as ``2 - 2|c|``, from one clip and one ``abs``; the sign of
    ``c`` keeps ``-0.0`` and NaN propagates.
    """
    if fn == "tanh":
        y = np.tanh(a, out=a)
        slope = y * y
        return y, np.subtract(1.0, slope, out=slope)
    if fn == "relu":
        slope = (a >= 0.0).astype(np.float64)
        return np.maximum(a, 0.0, out=a), slope
    if fn == "sqnl":
        c = np.clip(a, -1.0, 1.0, out=a)
        slope = np.abs(c)
        y = c * slope
        np.copysign(np.subtract(2.0 * c, y, out=y), c, out=y)
        slope *= 2.0
        return y, np.subtract(2.0, slope, out=slope)
    raise ValueError(f"unknown transfer {fn!r}")


def forward_acts(cfg: NetworkConfig, weights: Weights, x: np.ndarray):
    """Hidden-layer values and slopes for a batch ``x`` of shape (n, n_in).

    Returns ``(y1, s1, y2, s2, out)`` with ``out`` of shape (n, 2).
    """
    a1 = x @ weights.w1.T
    a1 += weights.b1
    y1, s1 = transfer_and_slope(cfg.transfer, a1)
    a2 = y1 @ weights.w2.T
    a2 += weights.b2
    y2, s2 = transfer_and_slope(cfg.transfer, a2)
    out = y2 @ weights.wout.T
    out += weights.bout
    return y1, s1, y2, s2, out


def forward_float_batch(cfg: NetworkConfig, weights, syn: np.ndarray) -> np.ndarray:
    """Batched outputs (n, 2) for uint8 syndromes (n, n_in)."""
    w = expand_rotated(cfg, weights)
    x = np.atleast_2d(syn).astype(np.float64)
    if x.shape[1] != cfg.n_in:
        raise ValueError(f"syndrome width {x.shape[1]} != {cfg.n_in}")
    return forward_acts(cfg, w, x)[-1]
