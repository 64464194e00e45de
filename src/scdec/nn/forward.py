"""Floating-point forward pass.

Hidden layers apply the configured transfer function; the two output nodes
are affine only and classify by sign, matching the hardware which keeps just
the sign bit of the output sum.
"""

from __future__ import annotations

import numpy as np

from ..lattice import LogicalClass
from .config import NetworkConfig, Weights
from .rotated import expand_rotated


def transfer(fn: str, x):
    """Evaluate a transfer function elementwise.

    sqnl is the saturating piecewise quadratic: -1 below -1, ``2x + x^2`` on
    [-1, 0), ``2x - x^2`` on [0, 1], 1 above 1.  It is computed as the
    fixed-point datapath does, ``2c - c|c|`` with ``c = clip(x, -1, 1)``; the
    sign of ``c`` keeps ``-0.0`` and NaN propagates.
    """
    x = np.asarray(x, dtype=np.float64)
    if fn == "tanh":
        return np.tanh(x)
    if fn == "relu":
        return np.maximum(x, 0.0)
    if fn == "sqnl":
        c = np.clip(x, -1.0, 1.0)
        return np.copysign(2.0 * c - c * np.abs(c), c)
    raise ValueError(f"unknown transfer {fn!r}")


def transfer_deriv(fn: str, x):
    """Derivative of :func:`transfer` at ``x`` (one-sided at the kinks)."""
    x = np.asarray(x, dtype=np.float64)
    if fn == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if fn == "relu":
        return (x >= 0.0).astype(np.float64)
    if fn == "sqnl":
        return 2.0 - 2.0 * np.abs(np.clip(x, -1.0, 1.0))
    raise ValueError(f"unknown transfer {fn!r}")


def forward_acts(cfg: NetworkConfig, weights: Weights, x: np.ndarray):
    """All layer activations for a batch ``x`` of shape (n, n_in).

    Returns ``(a1, y1, a2, y2, out)`` with ``out`` of shape (n, 2).
    """
    a1 = x @ weights.w1.T + weights.b1
    y1 = transfer(cfg.transfer, a1)
    a2 = y1 @ weights.w2.T + weights.b2
    y2 = transfer(cfg.transfer, a2)
    out = y2 @ weights.wout.T + weights.bout
    return a1, y1, a2, y2, out


def forward_float_batch(cfg: NetworkConfig, weights, syn: np.ndarray) -> np.ndarray:
    """Batched outputs (n, 2) for uint8 syndromes (n, n_in)."""
    w = expand_rotated(cfg, weights)
    x = np.atleast_2d(syn).astype(np.float64)
    if x.shape[1] != cfg.n_in:
        raise ValueError(f"syndrome width {x.shape[1]} != {cfg.n_in}")
    return forward_acts(cfg, w, x)[-1]


def forward_float(cfg: NetworkConfig, weights, s: np.ndarray):
    """Single-syndrome forward pass.

    Returns ``(yx, yz, LogicalClass(yx > 0, yz > 0))``.
    """
    w = expand_rotated(cfg, weights)
    w.validate(cfg)
    out = forward_float_batch(cfg, w, np.atleast_2d(s))[0]
    yx, yz = float(out[0]), float(out[1])
    return yx, yz, LogicalClass(int(yx > 0.0), int(yz > 0.0))
