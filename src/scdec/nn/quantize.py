"""Weight quantization onto the two's complement fixed-point grid."""

from __future__ import annotations

import numpy as np

from .config import QuantSpec, QuantizedWeights, Weights


def grid_levels(values, frac: int) -> np.ndarray:
    """Nearest level ``k`` (value ``k * 2^-frac``) of the grid over
    ``[-1, 1 - 2^-frac]``, as float64.

    Ties round toward minus infinity; out-of-range values clip to the
    nearest endpoint.
    """
    scale = 1 << frac
    k = np.ceil(np.asarray(values, dtype=np.float64) * scale - 0.5)
    return np.clip(k, -scale, scale - 1)


def quantize_array(values: np.ndarray, q: QuantSpec) -> np.ndarray:
    """Nearest level of the ``q`` weight grid as integers (see
    :func:`grid_levels`)."""
    return grid_levels(values, q.wfrac).astype(np.int64)


def quantize_weights(weights: Weights, q: QuantSpec) -> QuantizedWeights:
    """Quantize every parameter, biases included."""
    out = QuantizedWeights(
        **{k: quantize_array(v, q) for k, v in weights.arrays().items()},
        spec=q,
    )
    out.validate()
    return out
