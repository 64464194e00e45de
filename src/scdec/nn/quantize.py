"""Weight quantization onto the two's complement fixed-point grid."""

from __future__ import annotations

import numpy as np

from .config import QuantSpec, QuantizedWeights, Weights


def quantize_array(values: np.ndarray, q: QuantSpec) -> np.ndarray:
    """Nearest grid level as integers ``k`` (value ``k * 2^-wfrac``).

    Ties round toward minus infinity; out-of-range values clip to the
    nearest endpoint of ``[-1, 1 - 2^-wfrac]``.
    """
    v = np.asarray(values, dtype=np.float64) * (1 << q.wfrac)
    k = np.ceil(v - 0.5)
    return np.clip(k, q.min_int, q.max_int).astype(np.int64)


def quantize_weights(weights: Weights, q: QuantSpec) -> QuantizedWeights:
    """Quantize every parameter, biases included."""
    out = QuantizedWeights(
        **{k: quantize_array(v, q) for k, v in weights.arrays().items()},
        spec=q,
    )
    out.validate()
    return out
