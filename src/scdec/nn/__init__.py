"""Feed-forward syndrome classifier: float and bit-exact fixed-point paths."""

from .config import (
    NetworkConfig,
    QuantSpec,
    Weights,
    BaseWeights,
    QuantizedWeights,
    save_checkpoint,
    load_checkpoint,
)
from .forward import forward_float_batch, forward_acts
from .rotated import expand_rotated, reduce_rotated_grads
from .quantize import quantize_array, quantize_weights
from .fixed import forward_fixed_batch

__all__ = [
    "NetworkConfig", "QuantSpec", "Weights", "BaseWeights", "QuantizedWeights",
    "save_checkpoint", "load_checkpoint",
    "forward_float_batch", "forward_acts",
    "expand_rotated", "reduce_rotated_grads",
    "quantize_array", "quantize_weights",
    "forward_fixed_batch",
]
