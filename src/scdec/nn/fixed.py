"""Bit-exact fixed-point inference mirroring the combinatorial node datapath.

Integer arithmetic only, so results are identical across platforms and
backends.  Layer-1 inputs are single bits (multiply reduces to an AND with
the weight), accumulation is exact wide integer, the nonlinearity is applied
in fixed point (the quadratic via squaring of the accumulator), hidden
outputs are truncated (floor) to the activation bit width, and the output
nodes report only the sign of their sum.

Only sqnl and relu have a hardware nonlinearity; tanh nets cannot be run in
fixed point.
"""

from __future__ import annotations

import numpy as np

from .. import _kernels
from .config import NetworkConfig, QuantizedWeights


def forward_fixed_batch(cfg: NetworkConfig, qw: QuantizedWeights,
                        syn: np.ndarray) -> np.ndarray:
    """Class bits (n, 2) for a uint8 syndrome batch (n, n_in)."""
    if cfg.quant is None:
        raise ValueError("config has no quantization spec")
    if qw.spec != cfg.quant:
        raise ValueError(f"weights quantized for {qw.spec}, config wants {cfg.quant}")
    qw.validate()
    syn = np.atleast_2d(syn)
    if syn.shape[1] != cfg.n_in:
        raise ValueError(f"syndrome width {syn.shape[1]} != {cfg.n_in}")
    return _kernels.fixed_forward_bits(
        syn, qw.w1, qw.b1, qw.w2, qw.b2, qw.wout, qw.bout,
        qw.spec.wfrac, qw.spec.bits, cfg.transfer,
    )
