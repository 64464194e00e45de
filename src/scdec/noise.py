"""Code-capacity depolarizing noise and syndrome extraction.

Errors are stored as two bit planes over the data qubits: ``x_bits`` marks an
X component, ``z_bits`` a Z component, both set meaning Y.  Composition of
configurations is XOR per plane.  One error round per decode; there are no
measurement errors.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .lattice import Layout

# Reserved Philox stream ids; eval points use EVAL_STREAM_BASE + point index.
INIT_STREAM = 0
TRAIN_STREAM = 1
EVAL_STREAM_BASE = 16


def sample_depolarizing_bits(layout: Layout, p: float, seed: int, stream: int,
                             shot0: int, n_shots: int):
    """Depolarizing errors of shots ``shot0 .. shot0 + n_shots - 1`` of Philox
    stream ``(seed, stream)``: two uint8 arrays ``(x_bits, z_bits)`` of shape
    ``(n_shots, n_data)``.

    Each data qubit independently stays error free with probability ``1-p``
    and otherwise gets X, Y or Z with probability ``p/3`` each.  Shot ``k``
    depends on ``k`` alone, so any split of a run into batches draws the
    same errors.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"error probability must be in [0, 1], got {p}")
    return _kernels.sample_pauli_bits(layout.n_data, p, seed, stream, shot0, n_shots)


def compute_syndrome_bits(layout: Layout, x_bits: np.ndarray, z_bits: np.ndarray):
    """Syndromes of a batch of error configurations, uint8 ``(n, n_anc)``.

    Bit ``a`` is the parity, over the data qubits adjacent to ancilla ``a``,
    of the opposite-type error component (X-ancillas read ``z_bits``).
    """
    x_bits = np.atleast_2d(x_bits)
    z_bits = np.atleast_2d(z_bits)
    if x_bits.shape[-1] != layout.n_data:
        raise ValueError("error configuration sized for a different layout")
    return _kernels.syndrome_bits(x_bits, z_bits, layout.hx, layout.hz)
