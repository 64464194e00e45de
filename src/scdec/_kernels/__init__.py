"""Hot numerical kernels, each bound to one implementation.

``_pykernels`` is the pure-numpy reference for every kernel.  The compiled
extension ``_cykernels``, built from the hand-written C source
``_cykernels.c``, holds only ``sample_pauli_bits`` and ``syndrome_bits``:
with two worker threads on a 2-vCPU host, sampling and syndromes in C and
the rest in numpy ran ``nn-fixed-d9`` at about 1.7M shots/s against 1.1M
with every kernel in C, and kept ``train-d5`` and ``mwpm-d7`` within noise.
Both implementations give identical results (bit for bit).

At import time the two kernels come from the extension when it imports,
and from ``_pykernels`` otherwise.  Set ``SCDEC_BACKEND=python`` to force
the numpy kernels, or ``SCDEC_BACKEND=cython`` (the historical name of the
compiled backend) to require the extension.

    sample_pauli_bits(...)                    depolarizing error sampling
    syndrome_bits(x, z, hx, hz)               stabilizer parity extraction
    philox_lanes(...)                         Philox words by (shot, block, stream) (numpy)
    gf2_matmul(bits, mat)                     batched GF(2) matrix product (numpy)
    fixed_forward_bits(...)                   bit-exact fixed-point NN inference (numpy)
"""

import os

from . import _pykernels as python_backend  # every kernel; perfbench reads this name

_requested = os.environ.get("SCDEC_BACKEND", "").lower()

if _requested in ("", "cython"):
    try:
        from . import _cykernels as _impl
        BACKEND = "cython"
    except ImportError:
        if _requested == "cython":
            raise
        _impl = python_backend
        BACKEND = "python"
elif _requested == "python":
    _impl = python_backend
    BACKEND = "python"
else:
    raise ValueError(f"unknown SCDEC_BACKEND={_requested!r}")

sample_pauli_bits = _impl.sample_pauli_bits
syndrome_bits = _impl.syndrome_bits
philox_lanes = python_backend.philox_lanes
gf2_matmul = python_backend.gf2_matmul
fixed_forward_bits = python_backend.fixed_forward_bits
