"""Hot numerical kernels with two interchangeable backends.

At import time the compiled extension ``_cykernels``, built from the
hand-written C source ``_cykernels.c``, is preferred; a pure-numpy fallback
provides identical results (bit for bit) when the extension is unavailable.
Set ``SCDEC_BACKEND=python`` to force the fallback, or
``SCDEC_BACKEND=cython`` (the historical name of the compiled backend) to
require the extension.

Both backends expose:

    philox4x32(ctr, key)                      raw counter-based RNG block
    sample_pauli_bits(...)                    depolarizing error sampling
    syndrome_bits(x, z, hx, hz)               stabilizer parity extraction
    gf2_matmul(bits, mat)                     batched GF(2) matrix product
    fixed_forward_bits(...)                   bit-exact fixed-point NN inference
    match_defects(dist, bnd)                  exact min-weight defect matching
"""

import os

_requested = os.environ.get("SCDEC_BACKEND", "").lower()

if _requested in ("", "cython"):
    try:
        from . import _cykernels as _impl
        BACKEND = "cython"
    except ImportError:
        if _requested == "cython":
            raise
        from . import _pykernels as _impl
        BACKEND = "python"
elif _requested == "python":
    from . import _pykernels as _impl
    BACKEND = "python"
else:
    raise ValueError(f"unknown SCDEC_BACKEND={_requested!r}")

philox4x32 = _impl.philox4x32
sample_pauli_bits = _impl.sample_pauli_bits
syndrome_bits = _impl.syndrome_bits
gf2_matmul = _impl.gf2_matmul
fixed_forward_bits = _impl.fixed_forward_bits
match_defects = _impl.match_defects

from . import _pykernels as python_backend  # always importable, for benchmarks

MATCH_DP_MAX = _impl.MATCH_DP_MAX
