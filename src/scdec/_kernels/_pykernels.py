"""Pure-numpy reference backend for the hot kernels.

The compiled backend, hand-written C in ``_cykernels.c``, has only the kernels
where C wins (``sample_pauli_bits``, ``syndrome_bits``; see ``scdec._kernels``)
and must produce bit-identical output for them; cross-backend equality is
enforced by the test suite, which builds that C source.  ``philox_lanes``,
``gf2_matmul`` and ``fixed_forward_bits`` run here on both backends.
Randomness is counter based (Philox4x32-10), so shot ``k`` of stream ``s`` is
reproducible independently of batching or worker count.

Bit planes move in few bytes per shot: the sampler compares contiguous
lanes of shots and returns transposed views of qubit-major planes, and
syndromes are XORs of qubit rows packed 64 shots to a word.  Integer
products run through float BLAS only where every sum is provably exact,
float32 below 2^24 and float64 below 2^53, and the kernels check that bound.
"""

from __future__ import annotations

import numpy as np

# Philox4x32-10 round constants.
_MULT = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)  # multiply c0, c2
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF

# Blocks per Philox pass: the (4, n) state and (2, n) product scratch, 768 KiB
# of uint64 at this size, stay in cache through the ten rounds.
_PASS = 1 << 14

# Sums of 0/1 products are exact in float32 below 2^24 (float64: 2^53),
# whatever order BLAS adds them in.
_F32_EXACT = 1 << 24
_F64_EXACT = 1 << 53

# Rows per pass of the BLAS products, so their float copies stay in cache.
_ROWS = 1 << 12


def _round_keys(key) -> np.ndarray:
    """(10, 2, 1) uint64: the key pair (k0, k1) of each round."""
    k0 = int(key[0]) & _MASK32
    k1 = int(key[1]) & _MASK32
    keys = np.empty((10, 2, 1), dtype=np.uint64)
    for r in range(10):
        keys[r] = ((k0,), (k1,))
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return keys


def _rounds(state: np.ndarray, prod: np.ndarray, keys: np.ndarray) -> None:
    """Ten Philox4x32 rounds in place.

    ``state`` is (4, m) uint64 holding the 32-bit words (c0, c1, c2, c3) of
    ``m`` blocks; ``prod`` is (2, m) uint64 scratch.
    """
    ac, bd = state[0::2], state[1::2]       # (c0, c2), (c1, c3)
    swapped = prod[::-1]                    # (c2 * M1, c0 * M0)
    for k in keys:
        np.multiply(ac, _MULT, out=prod)
        np.right_shift(swapped, 32, out=ac)
        ac ^= bd
        ac ^= k
        np.bitwise_and(swapped, _MASK32, out=bd)


def philox_lanes(n_words_per_shot: int, seed: int, stream: int, shot0: int, n_shots: int):
    """Uniform 32-bit words, one pass of whole shots at a time.

    Yields ``(first, lanes)``: ``lanes`` is a (4, n_blocks, shots) uint64
    view of scratch that the next pass overwrites, where ``lanes[w, j, i]``
    is word ``4j + w`` of shot ``shot0 + first + i``.  Counter layout per
    128-bit block: (shot_lo, shot_hi, block, stream); key = (seed_lo,
    seed_hi).  Blocks are laid out block-major within a pass, so each word
    of a block is one contiguous lane of shots; Philox maps every block on
    its own, so the layout changes no word.
    """
    n_blocks = max(1, (n_words_per_shot + 3) // 4)
    per = max(1, min(_PASS // n_blocks, n_shots))
    state = np.empty((4, per * n_blocks), dtype=np.uint64)
    prod = np.empty((2, per * n_blocks), dtype=np.uint64)
    block = np.arange(n_blocks, dtype=np.uint64)[:, None]
    ahead = np.arange(per, dtype=np.uint64)
    keys = _round_keys((seed & _MASK32, (seed >> 32) & _MASK32))
    for first in range(0, n_shots, per):
        s = min(per, n_shots - first)
        st = state[:, :s * n_blocks]
        lanes = st.reshape(4, n_blocks, s)
        shots = ahead[:s] + np.uint64(shot0 + first)
        lanes[0] = shots & _MASK32
        lanes[1] = shots >> 32
        lanes[2] = block
        lanes[3] = stream & _MASK32
        _rounds(st, prod[:, :s * n_blocks], keys)
        yield first, lanes


def sample_pauli_bits(n_data: int, p: float, seed: int, stream: int,
                      shot0: int, n_shots: int):
    """Depolarizing samples: each qubit errs with probability ``p`` and then
    draws X/Y/Z uniformly.  Returns (x_bits, z_bits) uint8 (n_shots, n_data),
    transposed views of qubit-major planes.
    """
    thr = int(round(p * 4294967296.0))  # P(error) = thr / 2^32, exact at p in {0,1}
    t1 = thr // 3
    t2 = (2 * thr) // 3
    n_blocks = max(1, (n_data + 3) // 4)
    # planes[0] is x, planes[1] z; row 4j + w of a plane is qubit 4j + w
    planes = np.empty((2, n_blocks, 4, n_shots), dtype=bool)
    x_lanes, z_lanes = planes.transpose(0, 2, 1, 3)   # shaped as the lanes
    for first, u in philox_lanes(n_data, seed, stream, shot0, n_shots):
        cols = slice(first, first + u.shape[-1])
        np.less(u, t2, out=x_lanes[..., cols])        # X or Y: u < t2 <= thr
        u -= t1                                       # wraps below t1
        np.less(u, thr - t1, out=z_lanes[..., cols])  # Y or Z: t1 <= u < thr
    x, z = planes.reshape(2, 4 * n_blocks, n_shots)[:, :n_data].view(np.uint8)
    return x.T, z.T


def _low_bit_f32(a) -> np.ndarray:
    """Entries of ``a`` reduced to their low bit, as float32."""
    a = np.asarray(a)
    return (a if a.dtype == bool else a & 1).astype(np.float32)


def _check_inner(*lengths) -> None:
    """Reject operands of 2^24 or more terms, where float32 GF(2) sums stop
    being exact; ``syndrome_bits`` keeps the same documented limit."""
    if max(lengths) >= _F32_EXACT:
        raise ValueError(f"GF(2) product over {max(lengths)} terms: "
                         "float32 sums are exact only below 2^24")


def gf2_matmul(bits, mat):
    """(n, k) @ (k, m) over GF(2); returns uint8.  Only the low bit of each
    entry counts; ``k >= 2^24`` raises ValueError.

    Runs ``_ROWS`` rows at a time through float32 BLAS, so the float copy of
    ``bits`` stays in cache.
    """
    bits = np.atleast_2d(np.asarray(bits))
    mat = np.asarray(mat)
    _check_inner(bits.shape[-1], len(mat))
    mat = _low_bit_f32(mat)
    out = np.empty((len(bits),) + mat.shape[1:], dtype=np.uint8)
    for a in range(0, len(bits), _ROWS):
        prod = _low_bit_f32(bits[a:a + _ROWS]) @ mat
        np.bitwise_and(prod.astype(np.int32), 1, out=out[a:a + _ROWS], casting="unsafe")
    return out


def syndrome_bits(x_bits, z_bits, hx, hz):
    """Syndrome of a batch of error configurations.

    X-ancilla rows (``hx``) read the z-plane, Z-ancilla rows the x-plane.
    Returns uint8 (n, n_anc) with X-ancilla bits first, the transposed view
    of an ancilla-major array.  ``n_data >= 2^24`` raises ValueError.

    Each plane's qubit rows are packed 64 shots to a word, and a check's
    bits are the XOR of its support's rows.  Supports are padded to one
    width with an all-zero row, so every check takes the same XORs.
    """
    x_bits = np.atleast_2d(x_bits)
    z_bits = np.atleast_2d(z_bits)
    hx = np.asarray(hx)
    hz = np.asarray(hz)
    _check_inner(x_bits.shape[-1], z_bits.shape[-1], hx.shape[-1], hz.shape[-1])
    if len(x_bits) != len(z_bits):
        raise ValueError("x and z planes hold different numbers of shots")
    n, nd = z_bits.shape
    if not x_bits.shape[-1] == hx.shape[-1] == hz.shape[-1] == nd:
        raise ValueError("error planes and check matrices differ in qubit count")
    # rows: the z-plane's qubits, the x-plane's qubits, then one zero row
    packed = np.zeros((2 * nd + 1, -(-n // 64) * 8), dtype=np.uint8)
    for rows, plane in ((packed[:nd], z_bits), (packed[nd:-1], x_bits)):
        if plane.dtype != bool:
            plane = plane & 1
        rows[:, :-(-n // 8)] = np.packbits(plane.T, axis=1, bitorder="little")
    # each check's support as rows of ``packed``, padded with the zero row
    r, c = np.nonzero(np.vstack([hx, hz]) & 1)
    count = np.bincount(r, minlength=len(hx) + len(hz))
    slot = np.arange(len(r)) - (np.cumsum(count) - count)[r]    # place in its row
    support = np.full((len(count), count.max(initial=0) + 1), 2 * nd)
    support[r, slot] = c + nd * (r >= len(hx))                  # Z checks read x
    words = packed.view(np.uint64)
    acc = words[support[:, 0]]
    for col in support[:, 1:].T:
        acc ^= words[col]
    return np.unpackbits(acc.view(np.uint8), axis=1, count=n, bitorder="little").T


def _sqnl_fixed(acc: np.ndarray, frac: int, bits: int) -> np.ndarray:
    """Saturating quadratic nonlinearity on integers.

    ``acc`` holds int64 values ``A * 2^-frac``; the result is the transfer
    output truncated (floor) to ``bits``-bit two's complement, i.e. integers
    in [-2^(bits-1), 2^(bits-1) - 1] at scale ``2^-(bits-1)``.  Clipping
    ``A`` to [-1, 1] first gives exactly +-2^(bits-1) there, which the final
    clip saturates as the transfer does.
    """
    one = 1 << frac
    c = np.clip(acc, -one, one)
    sq = np.abs(c)
    sq *= c
    c <<= frac + 1
    c -= sq                                     # (2a -+ a^2) at scale 2^-2f
    c >>= 2 * frac - (bits - 1)
    return np.clip(c, -(1 << (bits - 1)), (1 << (bits - 1)) - 1, out=c)


def _relu_fixed(acc: np.ndarray, frac: int, bits: int) -> np.ndarray:
    """ReLU on integers, scaled as :func:`_sqnl_fixed`."""
    c = np.maximum(acc, 0)
    c >>= frac - (bits - 1)
    return np.minimum(c, (1 << (bits - 1)) - 1, out=c)


# The nonlinearities that have a fixed-point datapath, by transfer name.
_FIXED_TRANSFERS = {"sqnl": _sqnl_fixed, "relu": _relu_fixed}


def _exact_weights(w, a_max: int) -> np.ndarray:
    """``w.T`` as float for products ``a @ w.T`` with ``|a| <= a_max``.

    Such a product is exact while every sum stays below the bound
    ``n_terms * a_max * max|w|``: float32 when that bound is below 2^24,
    float64 below 2^53, and ValueError when it reaches 2^53.
    """
    w = np.asarray(w, dtype=np.int64)
    bound = w.shape[-1] * a_max * int(np.abs(w).max(initial=0))
    if bound >= _F64_EXACT:
        raise ValueError("fixed-point sums could reach 2^53, "
                         "beyond exact float64 arithmetic")
    return w.T.astype(np.float32 if bound < _F32_EXACT else np.float64)


def fixed_forward_bits(syn, w1, b1, w2, b2, wout, bout,
                       wfrac: int, abits: int, transfer: str):
    """Bit-exact emulation of the combinatorial fixed-point datapath.

    Layer-1 inputs are single bits (multiply = AND with the weight), weights
    and biases are integers at scale ``2^-wfrac``, hidden activations are
    truncated to ``abits``-bit two's complement after the nonlinearity, and
    output nodes report sign bits of their exact accumulated sum.  Each
    layer's weighted sums run ``_ROWS`` shots at a time through float32
    BLAS when its operand bound (inputs below 2^8, activations at most
    2^(abits-1)) keeps them below 2^24, and through float64 BLAS otherwise;
    the nonlinearity is int64, ``"sqnl"`` or ``"relu"``.

    syn: (n, n_in) uint8.  Returns (n, 2) uint8 class bits.
    """
    try:
        nonlin = _FIXED_TRANSFERS[transfer]
    except KeyError:
        raise ValueError(f"no fixed-point datapath for transfer {transfer!r}") from None
    syn = np.atleast_2d(np.asarray(syn)).astype(np.uint8, copy=False)
    a_max = 1 << (abits - 1)
    w1t = _exact_weights(w1, 255)
    w2t = _exact_weights(w2, a_max)
    woutt = _exact_weights(wout, a_max)
    b1 = np.asarray(b1, dtype=np.int64)
    b2 = np.asarray(b2, dtype=np.int64) << (abits - 1)
    bout = np.asarray(bout, dtype=np.int64) << (abits - 1)
    out = np.empty((len(syn), woutt.shape[1]), dtype=np.uint8)
    for a in range(0, len(syn), _ROWS):
        acc = (syn[a:a + _ROWS].astype(w1t.dtype) @ w1t).astype(np.int64)
        acc += b1
        y1 = nonlin(acc, wfrac, abits)
        acc = (y1.astype(w2t.dtype) @ w2t).astype(np.int64)
        acc += b2
        y2 = nonlin(acc, wfrac + abits - 1, abits)
        acc = (y2.astype(woutt.dtype) @ woutt).astype(np.int64)
        acc += bout
        np.greater(acc, 0, out=out[a:a + _ROWS])
    return out

