"""Pure-numpy reference backend for the hot kernels.

The compiled backend, hand-written C in ``_cykernels.c``, must produce
bit-identical output for every function here; cross-backend equality is
enforced by the test suite, which builds that C source.  Randomness is
counter based (Philox4x32-10), so shot ``k`` of stream ``s`` is reproducible
independently of batching or worker count.
"""

from __future__ import annotations

import numpy as np

# Philox4x32-10 round constants.
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF

# Subset-DP matcher memory cap: 2**22 table entries (16 MiB as int32).
MATCH_DP_MAX = 22


def philox4x32(ctr: np.ndarray, key) -> np.ndarray:
    """10-round Philox4x32 block function.

    ctr: (n, 4) uint32 counters; key: pair of uint32.  Returns (n, 4) uint32.
    """
    ctr = np.asarray(ctr, dtype=np.uint32)
    c0 = ctr[:, 0].copy()
    c1 = ctr[:, 1].copy()
    c2 = ctr[:, 2].copy()
    c3 = ctr[:, 3].copy()
    k0 = int(key[0]) & _MASK32
    k1 = int(key[1]) & _MASK32
    for _ in range(10):
        p0 = c0.astype(np.uint64) * _M0
        p1 = c2.astype(np.uint64) * _M1
        hi0 = (p0 >> np.uint64(32)).astype(np.uint32)
        lo0 = p0.astype(np.uint32)
        hi1 = (p1 >> np.uint64(32)).astype(np.uint32)
        lo1 = p1.astype(np.uint32)
        c0 = hi1 ^ c1 ^ np.uint32(k0)
        c1 = lo1
        c2 = hi0 ^ c3 ^ np.uint32(k1)
        c3 = lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return np.stack([c0, c1, c2, c3], axis=1)


def _raw_u32(n_words_per_shot: int, seed: int, stream: int, shot0: int, n_shots: int):
    """Uniform uint32 words, shaped (n_shots, n_words_per_shot).

    Counter layout per 128-bit block: (shot_lo, shot_hi, block, stream);
    key = (seed_lo, seed_hi).  Block ``j`` supplies words 4j..4j+3 of a shot.
    """
    n_blocks = (n_words_per_shot + 3) // 4
    shots = np.arange(shot0, shot0 + n_shots, dtype=np.uint64)
    ctr = np.empty((n_shots, n_blocks, 4), dtype=np.uint32)
    ctr[:, :, 0] = (shots & np.uint64(_MASK32)).astype(np.uint32)[:, None]
    ctr[:, :, 1] = (shots >> np.uint64(32)).astype(np.uint32)[:, None]
    ctr[:, :, 2] = np.arange(n_blocks, dtype=np.uint32)[None, :]
    ctr[:, :, 3] = np.uint32(stream & _MASK32)
    key = (seed & _MASK32, (seed >> 32) & _MASK32)
    words = philox4x32(ctr.reshape(-1, 4), key)
    return words.reshape(n_shots, n_blocks * 4)[:, :n_words_per_shot]


def sample_pauli_bits(n_data: int, p: float, seed: int, stream: int,
                      shot0: int, n_shots: int):
    """Depolarizing samples: each qubit errs with probability ``p`` and then
    draws X/Y/Z uniformly.  Returns (x_bits, z_bits) uint8 (n_shots, n_data).
    """
    u = _raw_u32(n_data, seed, stream, shot0, n_shots).astype(np.uint64)
    thr = int(round(p * 4294967296.0))  # P(error) = thr / 2^32, exact at p in {0,1}
    t1 = thr // 3
    t2 = (2 * thr) // 3
    err = u < thr
    x = (err & (u < t2)).astype(np.uint8)          # X or Y component
    z = (err & (u >= t1)).astype(np.uint8)         # Y or Z component
    return x, z


def syndrome_bits(x_bits, z_bits, hx, hz):
    """Syndrome of a batch of error configurations.

    X-ancilla rows (``hx``) read the z-plane, Z-ancilla rows the x-plane.
    Returns uint8 (n, n_anc) with X-ancilla bits first.
    """
    x_bits = np.atleast_2d(x_bits)
    z_bits = np.atleast_2d(z_bits)
    sx = z_bits.astype(np.int64) @ hx.T.astype(np.int64)
    sz = x_bits.astype(np.int64) @ hz.T.astype(np.int64)
    return (np.concatenate([sx, sz], axis=1) & 1).astype(np.uint8)


def gf2_matmul(bits, mat):
    """(n, k) @ (k, m) over GF(2); returns uint8."""
    bits = np.atleast_2d(np.asarray(bits))
    return (bits.astype(np.int64) @ np.asarray(mat, dtype=np.int64) & 1).astype(np.uint8)


# Fixed-point transfer function ids.
TRANSFER_SQNL = 0
TRANSFER_RELU = 1


def _sqnl_fixed(acc: np.ndarray, frac: int, bits: int) -> np.ndarray:
    """Saturating quadratic nonlinearity on integers.

    ``acc`` holds values ``A * 2^-frac``; the result is the transfer output
    truncated (floor) to ``bits``-bit two's complement, i.e. integers in
    [-2^(bits-1), 2^(bits-1) - 1] at scale ``2^-(bits-1)``.
    """
    acc = acc.astype(np.int64)
    one = np.int64(1) << frac
    maxq = (1 << (bits - 1)) - 1
    minq = -(1 << (bits - 1))
    shift = 2 * frac - (bits - 1)
    n = (acc << 1) * one - acc * np.abs(acc)      # (2a -+ a^2) at scale 2^-2f
    mid = n >> shift
    out = np.where(acc >= one, maxq, np.where(acc <= -one, minq, mid))
    return np.clip(out, minq, maxq).astype(np.int64)


def _relu_fixed(acc: np.ndarray, frac: int, bits: int) -> np.ndarray:
    acc = np.maximum(acc.astype(np.int64), 0)
    shift = frac - (bits - 1)
    return np.minimum(acc >> shift, (1 << (bits - 1)) - 1)


def fixed_forward_bits(syn, w1, b1, w2, b2, wout, bout,
                       wfrac: int, abits: int, transfer: int):
    """Bit-exact emulation of the combinatorial fixed-point datapath.

    Layer-1 inputs are single bits (multiply = AND with the weight), weights
    and biases are integers at scale ``2^-wfrac``, hidden activations are
    truncated to ``abits``-bit two's complement after the nonlinearity, and
    output nodes report sign bits of their exact accumulated sum.

    syn: (n, n_in) uint8.  Returns (n, 2) uint8 class bits.
    """
    syn = np.atleast_2d(syn).astype(np.int64)
    a1 = syn @ np.asarray(w1, dtype=np.int64).T + np.asarray(b1, dtype=np.int64)
    if transfer == TRANSFER_SQNL:
        nonlin = _sqnl_fixed
    elif transfer == TRANSFER_RELU:
        nonlin = _relu_fixed
    else:
        raise ValueError(f"fixed-point transfer id {transfer} unsupported")
    y1 = nonlin(a1, wfrac, abits)

    a2 = y1 @ np.asarray(w2, dtype=np.int64).T + (
        np.asarray(b2, dtype=np.int64) << (abits - 1)
    )
    y2 = nonlin(a2, wfrac + abits - 1, abits)

    aout = y2 @ np.asarray(wout, dtype=np.int64).T + (
        np.asarray(bout, dtype=np.int64) << (abits - 1)
    )
    return (aout > 0).astype(np.uint8)


def match_defects(dist: np.ndarray, bnd: np.ndarray) -> np.ndarray:
    """Exact minimum-weight matching of defects with a boundary option.

    ``dist[i, j]`` is the pairing weight and ``bnd[i]`` the cost of routing
    defect ``i`` to the boundary.  Any subset of defects may be matched to
    the boundary, so a solution exists for every defect count.  Returns an
    int32 array ``pair`` with ``pair[i] = j`` for matched pairs and
    ``pair[i] = -1`` for boundary-matched defects.

    Tie-breaking is pinned: for the lowest-index unresolved defect the
    boundary option is considered first, then partners in ascending index,
    keeping the first option that strictly improves the total weight.

    Top-down subset DP from the full set.  Each step removes the lowest
    defect ``u``, alone or with one partner, so at most F(k+2) of the 2^k
    subsets are reached (144 of 1,024 at k=10).  A partner ``v`` with
    ``dist[u, v] >= bnd[u] + bnd[v]`` is never tried: the optimum over the
    rest is at most ``bnd[v]`` plus the optimum without ``v``, so such a
    pair never strictly beats the boundary option and skipping it changes
    no choice.  ``k <= MATCH_DP_MAX`` is required.
    """
    dist = np.asarray(dist, dtype=np.int64)
    bnd = np.asarray(bnd, dtype=np.int64)
    k = len(bnd)
    if k == 0:
        return np.empty(0, dtype=np.int32)
    if k > MATCH_DP_MAX:
        raise ValueError(f"defect count {k} exceeds DP cap {MATCH_DP_MAX}")

    bnd_l = bnd.tolist()
    # partners[u]: (v, bit of v, weight) for each v > u that can beat the
    # boundary option, in ascending v
    partners = [
        [(v, 1 << v, row[v]) for v in range(u + 1, k)
         if row[v] < bnd_l[u] + bnd_l[v]]
        for u, row in enumerate(dist.tolist())
    ]
    f = {0: 0}
    # choice[mask]: -1 for boundary, else the partner of the lowest set bit
    choice = {}

    def solve(mask):
        low = mask & -mask
        u = low.bit_length() - 1
        rest = mask ^ low
        sub = f.get(rest)
        if sub is None:
            sub = solve(rest)
        best = bnd_l[u] + sub
        best_c = -1
        for v, bit, w in partners[u]:
            if rest & bit:
                sub = f.get(rest ^ bit)
                if sub is None:
                    sub = solve(rest ^ bit)
                if w + sub < best:
                    best = w + sub
                    best_c = v
        f[mask] = best
        choice[mask] = best_c
        return best

    mask = (1 << k) - 1
    solve(mask)
    pair = [-1] * k
    while mask:
        low = mask & -mask
        v = choice[mask]
        mask ^= low
        if v >= 0:
            u = low.bit_length() - 1
            pair[u] = v
            pair[v] = u
            mask ^= 1 << v
    return np.array(pair, dtype=np.int32)

