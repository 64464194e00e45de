"""Independent reference implementations used as test oracles.

Everything here is deliberately written the straightforward way (loops,
arbitrary-precision ints, exhaustive enumeration) and stays independent of
the library code paths it checks.
"""

import itertools
from fractions import Fraction

import numpy as np


def dense_forward(w, syn, transfer):
    """Hand-rolled forward pass with explicit loops (no matmul)."""
    def f(x):
        if transfer == "tanh":
            return float(np.tanh(x))
        if transfer == "relu":
            return x if x > 0 else 0.0
        if x < -1:
            return -1.0
        if x < 0:
            return 2 * x + x * x
        if x <= 1:
            return 2 * x - x * x
        return 1.0

    y1 = []
    for j in range(w.w1.shape[0]):
        a = w.b1[j]
        for i in range(w.w1.shape[1]):
            a += w.w1[j, i] * syn[i]
        y1.append(f(a))
    y2 = []
    for j in range(w.w2.shape[0]):
        a = w.b2[j]
        for i in range(w.w2.shape[1]):
            a += w.w2[j, i] * y1[i]
        y2.append(f(a))
    out = []
    for o in range(2):
        a = w.bout[o]
        for i in range(w.wout.shape[1]):
            a += w.wout[o, i] * y2[i]
        out.append(a)
    return out


def fixed_forward_bigint(qw, syn, wfrac, abits, transfer):
    """Arbitrary-precision scaled-integer emulation of the fixed datapath.

    Works in exact rationals for the nonlinearity input and truncates
    (floor) to ``abits``-bit two's complement after each hidden layer.
    Returns the two output sign bits.
    """
    maxq = 2 ** (abits - 1) - 1
    minq = -(2 ** (abits - 1))

    def nonlin(value: Fraction) -> int:
        # value is the exact accumulator value; result is the integer code
        if transfer == "sqnl":
            if value >= 1:
                return maxq
            if value <= -1:
                return minq
            y = 2 * value + value * value if value < 0 else 2 * value - value * value
        elif transfer == "relu":
            if value <= 0:
                return 0
            y = value
        else:
            raise ValueError(transfer)
        code = _floor_frac(y * 2 ** (abits - 1))
        return min(max(code, minq), maxq)

    scale_w = Fraction(1, 2 ** wfrac)
    scale_a = Fraction(1, 2 ** (abits - 1))
    y1 = []
    for j in range(len(qw.w1)):
        acc = int(qw.b1[j]) * scale_w
        for i, s in enumerate(syn):
            if s:
                acc += int(qw.w1[j][i]) * scale_w
        y1.append(nonlin(acc))
    y2 = []
    for j in range(len(qw.w2)):
        acc = int(qw.b2[j]) * scale_w
        for i in range(len(y1)):
            acc += int(qw.w2[j][i]) * scale_w * y1[i] * scale_a
        y2.append(nonlin(acc))
    bits = []
    for o in range(2):
        acc = int(qw.bout[o]) * scale_w
        for i in range(len(y2)):
            acc += int(qw.wout[o][i]) * scale_w * y2[i] * scale_a
        bits.append(1 if acc > 0 else 0)
    return bits


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def brute_force_boundary_matching(dist, bnd):
    """Minimum weight over all pairings-with-boundary, by enumeration."""
    k = len(bnd)

    def rec(remaining):
        if not remaining:
            return 0
        u = remaining[0]
        rest = remaining[1:]
        best = bnd[u] + rec(rest)
        for idx, v in enumerate(rest):
            best = min(best, dist[u][v] + rec(rest[:idx] + rest[idx + 1:]))
        return best

    return rec(tuple(range(k)))


def match_weight(dist, bnd, pair) -> int:
    """Total weight of a pair array (``pair[i] = -1``: defect ``i`` goes to
    the boundary)."""
    total = 0
    for i, j in enumerate(pair):
        if j < 0:
            total += int(bnd[i])
        elif j > i:
            total += int(dist[i][j])
    return total


def subset_dp_matching(dist, bnd):
    """Pair array of the bottom-up subset DP over all 2^k defect subsets.

    Same contract and tie-break as ``match_defects``: for the lowest defect
    of each subset the boundary is tried first, then partners in ascending
    index, keeping the first strict improvement.
    """
    dist = [[int(w) for w in row] for row in dist]
    bnd = [int(w) for w in bnd]
    k = len(bnd)
    size = 1 << k
    f = [0] * size
    choice = [0] * size
    for mask in range(1, size):
        u = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << u)
        best = bnd[u] + f[rest]
        best_c = -1
        for v in range(u + 1, k):
            if rest >> v & 1:
                cand = dist[u][v] + f[rest ^ (1 << v)]
                if cand < best:
                    best = cand
                    best_c = v
        f[mask] = best
        choice[mask] = best_c
    pair = [-1] * k
    mask = size - 1
    while mask:
        u = (mask & -mask).bit_length() - 1
        v = choice[mask]
        mask ^= 1 << u
        if v >= 0:
            pair[u] = v
            pair[v] = u
            mask ^= 1 << v
    return pair


def union_find_components(defects, dist, bnd):
    """Sorted defect groups joined wherever ``dist[u][v] < bnd[u] + bnd[v]``,
    ordered by their lowest defect."""
    parent = {u: u for u in defects}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for i, u in enumerate(defects):
        for v in defects[i + 1:]:
            if int(dist[u][v]) < int(bnd[u]) + int(bnd[v]):
                parent[find(u)] = find(v)
    comps = {}
    for u in defects:
        comps.setdefault(find(u), []).append(u)
    return sorted(sorted(c) for c in comps.values())


def gf2_span(generators):
    """All XOR combinations of integer bit masks (small generator counts)."""
    span = {0}
    for g in generators:
        span |= {s ^ g for s in span}
    return span


def enumerate_pauli_configs(n_data):
    """All 4^n single-qubit Pauli assignments as (x_bits, z_bits) uint8
    arrays plus the per-config error count (for exact probabilities)."""
    configs = np.array(list(itertools.product(range(4), repeat=n_data)),
                       dtype=np.uint8)
    x = ((configs == 1) | (configs == 2)).astype(np.uint8)
    z = ((configs == 2) | (configs == 3)).astype(np.uint8)
    nerr = (configs != 0).sum(axis=1).astype(np.int64)
    return x, z, nerr
