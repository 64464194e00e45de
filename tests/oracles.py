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


def sqnl_where(x):
    """sqnl as three nested ``np.where`` branches (NaN maps to 1.0)."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(
        x < -1.0, -1.0,
        np.where(x < 0.0, 2.0 * x + x * x,
                 np.where(x <= 1.0, 2.0 * x - x * x, 1.0)),
    )


def sqnl_deriv_where(x):
    """Derivative of :func:`sqnl_where`, one-sided at the kinks."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(
        x < -1.0, 0.0,
        np.where(x < 0.0, 2.0 + 2.0 * x,
                 np.where(x <= 1.0, 2.0 - 2.0 * x, 0.0)),
    )


def reg_quantized(w, reg_bits):
    """Nearest level of the regulariser grid, step ``2^-(reg_bits-1)``."""
    scale = 1 << (reg_bits - 1)
    k = np.clip(np.ceil(w * scale - 0.5), -scale, scale - 1)
    return k / scale


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
    no choice.
    """
    dist = np.asarray(dist, dtype=np.int64)
    bnd = np.asarray(bnd, dtype=np.int64)
    k = len(bnd)
    if k == 0:
        return np.empty(0, dtype=np.int32)

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


def parity_set_dp(dist, bnd, pair_parity, bnd_parity):
    """Minimum weight and the set of cut parities reached at it, for every
    subset of the ``k`` defects, over every matching without pruning.

    ``pair_parity[u][v]`` and ``bnd_parity[u]`` are the cut parities of the
    path u - v and of u's boundary route.  Returns two lists indexed by the
    subset's bit mask: the weights and frozensets of parities.
    """
    k = len(bnd)
    weight = [0] * (1 << k)
    parities = [frozenset((0,))] * (1 << k)
    for mask in range(1, 1 << k):
        u = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << u)
        options = [(int(bnd[u]) + weight[rest], bnd_parity[u], rest)]
        for v in range(u + 1, k):
            if rest >> v & 1:
                sub = rest ^ (1 << v)
                options.append((int(dist[u][v]) + weight[sub], pair_parity[u][v], sub))
        best = min(w for w, _, _ in options)
        weight[mask] = best
        parities[mask] = frozenset(p ^ q for w, p, sub in options if w == best
                                   for q in parities[sub])
    return weight, parities


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


def random_shortest_path_metric(rng, k, edge_p=0.3, mask_bits=16):
    """(dist, bnd, path_mask, bnd_mask, cut_mask) of a random connected
    graph on defects ``0 .. k-1`` and one boundary node ``k``.

    Edge weights are 1..3 and ``dist``/``bnd`` their Floyd-Warshall
    shortest-path closure, so ties between matchings are common; path masks
    are random multi-bit ints, so tied matchings differ in mask and in the
    parity of their overlap with ``cut_mask``.
    """
    n = k + 1
    inf = 10 ** 6
    w = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    order = rng.permutation(n).tolist()
    for i in range(1, n):                    # a random spanning tree
        a, b = order[i], order[int(rng.integers(0, i))]
        w[a][b] = w[b][a] = int(rng.integers(1, 4))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_p:
                w[a][b] = w[b][a] = int(rng.integers(1, 4))
    for m in range(n):
        for a in range(n):
            for b in range(n):
                if w[a][m] + w[m][b] < w[a][b]:
                    w[a][b] = w[a][m] + w[m][b]
    dist = np.array([row[:k] for row in w[:k]], dtype=np.int32)
    bnd = np.array([w[u][k] for u in range(k)], dtype=np.int32)
    top = 1 << mask_bits
    path_mask = [[0] * k for _ in range(k)]
    for u in range(k):
        for v in range(u + 1, k):
            path_mask[u][v] = path_mask[v][u] = int(rng.integers(1, top))
    bnd_mask = [int(rng.integers(1, top)) for _ in range(k)]
    return dist, bnd, path_mask, bnd_mask, int(rng.integers(1, top))


def shadow_sets(dist, bnd):
    """``out[u][w]``: bit-int of the partners ``v`` of ``u`` that ``w``
    shadows: ``u < w < v``, ``w`` on a shortest u - v path, and
    ``dist[v][x] <= dist[v][w] + dist[w][x]`` for every ``x`` and
    ``bnd[v] <= dist[v][w] + bnd[w]``."""
    k = len(bnd)
    d = [[int(x) for x in row] for row in dist]
    b = [int(x) for x in bnd]
    guard = [[b[v] <= d[v][w] + b[w]
              and all(d[v][x] <= d[v][w] + d[w][x] for x in range(k))
              for w in range(k)] for v in range(k)]
    out = [[0] * k for _ in range(k)]
    for u in range(k):
        for w in range(u + 1, k):
            for v in range(w + 1, k):
                if d[u][w] + d[w][v] == d[u][v] and guard[v][w]:
                    out[u][w] |= 1 << v
    return out


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


def philox_scalar(ctr, key, rounds=10):
    """Reference Philox4x32 (Salmon et al., SC'11) on one block:
    multiply-high/low, xor with bumped keys."""
    M = 0xFFFFFFFF
    c = list(int(x) & M for x in ctr)
    k0, k1 = int(key[0]) & M, int(key[1]) & M
    for _ in range(rounds):
        p0 = c[0] * 0xD2511F53
        p1 = c[2] * 0xCD9E8D57
        c = [((p1 >> 32) ^ c[1] ^ k0) & M, p1 & M,
             ((p0 >> 32) ^ c[3] ^ k1) & M, p0 & M]
        k0 = (k0 + 0x9E3779B9) & M
        k1 = (k1 + 0xBB67AE85) & M
    return c


def pauli_bits_scalar(n_data, p, seed, stream, shot0, n_shots):
    """Depolarizing samples one word at a time: shot ``s`` draws word ``w``
    from block ``w // 4`` with counter (s_lo, s_hi, block, stream) and key
    (seed_lo, seed_hi); the qubit errs when the word is below
    ``thr = round(p * 2^32)``, with X for words below ``2 thr // 3`` and Z
    for words from ``thr // 3`` (both: Y)."""
    M = 0xFFFFFFFF
    thr = int(round(p * 2 ** 32))
    key = (seed & M, (seed >> 32) & M)
    x = np.zeros((n_shots, n_data), dtype=np.uint8)
    z = np.zeros((n_shots, n_data), dtype=np.uint8)
    for i in range(n_shots):
        s = shot0 + i
        words = []
        for block in range((n_data + 3) // 4):
            words += philox_scalar((s & M, s >> 32, block, stream), key)
        for q, u in enumerate(words[:n_data]):
            x[i, q], z[i, q] = pauli_of_word(u, thr)
    return x, z


def pauli_of_word(u, thr):
    """(x, z) bits of one word ``u`` at threshold ``thr``: no error from
    ``thr`` up, X below ``2 thr // 3`` and Z from ``thr // 3`` (both: Y)."""
    if u >= thr:
        return 0, 0
    return int(u < 2 * thr // 3), int(u >= thr // 3)


def syndrome_dense(x_bits, z_bits, hx, hz):
    """Syndromes as dense GF(2) sums, one shot and one check at a time:
    rows of ``hx`` read the z-plane, rows of ``hz`` the x-plane (X-check
    bits first), and only the low bit of every entry counts.  Returns uint8
    (n, len(hx) + len(hz))."""
    def low(rows):
        return [[int(v) & 1 for v in row] for row in rows]

    xs, zs = low(np.atleast_2d(x_bits)), low(np.atleast_2d(z_bits))
    checks = [(row, True) for row in low(hx)] + [(row, False) for row in low(hz)]
    out = [[sum(h * e for h, e in zip(row, zrow if reads_z else xrow)) % 2
            for row, reads_z in checks]
           for xrow, zrow in zip(xs, zs)]
    return np.array(out, dtype=np.uint8).reshape(len(xs), len(checks))


# ------------------------------------------------ rotation and logical class --
# The lattice's 90-degree rotation, on one shot (a vector) or a batch (last
# axis indexed by ancilla or data qubit), and the logical class of one
# residual.

def rotate_syndrome(layout, s):
    """Rotate syndromes 90 degrees: bit ``rot_anc[a]`` of the result is bit
    ``a`` of ``s``."""
    s = np.asarray(s)
    if s.shape[-1] != layout.n_anc:
        raise ValueError(f"syndrome length {s.shape[-1]} != {layout.n_anc}")
    out = np.empty_like(s)
    out[..., list(layout.rot_anc)] = s
    return out


def rotate_error(layout, x_bits, z_bits):
    """Rotate errors 90 degrees: data indices move by ``rot_data`` and the
    X and Z planes swap, because the rotation maps X-stabilizers onto
    Z-stabilizers.  Returns ``(x_bits, z_bits)``."""
    x_bits = np.asarray(x_bits)
    z_bits = np.asarray(z_bits)
    if x_bits.shape[-1] != layout.n_data or z_bits.shape[-1] != layout.n_data:
        raise ValueError("error configuration size mismatch")
    perm = list(layout.rot_data)
    new_x = np.empty_like(z_bits)
    new_z = np.empty_like(x_bits)
    new_x[..., perm] = z_bits
    new_z[..., perm] = x_bits
    return new_x, new_z


def logical_class(layout, x_bits, z_bits):
    """Logical class ``(lx, lz)`` of one residual error with trivial
    syndrome: the X-plane parity along the centre row and the Z-plane parity
    along the centre column.

    Raises ValueError when the syndrome is nontrivial, since the parity would
    then depend on the choice of cut.
    """
    x_bits = np.asarray(x_bits, dtype=np.int64)
    z_bits = np.asarray(z_bits, dtype=np.int64)
    if np.any(z_bits @ layout.hx.T % 2) or np.any(x_bits @ layout.hz.T % 2):
        raise ValueError("residual has nontrivial syndrome; class undefined")
    return (int(x_bits[sorted(layout.logical_cut_z)].sum() % 2),
            int(z_bits[sorted(layout.logical_cut_x)].sum() % 2))


def mask_bits(mask, n):
    """Bit-int ``mask`` as a uint8 vector of its ``n`` low bits, bit ``i``
    at index ``i``."""
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)


# --------------------------------------------------- per-array training step --
# The training step written one parameter array at a time: regularization and
# ADAM loop over the six arrays, weight sharing stacks Python lists, and the
# transfer and its slope each clip the activations.  The library's
# whole-vector step must match it bit for bit.

def _step_transfer(fn, x):
    if fn == "tanh":
        return np.tanh(x)
    if fn == "relu":
        return np.maximum(x, 0.0)
    c = np.clip(x, -1.0, 1.0)
    return np.copysign(2.0 * c - c * np.abs(c), c)


def _step_transfer_deriv(fn, x):
    if fn == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if fn == "relu":
        return (x >= 0.0).astype(np.float64)
    return 2.0 - 2.0 * np.abs(np.clip(x, -1.0, 1.0))


def _step_perms(d):
    from scdec.lattice import build_layout

    layout = build_layout(d)
    fwd = [np.array(layout.rot_anc_power(g), dtype=np.intp) for g in range(4)]
    return fwd, [fwd[-g % 4] for g in range(4)]


def step_expand_rotated(cfg, base):
    """Full shared weights of a rotated net from its quarter-size base."""
    from scdec.nn.config import Weights

    if isinstance(base, Weights):
        return base
    m1 = cfg.n1 // 4
    _, inv = _step_perms(cfg.d)
    w1 = np.vstack([base.w1[:, inv[g]] for g in range(4)])
    b1 = np.tile(base.b1, 4)
    w2 = np.vstack([
        np.hstack([base.w2[:, ((gp - g) % 4) * m1:(((gp - g) % 4) + 1) * m1]
                   for gp in range(4)])
        for g in range(4)
    ])
    b2 = np.tile(base.b2, 4)
    wout = np.hstack([base.wout if g % 2 == 0 else base.wout[::-1] for g in range(4)])
    bout = np.full(2, base.bout[0], dtype=np.float64)
    return Weights(w1, b1, w2, b2, wout, bout)


def step_reduce_rotated_grads(cfg, grads):
    """Base gradients: each base entry sums its four copies, copy 0 first."""
    from scdec.nn.config import BaseWeights

    m1, m2 = cfg.n1 // 4, cfg.n2 // 4
    fwd, _ = _step_perms(cfg.d)
    acc = BaseWeights(**{name: np.zeros(shape)
                         for name, shape in cfg.param_shapes(base=True).items()})
    for g in range(4):
        acc.w1 += grads.w1[g * m1:(g + 1) * m1][:, fwd[g]]
        acc.b1 += grads.b1[g * m1:(g + 1) * m1]
        block2 = grads.w2[g * m2:(g + 1) * m2]
        for gp in range(4):
            rel = (gp - g) % 4
            acc.w2[:, rel * m1:(rel + 1) * m1] += block2[:, gp * m1:(gp + 1) * m1]
        acc.b2 += grads.b2[g * m2:(g + 1) * m2]
        blocko = grads.wout[:, g * m2:(g + 1) * m2]
        acc.wout += blocko if g % 2 == 0 else blocko[::-1]
    acc.bout[0] = grads.bout.sum()
    return acc


def step_loss_and_gradients(cfg, weights, x, t, reg_scale=0.0, reg_bits=5):
    """``(value, grads, out)`` of one batch, one parameter array at a time."""
    from scdec.nn.config import BaseWeights, Weights

    rotated = isinstance(weights, BaseWeights)
    full = step_expand_rotated(cfg, weights)
    a1 = x @ full.w1.T + full.b1
    y1 = _step_transfer(cfg.transfer, a1)
    a2 = y1 @ full.w2.T + full.b2
    y2 = _step_transfer(cfg.transfer, a2)
    out = y2 @ full.wout.T + full.bout
    dout = 2.0 * (out - t)
    gwout = dout.T @ y2
    gbout = dout.sum(axis=0)
    dy2 = dout @ full.wout
    da2 = dy2 * _step_transfer_deriv(cfg.transfer, a2)
    gw2 = da2.T @ y1
    gb2 = da2.sum(axis=0)
    dy1 = da2 @ full.w2
    da1 = dy1 * _step_transfer_deriv(cfg.transfer, a1)
    gw1 = da1.T @ x
    gb1 = da1.sum(axis=0)
    grads_full = Weights(gw1, gb1, gw2, gb2, gwout, gbout)

    value = float(np.sum((out - t) ** 2))
    if reg_scale > 0.0:
        for name, w in full.arrays().items():
            scale = 1 << (reg_bits - 1)
            wq = np.clip(np.ceil(w * scale - 0.5), -scale, scale - 1) / scale
            value += reg_scale * float(np.sum(w * w) + np.sum((w - wq) ** 2))
            g = getattr(grads_full, name)
            g += reg_scale * (2.0 * w + 2.0 * (w - wq))
    if rotated:
        return value, step_reduce_rotated_grads(cfg, grads_full), out
    return value, grads_full, out


def step_adam_init(weights):
    """ADAM moments as one zero array per parameter array."""
    return {"m": {k: np.zeros_like(v) for k, v in weights.arrays().items()},
            "v": {k: np.zeros_like(v) for k, v in weights.arrays().items()},
            "t": 0}


def step_adam(state, weights, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected ADAM update per parameter array, in place."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for name, w in weights.arrays().items():
        g = getattr(grads, name)
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        w -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
