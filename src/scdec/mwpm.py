"""Exact minimum-weight perfect matching baseline decoder.

X-ancilla defects and Z-ancilla defects are decoded independently.  Within a
type, defects are matched pairwise or to the lattice boundary so the total
correction length is minimal; corrections run along shortest paths in the
ancilla adjacency graph (edge = the data qubit shared by two same-type
ancillas, boundary exit = a data qubit seen by exactly one same-type
ancilla).  Edge weights are the number of data-qubit flips.

Tie-breaking is pinned for reproducibility: shortest paths come from a BFS
that scans neighbours in ascending index, and among equal-weight matchings
the lowest-index defect prefers the boundary, then the lowest-index partner.
A partner ``v`` is shadowed when a defect ``w`` of the same subset, ``u <
w < v``, lies on a shortest u - v path (``_shadowed``): pairing u with w is
then never heavier, so v is never that choice, and the DP skips it without
changing any weight, parity or mask.

Both sectors share one set of DP tables.  The 90-degree rotation of the
lattice maps X-local ancilla u onto Z-local ancilla u and the one logical
cut onto the other, so the two sectors have equal distances, boundary
routes and path parity bits, array for array; only the data-qubit masks
differ (``_tables`` checks this).  A key of either sector therefore gets
the same DP values, with the same tie rule, and keys of both sectors can
share one DP.  This rests on the rotation alone, not on the parity argument
for odd d.

One exact matcher serves both decoding paths.  Defects are held as uint64
keys over local ancilla indices and split into interaction components,
matched one by one (``_split_components``).  A lone defect takes its
boundary route; every component of 2 or more defects goes to one
level-by-level subset DP (``_levels``) of ``weight << 1 | cut_parity``
values, which reaches only the subsets left after shadowed partners are
skipped.  Batch decoding (``cut_parities_batch``) packs both sectors' keys
of a batch into one ``_parities`` call: one dedupe, one component split and
one DP, solved in slices, whose parities are split back into the two
sectors.  The cut parity of a matching is the XOR of one precomputed bit
per path, so it never builds a correction mask.
Single-shot decoding (``decode_masks``) runs one DP over both sectors'
components and traces each component's matching back down its levels,
XORing the paths' data-qubit masks of its own sector.
Nothing is kept between calls but the per-distance tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .lattice import ANC_X, ANC_Z, Layout, build_layout
from .noise import ErrorConfig, Syndrome

_INF = 10 ** 9

# ``_pack_bits`` keys one sector's defects as a uint64, and a sector holds
# (d*d - 1) / 2 ancillas, so d = 11 (60 ancillas) is the widest that fits.
_KEY_BITS = 64
MAX_DISTANCE = 11


@dataclass(frozen=True)
class _TypeTables:
    """Per-ancilla-type decode tables (all indices local to the type)."""

    dist: np.ndarray          # (k, k) int32 pairwise path lengths
    bnd: np.ndarray           # (k,) int32 boundary path lengths
    path_mask: list           # path_mask[u][v]: data-qubit set as a bit-int
    bnd_mask: list            # bnd_mask[u]: boundary path data bits
    cut_mask: int             # data bits of the logical cut this plane crosses
    # Arrays of the DP; a matching value is ``weight << 1 | parity``.
    inter_keys: np.ndarray    # (k,) uint64: bit v of inter_keys[u] is set
                              # where dist[u, v] < bnd[u] + bnd[v], v != u
    or_tab: np.ndarray        # (ceil(k/8), 256) uint64: [j, b] = OR of
                              # inter_keys[8j + i] over the set bits i of b
    shadow: np.ndarray        # (k, ceil(k/8), 256) uint64: [u, j, b] = the
                              # partners of u that the defects 8j + i, i a
                              # set bit of b, shadow (see ``_shadowed``)
    single: np.ndarray        # (k,) int64 value of u's boundary route
    pair: np.ndarray          # (k, k) int64 value of the path u - v
    pop8: np.ndarray          # (256,) int64 popcount of a byte
    reach: np.ndarray         # (k + 1,) int64: F(n + 2), the most subsets
                              # the DP reaches from n defects


@lru_cache(maxsize=None)
def _tables(d: int):
    """(X-sector, Z-sector) decode tables of distance ``d``.  The Z tables
    share every DP array of the X tables and hold only their own masks (see
    the module docstring); raises if the sectors' distances, boundary routes
    or parity bits ever differ."""
    layout = build_layout(d)
    tx = _type_tables(*_sector_paths(layout, ANC_X))
    dist, bnd, path_mask, bnd_mask, cut_mask = _sector_paths(layout, ANC_Z)
    single, pair = _parity_bits(path_mask, bnd_mask, cut_mask)
    if not (np.array_equal(dist, tx.dist) and np.array_equal(bnd, tx.bnd)
            and np.array_equal(single, tx.single & 1)
            and np.array_equal(pair, tx.pair & 1)):
        raise RuntimeError(f"d={d}: the Z sector's distances, boundary routes "
                           f"or parity bits differ from the X sector's")
    return tx, replace(tx, path_mask=path_mask, bnd_mask=bnd_mask,
                       cut_mask=cut_mask)


def _sector_paths(layout: Layout, t: int):
    """(dist, bnd, path_mask, bnd_mask, cut_mask) of the ancillas of type
    ``t``, indexed locally: BFS shortest paths that scan neighbours in
    ascending index, and the lowest-weight boundary exit."""
    anc_range = (range(layout.n_anc_x) if t == ANC_X
                 else range(layout.n_anc_x, layout.n_anc))
    offset = anc_range.start
    k = len(anc_range)
    nbrs = [[] for _ in range(k)]          # (neighbour, data) per node
    bnd_data = [[] for _ in range(k)]      # direct boundary exits
    for q in range(layout.n_data):
        touching = [a - offset for a in range(offset, offset + k)
                    if q in layout.anc_adjacency[a]]
        if len(touching) == 2:
            u, v = touching
            nbrs[u].append((v, q))
            nbrs[v].append((u, q))
        elif len(touching) == 1:
            bnd_data[touching[0]].append(q)
    for lst in nbrs:
        lst.sort()

    dist = np.full((k, k), _INF, dtype=np.int32)
    path_mask = [[0] * k for _ in range(k)]
    for u in range(k):
        dist[u, u] = 0
        prev = {u: (None, None)}
        order = [u]
        head = 0
        while head < len(order):
            cur = order[head]
            head += 1
            for v, q in nbrs[cur]:
                if v not in prev:
                    prev[v] = (cur, q)
                    dist[u, v] = dist[u, cur] + 1
                    order.append(v)
        for v in range(k):
            if v != u and v in prev:
                mask = 0
                node = v
                while node != u:
                    node, q = prev[node]
                    mask |= 1 << q
                path_mask[u][v] = mask

    bnd = np.full(k, _INF, dtype=np.int32)
    bnd_mask = [0] * k
    for u in range(k):
        best = (_INF, None, None)  # (weight, exit node, exit data)
        for v in range(k):
            if dist[u, v] < _INF and bnd_data[v]:
                cand = (int(dist[u, v]) + 1, v, bnd_data[v][0])
                if cand < best:
                    best = cand
        if best[1] is not None:
            wt, v, q = best
            bnd[u] = wt
            bnd_mask[u] = path_mask[u][v] | (1 << q)

    # X-ancilla matchings emit Z corrections, crossing the column cut;
    # Z-ancilla matchings emit X corrections, crossing the row cut.
    cut = layout.logical_cut_x if t == ANC_X else layout.logical_cut_z
    return dist, bnd, path_mask, bnd_mask, sum(1 << q for q in cut)


def _parity_bits(path_mask: list, bnd_mask: list, cut_mask: int):
    """int64 cut parity of each boundary route (k,) and each path (k, k)."""
    single = np.array([(m & cut_mask).bit_count() & 1 for m in bnd_mask],
                      dtype=np.int64)
    pair = np.array([[(m & cut_mask).bit_count() & 1 for m in row]
                     for row in path_mask], dtype=np.int64)
    return single, pair


def _type_tables(dist: np.ndarray, bnd: np.ndarray, path_mask: list,
                 bnd_mask: list, cut_mask: int) -> _TypeTables:
    """Complete one sector's tables from its paths and the logical cut."""
    k = len(bnd)
    single_par, pair_par = _parity_bits(path_mask, bnd_mask, cut_mask)
    d64 = dist.astype(np.int64)
    b64 = bnd.astype(np.int64)
    near = d64 < b64[:, None] + b64[None, :]
    np.fill_diagonal(near, False)
    inter_keys = _pack_bits(near)
    # w may shadow v (u < w < v) only where re-pairing v with w's partner x
    # or with the boundary costs no more: dist[v, x] <= dist[v, w] +
    # dist[w, x] for every x and bnd[v] <= dist[v, w] + bnd[w]
    guard = ((d64[:, None, :] <= d64[:, :, None] + d64[None]).all(axis=2)
             & (b64[:, None] <= d64 + b64[None, :]))                # [v, w]
    ix = np.arange(k)
    shadows = ((d64[:, :, None] + d64[None] == d64[:, None, :])     # [u, w, v]
               & guard.T[None]
               & (ix[:, None, None] < ix[None, :, None])
               & (ix[None, :, None] < ix[None, None, :]))
    byte_bits = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)
    fib = np.ones(k + 2, dtype=np.int64)   # F(i + 1); F(62) (k = 60) fits
    for i in range(2, fib.size):
        fib[i] = fib[i - 1] + fib[i - 2]
    return _TypeTables(
        dist, bnd, path_mask, bnd_mask, cut_mask, inter_keys,
        _or_table(inter_keys, byte_bits),
        _or_table(_pack_bits(shadows.reshape(k * k, k)).reshape(k, k),
                  byte_bits),
        b64 << 1 | single_par, d64 << 1 | pair_par,
        byte_bits.sum(axis=1, dtype=np.int64), fib[1:])


def _or_table(keys: np.ndarray, byte_bits: np.ndarray) -> np.ndarray:
    """Byte-wise OR tables of the uint64 ``keys[..., i]`` over their last
    axis: ``[..., j, b]`` is the OR of ``keys[..., 8j + i]`` over the set
    bits i of the byte b (``byte_bits[b, i]``)."""
    k = keys.shape[-1]
    n_bytes = -(-k // 8)
    pad = np.zeros(keys.shape[:-1] + (n_bytes * 8,), dtype=np.uint64)
    pad[..., :k] = keys
    pad = pad.reshape(keys.shape[:-1] + (n_bytes, 1, 8))
    return np.bitwise_or.reduce(np.where(byte_bits, pad, np.uint64(0)),
                                axis=-1)


# Caps the batch DP's memory: ``_parities`` hands ``_solve`` its components
# in slices whose reachable-subset bounds, the sum of F(n + 2), stay at or
# below this (or one component alone), and a slice's arrays are freed before
# the next.  F(n + 2) ignores the shadowed partners the DP skips, so the
# bound is loose: on 1,000 d=9 shots at eps=0.3 one unsliced DP peaked at
# 72 MiB RSS, against 57 MiB in slices (415 against 78 MiB before the
# skipping).  A component of 26 or more defects passes this bound alone and
# runs alone, yet reaches few subsets: a fully set d=11 sector (60 defects)
# reaches 8,421, at most 222 in one level, and a seeded search over 10,000
# d=11 keys of defect density 0.05 to 0.6, steered towards the largest
# reach, found at most 9,224, at most 582 in one level (tests/test_mwpm.py
# checks the per-level limit).  Peak RSS of whole ``scdec eval --decoder
# mwpm`` runs (2-vCPU x86-64 host, CPython 3.11, numpy 2.4, 16,384-shot
# shards that may span points, both sectors' keys in one DP, two worker
# threads, so up to two DPs live at once): 55 MiB for the default d=9
# grid at 3,000 shots, 52 MiB for 20,000 d=9 shots at eps=0.3 and
# 54 MiB for the default d=11 grid at 2,000 shots.
_SLICE_SUBSETS = 1 << 18


def _parities(t: _TypeTables, keys: np.ndarray) -> np.ndarray:
    """uint8 cut parity of the minimum-weight correction of each uint64
    defect key (bits are local ancilla indices).  Only the DP arrays of
    ``t`` are read, never its masks, so the keys of both sectors of
    ``_tables`` may be decoded in one call."""
    keys, key_inv = np.unique(keys, return_inverse=True)
    rows, comps = _split_components(keys, t.or_tab)
    uniq, inv = np.unique(comps, return_inverse=True)
    n = _popcount(uniq, t.pop8)
    val = np.empty(uniq.size, dtype=np.int64)
    lone = n == 1               # a lone defect takes its boundary route
    val[lone] = t.single[_bit_index(uniq[lone])]
    # DP components in ascending size, in slices whose reachable-subset
    # bounds sum to at most _SLICE_SUBSETS (one component at least)
    order = np.flatnonzero(~lone)
    order = order[np.argsort(n[order], kind="stable")]
    bound = np.cumsum(t.reach[n[order]])
    start = 0
    while start < order.size:
        base = bound[start - 1] if start else 0
        stop = max(int(np.searchsorted(bound, base + _SLICE_SUBSETS,
                                       side="right")), start + 1)
        part = order[start:stop]
        val[part] = _solve(t, uniq[part])
        start = stop
    odd = np.bincount(rows, weights=val[inv] & 1, minlength=keys.size)
    return (odd % 2).astype(np.uint8)[key_inv]


def _solve(t: _TypeTables, comps: np.ndarray) -> np.ndarray:
    """``weight << 1 | cut_parity`` of the optimal matching of each subset
    in ``comps`` (2 or more defects each)."""
    n = _popcount(comps, t.pop8)
    out = np.empty(comps.size, dtype=np.int64)
    for m, (subs, vals) in enumerate(_levels(t, comps)):
        at = n == m
        out[at] = vals[np.searchsorted(subs, comps[at])]
    return out


def _levels(t: _TypeTables, comps: np.ndarray) -> list:
    """``levels[m] = (subsets, values)``, m from 0 to the largest popcount
    in ``comps`` (2 or more defects each): the sorted distinct
    subsets of m defects that the DP over ``comps`` reaches, and the
    ``weight << 1 | cut_parity`` of each one's optimal matching.  Levels 0
    and 1 list the empty set and every lone defect.

    A subset DP with the pinned tie rule, one level of popcount at a time.
    Top-down, each level's distinct subsets are expanded: the lowest defect
    ``u`` goes to the boundary (the rest is one level down) or to a partner
    ``v``, a defect of the rest in ``inter_keys[u]`` that no defect of the
    rest shadows (two levels down, see ``_shadowed``), taken in rounds of
    ascending ``v``.  Bottom-up, the boundary option is the first best and
    each round replaces it only on a strict improvement.
    The cut parity of an option is its path's parity bit XOR the remaining
    subset's parity.
    """
    n = _popcount(comps, t.pop8)
    top = int(n.max())
    # refs[m]: arrays of the size-m subsets that the comps and the levels
    # above need, in order of reference; filled[m]: their count
    refs = [[comps[n == m]] for m in range(top + 1)]
    filled = [r[0].size for r in refs]
    down = []
    for m in range(top, 1, -1):
        uniq, inv = np.unique(np.concatenate(refs[m]), return_inverse=True)
        low = uniq & (~uniq + np.uint64(1))
        u = _bit_index(low)
        rest = uniq ^ low
        rounds = []
        down.append((uniq, inv, u, filled[m - 1], rounds))
        refs[m - 1].append(rest)
        filled[m - 1] += rest.size
        left = rest & t.inter_keys[u] & ~_shadowed(t, u, rest)
        rows = np.flatnonzero(left)
        left = left[rows]
        while rows.size:            # round i: the i-th lowest partner
            bit = left & (~left + np.uint64(1))
            rounds.append(
                (rows, t.pair[u[rows], _bit_index(bit)], filled[m - 2]))
            refs[m - 2].append(rest[rows] ^ bit)
            filled[m - 2] += rows.size
            left ^= bit
            keep = np.flatnonzero(left)
            rows, left = rows[keep], left[keep]
    levels = [(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int64)),
              (np.uint64(1) << np.arange(t.single.size, dtype=np.uint64),
               t.single)]
    # refval[m]: the value of every size-m reference, in order
    refval = [np.zeros(filled[0], dtype=np.int64),
              t.single[_bit_index(np.concatenate(refs[1]))]]
    for uniq, inv, u, off, rounds in reversed(down):
        sub = refval[-1][off:off + u.size]
        best = (t.single[u] >> 1) + (sub >> 1)
        par = t.single[u] ^ sub
        below = refval[-2]
        for rows, path, at in rounds:
            sub = below[at:at + rows.size]
            cand = (path >> 1) + (sub >> 1)
            better = np.flatnonzero(cand < best[rows])
            best[rows[better]] = cand[better]
            par[rows[better]] = path[better] ^ sub[better]
        vals = best << 1 | (par & 1)
        levels.append((uniq, vals))
        refval.append(vals[inv])
    return levels


def _corr_mask(t: _TypeTables, defect_key: int) -> int:
    """Data-qubit bit-int of the minimum-weight correction for one sector's
    defect pattern, encoded as a bit-int over local ancilla indices."""
    return _corr_masks([(t, defect_key)])[0]


def _corr_masks(sectors) -> list:
    """``_corr_mask`` of each ``(tables, defect_key)`` of ``sectors``, whose
    tables share one set of DP arrays (as the two of ``_tables`` do).

    One ``_levels`` call covers the DP components of every key: a subset's
    optimum does not depend on which other subsets the DP reaches.  Each
    component is then traced with its own sector's masks.
    """
    t0 = sectors[0][0]
    if any(t.pair is not t0.pair for t, _ in sectors):
        raise ValueError("the sectors do not share their DP tables")
    keys = np.array([key for _, key in sectors], dtype=np.uint64)
    rows, comps = _split_components(keys, t0.or_tab)
    n = _popcount(comps, t0.pop8)
    multi = comps[n > 1]
    levels = _levels(t0, multi) if multi.size else None
    masks = [0] * len(sectors)
    for row, comp, k in zip(rows.tolist(), comps.tolist(), n.tolist()):
        t = sectors[row][0]
        if k == 1:
            masks[row] ^= t.bnd_mask[comp.bit_length() - 1]
        else:
            masks[row] ^= _trace(t, levels, comp)
    return masks


def _trace(t: _TypeTables, levels: list, comp: int) -> int:
    """Data-qubit bit-int of the matching that the DP ``levels`` chose for
    ``comp``.

    From the full set down, the lowest defect ``u`` takes the first option
    whose weight plus the rest's optimum equals the subset's optimum: the
    boundary, then the partners ``v`` that ``_levels`` expands, in
    ascending order.  That is the option the DP's first strict improvement
    keeps, and every subset it looks up is one the DP reached.
    """
    def weight(sub: int) -> int:
        subs, vals = levels[sub.bit_count()]
        return int(vals[np.searchsorted(subs, np.uint64(sub))]) >> 1

    mask = 0
    best = weight(comp)
    while comp:
        u = (comp & -comp).bit_length() - 1
        rest = comp ^ (1 << u)
        w, sub, path = int(t.single[u]) >> 1, rest, t.bnd_mask[u]
        left = int(t.inter_keys[u] & ~_shadowed(t, u, rest)[0]) & rest
        while w + weight(sub) != best:
            bit = left & -left
            v = bit.bit_length() - 1
            w, sub, path = int(t.pair[u, v]) >> 1, rest ^ bit, t.path_mask[u][v]
            left ^= bit
        mask ^= path
        comp, best = sub, best - w
    return mask


def _shadowed(t: _TypeTables, u, rest) -> np.ndarray:
    """uint64 set of the partners of each lowest defect ``u`` that a defect
    of its ``rest`` shadows (scalars or equal-length arrays).

    ``w`` shadows ``v`` when ``u < w < v``, ``w`` lies on a shortest u - v
    path (``dist[u, w] + dist[w, v] == dist[u, v]``) and ``_type_tables``
    found that re-pairing ``v`` costs no more (its guard).  If pairing u
    with v is optimal, pairing u with w and v with w's partner (or the
    boundary) is optimal too, and w comes first, so the first strict
    improvement never takes v and the DP need not reach its subset.
    """
    octets = np.asarray(rest, dtype="<u8").reshape(-1, 1).view(np.uint8)
    flat = t.shadow.reshape(-1)
    at = np.asarray(u) * (t.shadow.shape[1] << 8)     # flat index of [u, 0, 0]
    out = flat.take(at + octets[:, 0])
    for j in range(1, t.shadow.shape[1]):
        at += 256
        out |= flat.take(at + octets[:, j])
    return out


def _bit_index(bits: np.ndarray) -> np.ndarray:
    """Index of the set bit of each uint64 power of two."""
    return np.frexp(bits.astype(np.float64))[1] - 1


def _popcount(keys: np.ndarray, pop8: np.ndarray) -> np.ndarray:
    """int64 set-bit count of each uint64 key."""
    octets = np.ascontiguousarray(keys, dtype=np.uint64).view(np.uint8)
    return pop8[octets].reshape(-1, 8).sum(axis=1)


def _split_components(keys: np.ndarray, or_tab: np.ndarray):
    """(row, component) of every interaction component of every uint64
    defect key.

    When ``dist[u, v] >= bnd[u] + bnd[v]`` a matched pair (u, v) can be
    replaced by two boundary routes without increasing the total weight, so
    the minimum weight is preserved by matching the connected components of
    the complementary relation, ``inter_keys``, independently.

    Each round takes the lowest remaining defect of every nonzero key and
    grows it by the byte-wise OR tables of ``inter_keys`` until it stops
    changing, then removes it from the key; so a key's components come out
    lowest first.
    """
    shifts = np.arange(0, 8 * or_tab.shape[0], 8, dtype=np.uint64)
    byte = np.arange(or_tab.shape[0])
    rows = np.flatnonzero(keys)
    rest = keys[rows]
    out_rows, out_comps = [rows[:0]], [rest[:0]]
    while rows.size:
        comp = rest & (~rest + np.uint64(1))
        grow = np.arange(rows.size)
        while grow.size:
            c = comp[grow]
            near = np.bitwise_or.reduce(
                or_tab[byte, c[:, None] >> shifts & np.uint64(0xFF)], axis=1)
            wider = c | (near & rest[grow])
            changed = wider != c
            grow = grow[changed]
            comp[grow] = wider[changed]
        out_rows.append(rows)
        out_comps.append(comp)
        rest = rest ^ comp
        keep = rest != 0
        rows, rest = rows[keep], rest[keep]
    return np.concatenate(out_rows), np.concatenate(out_comps)


class MwpmDecoder:
    """Decoder for one layout; keeps no state between calls."""

    def __init__(self, layout: Layout):
        widest = max(layout.n_anc_x, layout.n_anc - layout.n_anc_x)
        if widest > _KEY_BITS:
            raise ValueError(
                f"MWPM supports distances up to {MAX_DISTANCE}: d={layout.d} "
                f"has {widest} ancillas per sector, more than {_KEY_BITS}")
        self.layout = layout
        self._tx, self._tz = _tables(layout.d)

    def decode_masks(self, syn_bits: np.ndarray):
        """(z_plane_mask, x_plane_mask) bit-ints for one syndrome."""
        nx = self.layout.n_anc_x
        row = np.asarray(syn_bits)[None, :]
        key_x = int(_pack_bits(row[:, :nx])[0])
        key_z = int(_pack_bits(row[:, nx:])[0])
        # X defects -> Z corrections, Z defects -> X corrections
        zmask, xmask = _corr_masks([(self._tx, key_x), (self._tz, key_z)])
        return zmask, xmask

    def cut_parities_batch(self, syn: np.ndarray):
        """(lz, lx) correction cut parities for a syndrome batch.

        ``lz`` comes from the Z-plane corrections (X-ancilla matchings) and
        ``lx`` from the X-plane corrections.  Both sectors' keys go through
        one ``_parities`` call on the shared DP tables.
        """
        nx = self.layout.n_anc_x
        par = _parities(self._tx, np.concatenate(
            [_pack_bits(syn[:, :nx]), _pack_bits(syn[:, nx:])]))
        return par[:len(syn)], par[len(syn):]


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of up to 64 bits packed into uint64 keys; any nonzero entry is 1.

    Column j is ORed in at bit j, so the transposed views that the numpy
    ``syndrome_bits`` returns are read one contiguous column at a time."""
    n = bits.shape[1]
    if n > _KEY_BITS:
        raise ValueError(f"defect pattern wider than {_KEY_BITS} bits")
    keys = np.zeros(len(bits), dtype=np.uint64)
    for j in range(n):
        keys |= (bits[:, j] != 0).astype(np.uint64) << np.uint64(j)
    return keys


def decode_mwpm(layout: Layout, s: Syndrome) -> ErrorConfig:
    """Minimum-weight correction reproducing syndrome ``s``."""
    if s.bits.shape != (layout.n_anc,):
        raise ValueError("syndrome sized for a different layout")
    zmask, xmask = MwpmDecoder(layout).decode_masks(s.bits)
    return ErrorConfig(_int_to_bits(xmask, layout.n_data),
                       _int_to_bits(zmask, layout.n_data))


def _int_to_bits(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)
