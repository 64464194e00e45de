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
The DP applies this rule in one place: every option of a subset's lowest
defect ``u`` is an int64 key ``weight << 8 | rank << 1 | cut_parity``,
rank 0 for u's boundary route and ``v + 1`` for the path to partner ``v``,
and ``_levels`` keeps each subset's least key, so the key records the
option chosen.  A partner ``v`` is shadowed when a defect ``w`` of the same
subset, ``u < w < v``, lies on a shortest u - v path (``_shadowed``):
pairing u with w is then never heavier, so v is never that choice, and the
DP skips it without changing any weight, parity or mask.

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
level-by-level subset DP (``_levels``) of those keys, which reaches only
the subsets left after shadowed partners are skipped.  Batch decoding
takes two steps.  ``keys`` packs both sectors' defect keys of a syndrome
batch with exact float32 BLAS products (``_pack_bits``); ``key_parities``
sends any number of such keys through one ``_parities`` call: one dedupe,
one component split and one DP, halved while it reaches more than
``_SLICE_SUBSETS`` subsets.  ``cut_parities_batch`` is the two in turn;
``scdec.eval.benchmark`` runs the first on its worker threads and the
second on the calling thread, over the keys of several shards at once.
The cut parity of a matching is the XOR of one precomputed bit per path,
so it never builds a correction mask.  Key sets are sorted, popcounts
taken and bytes looked up in whole numpy passes (``_dedupe``,
``np.bitwise_count``, ``_octets``).
Single-shot decoding (``decode_masks``) runs one DP over both sectors'
components and follows each component's recorded choices back down its
levels (``_trace``), XORing the paths' data-qubit masks of its own sector.
Nothing is kept between calls but the per-distance tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .lattice import ANC_X, ANC_Z, Layout, build_layout

_INF = 10 ** 9

# ``_pack_bits`` keys one sector's defects as a uint64, and a sector holds
# (d*d - 1) / 2 ancillas, so d = 11 (60 ancillas) is the widest that fits,
# and the rank ``v + 1`` of a DP option key fits its 7 bits.
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
    # Arrays of the DP; a matching value is the option key
    # ``weight << 8 | rank << 1 | parity`` of the module docstring.
    inter_keys: np.ndarray    # (k,) uint64: bit v of inter_keys[u] is set
                              # where dist[u, v] < bnd[u] + bnd[v], v != u
    or_tab: np.ndarray        # (ceil(k/8), 256) uint64: [j, b] = OR of
                              # inter_keys[8j + i] over the set bits i of b
    shadow: np.ndarray        # (k, ceil(k/8), 256) uint64: [u, j, b] = the
                              # partners of u that the defects 8j + i, i a
                              # set bit of b, shadow (see ``_shadowed``)
    single: np.ndarray        # (k,) int64 key of u's boundary route alone,
                              # bnd[u] << 8 | parity (rank 0)
    pair: np.ndarray          # (k, k) int64 key of the path u - v alone,
                              # dist[u, v] << 8 | (v + 1) << 1 | parity


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
    return _TypeTables(
        dist, bnd, path_mask, bnd_mask, cut_mask, inter_keys,
        _or_table(inter_keys, byte_bits),
        _or_table(_pack_bits(shadows.reshape(k * k, k)).reshape(k, k),
                  byte_bits),
        b64 << 8 | single_par, d64 << 8 | (ix + 1) << 1 | pair_par)


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


# Caps the batch DP's memory: a ``_levels`` call over two or more
# components gives up once it has reached more than this many distinct
# subsets, and ``_parities`` halves its slice and solves each half again.
# A lone component never gives up; the largest reach seen is 9,224 subsets
# at d=11, at most 582 in one level, and a fully set d=11 sector reaches
# 8,421 (tests/test_mwpm.py checks the per-level limit).  At its peak a
# DP holds about 50 bytes per reached subset (each level's references are
# dropped once deduplicated; inverses and partner rows are int32, partners
# and lowest defects uint8), so about 6 MiB at this cap.  One DP runs at a
# time, on the thread that calls ``scdec.eval.benchmark``, so this is the
# memory two worker threads took with a cap of 2^16 each.  The cap is set
# from whole ``scdec eval --decoder mwpm`` runs (2-vCPU x86-64 host,
# CPython 3.11, numpy 2.4, 65,536-shot windows): caps of 2^16, 2^17 and
# 2^18 ran the default d=9 grid at 3,000 shots in 0.74, 0.69 and 0.66 s at
# 47, 52 and 62 MiB peak RSS, and the default d=11 grid at 2,000 shots in
# 3.8, 3.5 and 3.5 s at 48, 54 and 64 MiB.  The one window of
# ``perfbench``'s ``mwpm-d7`` call reaches 71k subsets, so under 2^17 it
# would give up once: a call took 47 ms at 2^16 against 39 ms at 2^17.
_SLICE_SUBSETS = 1 << 17


def _parities(t: _TypeTables, keys: np.ndarray) -> np.ndarray:
    """uint8 cut parity of the minimum-weight correction of each uint64
    defect key (bits are local ancilla indices).  Only the DP arrays of
    ``t`` are read, never its masks, so the keys of both sectors of
    ``_tables`` may be decoded in one call."""
    keys, key_inv = _dedupe([keys])
    rows, comps = _split_components(keys, t.or_tab)
    uniq, inv = _dedupe([comps])
    n = np.bitwise_count(uniq)
    val = np.empty(uniq.size, dtype=np.int64)
    lone = n == 1               # a lone defect takes its boundary route
    val[lone] = t.single[_bit_index(uniq[lone])]
    # DP components in ascending size: one DP over them all, and each slice
    # whose DP passes _SLICE_SUBSETS halved and solved again
    order = np.flatnonzero(~lone)
    order = order[np.argsort(n[order], kind="stable")]
    todo = [order] if order.size else []
    while todo:
        part = todo.pop()
        got = _levels(t, uniq[part], _SLICE_SUBSETS if part.size > 1 else None)
        if got is None:
            todo += [part[part.size // 2:], part[:part.size // 2]]
        else:
            val[part] = got[1]
    odd = np.bincount(rows, weights=val[inv] & 1, minlength=keys.size)
    return (odd % 2).astype(np.uint8)[key_inv]


def _levels(t: _TypeTables, comps: np.ndarray, cap=None):
    """``(levels, values)`` of the DP over ``comps`` (2 or more defects
    each), or None once it reaches more than ``cap`` distinct subsets.

    ``levels[m] = (subsets, values)``, m from 0 to the largest popcount in
    ``comps``: the sorted distinct subsets of m defects that the DP reaches,
    and the least option key of each (the module docstring): the weight
    ``>> 8`` and cut parity ``& 1`` of its optimal matching, and the option
    ``>> 1 & 0x7F`` that its lowest defect takes.  Levels 0 and 1 list the
    empty set and every lone defect, and are not counted against ``cap``.
    ``values`` holds the key of each of ``comps``.

    A subset DP, one level of popcount at a time.  Top-down, each level's
    distinct subsets are expanded: the lowest defect ``u`` goes to the
    boundary (the rest is one level down) or to a partner ``v``, a defect
    of the rest in ``inter_keys[u]`` that no defect of the rest shadows (two
    levels down, see ``_shadowed``), taken in rounds of ascending ``v``.
    Bottom-up, the key of each option is ``single[u]`` or ``pair[u, v]``
    plus the weight of the subset it leaves, XOR that subset's parity, and
    each subset keeps the least: the tie rule, applied here alone.
    """
    n = np.bitwise_count(comps)
    top = int(n.max())
    k = t.single.size
    # refs[m]: arrays of the size-m subsets that the comps and the levels
    # above need, in order of reference, the comps first; filled[m]: their
    # count.  A level's list is emptied once it is deduplicated.
    refs = [[comps[n == m]] for m in range(top + 1)]
    filled = [r[0].size for r in refs]
    down = []
    reached = 0
    for m in range(top, 1, -1):
        uniq, inv = _dedupe(refs[m])
        reached += uniq.size
        if cap is not None and reached > cap:
            return None
        low = uniq & (~uniq + np.uint64(1))
        u = _bit_index(low)
        rest = uniq ^ low
        left = rest & t.inter_keys[u] & ~_shadowed(t, u, rest)
        # the subset (int32 row) and partner of each pair, round by round
        pair_rows, pair_v = [], []
        down.append((uniq, inv, u, filled[m - 1], filled[m - 2], pair_rows,
                     pair_v))
        refs[m - 1].append(rest)
        filled[m - 1] += rest.size
        rows = np.flatnonzero(left).astype(np.int32)
        left = left[rows]
        while rows.size:            # round i: the i-th lowest partner
            bit = left & (~left + np.uint64(1))
            pair_rows.append(rows)
            pair_v.append(_bit_index(bit))
            refs[m - 2].append(rest[rows] ^ bit)
            filled[m - 2] += rows.size
            left ^= bit
            keep = np.flatnonzero(left)
            rows, left = rows[keep], left[keep]
    levels = [(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int64)),
              (np.uint64(1) << np.arange(k, dtype=np.uint64), t.single)]
    values = np.empty(comps.size, dtype=np.int64)
    # below, above: the value of every reference of the last two levels
    # solved, in order; a comp's value sits in its own first slot
    below = np.zeros(filled[0], dtype=np.int64)
    above = t.single[_bit_index(np.concatenate(refs[1]))]
    for m in range(2, top + 1):
        uniq, inv, u, off, pair_off, pair_rows, pair_v = down.pop()
        sub = above[off:off + u.size]
        best = t.single[u] + (sub >> 8 << 8) ^ sub & 1
        if pair_rows:
            rows = np.concatenate(pair_rows)
            sub = below[pair_off:pair_off + rows.size]
            key = t.pair.take(u[rows] * np.intp(k) + np.concatenate(pair_v))
            np.minimum.at(best, rows, key + (sub >> 8 << 8) ^ sub & 1)
        levels.append((uniq, best))
        below, above = above, best[inv]
        mine = n == m
        values[mine] = above[:np.count_nonzero(mine)]
    return levels, values


def _dedupe(parts: list):
    """(sorted distinct keys, int32 inverse) of the uint64 arrays ``parts``
    taken as one, which it empties: ``np.unique(..., return_inverse=True)``
    with about half its scratch memory."""
    keys = np.concatenate(parts)
    parts.clear()
    shift = np.uint64(max(keys.size - 1, 1).bit_length())
    if keys.max(initial=0) >> (np.uint64(64) - shift):
        perm = keys.argsort()
        keys = keys[perm]
    else:
        # each key carries its position in the low bits it leaves free, so
        # one in-place sort, about twice as fast as ``argsort``, yields the
        # permutation too
        keys <<= shift
        keys |= np.arange(keys.size, dtype=np.uint64)
        keys.sort()
        perm = (keys & ((np.uint64(1) << shift) - np.uint64(1))).view(np.int64)
        keys >>= shift
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    inv = np.empty(keys.size, dtype=np.int32)
    inv[perm] = np.cumsum(first, dtype=np.int32) - 1
    return keys[first], inv


def _corr_masks(sectors) -> list:
    """Data-qubit bit-int of the minimum-weight correction of each
    ``(tables, defect_key)`` of ``sectors``, the key a bit-int over the
    sector's local ancilla indices.  The tables must share one set of DP
    arrays, as the two of ``_tables`` do.

    One ``_levels`` call covers the DP components of every key: a subset's
    optimum does not depend on which other subsets the DP reaches.  Each
    component is then traced with its own sector's masks.
    """
    t0 = sectors[0][0]
    if any(t.pair is not t0.pair for t, _ in sectors):
        raise ValueError("the sectors do not share their DP tables")
    keys = np.array([key for _, key in sectors], dtype=np.uint64)
    rows, comps = _split_components(keys, t0.or_tab)
    n = np.bitwise_count(comps)
    multi = comps[n > 1]
    levels = _levels(t0, multi)[0] if multi.size else None
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

    From the full set down, each subset's key names the option its lowest
    defect ``u`` took: rank 0 its boundary route, rank ``v + 1`` the path to
    ``v``.  The subset that option leaves is one the DP reached.
    """
    mask = 0
    while comp:
        subs, vals = levels[comp.bit_count()]
        rank = int(vals[np.searchsorted(subs, np.uint64(comp))]) >> 1 & 0x7F
        u = (comp & -comp).bit_length() - 1
        if rank:
            v = rank - 1
            mask ^= t.path_mask[u][v]
            comp ^= 1 << v
        else:
            mask ^= t.bnd_mask[u]
        comp ^= 1 << u
    return mask


def _shadowed(t: _TypeTables, u: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """uint64 set of the partners of each lowest defect ``u`` that a defect
    of its ``rest`` shadows (equal-length arrays), for ``_levels`` to skip.

    ``w`` shadows ``v`` when ``u < w < v``, ``w`` lies on a shortest u - v
    path (``dist[u, w] + dist[w, v] == dist[u, v]``) and ``_type_tables``
    found that re-pairing ``v`` costs no more (its guard).  If pairing u
    with v is optimal, pairing u with w and v with w's partner (or the
    boundary) is optimal too, and its key is less (rank w + 1 < v + 1), so
    no subset keeps v and the DP need not reach its subset.
    """
    octets = _octets(rest)
    flat = t.shadow.reshape(-1)
    at = u * np.intp(t.shadow.shape[1] << 8)                      # [u, 0, 0]
    out = flat.take(at + octets[:, 0])
    for j in range(1, t.shadow.shape[1]):
        at += 256
        out |= flat.take(at + octets[:, j])
    return out


def _octets(keys) -> np.ndarray:
    """(n, 8) uint8 bytes of the uint64 ``keys``, least significant first."""
    return np.asarray(keys, dtype="<u8").reshape(-1, 1).view(np.uint8)


def _bit_index(bits: np.ndarray) -> np.ndarray:
    """uint8 index of the set bit of each uint64 power of two ``b``: the
    popcount of ``b - 1``."""
    return np.bitwise_count(bits - np.uint64(1))


def _split_components(keys: np.ndarray, or_tab: np.ndarray):
    """(row, component) of every interaction component of every uint64
    defect key.

    When ``dist[u, v] >= bnd[u] + bnd[v]`` a matched pair (u, v) can be
    replaced by two boundary routes without increasing the total weight, so
    the minimum weight is preserved by matching the connected components of
    the complementary relation, ``inter_keys``, independently.

    Each round takes the lowest remaining defect of every nonzero key and
    grows it by the byte-wise OR tables of ``inter_keys``, one lookup per
    key byte, carrying only the components still growing; then removes it
    from the key.  So a key's components come out lowest first.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    rows = np.flatnonzero(keys)
    rest = keys[rows]
    out_rows, out_comps = [rows[:0]], [rest[:0]]
    while rows.size:
        comp = rest & (~rest + np.uint64(1))
        grow, c, r = np.arange(rows.size), comp, rest
        while grow.size:
            octets = _octets(c)
            near = or_tab[0].take(octets[:, 0])
            for j in range(1, or_tab.shape[0]):
                near |= or_tab[j].take(octets[:, j])
            wider = c | (near & r)
            moved = np.flatnonzero(wider != c)
            grow, c, r = grow[moved], wider[moved], r[moved]
            comp[grow] = c
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
        """(z_plane_mask, x_plane_mask) bit-ints for one syndrome; bit ``i``
        of a mask is data qubit ``i``."""
        key_x, key_z = self.keys(np.asarray(syn_bits)[None, :])[:, 0].tolist()
        # X defects -> Z corrections, Z defects -> X corrections
        zmask, xmask = _corr_masks([(self._tx, key_x), (self._tz, key_z)])
        return zmask, xmask

    def cut_parities_batch(self, syn: np.ndarray):
        """(lz, lx) correction cut parities for a syndrome batch: those of
        its X- and Z-sector keys (``key_parities(keys(syn))``).

        ``lz`` comes from the Z-plane corrections (X-ancilla matchings) and
        ``lx`` from the X-plane corrections.
        """
        lz, lx = self.key_parities(self.keys(syn))
        return lz, lx

    def keys(self, syn: np.ndarray) -> np.ndarray:
        """(2, n) uint64 defect keys of a syndrome batch: the X sector's
        row, then the Z sector's."""
        if syn.shape[-1] != self.layout.n_anc:
            raise ValueError("syndrome sized for a different layout")
        nx = self.layout.n_anc_x
        return np.stack([_pack_bits(syn[:, :nx]), _pack_bits(syn[:, nx:])])

    def key_parities(self, keys: np.ndarray) -> np.ndarray:
        """uint8 cut parity of the minimum-weight correction of each defect
        key of either sector, shaped as ``keys``.  Every key goes through
        one ``_parities`` call on the shared DP tables."""
        return _parities(self._tx, keys.reshape(-1)).reshape(keys.shape)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of up to 64 bits packed into uint64 keys, column j at bit j; any
    nonzero entry of a bool or unsigned array is 1.

    Each block of up to 24 columns is one float32 BLAS product of its 0/1
    entries with their powers of two.  Every partial sum of distinct powers
    of two below 2^24 fits float32's mantissa, so the product is exact in
    any summation order.  Float64 products of up to 53 columns would take
    twice the memory: 5 MiB a sector of a 16,384-shot d=9 shard."""
    n = bits.shape[1]
    if n > _KEY_BITS:
        raise ValueError(f"defect pattern wider than {_KEY_BITS} bits")
    keys = np.zeros(len(bits), dtype=np.uint64)
    for j in range(0, n, 24):
        ones = np.minimum(bits[:, j:j + 24], 1, dtype=np.float32)
        powers = np.ldexp(np.ones(ones.shape[1], dtype=np.float32),
                          np.arange(ones.shape[1]))
        keys |= (ones @ powers).astype(np.uint64) << np.uint64(j)
    return keys
