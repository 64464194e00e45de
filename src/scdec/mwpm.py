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

A defect pattern is split into interaction components, matched one by one.
Batch decoding (``cut_parities_batch``) works on whole arrays of uint64
defect keys: it splits every unique key into components at once, solves
every component of 2 to ``MATCH_DP_MAX`` (22) defects with one
level-by-level subset DP per batch over a per-sector memo of ``weight << 1
| cut_parity``, and XORs the components' parities.  The cut parity of a
matching is the XOR of one precomputed bit per path, so batch decoding never
builds a correction mask.  Lone defects take their boundary route and larger
components the networkx blossom.  Single-shot decoding builds correction
masks from the pair arrays of ``_kernels.match_defects``, whose recursion
and tie rule the batch DP shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .lattice import ANC_X, ANC_Z, Layout, build_layout
from .noise import ErrorConfig, Syndrome

_INF = 10 ** 9

# ``_pack_bits`` keys one sector's defects as a uint64, and a sector holds
# (d*d - 1) / 2 ancillas, so d = 11 (60 ancillas) is the widest that fits.
_KEY_BITS = 64
MAX_DISTANCE = 11


class NoPerfectMatching(ValueError):
    """The graph admits no perfect matching."""


@dataclass(frozen=True)
class _TypeTables:
    """Per-ancilla-type decode tables (all indices local to the type)."""

    dist: np.ndarray          # (k, k) int32 pairwise path lengths
    bnd: np.ndarray           # (k,) int32 boundary path lengths
    path_mask: list           # path_mask[u][v]: data-qubit set as a bit-int
    bnd_mask: list            # bnd_mask[u]: boundary path data bits
    cut_mask: int             # data bits of the logical cut this plane crosses
    inter: list               # inter[u]: bit-int of v with dist < bnd[u] + bnd[v]
    bnd_par: list             # bnd_par[u]: cut parity of bnd_mask[u]
    path_par: list            # path_par[u][v]: cut parity of path_mask[u][v]
    # Arrays of the batch path; a matching value is ``weight << 1 | parity``.
    inter_keys: np.ndarray    # (k,) uint64: inter as keys
    or_tab: np.ndarray        # (ceil(k/8), 256) uint64: [j, b] = OR of
                              # inter[8j + i] over the set bits i of byte b
    single: np.ndarray        # (k,) int64 value of u's boundary route
    pair: np.ndarray          # (k, k) int64 value of the path u - v
    pop8: np.ndarray          # (256,) int64 popcount of a byte
    reach: np.ndarray         # (MATCH_DP_MAX + 1,) int64: F(n + 2), the most
                              # subsets the DP reaches from n defects


@lru_cache(maxsize=None)
def _tables(d: int):
    layout = build_layout(d)
    out = []
    for t, anc_range in ((ANC_X, range(layout.n_anc_x)),
                         (ANC_Z, range(layout.n_anc_x, layout.n_anc))):
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
        cut_mask = sum(1 << q for q in cut)
        out.append(_type_tables(dist, bnd, path_mask, bnd_mask, cut_mask))
    return tuple(out)


def _type_tables(dist: np.ndarray, bnd: np.ndarray, path_mask: list,
                 bnd_mask: list, cut_mask: int) -> _TypeTables:
    """Complete one sector's tables from its paths and the logical cut."""
    k = len(bnd)
    bnd_par = [(m & cut_mask).bit_count() & 1 for m in bnd_mask]
    path_par = [[(m & cut_mask).bit_count() & 1 for m in row]
                for row in path_mask]
    near = dist.astype(np.int64) < bnd[:, None].astype(np.int64) + bnd[None, :]
    np.fill_diagonal(near, False)
    inter_keys = _pack_bits(near)
    byte_bits = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)
    n_bytes = -(-k // 8)
    inter_pad = np.zeros(n_bytes * 8, dtype=np.uint64)
    inter_pad[:k] = inter_keys
    or_tab = np.bitwise_or.reduce(
        np.where(byte_bits[None], inter_pad.reshape(n_bytes, 1, 8),
                 np.uint64(0)), axis=2)
    fib = np.ones(_kernels.MATCH_DP_MAX + 2, dtype=np.int64)   # F(i + 1)
    for i in range(2, fib.size):
        fib[i] = fib[i - 1] + fib[i - 2]
    return _TypeTables(
        dist, bnd, path_mask, bnd_mask, cut_mask,
        [int(x) for x in inter_keys.tolist()], bnd_par, path_par,
        inter_keys, or_tab,
        bnd.astype(np.int64) << 1 | np.array(bnd_par, dtype=np.int64),
        dist.astype(np.int64) << 1 | np.array(path_par, dtype=np.int64),
        byte_bits.sum(axis=1, dtype=np.int64), fib[1:])


class _DefectCache:
    """Per-sector matching memo shared by every defect key.

    ``memo_keys`` (sorted uint64) and ``memo_vals`` (int64) map a subset of
    the sector's defects, as a bit-key over local ancilla indices, to
    ``weight << 1 | cut_parity`` of its minimum-weight matching, for subsets
    of two or more defects.  The value depends on the subset alone, so the
    states one key's DP reaches serve every later key that reaches them.
    """

    __slots__ = ("tables", "memo_keys", "memo_vals")
    # Caps resident memory: an entry takes 16 bytes, a memo of MAX_ENTRIES
    # entries is cleared before the next slice, and a slice adds at most
    # MAX_ENTRIES // 4, so a sector's memo stays under 20 MiB.  Peak RSS of
    # whole decodes (CPython 3.11, numpy 2.4, 65,536-shot chunks): 1,000 d=9
    # shots at eps=0.3, one clear per sector, 120-123 MiB; 200,000 d=9 shots
    # at eps=0.1, seven clears per sector, 172 MiB; 100,000 d=11 shots at
    # eps=0.05, two per sector, 158 MiB.
    MAX_ENTRIES = 1 << 20

    def __init__(self, tables: _TypeTables):
        self.tables = tables
        self.clear()

    def clear(self):
        self.memo_keys = np.empty(0, dtype=np.uint64)
        self.memo_vals = np.empty(0, dtype=np.int64)

    def parities(self, keys: np.ndarray) -> np.ndarray:
        """uint8 cut parity of the minimum-weight correction of each uint64
        defect key (bits are local ancilla indices)."""
        t = self.tables
        rows, comps = _split_components(keys, t.or_tab)
        uniq, inv = np.unique(comps, return_inverse=True)
        n = _popcount(uniq, t.pop8)
        val = np.empty(uniq.size, dtype=np.int64)
        lone = n == 1               # a lone defect takes its boundary route
        val[lone] = t.single[_bit_index(uniq[lone])]
        for i in np.flatnonzero(n > _kernels.MATCH_DP_MAX).tolist():
            val[i] = _match_component(t, int(uniq[i]), t.bnd_par, t.path_par)
        # DP components in ascending size, in slices whose reachable-subset
        # bounds sum to at most MAX_ENTRIES // 4 (one component at least)
        order = np.flatnonzero(~lone & (n <= _kernels.MATCH_DP_MAX))
        order = order[np.argsort(n[order], kind="stable")]
        bound = np.cumsum(t.reach[n[order]])
        cap = self.MAX_ENTRIES // 4
        start = 0
        while start < order.size:
            base = bound[start - 1] if start else 0
            stop = max(int(np.searchsorted(bound, base + cap, side="right")),
                       start + 1)
            if self.memo_keys.size >= self.MAX_ENTRIES:
                self.clear()
            part = order[start:stop]
            val[part] = self._solve(uniq[part])
            start = stop
        odd = np.bincount(rows, weights=val[inv] & 1, minlength=keys.size)
        return (odd % 2).astype(np.uint8)

    def _lookup(self, subsets: np.ndarray) -> np.ndarray:
        """Memo values of sorted distinct ``subsets``, -1 where absent."""
        mk = self.memo_keys
        out = np.full(subsets.size, -1, dtype=np.int64)
        if mk.size:
            pos = np.minimum(np.searchsorted(mk, subsets), mk.size - 1)
            hit = mk[pos] == subsets
            out[hit] = self.memo_vals[pos[hit]]
        return out

    def _solve(self, comps: np.ndarray) -> np.ndarray:
        """``weight << 1 | cut_parity`` of the optimal matching of each
        subset in ``comps`` (2 to MATCH_DP_MAX defects, ascending size);
        every subset the DP solves joins the memo.

        The recursion and tie rule of ``_kernels.match_defects``, one level
        of popcount at a time.  Top-down, each level's distinct subsets
        that miss the memo are expanded: the lowest defect ``u`` goes to the
        boundary (the rest is one level down) or to a partner ``v``, a
        defect of the rest in ``inter[u]`` (two levels down), taken in
        rounds of ascending ``v``.  Bottom-up, the boundary option is the
        first best and each round replaces it only on a strict improvement.
        The cut parity of an option is its path's parity bit XOR the
        remaining subset's parity.
        """
        t = self.tables
        n = _popcount(comps, t.pop8)
        top = int(n[-1])
        # refs[m]: arrays of the size-m subsets that the comps and the
        # levels above need, in order of reference; filled[m]: their count
        refs = [[comps[n == m]] for m in range(top + 1)]
        filled = [r[0].size for r in refs]
        levels = []
        for m in range(top, 1, -1):
            uniq, inv = np.unique(np.concatenate(refs[m]), return_inverse=True)
            val = self._lookup(uniq)
            miss = np.flatnonzero(val < 0)
            new = uniq[miss]
            low = new & (~new + np.uint64(1))
            u = _bit_index(low)
            rest = new ^ low
            rounds = []
            levels.append((uniq, inv, val, miss, u, filled[m - 1], rounds))
            refs[m - 1].append(rest)
            filled[m - 1] += rest.size
            left = rest & t.inter_keys[u]
            rows = np.flatnonzero(left)
            left = left[rows]
            while rows.size:        # round i: the i-th lowest partner
                bit = left & (~left + np.uint64(1))
                rounds.append(
                    (rows, t.pair[u[rows], _bit_index(bit)], filled[m - 2]))
                refs[m - 2].append(rest[rows] ^ bit)
                filled[m - 2] += rows.size
                left ^= bit
                keep = np.flatnonzero(left)
                rows, left = rows[keep], left[keep]
        # refval[m]: the value of every size-m reference, in order
        refval = [np.zeros(filled[0], dtype=np.int64),
                  t.single[_bit_index(np.concatenate(refs[1]))]]
        solved = []
        for uniq, inv, val, miss, u, off, rounds in reversed(levels):
            sub = refval[-1][off:off + miss.size]
            best = (t.single[u] >> 1) + (sub >> 1)
            par = t.single[u] ^ sub
            below = refval[-2]
            for rows, path, at in rounds:
                sub = below[at:at + rows.size]
                cand = (path >> 1) + (sub >> 1)
                better = np.flatnonzero(cand < best[rows])
                best[rows[better]] = cand[better]
                par[rows[better]] = path[better] ^ sub[better]
            val[miss] = best << 1 | (par & 1)
            refval.append(val[inv])
            solved.append((uniq[miss], val[miss]))
        keys = np.concatenate([s[0] for s in solved])
        order = np.argsort(keys)
        self._insert(keys[order], np.concatenate([s[1] for s in solved])[order])
        return np.concatenate([refval[m][:refs[m][0].size]
                               for m in range(2, top + 1)])

    def _insert(self, keys: np.ndarray, vals: np.ndarray):
        """Add sorted ``keys`` absent from the memo."""
        pos = np.searchsorted(self.memo_keys, keys)
        self.memo_keys = np.insert(self.memo_keys, pos, keys)
        self.memo_vals = np.insert(self.memo_vals, pos, vals)

    def corr_mask(self, defect_key: int) -> int:
        """Data-qubit bit-int of the minimum-weight correction for the
        defect pattern encoded as a bit-int over local ancilla indices."""
        t = self.tables
        mask = 0
        for comp in _components(defect_key, t.inter):
            if comp & (comp - 1):
                mask ^= _match_component(t, comp, t.bnd_mask, t.path_mask)
            else:
                mask ^= t.bnd_mask[comp.bit_length() - 1]
        return mask


def _bit_index(bits: np.ndarray) -> np.ndarray:
    """Index of the set bit of each uint64 power of two."""
    return np.frexp(bits.astype(np.float64))[1] - 1


def _popcount(keys: np.ndarray, pop8: np.ndarray) -> np.ndarray:
    """int64 set-bit count of each uint64 key."""
    octets = np.ascontiguousarray(keys, dtype=np.uint64).view(np.uint8)
    return pop8[octets].reshape(-1, 8).sum(axis=1)


def _split_components(keys: np.ndarray, or_tab: np.ndarray):
    """(row, component) of every interaction component of every uint64
    defect key, as ``_components`` splits them.

    Each round takes the lowest remaining defect of every nonzero key and
    grows it by the byte-wise OR tables of ``inter`` until it stops
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


def _match_component(t: _TypeTables, comp: int, bnd_bits: list,
                     path_bits: list):
    """XOR of ``bnd_bits`` / ``path_bits`` over the optimal matching of a
    component: ``_kernels.match_defects`` up to ``MATCH_DP_MAX`` defects,
    else the blossom."""
    members = []
    while comp:
        members.append((comp & -comp).bit_length() - 1)
        comp &= comp - 1
    idx = np.array(members, dtype=np.intp)
    dist = t.dist[idx[:, None], idx]
    bnd = t.bnd[idx]
    if len(members) <= _kernels.MATCH_DP_MAX:
        pair = _kernels.match_defects(dist, bnd)
    else:
        pair = _large_matching(dist, bnd)
    out = 0
    for i, j in enumerate(pair.tolist()):
        if j < 0:
            out ^= bnd_bits[members[i]]
        elif j > i:
            out ^= path_bits[members[i]][members[j]]
    return out


def _components(defects: int, inter: list):
    """Yield the interaction components of a defect bit-int, lowest first.

    When ``dist[u, v] >= bnd[u] + bnd[v]`` a matched pair (u, v) can be
    replaced by two boundary routes without increasing the total weight, so
    the minimum weight is preserved by matching the connected components of
    the complementary relation, ``inter``, independently.
    """
    while defects:
        comp = frontier = defects & -defects
        defects ^= comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = inter[low.bit_length() - 1] & defects
            defects ^= new
            comp |= new
            frontier |= new
        yield comp


def _large_matching(dist: np.ndarray, bnd: np.ndarray) -> np.ndarray:
    """Blossom fallback when the defect count exceeds the DP cap.

    Matches the complete graph of defects ``0 .. k-1`` and one virtual
    boundary node ``k + i`` per defect ``i``: defect pairs weigh ``dist``,
    boundary pairs 0 and a defect with its own boundary node ``bnd``.
    Which of several equal-weight matchings networkx returns depends on the
    order nodes and edges are inserted, so that order is fixed.
    """
    import networkx as nx

    k = len(bnd)
    g = nx.Graph()
    g.add_nodes_from(range(2 * k))
    for i in range(k):
        for j in range(i + 1, k):
            g.add_edge(i, j, weight=int(dist[i][j]))
            g.add_edge(k + i, k + j, weight=0)
        g.add_edge(i, k + i, weight=int(bnd[i]))
    matching = nx.min_weight_matching(g)
    if len(matching) != k:
        raise NoPerfectMatching("no perfect matching exists")
    pair = np.full(k, -1, dtype=np.int32)
    for u, v in matching:
        if u < k and v < k:
            pair[u] = v
            pair[v] = u
    return pair


class MwpmDecoder:
    """Stateful decoder for one layout; keeps one matching memo per sector."""

    def __init__(self, layout: Layout):
        widest = max(layout.n_anc_x, layout.n_anc - layout.n_anc_x)
        if widest > _KEY_BITS:
            raise ValueError(
                f"MWPM supports distances up to {MAX_DISTANCE}: d={layout.d} "
                f"has {widest} ancillas per sector, more than {_KEY_BITS}")
        self.layout = layout
        tx, tz = _tables(layout.d)
        self._cache_x = _DefectCache(tx)
        self._cache_z = _DefectCache(tz)

    def decode_masks(self, syn_bits: np.ndarray):
        """(z_plane_mask, x_plane_mask) bit-ints for one syndrome."""
        nx = self.layout.n_anc_x
        row = np.asarray(syn_bits)[None, :]
        key_x = int(_pack_bits(row[:, :nx])[0])
        key_z = int(_pack_bits(row[:, nx:])[0])
        zmask = self._cache_x.corr_mask(key_x)   # X defects -> Z corrections
        xmask = self._cache_z.corr_mask(key_z)   # Z defects -> X corrections
        return zmask, xmask

    def cut_parities_batch(self, syn: np.ndarray):
        """(lz, lx) correction cut parities for a syndrome batch.

        ``lz`` comes from the Z-plane corrections (X-ancilla matchings) and
        ``lx`` from the X-plane corrections.
        """
        nx = self.layout.n_anc_x
        keys_x = _pack_bits(syn[:, :nx])
        keys_z = _pack_bits(syn[:, nx:])
        lz = self._parities(self._cache_x, keys_x)
        lx = self._parities(self._cache_z, keys_z)
        return lz, lx

    @staticmethod
    def _parities(cache: _DefectCache, keys: np.ndarray) -> np.ndarray:
        uniq, inverse = np.unique(keys, return_inverse=True)
        return cache.parities(uniq)[inverse]


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of up to 64 bits packed into uint64 keys."""
    n = bits.shape[1]
    if n > _KEY_BITS:
        raise ValueError(f"defect pattern wider than {_KEY_BITS} bits")
    shifts = np.arange(n, dtype=np.uint64)
    return (bits.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


@lru_cache(maxsize=None)
def _decoder_for(d: int) -> MwpmDecoder:
    return MwpmDecoder(build_layout(d))


def decode_mwpm(layout: Layout, s: Syndrome) -> ErrorConfig:
    """Minimum-weight correction reproducing syndrome ``s``."""
    if s.bits.shape != (layout.n_anc,):
        raise ValueError("syndrome sized for a different layout")
    dec = _decoder_for(layout.d)
    zmask, xmask = dec.decode_masks(s.bits)
    return ErrorConfig(_int_to_bits(xmask, layout.n_data),
                       _int_to_bits(zmask, layout.n_data))


def _int_to_bits(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)
