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
A component of at most ``_SHARED_MAX`` (12) defects is solved by a top-down
subset DP over one memo per ancilla sector, shared by every pattern the
decoder sees; it stores each subset's ``weight << 1 | cut_parity``.  The cut
parity of a matching is the XOR of one precomputed bit per path, so batch
decoding never builds a correction mask.  Components of 13 to
``MATCH_DP_MAX`` (22) defects run ``_kernels.match_defects`` and larger ones
the networkx blossom.  Single-shot decoding builds correction masks from the
pair arrays of ``_kernels.match_defects``, whose tie rule the memo's DP shares.
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
    bnd_w: list               # bnd as a list of ints
    bnd_par: list             # bnd_par[u]: cut parity of bnd_mask[u]
    path_par: list            # path_par[u][v]: cut parity of path_mask[u][v]
    partners: list            # partners[u]: (1 << v, dist, path_par) per
                              # v > u in inter[u], ascending v


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
        dist_l = dist.tolist()
        bnd_l = bnd.tolist()
        inter = [sum(1 << v for v in range(k)
                     if v != u and dist_l[u][v] < bnd_l[u] + bnd_l[v])
                 for u in range(k)]
        bnd_par = [(m & cut_mask).bit_count() & 1 for m in bnd_mask]
        path_par = [[(m & cut_mask).bit_count() & 1 for m in row]
                    for row in path_mask]
        partners = [[(1 << v, dist_l[u][v], path_par[u][v])
                     for v in range(u + 1, k) if inter[u] >> v & 1]
                    for u in range(k)]
        out.append(_TypeTables(dist, bnd, path_mask, bnd_mask, cut_mask,
                               inter, bnd_l, bnd_par, path_par, partners))
    return tuple(out)


# Components of at most this many defects are solved over the per-sector
# shared memo; larger ones run ``_kernels.match_defects`` (up to
# MATCH_DP_MAX) or the blossom.  Sharing pays while subsets recur across
# keys.  Cold decodes of fixed keys (2 vCPU, numpy backend), with a limit of
# 8 / 12 / 16 / 22 against the unshared per-key DP:
#   d=7, eps=0.12, 3,000 shots: 0.23 / 0.16 / 0.15 / 0.15 s, unshared 0.43 s
#   d=9, eps=0.1,  1,500 shots: 0.60 / 0.66 / 0.82 / 0.83 s, unshared 0.69 s
#   d=9, eps=0.3,    150 shots: 1.96 / 2.07 / 2.28 / 3.67 s, unshared 2.10 s
# Above 12 the memo fills with large subsets that few keys share (605k
# entries at a limit of 22 on the last row, 4.6k at 12).  A limit of 8 is
# faster on both d=9 rows; 12 is kept for d=7, the only MWPM distance the
# benchmark runs, so the choice at d=9 is not benchmarked.
_SHARED_MAX = 12


class _DefectCache:
    """Per-sector matching memo shared by every defect key.

    ``memo`` maps a subset of the sector's defects, as a bit-int over local
    ancilla indices, to ``weight << 1 | cut_parity`` of its minimum-weight
    matching.  The value depends on the subset alone, so the states one
    key's DP reaches serve every later key that reaches them.
    """

    __slots__ = ("tables", "memo", "_solve")
    # Caps resident memory: with both sectors' memos full, a d=9 or d=11
    # decode peaks near 210 MiB RSS (CPython 3.11).
    MAX_ENTRIES = 1 << 20

    def __init__(self, tables: _TypeTables):
        self.tables = tables
        self.memo = {0: 0}
        self._solve = _memo_solver(tables, self.memo)

    def solve(self, comp: int) -> int:
        """``weight << 1 | cut_parity`` of the optimal matching of ``comp``;
        a full memo is cleared before the solve."""
        hit = self.memo.get(comp)
        if hit is not None:
            return hit
        if len(self.memo) >= self.MAX_ENTRIES:
            self.memo.clear()
            self.memo[0] = 0
        return self._solve(comp)

    def parity(self, defect_key: int) -> int:
        """Cut parity of the minimum-weight correction for the defect
        pattern encoded as a bit-int over local ancilla indices."""
        t = self.tables
        par = 0
        for comp in _components(defect_key, t.inter):
            n = comp.bit_count()
            if n == 1:              # a lone defect takes its boundary route
                par ^= t.bnd_par[comp.bit_length() - 1]
            elif n <= _SHARED_MAX:
                par ^= self.solve(comp)
            else:
                par ^= _match_component(t, comp, t.bnd_par, t.path_par)
        return par & 1

    def corr_mask(self, defect_key: int) -> int:
        """Data-qubit bit-int of the correction :meth:`parity` scores."""
        t = self.tables
        mask = 0
        for comp in _components(defect_key, t.inter):
            if comp & (comp - 1):
                mask ^= _match_component(t, comp, t.bnd_mask, t.path_mask)
            else:
                mask ^= t.bnd_mask[comp.bit_length() - 1]
        return mask


def _memo_solver(t: _TypeTables, memo: dict):
    """Top-down DP over ``memo``, the recursion and tie rule of
    ``_kernels.match_defects``: the lowest defect ``u`` goes to the
    boundary, or to a partner ``v`` in ``inter[u]`` in ascending order,
    keeping the first strict improvement.  The cut parity of a choice is the
    XOR of its path's parity bit and the remaining subset's parity."""
    bnd = t.bnd_w
    bnd_par = t.bnd_par
    partners = t.partners

    def solve(s):
        low = s & -s
        u = low.bit_length() - 1
        rest = s ^ low
        sub = memo.get(rest)
        if sub is None:
            sub = solve(rest)
        best = bnd[u] + (sub >> 1)
        par = bnd_par[u] ^ sub
        for bit, w, p in partners[u]:
            if rest & bit:
                sub = memo.get(rest ^ bit)
                if sub is None:
                    sub = solve(rest ^ bit)
                if w + (sub >> 1) < best:
                    best = w + (sub >> 1)
                    par = p ^ sub
        val = best << 1 | (par & 1)
        memo[s] = val
        return val

    return solve


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
        pars = np.fromiter(
            (cache.parity(k) for k in uniq.tolist()), dtype=np.uint8,
            count=len(uniq))
        return pars[inverse]


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
