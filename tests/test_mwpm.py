import hashlib

import numpy as np
import pytest

from scdec.lattice import build_layout, cut_parities
from scdec.mwpm import MwpmDecoder
from scdec.noise import compute_syndrome_bits, sample_depolarizing_bits

from oracles import (
    brute_force_boundary_matching,
    logical_class,
    mask_bits,
    match_defects,
    match_weight,
    parity_set_dp,
    random_shortest_path_metric,
    shadow_sets,
    subset_dp_matching,
    union_find_components,
)


def _bits(key):
    """Sorted set-bit indices of a bit-int."""
    return [u for u in range(key.bit_length()) if key >> u & 1]


def _correction(lay, syn):
    """MWPM correction of one syndrome as (x_bits, z_bits) uint8 planes."""
    zmask, xmask = MwpmDecoder(lay).decode_masks(syn)
    return mask_bits(xmask, lay.n_data), mask_bits(zmask, lay.n_data)


def _pair_mask(tab, comp, pair):
    """Data-qubit mask of a pair array over the sorted defects ``comp``."""
    mask = 0
    for i, j in enumerate(pair):
        if j < 0:
            mask ^= tab.bnd_mask[comp[i]]
        elif j > i:
            mask ^= tab.path_mask[comp[i]][comp[j]]
    return mask


def _reference_mask(tab, defects):
    """Data-qubit mask of the reference matcher's pair arrays
    (``oracles.match_defects``), one per union-find component of
    ``defects``."""
    mask = 0
    for comp in union_find_components(defects, tab.dist, tab.bnd):
        idx = np.array(comp, dtype=np.intp)
        pair = match_defects(tab.dist[np.ix_(idx, idx)], tab.bnd[idx])
        mask ^= _pair_mask(tab, comp, pair.tolist())
    return mask


# ----------------------------------------------------- defect DP matcher --

from hypothesis import given, settings, target
from hypothesis import strategies as st


@given(st.integers(1, 7), st.data())
@settings(max_examples=120, deadline=None)
def test_match_weight_is_a_lower_bound(k, data):
    """The DP result never exceeds the weight of any explicitly drawn
    pairing-with-boundary of the same defects."""
    entries = data.draw(st.lists(st.integers(1, 25), min_size=k * k + k,
                                 max_size=k * k + k))
    d = np.array(entries[: k * k]).reshape(k, k)
    d = (d + d.T).astype(np.int64)
    bnd = np.array(entries[k * k :], dtype=np.int64)
    best = match_weight(d, bnd, match_defects(d, bnd))

    # draw an arbitrary valid pairing: greedy over a shuffled order
    order = data.draw(st.permutations(range(k)))
    paired = set()
    weight = 0
    for u in order:
        if u in paired:
            continue
        partners = [v for v in order if v != u and v not in paired]
        choice = data.draw(st.sampled_from(partners + ["bnd"])) if partners else "bnd"
        if choice == "bnd":
            weight += int(bnd[u])
            paired.add(u)
        else:
            weight += int(d[u][choice])
            paired.add(u)
            paired.add(choice)
    assert best <= weight


def test_match_defects_equals_bruteforce_with_boundary():
    rng = np.random.default_rng(1)
    for trial in range(400):
        k = int(rng.integers(0, 9))
        d = rng.integers(1, 20, size=(k, k))
        d = (d + d.T).astype(np.int64)
        bnd = rng.integers(1, 20, size=k).astype(np.int64)
        pair = match_defects(d, bnd)
        got = match_weight(d, bnd, pair)
        want = brute_force_boundary_matching(d.tolist(), bnd.tolist())
        assert got == want, trial


def test_python_matcher_pairs_equal_subset_dp_on_ties():
    """Identical pair arrays, not only weights: weights in 0..3 make ties
    common, so any change in the order options are tried would show."""
    rng = np.random.default_rng(11)
    for k in range(13):
        for trial in range(40):
            d = rng.integers(0, 4, size=(k, k))
            d = np.triu(d, 1) + np.triu(d, 1).T
            bnd = rng.integers(0, 4, size=k)
            got = match_defects(d, bnd).tolist()
            assert got == subset_dp_matching(d, bnd), (k, trial)


def _lattice_defect_sets():
    """(tables, sorted defect list) per sector of sampled syndromes at
    d = 5, 7, 9 and eps in {0.1, 0.3}.  Shot counts keep the exhaustive
    oracle, which visits all 2^k subsets, to a few seconds in all."""
    from scdec.mwpm import _tables

    shots = {(5, 0.1): 200, (5, 0.3): 200, (7, 0.1): 100, (7, 0.3): 30,
             (9, 0.1): 40, (9, 0.3): 2}
    for (d, eps), n in shots.items():
        lay = build_layout(d)
        xb, zb = sample_depolarizing_bits(lay, eps, 23, 0, 0, n)
        syn = compute_syndrome_bits(lay, xb, zb)
        nx = lay.n_anc_x
        for tab, cols in zip(_tables(d), (syn[:, :nx], syn[:, nx:])):
            for row in cols:
                yield tab, np.flatnonzero(row).tolist()


def test_python_matcher_pairs_equal_subset_dp_on_lattice_components():
    checked = 0
    for tab, defects in _lattice_defect_sets():
        for comp in union_find_components(defects, tab.dist, tab.bnd):
            idx = np.array(comp, dtype=np.intp)
            dist = tab.dist[np.ix_(idx, idx)]
            bnd = tab.bnd[idx]
            got = match_defects(dist, bnd).tolist()
            assert got == subset_dp_matching(dist, bnd), comp
            checked += 1
    assert checked > 1000


# ------------------------------------------------------------- decoding --

def test_zero_syndrome_identity_correction():
    lay = build_layout(5)
    cx, cz = _correction(lay, np.zeros(24, np.uint8))
    assert not cx.any() and not cz.any()
    lz, lx = MwpmDecoder(lay).cut_parities_batch(np.zeros((3, 24), np.uint8))
    assert not lz.any() and not lx.any()


def test_boundary_adjacent_defect_gets_single_qubit_correction():
    lay = build_layout(3)
    # a single X error on corner qubit 0 flags exactly one Z-ancilla;
    # the minimum correction is a single data qubit at the boundary
    x = np.zeros(9, np.uint8)
    x[0] = 1
    syn = compute_syndrome_bits(lay, x, np.zeros(9, np.uint8))[0]
    assert syn.sum() == 1
    cx, cz = _correction(lay, syn)
    assert cx.sum() + cz.sum() == 1


@pytest.mark.parametrize("d", (3, 5, 7, 9))
def test_syndrome_consistency(d):
    """The syndrome of the correction of s is s: exhaustive at d=3, sampled
    elsewhere (syndromes of depolarizing errors at p = 0.1)."""
    lay = build_layout(d)
    if d == 3:
        syn = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(np.uint8)
    else:
        n = {5: 4000, 7: 1500, 9: 600}[d]
        xb, zb = sample_depolarizing_bits(lay, 0.1, 77, 3, 0, n)
        syn = compute_syndrome_bits(lay, xb, zb)
    for row in syn:
        back = compute_syndrome_bits(lay, *_correction(lay, row))[0]
        assert np.array_equal(back, row)


def test_optimality_vs_bruteforce_on_lattice_defects():
    """Matching weight on real lattice defect sets equals enumeration."""
    from scdec.mwpm import _tables

    rng = np.random.default_rng(2)
    for d in (5, 7):
        for t in (0, 1):
            tab = _tables(d)[t]
            k_anc = tab.dist.shape[0]
            for _ in range(60):
                nd = int(rng.integers(1, 8))
                defects = sorted(rng.choice(k_anc, size=nd, replace=False).tolist())
                idx = np.array(defects, dtype=np.intp)
                dist = tab.dist[np.ix_(idx, idx)]
                bnd = tab.bnd[idx]
                got = match_weight(dist, bnd, match_defects(dist, bnd))
                want = brute_force_boundary_matching(dist.tolist(), bnd.tolist())
                assert got == want


def test_all_single_pauli_errors_corrected_at_d3():
    """Distance guarantee: every weight-1 error ends as logical identity."""
    lay = build_layout(3)
    for q in range(9):
        for pauli in ("x", "y", "z"):
            x = np.zeros(9, np.uint8)
            z = np.zeros(9, np.uint8)
            if pauli in ("x", "y"):
                x[q] = 1
            if pauli in ("y", "z"):
                z[q] = 1
            syn = compute_syndrome_bits(lay, x, z)[0]
            cx, cz = _correction(lay, syn)
            assert logical_class(lay, x ^ cx, z ^ cz) == (0, 0), (q, pauli)


def test_decoder_caching_consistent_with_decode():
    lay = build_layout(5)
    dec = MwpmDecoder(lay)
    xb, zb = sample_depolarizing_bits(lay, 0.15, 5, 1, 0, 500)
    syn = compute_syndrome_bits(lay, xb, zb)
    lz, lx = dec.cut_parities_batch(syn)
    for i in range(syn.shape[0]):
        clx, clz = cut_parities(lay, *_correction(lay, syn[i]))
        assert (int(clx), int(clz)) == (int(lx[i]), int(lz[i]))


# ------------------------------------------------------- batch decoding --

# Sampled syndromes with components of 12 and 13 defects and, at d=9,
# eps=0.3, of 23 to 25.
_LATTICE_SAMPLES = ((5, 0.05, 200), (5, 0.3, 200), (7, 0.1, 200), (7, 0.3, 60),
                    (9, 0.05, 100), (9, 0.2, 40), (9, 0.3, 120))
# The exhaustive oracle visits 2^k subsets; larger components are held to
# the reference matcher ``match_defects``.
_ORACLE_MAX = 14


def _sampled_syndromes(d, eps, n, seed=29):
    lay = build_layout(d)
    xb, zb = sample_depolarizing_bits(lay, eps, seed, 0, 0, n)
    return lay, compute_syndrome_bits(lay, xb, zb)


def _reference_correction(tab, defects, sizes):
    """(data mask, cut parity) from matching each component independently:
    the exhaustive subset DP up to _ORACLE_MAX defects, the reference
    matcher above."""
    mask = 0
    for comp in union_find_components(defects, tab.dist, tab.bnd):
        k = len(comp)
        sizes.append(k)
        idx = np.array(comp, dtype=np.intp)
        dist = tab.dist[np.ix_(idx, idx)]
        bnd = tab.bnd[idx]
        pair = (subset_dp_matching(dist, bnd) if k <= _ORACLE_MAX
                else match_defects(dist, bnd).tolist())
        mask ^= _pair_mask(tab, comp, pair)
    return mask, (mask & tab.cut_mask).bit_count() & 1


def test_batch_and_single_shot_equal_independent_reference():
    """Parities from ``cut_parities_batch`` (the batch DP) and masks from
    ``decode_masks`` equal per-component reference matchings."""
    from scdec.mwpm import _tables

    sizes = []
    for d, eps, n in _LATTICE_SAMPLES:
        lay, syn = _sampled_syndromes(d, eps, n)
        nx = lay.n_anc_x
        dec = MwpmDecoder(lay)
        lz, lx = dec.cut_parities_batch(syn)
        for i, row in enumerate(syn):
            masks = dec.decode_masks(row)
            for t, (tab, bits, par) in enumerate(zip(
                    _tables(d), (row[:nx], row[nx:]), (lz[i], lx[i]))):
                want = _reference_correction(
                    tab, np.flatnonzero(bits).tolist(), sizes)
                assert int(par) == want[1], (d, eps, i, t)
                assert masks[t] == want[0], (d, eps, i, t)
    assert sizes.count(12) and sizes.count(13)
    assert max(sizes) > 22


# Seeded syndromes whose components take every size from 1 to 22, and a
# few sizes above, with the sha256 of their ``decode_masks``.
_PINNED_SAMPLES = ((3, 0.3, 200), (5, 0.3, 200), (7, 0.25, 100), (9, 0.2, 60),
                   (11, 0.15, 16))
_PINNED_MASKS = "6ab106c75ce8de4ee7cf96cd33828103d68e4e9963aa91c23ea7bd9d20617987"


def test_single_shot_masks_pinned():
    """Correction masks of single-shot decoding, pinned at d = 3 to 11: a
    change of the tie rule or of a path moves a mask and fails here."""
    from scdec.mwpm import _split_components

    digest = hashlib.sha256()
    sizes = set()
    for d, eps, n in _PINNED_SAMPLES:
        lay, syn = _sampled_syndromes(d, eps, n, seed=5)
        dec = MwpmDecoder(lay)
        for row in syn:
            digest.update("{:x} {:x}\n".format(*dec.decode_masks(row)).encode())
        for tab, keys in _sector_keys(d, syn):
            _, comps = _split_components(keys, tab.or_tab)
            sizes.update(np.bitwise_count(comps).tolist())
    assert set(range(1, 23)) <= sizes and max(sizes) > 22
    assert digest.hexdigest() == _PINNED_MASKS


@pytest.mark.parametrize("d", (3, 5, 7, 9, 11))
def test_path_weights_have_the_parity_of_their_masks(d):
    """Why tied matchings share a cut parity: corrections of one sector that
    answer the same defects differ by stabilizers, all of even weight, and
    maybe the sector's logical, of odd weight; and every path's weight has
    the parity of its data-qubit mask, so a matching's weight has the
    parity of its correction's popcount."""
    from scdec.mwpm import _tables

    lay = build_layout(d)
    for h in (lay.hx, lay.hz):
        assert not (h.sum(axis=1) % 2).any()
    for tab, h in zip(_tables(d), (lay.hx, lay.hz)):
        cut = {q for q in range(lay.n_data) if tab.cut_mask >> q & 1}
        # the logical of this sector's corrections: no syndrome on its
        # checks and an odd overlap with its cut
        logicals = [op for op in (lay.logical_cut_x, lay.logical_cut_z)
                    if not (h[:, sorted(op)].sum(axis=1) % 2).any()
                    and len(op & cut) % 2]
        assert len(logicals) == 1 and len(logicals[0]) % 2 == 1
        pop = np.array([[m.bit_count() for m in row] for row in tab.path_mask])
        off = ~np.eye(tab.bnd.size, dtype=bool)
        assert ((tab.dist - pop)[off] % 2 == 0).all()
        assert [int(w) % 2 for w in tab.bnd] == [m.bit_count() % 2 for m in tab.bnd_mask]


@pytest.mark.parametrize("d", [3, 5])
def test_every_key_reaches_one_cut_parity_at_minimum_weight(d):
    """Exhaustive over every defect subset of both sectors (2^4 keys at d=3,
    2^12 at d=5): all minimum-weight matchings of a key agree on its cut
    parity, and the batch DP returns that parity."""
    from scdec.mwpm import _parities, _tables

    for tab in _tables(d):
        k = tab.bnd.size
        cut = tab.cut_mask
        pair_parity = [[(m & cut).bit_count() & 1 for m in row] for row in tab.path_mask]
        bnd_parity = [(m & cut).bit_count() & 1 for m in tab.bnd_mask]
        _, parities = parity_set_dp(tab.dist.tolist(), tab.bnd.tolist(),
                                    pair_parity, bnd_parity)
        assert len(parities) == 1 << k and all(len(p) == 1 for p in parities)
        keys = np.arange(1 << k, dtype=np.uint64)
        assert _parities(tab, keys).tolist() == [min(p) for p in parities]


def _sector_keys(d, syn):
    """(tables, uint64 defect keys) per ancilla sector of ``syn``."""
    from scdec.mwpm import _pack_bits, _tables

    nx = build_layout(d).n_anc_x
    return [(tab, _pack_bits(cols))
            for tab, cols in zip(_tables(d), (syn[:, :nx], syn[:, nx:]))]


_ORACLE_SAMPLES = _LATTICE_SAMPLES + ((3, 0.3, 300), (11, 0.05, 60), (11, 0.12, 10))


def test_batch_dp_equals_match_component_on_every_component():
    """Every component of 2 or more defects, decoded as a key of its own,
    gets the cut parity (batch DP) and the correction mask (single-shot
    traceback) of the reference matcher's pair array: every size from 2 to
    22 and some above."""
    from scdec.mwpm import _corr_masks, _parities

    sizes = set()
    for d, eps, n in _ORACLE_SAMPLES:
        _, syn = _sampled_syndromes(d, eps, n)
        for tab, keys in _sector_keys(d, syn):
            comps = sorted({sum(1 << u for u in c) for key in keys.tolist()
                            for c in union_find_components(_bits(key), tab.dist, tab.bnd)
                            if len(c) >= 2})
            want = [_reference_mask(tab, _bits(c)) for c in comps]
            got = _parities(tab, np.array(comps, dtype=np.uint64))
            assert got.tolist() == [(m & tab.cut_mask).bit_count() & 1
                                    for m in want], (d, eps)
            assert [_corr_masks([(tab, c)])[0] for c in comps] == want, (d, eps)
            sizes.update(c.bit_count() for c in comps)
    assert set(range(2, 23)) <= sizes and max(sizes) > 22


def test_batch_dp_keeps_the_tie_rule_on_random_instances():
    """Weights in 0..3 make ties common, and random multi-bit path masks
    make tied matchings differ in mask and in cut parity, so every choice of
    the batch DP and of the single-shot traceback must be the reference
    matcher's: boundary first, then partners in ascending order, first
    strict improvement."""
    from scdec.mwpm import _corr_masks, _parities, _type_tables

    rng = np.random.default_rng(41)
    for k in range(2, 13):
        for trial in range(6):
            w = np.triu(rng.integers(0, 4, size=(k, k)), 1)
            p = np.triu(rng.integers(1, 1 << 16, size=(k, k)), 1)
            cut = int(rng.integers(1, 1 << 16))
            tab = _type_tables(w + w.T, rng.integers(0, 4, size=k),
                               (p | p.T).tolist(),
                               rng.integers(1, 1 << 16, size=k).tolist(), cut)
            keys = np.unique(rng.integers(1, 1 << k, size=200)).astype(np.uint64)
            want = [_reference_mask(tab, _bits(key)) for key in keys.tolist()]
            got = _parities(tab, keys)
            assert got.tolist() == [(m & cut).bit_count() & 1 for m in want], (k, trial)
            assert [_corr_masks([(tab, key)])[0] for key in keys.tolist()] == want, (k, trial)


def test_shadow_pruning_keeps_the_tie_rule_on_random_metrics():
    """On random shortest-path metrics with edge weights 1..3, where tied
    matchings are common and differ in mask and cut parity, the batch DP
    and the traceback, which skip shadowed partners, make every choice of
    the unpruned reference matcher; the shadowed partners of every reached
    subset are the defining sets', and skipping them reached fewer
    subsets."""
    import dataclasses

    from scdec.mwpm import _corr_masks, _levels, _parities, _shadowed, _type_tables

    rng = np.random.default_rng(43)
    skipped = reached = unpruned = 0
    for k in range(2, 15):
        for trial in range(6):
            dist, bnd, path_mask, bnd_mask, cut = random_shortest_path_metric(rng, k)
            tab = _type_tables(dist, bnd, path_mask, bnd_mask, cut)
            keys = np.unique(rng.integers(1, 1 << k, size=200)).astype(np.uint64)
            want = [_reference_mask(tab, _bits(key)) for key in keys.tolist()]
            got = _parities(tab, keys)
            assert got.tolist() == [(m & cut).bit_count() & 1 for m in want], (k, trial)
            assert [_corr_masks([(tab, key)])[0] for key in keys.tolist()] == want, (k, trial)
            sets = shadow_sets(dist, bnd)
            pairs = keys[np.array([key.bit_count() > 1 for key in keys.tolist()])]
            levels = _levels(tab, pairs)[0]
            full = dataclasses.replace(tab, shadow=np.zeros_like(tab.shadow))
            reached += sum(subs.size for subs, _ in levels)
            unpruned += sum(subs.size for subs, _ in _levels(full, pairs)[0])
            for subs, _ in levels[2:]:
                low = [(sub & -sub).bit_length() - 1 for sub in subs.tolist()]
                rest = [sub ^ (1 << u) for sub, u in zip(subs.tolist(), low)]
                shadowed = []
                for u, r in zip(low, rest):
                    shadowed.append(0)
                    for w in _bits(r):
                        shadowed[-1] |= sets[u][w]
                got = _shadowed(tab, np.array(low), np.array(rest, dtype=np.uint64))
                assert got.tolist() == shadowed, (k, trial)
                skipped += sum(bool(m & r & int(tab.inter_keys[u]))
                               for m, r, u in zip(shadowed, rest, low))
    assert skipped and reached < unpruned


@pytest.mark.parametrize("d", (3, 5, 7, 9, 11))
def test_lattice_shadow_tables(d):
    """The lattice tables meet the shadow guard for every (v, w), so
    ``shadow`` depends on shortest paths alone, and at d = 3, 5, 7 it equals
    the byte-wise OR of the defining sets."""
    from scdec.mwpm import _tables

    for tab in _tables(d):
        dist = tab.dist.astype(np.int64)
        bnd = tab.bnd.astype(np.int64)
        assert (dist[:, None, :] <= dist[:, :, None] + dist[None]).all()
        assert (bnd[:, None] <= dist + bnd[None, :]).all()
        k = bnd.size
        assert tab.shadow.shape == (k, -(-k // 8), 256)
        if d > 7:
            continue
        sets = shadow_sets(dist, bnd)
        want = np.zeros(tab.shadow.shape, dtype=np.uint64)
        for u in range(k):
            for j in range(want.shape[1]):
                for b in range(1, 256):
                    low = (b & -b).bit_length() - 1
                    w = 8 * j + low
                    want[u, j, b] = want[u, j, b & (b - 1)] | (sets[u][w] if w < k else 0)
        assert (tab.shadow == want).all(), d


_DP_FIELDS = ("dist", "bnd", "inter_keys", "or_tab", "shadow", "single", "pair")


@pytest.mark.parametrize("d", (3, 5, 7, 9, 11))
def test_sectors_share_dp_tables(d):
    """Built on its own, the Z sector's every DP array equals the X
    sector's: the rotation maps X-local ancilla u onto Z-local ancilla u.
    ``_tables`` hands the Z sector the X sector's arrays and its own masks."""
    from scdec.lattice import ANC_Z
    from scdec.mwpm import _sector_paths, _tables, _type_tables

    lay = build_layout(d)
    assert [lay.rot_anc[u] for u in range(lay.n_anc_x)] == \
        list(range(lay.n_anc_x, lay.n_anc))
    tx, tz = _tables(d)
    own = _type_tables(*_sector_paths(lay, ANC_Z))
    for name in _DP_FIELDS:
        assert np.array_equal(getattr(own, name), getattr(tx, name)), (d, name)
        assert getattr(tz, name) is getattr(tx, name), (d, name)
    for name in ("path_mask", "bnd_mask", "cut_mask"):
        assert getattr(tz, name) == getattr(own, name), (d, name)
        assert getattr(tz, name) != getattr(tx, name), (d, name)


def test_tables_raise_when_the_sectors_differ(monkeypatch):
    """A Z sector whose boundary routes differ from the X sector's cannot
    share its DP, and ``_tables`` says so instead of sharing it."""
    from scdec import mwpm
    from scdec.lattice import ANC_Z

    paths = mwpm._sector_paths

    def bent(layout, t):
        dist, bnd, path_mask, bnd_mask, cut_mask = paths(layout, t)
        if t == ANC_Z:
            bnd = bnd.copy()
            bnd[0] += 1
        return dist, bnd, path_mask, bnd_mask, cut_mask

    monkeypatch.setattr(mwpm, "_sector_paths", bent)
    with pytest.raises(RuntimeError, match="Z sector"):
        mwpm._tables.__wrapped__(3)


@pytest.mark.parametrize("d, eps, n", ((3, 0.2, 400), (5, 0.15, 400), (7, 0.1, 300),
                                       (9, 0.1, 200), (9, 0.3, 120)))
def test_merged_batch_equals_per_sector_parities(d, eps, n):
    """``cut_parities_batch`` decodes both sectors' keys in one DP; each
    sector decoded on its own, against Z tables built apart from the X
    sector's, gets the same parities, and so does the cut of each key's
    single-shot correction mask.  At d=9, eps=0.3 the batch holds
    components of more than 22 defects."""
    from scdec.lattice import ANC_Z
    from scdec.mwpm import (_corr_masks, _pack_bits, _parities,
                            _sector_paths, _split_components, _tables,
                            _type_tables)

    lay, syn = _sampled_syndromes(d, eps, n, seed=d)
    nx = lay.n_anc_x
    tx = _tables(d)[0]
    tz = _type_tables(*_sector_paths(lay, ANC_Z))
    lz, lx = MwpmDecoder(lay).cut_parities_batch(syn)
    for tab, keys, got in ((tx, _pack_bits(syn[:, :nx]), lz),
                           (tz, _pack_bits(syn[:, nx:]), lx)):
        assert got.tolist() == _parities(tab, keys).tolist()
        assert got.tolist() == [(_corr_masks([(tab, key)])[0] & tab.cut_mask).bit_count() & 1
                                for key in keys.tolist()]
    if eps == 0.3:
        _, comps = _split_components(_pack_bits(syn[:, nx:]), tz.or_tab)
        assert np.bitwise_count(comps).max() > 22


def test_shadow_pruning_halves_the_d9_subsets():
    """On a seeded d=9 batch the pruned DP reaches at most half the subsets
    of the DP with an empty shadow table, and every subset it reaches has
    the same value in both."""
    import dataclasses

    from scdec.mwpm import _levels, _split_components

    _, syn = _sampled_syndromes(9, 0.2, 300)
    for tab, keys in _sector_keys(9, syn):
        _, comps = _split_components(np.unique(keys), tab.or_tab)
        comps = np.unique(comps)
        n = np.bitwise_count(comps)
        comps = comps[n > 1]
        full = dataclasses.replace(tab, shadow=np.zeros_like(tab.shadow))
        pruned, every = _levels(tab, comps)[0], _levels(full, comps)[0]
        assert 2 * sum(s.size for s, _ in pruned) <= sum(s.size for s, _ in every)
        for (subs, vals), (all_subs, all_vals) in zip(pruned, every):
            at = np.searchsorted(all_subs, subs)
            assert (all_subs[at] == subs).all()
            assert (all_vals[at] == vals).all()


def test_option_keys_record_their_option():
    """Every option key of the d=11 tables carries its path's weight above
    bit 8 and cut parity in bit 0, and names its option in the 7 bits
    between: rank 0 for a boundary route, ``v + 1`` for the path u - v.
    d=11 has 60 ancillas per sector, so every rank fits."""
    from scdec.mwpm import _parity_bits, _tables

    tab = _tables(11)[0]
    k = tab.bnd.size
    assert k == 60
    assert (tab.pair >> 1 & 0x7F == np.arange(1, k + 1)).all()
    assert not (tab.single >> 1 & 0x7F).any()
    assert (tab.pair >> 8 == tab.dist).all() and (tab.single >> 8 == tab.bnd).all()
    single, pair = _parity_bits(tab.path_mask, tab.bnd_mask, tab.cut_mask)
    assert (tab.single & 1 == single).all() and (tab.pair & 1 == pair).all()


def _chosen_paths(levels, comp):
    """``(u, v)`` of each path of the matching that the keys of the DP
    ``levels`` record for ``comp``, ``v`` None for a boundary route."""
    paths = []
    while comp:
        subs, vals = levels[comp.bit_count()]
        at = np.searchsorted(subs, np.uint64(comp))
        assert subs[at] == comp          # every subset followed was reached
        rank = int(vals[at]) >> 1 & 0x7F
        u = (comp & -comp).bit_length() - 1
        v = rank - 1 if rank else None
        paths.append((u, v))
        comp ^= 1 << u | (1 << v if rank else 0)
    return paths


def test_recorded_choices_are_expanded_options_of_the_key_weight():
    """On lattice components of 2 to more than 22 defects at d = 3 to 11,
    each reached subset records its boundary route (rank 0) or a partner
    ``v + 1`` that ``_levels`` expands: of the rest, in ``inter_keys[u]``
    and not shadowed.  The choices recorded from a component down match
    each of its defects once with path lengths summing to its key's
    weight, and ``_trace`` XORs their masks into one that crosses the cut
    with its key's parity."""
    from scdec.mwpm import _bit_index, _levels, _shadowed, _split_components, _trace

    sizes = set()
    for d, eps, n in _ORACLE_SAMPLES:
        _, syn = _sampled_syndromes(d, eps, n)
        for tab, keys in _sector_keys(d, syn):
            _, comps = _split_components(keys, tab.or_tab)
            comps = np.unique(comps[np.bitwise_count(comps) > 1])
            levels, values = _levels(tab, comps)
            assert not (levels[1][1] >> 1 & 0x7F).any()
            for subs, vals in levels[2:]:
                low = subs & (~subs + np.uint64(1))
                u, rest = _bit_index(low), subs ^ low
                allowed = rest & tab.inter_keys[u] & ~_shadowed(tab, u, rest)
                rank = vals >> 1 & 0x7F
                v = np.maximum(rank - 1, 0).astype(np.uint64)
                assert ((rank == 0) | (allowed >> v & np.uint64(1) == 1)).all(), d
            for comp, key in zip(comps.tolist(), values.tolist()):
                paths = _chosen_paths(levels, comp)
                assert sorted(w for p in paths for w in p if w is not None) == _bits(comp)
                assert sum(int(tab.bnd[u]) if v is None else int(tab.dist[u, v])
                           for u, v in paths) == key >> 8, (d, comp)
                mask = 0
                for u, v in paths:
                    mask ^= tab.bnd_mask[u] if v is None else tab.path_mask[u][v]
                assert _trace(tab, levels, comp) == mask, (d, comp)
                assert (mask & tab.cut_mask).bit_count() & 1 == key & 1, (d, comp)
            sizes.update(np.bitwise_count(comps).tolist())
    assert {3, 5, 7, 9, 11} == {d for d, _, _ in _ORACLE_SAMPLES}
    assert min(sizes) == 2 and max(sizes) > 22


def test_batch_component_split_equals_bitmask_bfs_and_union_find():
    """``_split_components``, the one splitter of both decoding paths, gives
    each key's union-find components, lowest first."""
    from scdec.mwpm import _split_components

    for d, eps, n in _ORACLE_SAMPLES:
        _, syn = _sampled_syndromes(d, eps, n)
        for tab, keys in _sector_keys(d, syn):
            rows, comps = _split_components(keys, tab.or_tab)
            got = [[] for _ in range(keys.size)]
            for r, c in zip(rows.tolist(), comps.tolist()):
                got[r].append(_bits(c))
            for key, split in zip(keys.tolist(), got):
                assert split == union_find_components(_bits(key), tab.dist, tab.bnd), key


def test_big_endian_keys_split_and_shadow_as_native():
    """Keys handed to ``_split_components`` and ``_shadowed`` as ``'>u8'``
    arrays give the rows, components and shadow sets of native keys."""
    from scdec.mwpm import _bit_index, _shadowed, _split_components

    _, syn = _sampled_syndromes(11, 0.2, 200)
    for tab, keys in _sector_keys(11, syn):
        swapped = keys.astype(">u8")
        assert swapped.tolist() == keys.tolist()
        rows, comps = _split_components(keys, tab.or_tab)
        big_rows, big_comps = _split_components(swapped, tab.or_tab)
        assert big_rows.tolist() == rows.tolist()
        assert big_comps.tolist() == comps.tolist()
        low = comps & (~comps + np.uint64(1))
        u, rest = _bit_index(low), comps ^ low
        assert (_shadowed(tab, u, rest.astype(">u8")).tolist()
                == _shadowed(tab, u, rest).tolist())
        assert _shadowed(tab, u, rest).any()


def test_pack_bits_equals_python_int_keys():
    """``_pack_bits`` sets bit j of a row's key where column j is nonzero:
    widths 1 to 64, C-ordered rows and transposed views, bool and uint8,
    entries of 2 and 3.  A 65-bit row raises."""
    from scdec.mwpm import _pack_bits

    rng = np.random.default_rng(17)
    for width in range(1, 65):
        rows = rng.integers(0, 4, size=(70, width)).astype(np.uint8)
        rows[0] = 0
        rows[1] = 3
        want = [sum(1 << j for j in range(width) if r[j]) for r in rows.tolist()]
        for bits in (rows, rows.astype(bool)):
            for layout in (bits, np.ascontiguousarray(bits.T).T):
                keys = _pack_bits(layout)
                assert keys.dtype == np.uint64 and keys.tolist() == want, width
    with pytest.raises(ValueError, match="64 bits"):
        _pack_bits(np.ones((3, 65), dtype=np.uint8))


def _or_loop_keys(bits):
    """uint64 keys of the rows of ``bits``, column j ORed in at bit j: the
    packer ``_pack_bits`` replaced."""
    keys = np.zeros(len(bits), dtype=np.uint64)
    for j in range(bits.shape[1]):
        keys |= (bits[:, j] != 0).astype(np.uint64) << np.uint64(j)
    return keys


def test_pack_bits_matches_the_or_loop_packer():
    """The BLAS packer gives the OR loop's keys bit for bit at every width
    from 1 to 64, for random rows, all-ones rows, and d=11 syndromes of the
    60-ancilla Z sector at three rates."""
    from scdec.mwpm import _pack_bits

    rng = np.random.default_rng(23)
    for width in range(1, 65):
        for bits in (rng.integers(0, 2, size=(500, width), dtype=np.uint8),
                     np.ones((3, width), dtype=np.uint8)):
            assert _pack_bits(bits).tolist() == _or_loop_keys(bits).tolist(), width
    nx = build_layout(11).n_anc_x
    for eps in (0.03, 0.1, 0.3):
        _, syn = _sampled_syndromes(11, eps, 2000)
        sector = syn[:, nx:]
        assert sector.shape[1] == 60
        assert _pack_bits(sector).tolist() == _or_loop_keys(sector).tolist()


def _per_row_parities(lay, syn):
    """(lz, lx) of each row decoded alone through ``decode_masks``."""
    out = []
    for row in syn:
        lx, lz = cut_parities(lay, *_correction(lay, row))
        out.append((int(lz), int(lx)))
    return out


def test_batch_edge_cases():
    """Zero rows, all-zero keys, duplicated rows, a single row, and d=11
    keys on the top sector bit 59."""
    lay, syn = _sampled_syndromes(7, 0.2, 40)
    lz, lx = MwpmDecoder(lay).cut_parities_batch(syn[:0])
    assert lz.shape == lx.shape == (0,)
    assert lz.dtype == lx.dtype == np.uint8

    zero = np.zeros((5, lay.n_anc), dtype=np.uint8)
    for pars in MwpmDecoder(lay).cut_parities_batch(zero):
        assert pars.tolist() == [0] * 5

    rows = np.concatenate([syn, syn[::-1], syn[:1], zero[:2]])
    lz, lx = MwpmDecoder(lay).cut_parities_batch(rows)
    assert list(zip(lz.tolist(), lx.tolist())) == _per_row_parities(lay, rows)

    for i in (0, 17):
        lz, lx = MwpmDecoder(lay).cut_parities_batch(syn[i:i + 1])
        assert [(int(lz[0]), int(lx[0]))] == _per_row_parities(lay, syn[i:i + 1])

    lay, syn = _sampled_syndromes(11, 0.08, 300)
    nx = lay.n_anc_x
    assert nx == lay.n_anc - nx == 60
    top = syn[(syn[:, nx - 1] == 1) | (syn[:, -1] == 1)]
    assert top[:, nx - 1].any() and top[:, -1].any()
    lz, lx = MwpmDecoder(lay).cut_parities_batch(top)
    assert list(zip(lz.tolist(), lx.tolist())) == _per_row_parities(lay, top)


def _watch_levels(monkeypatch):
    """Record ``(component count, reached subsets, largest level)`` of
    every ``_levels`` call, with None for the counts of a call that gave
    up; levels 0 and 1 are tables, not reached."""
    from scdec import mwpm

    calls = []
    levels = mwpm._levels

    def watched(t, comps, cap=None):
        out = levels(t, comps, cap)
        if out is None:
            calls.append((comps.size, None, None))
        else:
            sizes = [subs.size for subs, _ in out[0][2:]]
            calls.append((comps.size, sum(sizes), max(sizes)))
        return out

    monkeypatch.setattr(mwpm, "_levels", watched)
    return calls


def test_batch_dp_slices_stay_within_their_bound(monkeypatch):
    """Every ``_levels`` call of two or more components reaches at most
    _SLICE_SUBSETS subsets, and no level holds more.  With _SLICE_SUBSETS
    patched down to 300, a d=9, eps=0.3 batch goes through several halvings
    and gives the unpatched parities."""
    from scdec import mwpm

    lay, syn = _sampled_syndromes(9, 0.3, 400)
    calls = _watch_levels(monkeypatch)
    want = MwpmDecoder(lay).cut_parities_batch(syn)
    runs = [(mwpm._SLICE_SUBSETS, calls[:])]
    calls.clear()
    monkeypatch.setattr(mwpm, "_SLICE_SUBSETS", 300)
    got = MwpmDecoder(lay).cut_parities_batch(syn)
    runs.append((300, calls))
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    for cap, seen in runs:
        for count, reached, widest in seen:
            if reached is not None:
                assert widest <= reached
                assert count == 1 or reached <= cap, (cap, count, reached)
    assert sum(reached is None for _, reached, _ in calls) > 3   # halvings
    assert any(count == 1 and reached > 300 for count, reached, _ in calls
               if reached is not None)


def test_d7_window_takes_one_dp(monkeypatch):
    """The d=7 curve that ``perfbench``'s ``mwpm-d7`` workload runs, 8,192
    shots at each eps of 0.04 to 0.12, is one window of three shards; its
    keys take one ``_levels`` call within _SLICE_SUBSETS, which reaches
    more than 2^16 subsets (71k, where the three shards' DPs reached 97k
    between them)."""
    from scdec import eval as eval_mod, mwpm

    lay = build_layout(7)
    calls = _watch_levels(monkeypatch)
    eval_mod.benchmark(eval_mod.MwpmBenchmarkDecoder(lay), lay,
                       [0.04, 0.06, 0.08, 0.10, 0.12], 8192, 1)
    assert len(calls) == 1, calls
    reached = calls[0][1]
    assert reached is not None and 1 << 16 < reached <= mwpm._SLICE_SUBSETS, calls


def _widest_level(d, keys):
    """(reached subsets, largest level) of one DP over the components of 2
    or more defects of the distance-``d`` uint64 ``keys``."""
    from scdec.mwpm import _levels, _split_components, _tables

    tab = _tables(d)[0]
    _, comps = _split_components(np.asarray(keys, dtype=np.uint64), tab.or_tab)
    comps = comps[np.bitwise_count(comps) > 1]
    if not comps.size:
        return 0, 0
    sizes = [subs.size for subs, _ in _levels(tab, comps)[0]]
    return sum(sizes), max(sizes)


@pytest.mark.parametrize("d", (3, 5, 7, 9, 11))
def test_fully_set_sector_stays_within_the_slice_bound(d):
    """The worst case of one component: every ancilla of a sector is a
    defect.  No level of its DP holds more than _SLICE_SUBSETS subsets
    (d=11: 8,421 reached, at most 222 in one level)."""
    from scdec import mwpm

    k = build_layout(d).n_anc_x
    reached, widest = _widest_level(d, [(1 << k) - 1])
    assert 0 < widest <= mwpm._SLICE_SUBSETS, (reached, widest)


@given(st.floats(0.05, 0.6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_d11_key_search_stays_within_the_slice_bound(density, seed):
    """A seeded search over d=11 keys whose ancillas are defects with
    probability ``density``, steered towards the largest reach: no level of
    the DP over a key's components holds more than _SLICE_SUBSETS
    subsets."""
    from scdec import mwpm

    bits = np.random.default_rng(seed).random(60) < density
    key = sum(1 << u for u in np.flatnonzero(bits).tolist())
    reached, widest = _widest_level(11, [key])
    target(float(reached))
    assert widest <= mwpm._SLICE_SUBSETS, (density, seed, reached, widest)


def test_decoding_imports_no_networkx(monkeypatch):
    """With every import of networkx failing, a d=9, eps=0.3 batch holding
    components of more than 22 defects decodes in both paths, and each
    single-shot mask crosses the cut with its batch parity."""
    import sys

    from scdec.mwpm import _split_components

    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError):
        import networkx  # noqa: F401
    lay, syn = _sampled_syndromes(9, 0.3, 120, seed=9)
    assert max(np.bitwise_count(_split_components(keys, tab.or_tab)[1]).max()
               for tab, keys in _sector_keys(9, syn)) > 22
    lz, lx = MwpmDecoder(lay).cut_parities_batch(syn)
    assert list(zip(lz.tolist(), lx.tolist())) == _per_row_parities(lay, syn)


def test_decode_size_mismatch():
    lay = build_layout(3)
    dec = MwpmDecoder(lay)
    with pytest.raises(ValueError, match="different layout"):
        dec.decode_masks(np.zeros(24, np.uint8))
    with pytest.raises(ValueError, match="different layout"):
        dec.cut_parities_batch(np.zeros((2, 24), np.uint8))
