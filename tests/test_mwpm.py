import numpy as np
import pytest

from scdec.lattice import build_layout, logical_class
from scdec.mwpm import MwpmDecoder, _large_matching, decode_mwpm
from scdec.noise import Syndrome, compute_syndrome_bits, sample_depolarizing_bits
from scdec._kernels import MATCH_DP_MAX, match_defects, python_backend

from oracles import (
    brute_force_boundary_matching,
    match_weight,
    subset_dp_matching,
    union_find_components,
)


# ------------------------------------------------------ blossom fallback --

def test_large_graph_path_agrees_with_dp():
    """The blossom route, forced on small boundary instances with weights in
    0..3 so that ties are common, finds the subset DP's minimum weight."""
    rng = np.random.default_rng(13)
    for k in range(1, 11):
        for trial in range(20):
            d = rng.integers(0, 4, size=(k, k))
            d = np.triu(d, 1) + np.triu(d, 1).T
            bnd = rng.integers(0, 4, size=k)
            got = match_weight(d, bnd, _large_matching(d, bnd))
            assert got == match_weight(d, bnd, subset_dp_matching(d, bnd)), (k, trial)


def test_large_matching_weight_equals_uncapped_dp_on_lattice_components(monkeypatch):
    """The components the decoder sends to the blossom (more than
    MATCH_DP_MAX defects) get the weight the top-down DP finds without its
    cap: the 8 smallest of 200 d=9 syndromes at eps = 0.3."""
    from scdec.mwpm import _components, _tables

    lay = build_layout(9)
    xb, zb = sample_depolarizing_bits(lay, 0.3, 23, 0, 0, 200)
    syn = compute_syndrome_bits(lay, xb, zb)
    nx = lay.n_anc_x
    large = []
    for tab, cols in zip(_tables(9), (syn[:, :nx], syn[:, nx:])):
        for row in cols:
            key = sum(1 << int(u) for u in np.flatnonzero(row))
            for comp in _components(key, tab.inter):
                members = [u for u in range(comp.bit_length()) if comp >> u & 1]
                if len(members) > MATCH_DP_MAX:
                    large.append((len(members), members, tab))
    large.sort(key=lambda item: item[:2])
    assert len(large) >= 8
    monkeypatch.setattr(python_backend, "MATCH_DP_MAX", 64)
    for _, members, tab in large[:8]:
        idx = np.array(members, dtype=np.intp)
        dist = tab.dist[np.ix_(idx, idx)]
        bnd = tab.bnd[idx]
        want = match_weight(dist, bnd, python_backend.match_defects(dist, bnd))
        assert match_weight(dist, bnd, _large_matching(dist, bnd)) == want, members


# ----------------------------------------------------- defect DP matcher --

from hypothesis import given, settings
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
            got = python_backend.match_defects(d, bnd).tolist()
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


def test_bitmask_components_equal_union_find():
    from scdec.mwpm import _components

    for tab, defects in _lattice_defect_sets():
        key = sum(1 << u for u in defects)
        got = [[u for u in defects if c >> u & 1]
               for c in _components(key, tab.inter)]
        assert got == union_find_components(defects, tab.dist, tab.bnd), defects


def test_python_matcher_pairs_equal_subset_dp_on_lattice_components():
    checked = 0
    for tab, defects in _lattice_defect_sets():
        for comp in union_find_components(defects, tab.dist, tab.bnd):
            if len(comp) > MATCH_DP_MAX:
                continue  # matched by the blossom fallback, not the DP
            idx = np.array(comp, dtype=np.intp)
            dist = tab.dist[np.ix_(idx, idx)]
            bnd = tab.bnd[idx]
            got = python_backend.match_defects(dist, bnd).tolist()
            assert got == subset_dp_matching(dist, bnd), comp
            checked += 1
    assert checked > 1000


# ------------------------------------------------------------- decoding --

def test_zero_syndrome_identity_correction():
    lay = build_layout(5)
    corr = decode_mwpm(lay, Syndrome(np.zeros(24, np.uint8)))
    assert not corr.x_bits.any() and not corr.z_bits.any()


def test_boundary_adjacent_defect_gets_single_qubit_correction():
    lay = build_layout(3)
    # a single X error on corner qubit 0 flags exactly one Z-ancilla;
    # the minimum correction is a single data qubit at the boundary
    x = np.zeros(9, np.uint8)
    x[0] = 1
    syn = compute_syndrome_bits(lay, x, np.zeros(9, np.uint8))[0]
    assert syn.sum() == 1
    corr = decode_mwpm(lay, Syndrome(syn))
    assert corr.x_bits.sum() + corr.z_bits.sum() == 1


@pytest.mark.parametrize("d", (3, 5, 7, 9))
def test_syndrome_consistency(d):
    """compute_syndrome(decode(s)) = s: exhaustive at d=3, sampled
    elsewhere (syndromes of depolarizing errors at p = 0.1)."""
    lay = build_layout(d)
    if d == 3:
        syn = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(np.uint8)
    else:
        n = {5: 4000, 7: 1500, 9: 600}[d]
        xb, zb = sample_depolarizing_bits(lay, 0.1, 77, 3, 0, n)
        syn = compute_syndrome_bits(lay, xb, zb)
    for row in syn:
        corr = decode_mwpm(lay, Syndrome(row))
        back = compute_syndrome_bits(lay, corr.x_bits, corr.z_bits)[0]
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
            corr = decode_mwpm(lay, Syndrome(syn))
            residual_x = x ^ corr.x_bits
            residual_z = z ^ corr.z_bits
            cls = logical_class(lay, residual_x, residual_z)
            assert (cls.lx, cls.lz) == (0, 0), (q, pauli)


def test_decoder_caching_consistent_with_decode():
    lay = build_layout(5)
    dec = MwpmDecoder(lay)
    xb, zb = sample_depolarizing_bits(lay, 0.15, 5, 1, 0, 500)
    syn = compute_syndrome_bits(lay, xb, zb)
    lz, lx = dec.cut_parities_batch(syn)
    from scdec.lattice import cut_parities

    for i in range(syn.shape[0]):
        corr = decode_mwpm(lay, Syndrome(syn[i]))
        clx, clz = cut_parities(lay, corr.x_bits, corr.z_bits)
        assert (int(clx), int(clz)) == (int(lx[i]), int(lz[i]))


# ------------------------------------------------- shared per-sector memo --

# Sampled syndromes whose components fall on both sides of _SHARED_MAX and,
# at d=9, eps=0.3, above MATCH_DP_MAX.
_MEMO_SAMPLES = ((5, 0.05, 200), (5, 0.3, 200), (7, 0.1, 200), (7, 0.3, 60),
                 (9, 0.05, 100), (9, 0.2, 40), (9, 0.3, 120))
# The exhaustive oracle visits 2^k subsets; components of 15..22 defects
# (the unchanged match_defects route, checked against it above) are skipped.
_ORACLE_MAX = 14


def _sampled_syndromes(d, eps, n, seed=29):
    lay = build_layout(d)
    xb, zb = sample_depolarizing_bits(lay, eps, seed, 0, 0, n)
    return lay, compute_syndrome_bits(lay, xb, zb)


def _reference_correction(tab, defects, sizes):
    """(data mask, cut parity) from matching each component independently:
    the exhaustive subset DP up to _ORACLE_MAX defects, the blossom above
    MATCH_DP_MAX; None if a component lies in between."""
    mask = 0
    for comp in union_find_components(defects, tab.dist, tab.bnd):
        k = len(comp)
        if _ORACLE_MAX < k <= MATCH_DP_MAX:
            return None
        sizes.append(k)
        idx = np.array(comp, dtype=np.intp)
        dist = tab.dist[np.ix_(idx, idx)]
        bnd = tab.bnd[idx]
        pair = (subset_dp_matching(dist, bnd) if k <= _ORACLE_MAX
                else _large_matching(dist, bnd).tolist())
        for i, j in enumerate(pair):
            if j < 0:
                mask ^= tab.bnd_mask[comp[i]]
            elif j > i:
                mask ^= tab.path_mask[comp[i]][comp[j]]
    return mask, (mask & tab.cut_mask).bit_count() & 1


def test_memo_path_equals_independent_reference():
    """Parities from ``cut_parities_batch`` (over the shared memo) and masks
    from ``decode_masks`` equal per-component reference matchings."""
    from scdec.mwpm import _SHARED_MAX, _tables

    sizes = []
    for d, eps, n in _MEMO_SAMPLES:
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
                if want is None:
                    continue
                assert int(par) == want[1], (d, eps, i, t)
                assert masks[t] == want[0], (d, eps, i, t)
    assert sizes.count(_SHARED_MAX) and sizes.count(_SHARED_MAX + 1)
    assert max(sizes) > MATCH_DP_MAX


def test_clearing_the_memo_changes_nothing(monkeypatch):
    """A memo capped at 64 entries clears many times and gives the same
    parities; masks do not read the memo."""
    from scdec.mwpm import _DefectCache

    def decode(lay, syn):
        dec = MwpmDecoder(lay)
        pars = dec.cut_parities_batch(syn)
        return [p.tolist() for p in pars], len(dec._cache_x.memo)

    for d, eps, n in ((7, 0.1, 300), (7, 0.3, 60), (9, 0.1, 60), (9, 0.2, 20)):
        lay, syn = _sampled_syndromes(d, eps, n)
        pars, size = decode(lay, syn)
        with monkeypatch.context() as m:
            m.setattr(_DefectCache, "MAX_ENTRIES", 64)
            small_pars, small_size = decode(lay, syn)
        assert small_size < size
        assert small_pars == pars, (d, eps)


def test_decode_size_mismatch():
    lay = build_layout(3)
    with pytest.raises(ValueError):
        decode_mwpm(lay, Syndrome(np.zeros(24, np.uint8)))
