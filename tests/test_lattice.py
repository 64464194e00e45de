import numpy as np
import pytest

from scdec.lattice import ANC_X, ANC_Z, build_layout, cut_parities
from scdec.noise import compute_syndrome_bits
from scdec.ped import chain_indices

from oracles import gf2_span, logical_class, rotate_error, rotate_syndrome

DISTANCES = (3, 5, 7, 9)


def test_rejects_bad_distance():
    for d in (4, 2, 0, -3, 1):
        with pytest.raises(ValueError):
            build_layout(d)


def test_d3_counts_and_type_split():
    lay = build_layout(3)
    assert lay.n_data == 9 and lay.n_anc == 8
    assert [lay.anc_type[a] for a in range(4)] == [ANC_X] * 4
    assert [lay.anc_type[a] for a in range(4, 8)] == [ANC_Z] * 4


def test_d5_ancilla_numbering_matches_chain_formulas():
    # X-ancillas 0..11, Z 12..23; the chain t=0, r=+1, c=2 runs through 8, 11
    lay = build_layout(5)
    assert lay.n_anc == 24
    assert all(lay.anc_type[a] == ANC_X for a in range(12))
    assert all(lay.anc_type[a] == ANC_Z for a in range(12, 24))
    q, a = chain_indices(5, 0, 1, 2)
    assert a == [8, 11] and q == [23, 24]


@pytest.mark.parametrize("d", DISTANCES)
def test_ancilla_numbering_consistent_with_all_chains(d):
    """Row-major data indexing forces the ancilla numbering through the
    chain closed forms: every chain ancilla must be adjacent to its chain
    data qubits."""
    lay = build_layout(d)
    from scdec.ped import chain_specs

    for spec in chain_specs(d):
        q, a = chain_indices(d, spec.t, spec.r, spec.c)
        for i, anc in enumerate(a):
            assert q[i] in lay.anc_adjacency[anc]
            if i > 0:
                assert q[i - 1] in lay.anc_adjacency[anc]


@pytest.mark.parametrize("d", DISTANCES)
def test_adjacency_invariants(d):
    lay = build_layout(d)
    for a, qs in enumerate(lay.anc_adjacency):
        assert len(qs) in (2, 4)
    for q in range(lay.n_data):
        n_x = sum(q in lay.anc_adjacency[a] for a in range(lay.n_anc_x))
        n_z = sum(q in lay.anc_adjacency[a] for a in range(lay.n_anc_x, lay.n_anc))
        assert n_x <= 2 and n_z <= 2


@pytest.mark.parametrize("d", DISTANCES)
def test_rotation_permutations(d):
    lay = build_layout(d)
    perm = np.array(lay.rot_anc)
    # type exchange
    assert np.all(perm[: lay.n_anc_x] >= lay.n_anc_x)
    assert np.all(perm[lay.n_anc_x :] < lay.n_anc_x)
    # order 4
    p = np.arange(lay.n_anc)
    q = np.arange(lay.n_data)
    for _ in range(4):
        p = perm[p]
        q = np.array(lay.rot_data)[q]
    assert np.array_equal(p, np.arange(lay.n_anc))
    assert np.array_equal(q, np.arange(lay.n_data))


def test_cut_sizes():
    for d in DISTANCES:
        lay = build_layout(d)
        assert len(lay.logical_cut_x) == d
        assert len(lay.logical_cut_z) == d


def test_rotate_syndrome_examples():
    lay = build_layout(3)
    zero = np.zeros(8, np.uint8)
    assert np.array_equal(rotate_syndrome(lay, zero), zero)

    s = np.zeros(8, np.uint8)
    s[2] = 1
    r = rotate_syndrome(lay, s)
    set_bits = np.flatnonzero(r)
    assert len(set_bits) == 1 and lay.anc_type[set_bits[0]] == ANC_Z

    rng = np.random.default_rng(0)
    s = rng.integers(0, 2, size=8, dtype=np.uint8)
    r4 = s
    for _ in range(4):
        r4 = rotate_syndrome(lay, r4)
    assert np.array_equal(r4, s)

    with pytest.raises(ValueError):
        rotate_syndrome(lay, np.zeros(7, np.uint8))


def test_rotate_error_examples():
    lay = build_layout(3)
    zero = np.zeros(9, np.uint8)
    x, z = rotate_error(lay, zero, zero)
    assert not x.any() and not z.any()

    # single X on the centre qubit becomes a single Z there
    xc = zero.copy()
    xc[4] = 1
    rx, rz = rotate_error(lay, xc, zero)
    assert not rx.any() and np.array_equal(rz, xc)

    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, size=9, dtype=np.uint8)
    z = rng.integers(0, 2, size=9, dtype=np.uint8)
    cx, cz = x, z
    for _ in range(4):
        cx, cz = rotate_error(lay, cx, cz)
    assert np.array_equal(cx, x) and np.array_equal(cz, z)

    with pytest.raises(ValueError):
        rotate_error(lay, np.zeros(8, np.uint8), np.zeros(9, np.uint8))


def test_logical_class_examples():
    lay = build_layout(3)
    zero = np.zeros(9, np.uint8)
    assert logical_class(lay, zero, zero) == (0, 0)

    # full top-to-bottom column of X errors -> logical X
    col = zero.copy()
    col[[0, 3, 6]] = 1
    assert logical_class(lay, col, zero) == (1, 0)

    # the four X operations around an X-ancilla form a stabilizer
    plaq = zero.copy()
    plaq[list(build_layout(3).anc_adjacency[1])] = 1
    assert logical_class(lay, plaq, zero) == (0, 0)

    # nontrivial syndrome -> class is cut-dependent, must be rejected
    bad = zero.copy()
    bad[0] = 1
    with pytest.raises(ValueError):
        logical_class(lay, bad, zero)


def _trivial_syndrome_residuals_d3():
    """All 1024 zero-syndrome configurations at d=3 via the stabilizer and
    logical generators (as 18-bit integers: x bits 0..8, z bits 9..17)."""
    lay = build_layout(3)
    gens = []
    for a in range(lay.n_anc):
        mask = 0
        for q in lay.anc_adjacency[a]:
            mask |= 1 << (q if lay.anc_type[a] == ANC_X else q + 9)
        gens.append(mask)
    lx = sum(1 << (3 * r) for r in range(3))            # X column 0
    lz = sum(1 << (c + 9) for c in range(3))            # Z row 0
    return gf2_span(gens + [lx, lz])


def test_cut_choice_invariance_d3_exhaustive():
    """For every trivial-syndrome residual the class is the same for every
    valid column/row cut."""
    lay = build_layout(3)
    residuals = _trivial_syndrome_residuals_d3()
    assert len(residuals) == 1 << 10
    for r in residuals:
        x = np.array([(r >> q) & 1 for q in range(9)], dtype=np.uint8)
        z = np.array([(r >> (q + 9)) & 1 for q in range(9)], dtype=np.uint8)
        assert not compute_syndrome_bits(lay, x, z).any()
        lx_all = {int(x[[row * 3 + c for c in range(3)]].sum() % 2) for row in range(3)}
        lz_all = {int(z[[r2 * 3 + col for r2 in range(3)]].sum() % 2) for col in range(3)}
        assert len(lx_all) == 1 and len(lz_all) == 1
        assert cut_parities(lay, x, z) == (lx_all.pop(), lz_all.pop())


def test_logical_class_swaps_under_rotation_d3():
    lay = build_layout(3)
    for r in _trivial_syndrome_residuals_d3():
        x = np.array([(r >> q) & 1 for q in range(9)], dtype=np.uint8)
        z = np.array([(r >> (q + 9)) & 1 for q in range(9)], dtype=np.uint8)
        lx, lz = cut_parities(lay, x, z)
        assert cut_parities(lay, *rotate_error(lay, x, z)) == (lz, lx)


@pytest.mark.parametrize("d", DISTANCES)
def test_rotation_commutes_with_syndrome_extraction(d):
    from scdec.noise import sample_depolarizing_bits

    lay = build_layout(d)
    n = 100_000 // d  # bounded work per distance, still tens of thousands
    x, z = sample_depolarizing_bits(lay, 0.15, 2024, 5, 0, n)
    rx, rz = rotate_error(lay, x, z)
    s1 = compute_syndrome_bits(lay, rx, rz)
    s2 = rotate_syndrome(lay, compute_syndrome_bits(lay, x, z))
    assert np.array_equal(s1, s2)


def test_larger_odd_distances_best_effort():
    """d=11 is beyond the guaranteed range but should still be coherent."""
    from scdec.ped import decode_bits as ped_decode

    lay = build_layout(11)
    assert lay.n_anc == 120
    rng = np.random.default_rng(0)
    syn = rng.integers(0, 2, size=(500, lay.n_anc), dtype=np.uint8)
    x, z = ped_decode(lay, syn)
    assert np.array_equal(compute_syndrome_bits(lay, x, z), syn)


def test_layout_dump_roundtrip_keys():
    d = build_layout(3).to_dict()
    assert d["d"] == 3
    assert len(d["anc_adjacency"]) == 8
    assert sorted(d["logical_cut_x"]) == [1, 4, 7]
    assert sorted(d["logical_cut_z"]) == [3, 4, 5]
