import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdec.lattice import build_layout
from scdec.noise import compute_syndrome_bits
from scdec.ped import chain_indices, chain_specs, decode_bits, decode_cut_parities

from oracles import rotate_error, rotate_syndrome

DISTANCES = (3, 5, 7, 9)


@given(st.sampled_from((3, 5, 7)), st.data())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(d, data):
    lay = build_layout(d)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=lay.n_anc,
                              max_size=lay.n_anc))
    syn = np.array(bits, dtype=np.uint8)
    x, z = decode_bits(lay, syn)
    assert np.array_equal(compute_syndrome_bits(lay, x, z)[0], syn)


def test_chain_indices_worked_example():
    # the d=5 right-side X-chain through ancilla 8: q_i = 23+i, a_i = 8+3i
    q, a = chain_indices(5, 0, 1, 2)
    assert q == [23, 24] and a == [8, 11]


def test_chain_indices_direct_evaluations():
    assert chain_indices(3, 0, 1, 0) == ([2], [2])
    assert chain_indices(5, 1, -1, 0) == ([9, 4], [15, 12])


def test_chain_indices_rejects_bad_spec():
    with pytest.raises(ValueError):
        chain_indices(5, 2, 1, 0)
    with pytest.raises(ValueError):
        chain_indices(5, 0, 0, 0)
    with pytest.raises(ValueError):
        chain_indices(5, 0, 1, 3)


@pytest.mark.parametrize("d", DISTANCES)
def test_chains_partition_ancillas_with_equal_lengths(d):
    seen = []
    for spec in chain_specs(d):
        q, a = chain_indices(d, spec.t, spec.r, spec.c)
        assert len(q) == len(a) == spec.length == (d - 1) // 2
        seen.extend(a)
    assert sorted(seen) == list(range(d * d - 1))


def test_decode_zero_syndrome_is_identity():
    lay = build_layout(5)
    x, z = decode_bits(lay, np.zeros((3, 24), np.uint8))
    assert x.shape == z.shape == (3, 25) and not x.any() and not z.any()


def test_decode_worked_example():
    # syndrome {X-ancilla 8} at d=5 decodes to Z errors on exactly {23, 24}
    lay = build_layout(5)
    s = np.zeros(24, np.uint8)
    s[8] = 1
    x, z = decode_bits(lay, s)
    assert not x.any()
    assert list(np.flatnonzero(z[0])) == [23, 24]


def test_decode_d3_single_defect():
    lay = build_layout(3)
    s = np.zeros(8, np.uint8)
    s[2] = 1
    x, z = decode_bits(lay, s)
    assert not x.any()
    assert list(np.flatnonzero(z[0])) == [2]


def test_decode_size_mismatch():
    lay = build_layout(3)
    with pytest.raises(ValueError):
        decode_bits(lay, np.zeros((2, 24), np.uint8))


def test_round_trip_exhaustive_d3():
    lay = build_layout(3)
    syn = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(np.uint8)
    x, z = decode_bits(lay, syn)
    assert np.array_equal(compute_syndrome_bits(lay, x, z), syn)


@pytest.mark.parametrize("d", (5, 7, 9))
def test_round_trip_random(d):
    lay = build_layout(d)
    rng = np.random.default_rng(d)
    syn = rng.integers(0, 2, size=(100_000, lay.n_anc), dtype=np.uint8)
    x, z = decode_bits(lay, syn)
    assert np.array_equal(compute_syndrome_bits(lay, x, z), syn)


@pytest.mark.parametrize("d", DISTANCES)
def test_linearity(d):
    lay = build_layout(d)
    rng = np.random.default_rng(10 + d)
    s1 = rng.integers(0, 2, size=(10_000, lay.n_anc), dtype=np.uint8)
    s2 = rng.integers(0, 2, size=(10_000, lay.n_anc), dtype=np.uint8)
    x12, z12 = decode_bits(lay, s1 ^ s2)
    x1, z1 = decode_bits(lay, s1)
    x2, z2 = decode_bits(lay, s2)
    assert np.array_equal(x12, x1 ^ x2)
    assert np.array_equal(z12, z1 ^ z2)


@pytest.mark.parametrize("d", DISTANCES)
def test_rotational_equivariance(d):
    lay = build_layout(d)
    rng = np.random.default_rng(20 + d)
    s = rng.integers(0, 2, size=(10_000, lay.n_anc), dtype=np.uint8)
    xr, zr = decode_bits(lay, rotate_syndrome(lay, s))
    x, z = decode_bits(lay, s)
    ex, ez = rotate_error(lay, x, z)
    assert np.array_equal(xr, ex) and np.array_equal(zr, ez)


def test_cut_parities_match_full_decode():
    lay = build_layout(5)
    rng = np.random.default_rng(3)
    s = rng.integers(0, 2, size=(5000, lay.n_anc), dtype=np.uint8)
    lx, lz = decode_cut_parities(lay, s)
    x, z = decode_bits(lay, s)
    from scdec.lattice import cut_parities

    alx, alz = cut_parities(lay, x, z)
    assert np.array_equal(lx, alx) and np.array_equal(lz, alz)
