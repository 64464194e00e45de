import numpy as np
import pytest

from scdec.lattice import ANC_X, ANC_Z, build_layout
from scdec.noise import compute_syndrome_bits, sample_depolarizing_bits

from oracles import gf2_span


def test_p_zero_gives_identity():
    lay = build_layout(3)
    x, z = sample_depolarizing_bits(lay, 0.0, 1, 0, 0, 1000)
    assert not x.any() and not z.any()


def test_p_out_of_range_rejected():
    lay = build_layout(3)
    for p in (-0.1, 1.1):
        with pytest.raises(ValueError):
            sample_depolarizing_bits(lay, p, 0, 0, 0, 1)


def test_p_one_every_qubit_errored_with_uniform_types():
    lay = build_layout(3)
    n = 120_000  # > 1e6 qubit draws at 9 qubits each
    x, z = sample_depolarizing_bits(lay, 1.0, 7, 0, 0, n)
    assert np.all(x | z)
    draws = n * lay.n_data
    n_x = int(np.sum(x & ~z))
    n_y = int(np.sum(x & z))
    n_z = int(np.sum(~x & z))
    sigma = np.sqrt(draws * (1 / 3) * (2 / 3))
    for count in (n_x, n_y, n_z):
        assert abs(count - draws / 3) < 3 * sigma


def test_error_fraction_binomial():
    lay = build_layout(5)
    n = 40_000  # 1e6 qubit draws
    p = 0.1
    x, z = sample_depolarizing_bits(lay, p, 99, 1, 0, n)
    draws = n * lay.n_data
    frac = np.sum(x | z) / draws
    assert abs(frac - p) < 3 * np.sqrt(p * (1 - p) / draws)


def test_seed_determinism_and_split_invariance():
    lay = build_layout(5)
    a = sample_depolarizing_bits(lay, 0.13, 123, 4, 0, 1000)
    b = sample_depolarizing_bits(lay, 0.13, 123, 4, 0, 1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    # shot k is independent of how the batch is split across "workers"
    c1 = sample_depolarizing_bits(lay, 0.13, 123, 4, 0, 400)
    c2 = sample_depolarizing_bits(lay, 0.13, 123, 4, 400, 600)
    assert np.array_equal(np.vstack([c1[0], c2[0]]), a[0])
    assert np.array_equal(np.vstack([c1[1], c2[1]]), a[1])
    # different seed or stream changes the draw
    d = sample_depolarizing_bits(lay, 0.13, 124, 4, 0, 1000)
    assert not np.array_equal(a[0], d[0])
    e = sample_depolarizing_bits(lay, 0.13, 123, 5, 0, 1000)
    assert not np.array_equal(a[0], e[0])


def test_identity_config_zero_syndrome():
    lay = build_layout(5)
    zero = np.zeros((3, lay.n_data), np.uint8)
    syn = compute_syndrome_bits(lay, zero, zero)
    assert syn.shape == (3, lay.n_anc) and not syn.any()


def test_worked_example_z_errors_trigger_single_x_ancilla():
    # Z errors on data {23, 24} at d=5 flag exactly X-ancilla 8
    lay = build_layout(5)
    z = np.zeros(25, np.uint8)
    z[[23, 24]] = 1
    syn = compute_syndrome_bits(lay, np.zeros(25, np.uint8), z)[0]
    assert list(np.flatnonzero(syn)) == [8]
    assert lay.anc_type[8] == ANC_X


def test_corner_x_error_triggers_one_z_ancilla():
    lay = build_layout(3)
    for corner in (0, 2, 6, 8):
        x = np.zeros(9, np.uint8)
        x[corner] = 1
        syn = compute_syndrome_bits(lay, x, np.zeros(9, np.uint8))[0]
        hits = np.flatnonzero(syn)
        assert len(hits) == 1 and lay.anc_type[hits[0]] == ANC_Z


def test_size_mismatch_rejected():
    lay = build_layout(3)
    with pytest.raises(ValueError):
        compute_syndrome_bits(lay, np.zeros(25, np.uint8), np.zeros(25, np.uint8))


def test_syndrome_linearity():
    lay = build_layout(7)
    n = 50_000
    x1, z1 = sample_depolarizing_bits(lay, 0.2, 11, 0, 0, n)
    x2, z2 = sample_depolarizing_bits(lay, 0.2, 11, 1, 0, n)
    s12 = compute_syndrome_bits(lay, x1 ^ x2, z1 ^ z2)
    s1 = compute_syndrome_bits(lay, x1, z1)
    s2 = compute_syndrome_bits(lay, x2, z2)
    assert np.array_equal(s12, s1 ^ s2)


def test_stabilizer_products_have_zero_syndrome_d3():
    """All 256 products of the 8 stabilizer generators map to syndrome 0."""
    lay = build_layout(3)
    gens = []
    for a in range(lay.n_anc):
        mask = 0
        for q in lay.anc_adjacency[a]:
            mask |= 1 << (q if lay.anc_type[a] == ANC_X else q + 9)
        gens.append(mask)
    span = gf2_span(gens)
    assert len(span) == 256
    for s in span:
        x = np.array([(s >> q) & 1 for q in range(9)], dtype=np.uint8)
        z = np.array([(s >> (q + 9)) & 1 for q in range(9)], dtype=np.uint8)
        assert not compute_syndrome_bits(lay, x, z).any()
