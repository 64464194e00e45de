"""Backend equivalence: the compiled kernels must reproduce the pure-numpy
reference bit for bit, and the Philox generator must match a scalar
implementation written straight from its published round function and the
published known-answer vectors.

The ``compiled`` fixture (``conftest.py``) builds the C extension into a
temporary directory, so these tests run wherever a C compiler is on PATH."""

import numpy as np
import pytest

import scdec
from scdec import _kernels
from scdec._kernels import _pykernels as pk
from scdec.lattice import build_layout


def _philox_scalar(ctr, key, rounds=10):
    """Reference Philox4x32: multiply-high/low, xor with bumped keys."""
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


def test_philox_matches_scalar_reference(compiled):
    rng = np.random.default_rng(0)
    ctr = rng.integers(0, 2 ** 32, size=(200, 4), dtype=np.uint32)
    key = (0xDEADBEEF, 0x12345678)
    for impl in (pk.philox4x32, compiled.philox4x32):
        got = impl(ctr, key)
        for i in range(0, 200, 17):
            assert list(got[i]) == _philox_scalar(ctr[i], key), i


# The Philox4x32-10 known-answer vectors published with Random123
# (Salmon et al., SC'11): counter, key, output.
_PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2,
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("ctr,key,want", _PHILOX_KAT)
def test_philox_known_answers(compiled, ctr, key, want):
    for impl in (pk.philox4x32, compiled.philox4x32):
        got = impl(np.array([ctr], dtype=np.uint32), key)
        assert got.dtype == np.uint32 and got.tolist() == [list(want)]


def test_philox_backends_identical(compiled):
    rng = np.random.default_rng(1)
    ctr = rng.integers(0, 2 ** 32, size=(5000, 4), dtype=np.uint32)
    assert np.array_equal(pk.philox4x32(ctr, (1, 2)), compiled.philox4x32(ctr, (1, 2)))
    # int64 counters, a column slice, and key words beyond 32 bits
    wide = rng.integers(0, 2 ** 32, size=(300, 6)).astype(np.int64)[:, 1:5]
    key = (2 ** 40 + 3, -1)
    assert np.array_equal(pk.philox4x32(wide, key), compiled.philox4x32(wide, key))


@pytest.mark.parametrize("p", (0.0, 0.03, 0.08251, 0.3, 1.0))
@pytest.mark.parametrize("shot0", (12345, 2 ** 32 - 300))
def test_sampling_backends_identical(compiled, p, shot0):
    """Seeds above 2^32, and shot counters that cross 2^32 inside a batch."""
    a = pk.sample_pauli_bits(81, p, 987654321012, 7, shot0, 800)
    b = compiled.sample_pauli_bits(81, p, 987654321012, 7, shot0, 800)
    for u, v in zip(a, b):
        assert u.dtype == v.dtype == np.uint8 and np.array_equal(u, v)


def test_syndrome_and_gf2_backends_identical(compiled):
    lay = build_layout(7)
    x, z = pk.sample_pauli_bits(49, 0.2, 3, 1, 0, 2000)
    assert np.array_equal(
        pk.syndrome_bits(x, z, lay.hx, lay.hz),
        compiled.syndrome_bits(x, z, lay.hx, lay.hz),
    )
    rng = np.random.default_rng(2)
    mat = rng.integers(0, 2, size=(48, 49), dtype=np.uint8)
    syn = pk.syndrome_bits(x, z, lay.hx, lay.hz)
    assert np.array_equal(pk.gf2_matmul(syn, mat), compiled.gf2_matmul(syn, mat))


def test_bit_kernels_coerce_like_the_reference(compiled):
    """Other integer dtypes, bool, one-dimensional rows (``atleast_2d``),
    non-contiguous column slices and entries other than 0/1 (only their
    parity counts) give the reference's uint8 output."""
    lay = build_layout(5)
    x, z = pk.sample_pauli_bits(25, 0.2, 5, 1, 0, 300)
    wide_x = np.zeros((300, 30), dtype=np.int64)
    wide_x[:, 2:27] = x
    cases = [
        (x.astype(bool), z.astype(np.int64), lay.hx.astype(np.int32), lay.hz),
        (wide_x[:, 2:27], z[:, :], lay.hx, lay.hz.astype(np.int64)),
        (x[7], z[7], lay.hx, lay.hz),
        (x * 3, z.astype(np.int64) * 2 + z, lay.hx * 5, lay.hz * 2),
    ]
    for args in cases:
        want = pk.syndrome_bits(*args)
        got = compiled.syndrome_bits(*args)
        assert got.dtype == np.uint8 and np.array_equal(want, got)
    syn = pk.syndrome_bits(x, z, lay.hx, lay.hz)
    mat = np.random.default_rng(6).integers(0, 2, size=(24, 40)).astype(np.int64)
    for bits, m in ((syn, mat), (syn.astype(bool), mat[:, ::2]),
                    (syn[3], mat.astype(np.uint8)), (syn[:, ::1].astype(np.int16), mat.T.T),
                    (syn * 3 + (syn ^ 1) * 2, mat * 7)):
        want = pk.gf2_matmul(bits, m)
        got = compiled.gf2_matmul(bits, m)
        assert got.dtype == np.uint8 and np.array_equal(want, got)


def _fixed_args(rng, n=100, n_in=24):
    bits = int(rng.integers(3, 10))
    wf = bits - 1 + int(rng.integers(0, 2))
    n1, n2 = int(rng.integers(1, 16)), int(rng.integers(1, 16))
    lim = 1 << wf
    return (
        rng.integers(0, 2, size=(n, n_in), dtype=np.uint8),
        rng.integers(-lim, lim, size=(n1, n_in)).astype(np.int64),
        rng.integers(-lim, lim, size=n1).astype(np.int64),
        rng.integers(-lim, lim, size=(n2, n1)).astype(np.int64),
        rng.integers(-lim, lim, size=n2).astype(np.int64),
        rng.integers(-lim, lim, size=(2, n2)).astype(np.int64),
        rng.integers(-lim, lim, size=2).astype(np.int64),
    ), wf, bits


def test_fixed_forward_backends_identical(compiled):
    rng = np.random.default_rng(3)
    for trial in range(60):
        args, wf, bits = _fixed_args(rng)
        for transfer in (0, 1):
            assert np.array_equal(
                pk.fixed_forward_bits(*args, wf, bits, transfer),
                compiled.fixed_forward_bits(*args, wf, bits, transfer),
            ), (trial, transfer)


def test_fixed_forward_coerces_like_the_reference(compiled):
    rng = np.random.default_rng(8)
    (syn, w1, b1, w2, b2, wout, bout), wf, bits = _fixed_args(rng, n_in=30)
    variants = [
        (syn.astype(bool)[:, 3:27], w1[:, 3:27].astype(np.int32)),
        (syn[0, :24], w1[:, :24].tolist()),
    ]
    for s, w in variants:
        args = (s, w, b1.astype(np.int16), w2, b2, wout, bout, wf, bits, 0)
        want = pk.fixed_forward_bits(*args)
        got = compiled.fixed_forward_bits(*args)
        assert got.dtype == np.uint8 and np.array_equal(want, got)
    with pytest.raises(ValueError, match="transfer id 2"):
        compiled.fixed_forward_bits(syn, w1, b1, w2, b2, wout, bout, wf, bits, 2)


def test_match_defects_backends_identical(compiled):
    rng = np.random.default_rng(4)
    for trial in range(500):
        k = int(rng.integers(0, 15))
        d = rng.integers(1, 30, size=(k, k))
        d = (d + d.T).astype(np.int64)
        bnd = rng.integers(1, 30, size=k).astype(np.int64)
        want = pk.match_defects(d, bnd)
        got = compiled.match_defects(d, bnd)
        assert got.dtype == np.int32 and np.array_equal(want, got), trial


def test_match_defects_backends_identical_on_ties(compiled):
    """Weights in 0..3 make ties common, so the pinned tie rule shows."""
    rng = np.random.default_rng(11)
    for k in range(17):
        for trial in range(30):
            d = rng.integers(0, 4, size=(k, k))
            d = np.triu(d, 1) + np.triu(d, 1).T
            bnd = rng.integers(0, 4, size=k)
            assert np.array_equal(pk.match_defects(d, bnd),
                                  compiled.match_defects(d, bnd)), (k, trial)


@pytest.mark.parametrize("d,eps,shots", [(5, 0.1, 200), (5, 0.3, 200), (7, 0.1, 100),
                                         (7, 0.3, 30), (9, 0.1, 1000), (9, 0.2, 150),
                                         (9, 0.3, 50)])
def test_match_defects_backends_identical_on_lattice_components(compiled, d, eps, shots):
    """Identical pair arrays on every interaction component of up to
    MATCH_DP_MAX defects of sampled syndromes, the 13-22-defect d=9 ones
    included (larger components go to the blossom, not to this kernel)."""
    from scdec.mwpm import _components, _tables
    from scdec.noise import compute_syndrome_bits, sample_depolarizing_bits

    lay = build_layout(d)
    xb, zb = sample_depolarizing_bits(lay, eps, 1, 5, 0, shots)
    syn = compute_syndrome_bits(lay, xb, zb)
    nx = lay.n_anc_x
    sizes = []
    for tab, cols in zip(_tables(d), (syn[:, :nx], syn[:, nx:])):
        for row in cols:
            key = sum(1 << int(u) for u in np.flatnonzero(row))
            for comp in _components(key, tab.inter):
                idx = np.array([u for u in range(comp.bit_length()) if comp >> u & 1])
                if len(idx) > _kernels.MATCH_DP_MAX:
                    continue
                dist = tab.dist[np.ix_(idx, idx)]
                bnd = tab.bnd[idx]
                assert np.array_equal(pk.match_defects(dist, bnd),
                                      compiled.match_defects(dist, bnd)), idx
                sizes.append(len(idx))
    if d == 9:
        assert sum(k >= 13 for k in sizes) >= 50
        assert eps < 0.2 or max(sizes) == _kernels.MATCH_DP_MAX


def test_match_defects_rejects_oversized_input(compiled):
    k = _kernels.MATCH_DP_MAX + 1
    d = np.ones((k, k), dtype=np.int64)
    bnd = np.ones(k, dtype=np.int64)
    assert compiled.MATCH_DP_MAX == pk.MATCH_DP_MAX
    for impl in (pk.match_defects, compiled.match_defects):
        with pytest.raises(ValueError):
            impl(d, bnd)


def test_backend_reports_name():
    assert scdec.BACKEND in ("cython", "python")


def test_cli_outputs_identical_on_the_compiled_kernels(compiled, tmp_path, monkeypatch, capsys):
    """``scdec eval`` (MWPM and a 5-bit network) and ``scdec train`` write the
    same bytes when every kernel the library calls is the compiled one."""
    from scdec.cli import main

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("distance = 3\nn1 = 8\nn2 = 4\nbatch_size = 128\nn_batches = 20\n"
                   "log_every = 10\nseed = 6\nshots = 3000\neps_points = 4\n")

    def outputs(tag):
        run = tmp_path / tag
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(run / "checkpoint.json"),
                     "--set", "bits=5", "--out", str(run / "q.csv")]) == 0
        # d=7 at eps 0.25 has 13-22-defect components, which reach match_defects
        assert main(["eval", "--decoder", "mwpm", "-d", "7", "--set", "shots=400",
                     "--set", "eps_list=0.1,0.25", "--out", str(run / "m.csv")]) == 0
        return {p.name: p.read_bytes() for p in sorted(run.iterdir())}

    want = outputs("numpy")
    for name in ("philox4x32", "sample_pauli_bits", "syndrome_bits", "gf2_matmul",
                 "fixed_forward_bits", "match_defects"):
        monkeypatch.setattr(_kernels, name, getattr(compiled, name))
    got = outputs("compiled")
    capsys.readouterr()
    assert got == want and len(want) == 4
