"""Backend equivalence: the compiled kernels must reproduce the pure-numpy
reference bit for bit, and the Philox generator must match a scalar
implementation written straight from its published round function and the
published known-answer vectors.

The ``compiled`` fixture (``conftest.py``) builds the C extension into a
temporary directory, so these tests run wherever a C compiler is on PATH."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdec
from scdec import _kernels
from scdec._kernels import _pykernels as pk
from scdec.lattice import build_layout

from oracles import pauli_bits_scalar, pauli_of_word, philox_scalar


def _philox_rounds(ctr, key):
    """The numpy Philox rounds on (n, 4) counters, as (n, 4) words."""
    state = np.array(ctr, dtype=np.uint32).T.copy()
    pk._rounds(state, np.empty((2,) + state[:2].shape, dtype=np.uint64), pk._round_keys(key))
    return state.T


def test_philox_matches_scalar_reference():
    rng = np.random.default_rng(0)
    ctr = rng.integers(0, 2 ** 32, size=(200, 4), dtype=np.uint32)
    key = (0xDEADBEEF, 0x12345678)
    got = _philox_rounds(ctr, key)
    for i in range(0, 200, 17):
        assert got[i].tolist() == philox_scalar(ctr[i], key), i


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
def test_philox_known_answers(ctr, key, want):
    assert philox_scalar(ctr, key) == list(want)
    assert _philox_rounds([ctr], key).tolist() == [list(want)]


@pytest.mark.parametrize("p", (0.0, 0.03, 0.08251, 0.3, 1.0))
@pytest.mark.parametrize("shot0", (12345, 2 ** 32 - 300))
def test_sampling_backends_identical(compiled, p, shot0):
    """Seeds above 2^32, and shot counters that cross 2^32 inside a batch."""
    a = pk.sample_pauli_bits(81, p, 987654321012, 7, shot0, 800)
    b = compiled.sample_pauli_bits(81, p, 987654321012, 7, shot0, 800)
    for u, v in zip(a, b):
        assert u.dtype == v.dtype == np.uint8 and np.array_equal(u, v)


# 81 qubits take 21 blocks a shot, so a pass holds _PER shots; a batch from
# _CROSS0 crosses 2^32 a quarter of the way into its second pass.
_PER = pk._PASS // 21
_CROSS0 = 2 ** 32 - _PER - _PER // 4


@pytest.mark.parametrize("p", (0.0, 0.1, 1.0))
@pytest.mark.parametrize("shot0", (0, _CROSS0))
def test_sampling_across_passes(compiled, p, shot0):
    """81 qubits x ``_PER + _PER // 2`` shots, with ``_PER = _PASS // 21``,
    runs two numpy passes, the second one partial; from ``_CROSS0`` the
    shot counter crosses 2^32 inside that second pass.  Both backends match
    the word-by-word oracle, at p = 0 and p = 1 (``thr = 2^32``) too."""
    per = pk._PASS // 21
    n = per + per // 2
    assert per < n < 2 * per and (shot0 == 0 or per < 2 ** 32 - shot0 < n)
    want = pauli_bits_scalar(81, p, 2 ** 35 + 3, 9, shot0, n)
    for impl in (pk.sample_pauli_bits, compiled.sample_pauli_bits):
        got = impl(81, p, 2 ** 35 + 3, 9, shot0, n)
        for u, v in zip(got, want):
            assert u.dtype == np.uint8 and np.array_equal(u, v)


def test_uint32_halves_follow_the_byte_order():
    """The rounds read a uint64 product's halves through uint32 views; the
    low half is index 0 of such a view only on little-endian hosts."""
    assert pk._LO == (0 if sys.byteorder == "little" else 1) and pk._HI == 1 - pk._LO
    halves = np.array([0x0123456789ABCDEF], dtype=np.uint64).view(np.uint32)
    assert (halves[pk._LO], halves[pk._HI]) == (0x89ABCDEF, 0x01234567)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 2 ** 32 - 1),
       shot0=st.integers(2 ** 32 - 25, 2 ** 32 + 25), n_words=st.integers(1, 130),
       n_shots=st.integers(0, 25), data=st.data())
def test_philox_lanes_match_the_scalar_oracle(seed, stream, shot0, n_words, n_shots, data):
    """Passes of one to twelve shots (``_PASS`` patched down from the
    default, so that batches of a few dozen shots span pass boundaries and,
    from near 2^32, the high word of the shot counter changes)
    cover ``[0, n_shots)`` in order, hold at most ``_PASS`` blocks, and give
    the oracle's uint32 words for every block of every shot."""
    n_blocks = (n_words + 3) // 4
    pass_blocks = data.draw(st.integers(n_blocks, 12 * n_blocks), label="pass_blocks")
    key = (seed & 0xFFFFFFFF, seed >> 32)
    with mock.patch.object(pk, "_PASS", pass_blocks):
        passes = [(first, lanes.copy()) for first, lanes in
                  pk.philox_lanes(n_words, seed, stream, shot0, n_shots)]
    covered = 0
    for first, lanes in passes:
        assert first == covered and lanes.dtype == np.uint32
        assert lanes.shape[:2] == (4, n_blocks) and 0 < lanes[0].size <= pass_blocks
        covered += lanes.shape[-1]
    assert covered == n_shots
    for first, lanes in passes:
        for i in range(lanes.shape[-1]):
            s = shot0 + first + i
            for j in range(n_blocks):
                want = philox_scalar((s & 0xFFFFFFFF, s >> 32, j, stream), key)
                assert lanes[:, j, i].tolist() == want, (first, i, j)


_TIGHT_THRESHOLDS = (0, 1, 2, 3, 2 ** 32 - 1, 2 ** 32)


@settings(max_examples=40, deadline=None)
@given(thr=st.sampled_from(_TIGHT_THRESHOLDS), seed=st.integers(0, 2 ** 64 - 1),
       stream=st.integers(0, 2 ** 32 - 1), shot0=st.integers(2 ** 32 - 30, 2 ** 32 + 30),
       n_data=st.integers(1, 130), n_shots=st.integers(0, 30))
def test_sampler_matches_the_scalar_oracle_at_tight_thresholds(thr, seed, stream, shot0,
                                                               n_data, n_shots):
    """``p = thr / 2^32`` puts ``thr = round(p * 2^32)`` where the uint32
    compares have the least room: no error at all, one to three words out
    of 2^32, every word but one, and every word."""
    p = thr / 2 ** 32
    want = pauli_bits_scalar(n_data, p, seed, stream, shot0, n_shots)
    got = pk.sample_pauli_bits(n_data, p, seed, stream, shot0, n_shots)
    for u, v in zip(got, want):
        assert u.dtype == np.uint8 and np.array_equal(u, v)


@pytest.mark.parametrize("thr", _TIGHT_THRESHOLDS)
def test_sampler_classifies_words_at_the_thresholds(thr):
    """Random words almost never land next to ``t1``, ``t2`` or ``thr``, so
    the sampler is fed words that do, and 0 and 2^32 - 1: each is classified
    as the oracle's word rule says."""
    t1, t2 = thr // 3, 2 * thr // 3
    words = sorted({w for c in (0, t1, t2, thr, 2 ** 32 - 1) for w in (c - 1, c, c + 1)
                    if 0 <= w < 2 ** 32})

    def lanes(n_words, seed, stream, shot0, n_shots):
        yield 0, np.array(words, dtype=np.uint32).reshape(1, 1, -1).repeat(4, axis=0)

    with mock.patch.object(pk, "philox_lanes", lanes):
        x, z = pk.sample_pauli_bits(4, thr / 2 ** 32, 0, 0, 0, len(words))
    assert list(zip(x[:, 0].tolist(), z[:, 0].tolist())) == \
        [pauli_of_word(w, thr) for w in words]


@pytest.mark.parametrize("n_data", (1, 9, 25, 81, 121))
def test_sampling_edge_cases(compiled, n_data):
    """Shot counts around a byte and a word of shots, none at all, and more
    than one pass; one qubit up to d=11's 121; p = 0 and p = 1.  From
    ``2^32 - 3`` the high word of the shot counter changes inside the first
    pass.  Shot ``i`` does not depend on how many follow it, so each count
    is checked against a prefix of one oracle run."""
    seed, stream, shot0 = 2 ** 33 + 5, 21, 2 ** 32 - 3
    counts = (0, 1, 7, 8, 9, 63, 64, 65, 5000)
    for p in (0.0, 1.0):
        want = pauli_bits_scalar(n_data, p, seed, stream, shot0, max(counts))
        for n in counts:
            for impl in (pk.sample_pauli_bits, compiled.sample_pauli_bits):
                got = impl(n_data, p, seed, stream, shot0, n)
                for u, v in zip(got, want):
                    assert u.dtype == np.uint8 and u.shape == (n, n_data), (p, n)
                    assert np.array_equal(u, v[:n]), (p, n)


@pytest.mark.parametrize("n", (1, 63, 64, 65))
def test_syndrome_bits_match_a_dense_gf2_oracle(compiled, n):
    """Random check matrices with a zero-weight row, rows of weight above 4
    and entries other than 0/1; bool, int16 and int64 planes, C-ordered and
    transposed.  Only the low bit of an entry counts."""
    from oracles import syndrome_dense

    rng = np.random.default_rng(n)
    for trial in range(6):
        n_data = int(rng.integers(1, 40))
        hx = rng.integers(0, 4, size=(int(rng.integers(1, 8)), n_data))
        hx[0] = 0
        hz = rng.integers(-3, 4, size=(int(rng.integers(0, 8)), n_data)).astype(np.int16)
        hz[:, :6] = 1
        planes = rng.integers(-3, 4, size=(2, n, n_data))
        for dtype in (bool, np.int16, np.int64):
            x, z = (planes & 1 if dtype is bool else planes).astype(dtype)
            want = syndrome_dense(x, z, hx, hz)
            for xo, zo in ((x, z), (x.T.copy().T, z.T.copy().T)):
                for impl in (pk.syndrome_bits, compiled.syndrome_bits):
                    got = impl(xo, zo, hx, hz)
                    assert got.dtype == np.uint8 and got.shape == want.shape
                    assert np.array_equal(got, want), (trial, dtype, impl)


def test_transposed_planes_give_the_bytes_of_contiguous_copies():
    """The numpy sampler and syndrome kernel return transposed views of
    qubit- and ancilla-major arrays.  Every consumer gives the same bytes
    for them as for C-ordered copies, the float64 loss and gradients of
    training included."""
    from scdec import lattice, ped, train
    from scdec.mwpm import MwpmDecoder
    from scdec.nn import (NetworkConfig, QuantSpec, expand_rotated, forward_float_batch,
                          quantize_weights)

    lay = build_layout(5)
    x, z = pk.sample_pauli_bits(lay.n_data, 0.12, 77, 3, 0, 3000)
    syn = pk.syndrome_bits(x, z, lay.hx, lay.hz)
    assert not (x.flags.c_contiguous or z.flags.c_contiguous or syn.flags.c_contiguous)
    cfg = NetworkConfig(5, 16, 4, "sqnl", True)
    weights = train.init_weights(cfg, 4)
    qw = quantize_weights(expand_rotated(cfg, weights), QuantSpec(5, False))
    tx, tz = train.target_bits(lay, x, z, syn)
    t = np.stack([tx, tz], axis=1).astype(np.float64) * 2.0 - 1.0
    mwpm = MwpmDecoder(lay)

    def outputs(x, z, syn):
        value, grads, out = train.loss_and_gradients(cfg, weights, syn.astype(np.float64),
                                                     t, 1.0, 8)
        arrays = [*lattice.cut_parities(lay, x, z), *ped.decode_cut_parities(lay, syn),
                  pk.fixed_forward_bits(syn, qw.w1, qw.b1, qw.w2, qw.b2, qw.wout, qw.bout,
                                        qw.spec.wfrac, qw.spec.bits, "sqnl"),
                  forward_float_batch(cfg, weights, syn), *mwpm.cut_parities_batch(syn),
                  np.float64(value), out, *grads.arrays().values()]
        return [np.asarray(a).tobytes() for a in arrays]

    copies = [np.ascontiguousarray(a) for a in (x, z, syn)]
    assert outputs(x, z, syn) == outputs(*copies)


def test_syndrome_and_gf2_backends_identical(compiled):
    lay = build_layout(7)
    x, z = pk.sample_pauli_bits(49, 0.2, 3, 1, 0, 2000)
    assert np.array_equal(
        pk.syndrome_bits(x, z, lay.hx, lay.hz),
        compiled.syndrome_bits(x, z, lay.hx, lay.hz),
    )
    # the GF(2) product is numpy on both backends; it reads the compiled
    # backend's C-ordered syndromes as an integer product would
    rng = np.random.default_rng(2)
    mat = rng.integers(0, 2, size=(48, 49), dtype=np.uint8)
    syn = compiled.syndrome_bits(x, z, lay.hx, lay.hz)
    assert np.array_equal(_kernels.gf2_matmul(syn, mat),
                          (syn.astype(np.int64) @ mat) % 2)


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


def test_numpy_only_kernels_coerce_their_inputs():
    """``gf2_matmul`` and ``fixed_forward_bits`` run in numpy on both
    backends.  Bool, other integer dtypes, one-dimensional rows, column
    slices, lists and entries other than 0/1 give the uint8 output of
    canonical inputs (for GF(2), only the parity of an entry counts), and a
    transfer without a fixed-point datapath raises."""
    rng = np.random.default_rng(6)
    syn = rng.integers(0, 2, size=(300, 24)).astype(np.uint8)
    mat = rng.integers(0, 2, size=(24, 40)).astype(np.int64)
    for bits, m in ((syn, mat), (syn.astype(bool), mat[:, ::2]),
                    (syn[3], mat.astype(np.uint8)), (syn[:, ::1].astype(np.int16), mat.T.T),
                    (syn * 3 + (syn ^ 1) * 2, mat * 7)):
        want = (np.atleast_2d(bits).astype(np.int64) & 1) @ (m & 1) % 2
        got = pk.gf2_matmul(bits, m)
        assert got.dtype == np.uint8 and np.array_equal(want, got)
    lim, wf, bits = 1 << 6, 6, 5
    w1 = rng.integers(-lim, lim, size=(8, 30))
    rest = (rng.integers(-lim, lim, size=8), rng.integers(-lim, lim, size=(4, 8)),
            rng.integers(-lim, lim, size=4), rng.integers(-lim, lim, size=(2, 4)),
            rng.integers(-lim, lim, size=2))
    wide = rng.integers(0, 2, size=(100, 30)).astype(np.uint8)
    for transfer in ("sqnl", "relu"):
        want = pk.fixed_forward_bits(wide[:, 3:27].copy(), w1[:, 3:27].copy(), *rest,
                                     wf, bits, transfer)
        for s, w in ((wide.astype(bool)[:, 3:27], w1[:, 3:27].astype(np.int32)),
                     (wide[0, 3:27], w1[:, 3:27].tolist())):
            got = pk.fixed_forward_bits(s, w, *rest, wf, bits, transfer)
            assert got.dtype == np.uint8 and np.array_equal(want[:len(got)], got)
    with pytest.raises(ValueError, match="no fixed-point datapath for transfer 'tanh'"):
        pk.fixed_forward_bits(wide, w1, *rest, wf, bits, "tanh")


_BINDINGS = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("scdec._kernels._cykernels", sys.argv[1])
sys.modules[spec.name] = compiled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compiled)
from scdec import _kernels
from scdec._kernels import _pykernels
print(_kernels.BACKEND,
      _kernels.philox_lanes is _pykernels.philox_lanes,
      _kernels.gf2_matmul is _pykernels.gf2_matmul,
      _kernels.fixed_forward_bits is _pykernels.fixed_forward_bits,
      all(getattr(_kernels, n) is getattr(compiled, n)
          for n in ("sample_pauli_bits", "syndrome_bits")))
"""


def test_compiled_backend_holds_only_the_kernels_where_c_wins(compiled):
    """The extension exports exactly sampling and syndromes.  Under both
    ``SCDEC_BACKEND`` values, each in a fresh interpreter that can import the
    extension, the Philox lanes, the GF(2) product and the fixed-point
    network are the numpy functions, and the two compiled kernels are bound
    only under ``cython``."""
    import os
    import subprocess
    import sys

    assert {n for n in dir(compiled) if not n.startswith("_")} == \
        {"sample_pauli_bits", "syndrome_bits"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(scdec.__file__)))
    for backend, bound in (("python", "False"), ("cython", "True")):
        env = dict(os.environ, SCDEC_BACKEND=backend, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _BINDINGS, compiled.__file__], env=env,
                             check=True, capture_output=True, text=True).stdout.split()
        assert out == [backend, "True", "True", "True", bound]


@pytest.mark.parametrize("n,k,m", [(5000, 257, 40), (3, 1 << 20, 2), (1, (1 << 22) + 1, 1)])
def test_gf2_products_exact_on_all_ones(n, k, m):
    """Dense all-ones operands make every sum as large as it can be."""
    ones = np.ones((n, k), dtype=np.uint8)
    got = pk.gf2_matmul(ones, np.ones((k, m), dtype=np.uint8))
    assert got.dtype == np.uint8 and got.shape == (n, m) and (got == k % 2).all()
    if k < 1000:
        h = np.ones((m, k), dtype=np.uint8)
        assert (pk.syndrome_bits(ones, ones, h, h[:3]) == k % 2).all()


def test_gf2_products_refuse_2_to_24_terms(monkeypatch):
    """The float32 products are exact only below 2^24 terms per sum, so the
    numpy kernels refuse more before converting any operand.  Zero-stride
    views give the shapes without allocating them."""
    def refuse(a):
        raise AssertionError("an operand was converted")

    monkeypatch.setattr(pk, "_low_bit_f32", refuse)
    k = 1 << 24
    wide = np.broadcast_to(np.uint8(1), (2, k))
    h = np.broadcast_to(np.uint8(1), (4, k))
    with pytest.raises(ValueError, match=r"2\^24"):
        pk.gf2_matmul(wide, h.T)
    with pytest.raises(ValueError, match=r"2\^24"):
        pk.syndrome_bits(wide, wide, h, h)


@pytest.mark.parametrize("extra", (False, True))
def test_fixed_forward_exact_at_the_widest_operands(extra):
    """9-bit weights pinned at ``min_int``/``max_int``, the d=11 input
    width (120) and 256 first-layer nodes: the float64 products of the
    numpy kernel still give the arbitrary-precision oracle's bits."""
    from oracles import fixed_forward_bigint
    from scdec.nn import QuantizedWeights, QuantSpec

    spec = QuantSpec(9, extra)
    n_in, n1, n2 = 120, 256, 16
    rng = np.random.default_rng(12)
    ends = np.array([spec.min_int, spec.max_int], dtype=np.int64)
    syn = np.vstack([np.ones(n_in), rng.integers(0, 2, size=(2, n_in))]).astype(np.uint8)
    shapes = {"w1": (n1, n_in), "b1": n1, "w2": (n2, n1), "b2": n2, "wout": (2, n2), "bout": 2}
    weight_sets = [{k: np.full(s, e, dtype=np.int64) for k, s in shapes.items()} for e in ends]
    weight_sets.append({k: rng.choice(ends, size=s) for k, s in shapes.items()})
    for i, arrays in enumerate(weight_sets):
        qw = QuantizedWeights(**arrays, spec=spec)
        qw.validate()
        for name in ("sqnl", "relu"):
            got = pk.fixed_forward_bits(syn, qw.w1, qw.b1, qw.w2, qw.b2, qw.wout, qw.bout,
                                        spec.wfrac, spec.bits, name)
            want = [fixed_forward_bigint(qw, row, spec.wfrac, spec.bits, name) for row in syn]
            assert got.tolist() == want, (i, name)


def test_fixed_forward_switches_to_float64_at_2_to_24():
    """A layer's sums run in float32 while its operand bound, terms x
    largest operand x largest weight, stays below 2^24, and in float64 from
    there.  The first set's first layer sits at 273 x 255 x 241 = 2^24 - 1;
    the second set's second layer at 256 x 2^8 x 256 = 2^24, and its sums
    reach that bound when the first layer saturates at -2^8.  Both give the
    arbitrary-precision oracle's bits."""
    from types import SimpleNamespace

    from oracles import fixed_forward_bigint

    rng = np.random.default_rng(13)
    wfrac, abits = 8, 9
    a_max = 1 << (abits - 1)

    def weights(n_in, n1, n2, lim1, lim2):
        return SimpleNamespace(
            w1=rng.integers(-lim1, lim1 + 1, size=(n1, n_in)), b1=rng.integers(-9, 10, size=n1),
            w2=rng.integers(-lim2, lim2 + 1, size=(n2, n1)), b2=rng.integers(-9, 10, size=n2),
            wout=rng.integers(-64, 65, size=(2, n2)), bout=rng.integers(-9, 10, size=2))

    wide_input = weights(273, 6, 5, 8, 64)
    wide_input.w1[0, 0] = 241
    wide_hidden = weights(8, 256, 5, 4, 64)
    wide_hidden.w1[:] = -256
    wide_hidden.w2[0] = -256
    cases = [(wide_input, "w1", 255, np.float32), (wide_hidden, "w2", a_max, np.float64)]
    for qw, name, operand, dtype in cases:
        assert pk._exact_weights(getattr(qw, name), operand).dtype == dtype
        n_in = qw.w1.shape[1]
        syn = np.vstack([np.ones(n_in), np.zeros(n_in),
                         rng.integers(0, 2, size=(30, n_in))]).astype(np.uint8)
        for tname in ("sqnl", "relu"):
            got = pk.fixed_forward_bits(syn, qw.w1, qw.b1, qw.w2, qw.b2, qw.wout, qw.bout,
                                        wfrac, abits, tname)
            want = [fixed_forward_bigint(qw, row, wfrac, abits, tname) for row in syn]
            assert got.tolist() == want, (name, tname)


def test_fixed_forward_refuses_sums_beyond_float64():
    syn = np.ones((2, 4), dtype=np.uint8)
    zeros = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError, match=r"2\^53"):
        pk.fixed_forward_bits(syn, np.full((3, 4), 1 << 50), zeros, np.ones((3, 3)),
                              zeros, np.ones((2, 3)), zeros[:2], 8, 9, "sqnl")


def test_backend_reports_name():
    assert scdec.BACKEND in ("cython", "python")


def test_cli_outputs_identical_on_the_compiled_kernels(compiled, tmp_path, monkeypatch, capsys):
    """``scdec eval`` (MWPM and a 5-bit network) and ``scdec train`` write the
    same bytes, and ``scdec decode --decoder mwpm`` prints the same
    correction, when every kernel the library calls is the compiled one."""
    from scdec.cli import main

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("distance = 3\nn1 = 8\nn2 = 4\nbatch_size = 128\nn_batches = 20\n"
                   "log_every = 10\nseed = 6\nshots = 3000\neps_points = 4\n")

    def outputs(tag):
        run = tmp_path / tag
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(run / "checkpoint.json"),
                     "--set", "bits=5", "--out", str(run / "q.csv")]) == 0
        # d=7 at eps 0.25 has components of 13 to 22 defects (the batch DP)
        assert main(["eval", "--decoder", "mwpm", "-d", "7", "--set", "shots=400",
                     "--set", "eps_list=0.1,0.25", "--out", str(run / "m.csv")]) == 0
        capsys.readouterr()
        # a 9-defect X component and a 10-defect Z component
        assert main(["decode", "-d", "7", "--decoder", "mwpm", "--syndrome",
                     "100011100011010000100010011101000001001001101010"]) == 0
        printed = capsys.readouterr().out
        return {p.name: p.read_bytes() for p in sorted(run.iterdir())}, printed

    want = outputs("numpy")
    for name in ("sample_pauli_bits", "syndrome_bits"):
        monkeypatch.setattr(_kernels, name, getattr(compiled, name))
    got = outputs("compiled")
    assert got == want and len(want[0]) == 4
    assert want[1].count("\n") == 2
