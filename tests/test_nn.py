import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdec.lattice import LogicalClass, build_layout, rotate_syndrome
from scdec.nn import (
    BaseWeights,
    NetworkConfig,
    QuantSpec,
    QuantizedWeights,
    Weights,
    expand_rotated,
    forward_fixed,
    forward_fixed_batch,
    forward_float,
    forward_float_batch,
    load_checkpoint,
    quantize_array,
    quantize_weights,
    save_checkpoint,
    transfer,
    transfer_deriv,
)
from scdec._kernels import _pykernels
from scdec.nn.quantize import grid_levels
from scdec.nn.rotated import _anc_perms
from scdec.train import init_weights

from oracles import (
    dense_forward,
    fixed_forward_bigint,
    reg_quantized,
    sqnl_deriv_where,
    sqnl_where,
)


def _random_weights(cfg, seed):
    rng = np.random.default_rng(seed)
    w = Weights(
        w1=rng.normal(0, 0.4, (cfg.n1, cfg.n_in)),
        b1=rng.normal(0, 0.2, cfg.n1),
        w2=rng.normal(0, 0.4, (cfg.n2, cfg.n1)),
        b2=rng.normal(0, 0.2, cfg.n2),
        wout=rng.normal(0, 0.4, (2, cfg.n2)),
        bout=rng.normal(0, 0.2, 2),
    )
    return w


# ------------------------------------------------------------- transfer --

def test_transfer_values():
    assert transfer("sqnl", 0.5) == pytest.approx(0.75)
    assert transfer("sqnl", -2.0) == -1.0
    assert transfer("sqnl", 2.0) == 1.0
    assert transfer("relu", -3.0) == 0.0
    assert transfer("tanh", 0.0) == 0.0


@given(st.floats(-5, 5))
def test_sqnl_matches_piecewise_definition(x):
    y = float(transfer("sqnl", x))
    if x < -1:
        assert y == -1
    elif x < 0:
        assert y == pytest.approx(2 * x + x * x)
    elif x <= 1:
        assert y == pytest.approx(2 * x - x * x)
    else:
        assert y == 1


def _sqnl_inputs():
    """Signed zeros, +-1 and their neighbours, infinities, subnormals, and
    2^20 random bit patterns plus 2^20 normals around the kinks; no NaN."""
    special = [0.0, 1.0, 2.0, np.inf, 5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, np.finfo(np.float64).max, 1e-200]
    special += [np.nextafter(v, t) for v in (0.0, 1.0) for t in (-2.0, 2.0)]
    special = np.array(special + [-v for v in special])
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2 ** 63, size=1 << 20, dtype=np.uint64)
    bits |= rng.integers(0, 2, size=bits.size, dtype=np.uint64) << np.uint64(63)
    patterns = bits.view(np.float64)
    return np.concatenate([special, patterns[~np.isnan(patterns)],
                           rng.normal(0.0, 1.5, size=1 << 20)])


def test_sqnl_bit_identical_to_nested_where():
    x = _sqnl_inputs()
    with np.errstate(over="ignore", invalid="ignore"):   # unselected branches
        want, want_deriv = sqnl_where(x), sqnl_deriv_where(x)
    assert transfer("sqnl", x).tobytes() == want.tobytes()
    assert transfer_deriv("sqnl", x).tobytes() == want_deriv.tobytes()
    assert np.signbit(transfer("sqnl", -0.0)) and not np.signbit(transfer("sqnl", 0.0))


def test_transfer_passes_nan_through():
    for fn in ("tanh", "relu", "sqnl"):
        assert np.isnan(transfer(fn, np.nan)), fn
    assert np.isnan(transfer_deriv("sqnl", np.nan))
    assert np.isnan(transfer_deriv("tanh", np.nan))


# ------------------------------------------------------- float forward --

def test_zero_weights_classify_identity():
    cfg = NetworkConfig(d=3, n1=4, n2=4)
    w = Weights(np.zeros((4, 8)), np.zeros(4), np.zeros((4, 4)), np.zeros(4),
                np.zeros((2, 4)), np.zeros(2))
    yx, yz, cls = forward_float(cfg, w, np.ones(8, np.uint8))
    assert yx == 0.0 and yz == 0.0 and cls == LogicalClass(0, 0)


def test_single_chain_toy_net_sqnl():
    # 1 -> SQNL(1) = 1 -> output 1 -> class bit set
    cfg = NetworkConfig(d=3, n1=1, n2=1, transfer="sqnl")
    w = Weights(
        w1=np.array([[1.0] + [0.0] * 7]), b1=np.zeros(1),
        w2=np.array([[1.0]]), b2=np.zeros(1),
        wout=np.array([[1.0], [0.0]]), bout=np.zeros(2),
    )
    s = np.zeros(8, np.uint8)
    s[0] = 1
    yx, yz, cls = forward_float(cfg, w, s)
    assert yx == 1.0 and yz == 0.0 and cls == LogicalClass(1, 0)


@pytest.mark.parametrize("fn", ("tanh", "relu", "sqnl"))
def test_forward_matches_dense_oracle(fn):
    cfg = NetworkConfig(d=3, n1=4, n2=4, transfer=fn)
    w = _random_weights(cfg, seed=hash(fn) % 1000)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.integers(0, 2, size=8, dtype=np.uint8)
        yx, yz, _ = forward_float(cfg, w, s)
        ox, oz = dense_forward(w, s.astype(float), fn)
        assert abs(yx - ox) < 1e-12 and abs(yz - oz) < 1e-12


def test_forward_rejects_bad_shapes_and_nan():
    cfg = NetworkConfig(d=3, n1=4, n2=4)
    w = _random_weights(cfg, 0)
    with pytest.raises(ValueError):
        forward_float(cfg, w, np.zeros(7, np.uint8))
    w.w1[0, 0] = np.nan
    with pytest.raises(ValueError):
        forward_float(cfg, w, np.zeros(8, np.uint8))


# ------------------------------------------------------------- rotated --

def _random_base(cfg, seed):
    rng = np.random.default_rng(seed)
    return BaseWeights(
        w1=rng.normal(0, 0.4, (cfg.n1 // 4, cfg.n_in)),
        b1=rng.normal(0, 0.2, cfg.n1 // 4),
        w2=rng.normal(0, 0.4, (cfg.n2 // 4, cfg.n1)),
        b2=rng.normal(0, 0.2, cfg.n2 // 4),
        wout=rng.normal(0, 0.4, (2, cfg.n2 // 4)),
        bout=rng.normal(0, 0.2, 1),
    )


def test_weight_containers_validate_shapes_and_finiteness():
    cfg = NetworkConfig(d=3, n1=4, n2=4, rotated=True)
    full = _random_weights(cfg, 0)
    full.validate(cfg)
    full.wout = np.zeros((2, 3))
    with pytest.raises(ValueError, match="wout has shape"):
        full.validate(cfg)
    base = _random_base(cfg, 0)
    base.validate(cfg)
    with pytest.raises(ValueError, match="rotated"):
        base.validate(NetworkConfig(d=3, n1=4, n2=4))
    base.b2[0] = np.inf
    with pytest.raises(ValueError, match="b2 contains non-finite"):
        base.validate(cfg)
    base.b2[0] = 0.0
    base.bout = np.zeros(2)
    with pytest.raises(ValueError, match="bout has shape"):
        base.validate(cfg)


def test_expand_rotated_zero_base():
    cfg = NetworkConfig(d=3, n1=8, n2=4, rotated=True)
    base = BaseWeights(np.zeros((2, 8)), np.zeros(2), np.zeros((1, 8)),
                       np.zeros(1), np.zeros((2, 1)), np.zeros(1))
    full = expand_rotated(cfg, base)
    assert not any(a.any() for a in full.arrays().values())


def test_expand_rotated_unit_rows_follow_ancilla_permutation():
    cfg = NetworkConfig(d=3, n1=4, n2=4, rotated=True)
    lay = build_layout(3)
    base = BaseWeights(np.zeros((1, 8)), np.zeros(1), np.zeros((1, 4)),
                       np.zeros(1), np.zeros((2, 1)), np.zeros(1))
    k = 3
    base.w1[0, k] = 1.0
    full = expand_rotated(cfg, base)
    for g in range(4):
        expect = lay.rot_anc_power(g)[k]
        assert list(np.flatnonzero(full.w1[g])) == [expect]


@pytest.mark.parametrize("d", [3, 5])
def test_ancilla_permutations_are_built_once_and_read_only(d):
    fwd, inv = perms = _anc_perms(d)
    assert _anc_perms(d) is perms
    lay = build_layout(d)
    for g in range(4):
        assert fwd[g].tolist() == list(lay.rot_anc_power(g))
        assert fwd[g][inv[g]].tolist() == list(range(lay.n_anc))
        assert not fwd[g].flags.writeable and not inv[g].flags.writeable


def test_expand_rejects_bad_group_sizes():
    with pytest.raises(ValueError):
        NetworkConfig(d=3, n1=6, n2=4, rotated=True)


@pytest.mark.parametrize("d", (3, 5, 7, 9))
def test_rotated_output_equivariance(d):
    """Rotating the input syndrome by 90 degrees swaps the two outputs."""
    cfg = NetworkConfig(d=d, n1=8, n2=4, transfer="sqnl", rotated=True)
    lay = build_layout(d)
    base = _random_base(cfg, seed=d)
    full = expand_rotated(cfg, base)
    rng = np.random.default_rng(100 + d)
    s = rng.integers(0, 2, size=(10_000, lay.n_anc), dtype=np.uint8)
    out = forward_float_batch(cfg, full, s)
    out_rot = forward_float_batch(cfg, full, rotate_syndrome(lay, s))
    assert np.max(np.abs(out_rot - out[:, ::-1])) < 1e-12


# ---------------------------------------------------------- quantization --

def test_quantize_examples():
    q3 = QuantSpec(3)
    assert quantize_array(np.array([0.8]), q3)[0] * q3.step == pytest.approx(0.75)
    assert quantize_array(np.array([1.3]), q3)[0] * q3.step == pytest.approx(0.75)
    assert quantize_array(np.array([-2.0]), q3)[0] * q3.step == pytest.approx(-1.0)
    # one extra sampling bit halves the grid step
    q3e = QuantSpec(3, extra_sample_bit=True)
    assert q3e.step == pytest.approx(0.125)
    assert quantize_array(np.array([0.8]), q3e)[0] * q3e.step == pytest.approx(0.75)
    assert quantize_array(np.array([0.82]), q3e)[0] * q3e.step == pytest.approx(0.875)


def test_quantize_ties_toward_minus_infinity():
    q = QuantSpec(3)  # step 0.25
    assert quantize_array(np.array([0.125]), q)[0] == 0       # 0.125 -> 0.0
    assert quantize_array(np.array([-0.125]), q)[0] == -1     # -0.125 -> -0.25
    assert quantize_array(np.array([0.375]), q)[0] == 1       # 0.375 -> 0.25


@given(st.integers(3, 9), st.booleans(),
       st.lists(st.floats(-4, 4), min_size=1, max_size=30))
@settings(max_examples=200)
def test_quantize_idempotent_and_in_range(bits, extra, values):
    q = QuantSpec(bits, extra)
    k = quantize_array(np.array(values), q)
    assert np.all(k >= q.min_int) and np.all(k <= q.max_int)
    again = quantize_array(k.astype(np.float64) * q.step, q)
    assert np.array_equal(k, again)


@pytest.mark.parametrize("reg_bits", range(2, 9))
def test_grid_levels_match_regulariser_formula(reg_bits):
    scale = 1 << (reg_bits - 1)
    rng = np.random.default_rng(reg_bits)
    ties = (np.arange(-scale - 2, scale + 2) + 0.5) / scale
    near_zero = np.array([-0.0, 0.0, -0.49, -0.25, -1e-300, 0.49]) / scale
    w = np.concatenate([ties, -ties, near_zero, rng.uniform(-1.5, 1.5, 4096)])
    got = grid_levels(w, reg_bits - 1) / scale
    assert got.tobytes() == reg_quantized(w, reg_bits).tobytes()
    assert np.signbit(got[len(ties) * 2:len(ties) * 2 + 5]).all()
    if reg_bits >= 3:
        q = QuantSpec(reg_bits)
        want = (reg_quantized(w, q.wfrac + 1) * (1 << q.wfrac)).astype(np.int64)
        assert np.array_equal(quantize_array(w, q), want)


def test_quant_spec_range():
    q = QuantSpec(5)
    assert q.min_int * q.step == -1.0
    assert q.max_int * q.step == 1.0 - 2.0 ** -4


def test_quant_spec_rejects_bad_bits():
    for bits in (2, 10):
        with pytest.raises(ValueError):
            QuantSpec(bits)


# ------------------------------------------------------------ fixed path --

def _random_qweights(cfg, spec, seed):
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.integers(spec.min_int, spec.max_int + 1, size=shape).astype(np.int64)

    return QuantizedWeights(
        w1=draw((cfg.n1, cfg.n_in)), b1=draw(cfg.n1),
        w2=draw((cfg.n2, cfg.n1)), b2=draw(cfg.n2),
        wout=draw((2, cfg.n2)), bout=draw(2), spec=spec,
    )


def test_fixed_zero_weights():
    spec = QuantSpec(5)
    cfg = NetworkConfig(d=3, n1=4, n2=4, transfer="sqnl", quant=spec)
    qw = QuantizedWeights(np.zeros((4, 8), np.int64), np.zeros(4, np.int64),
                          np.zeros((4, 4), np.int64), np.zeros(4, np.int64),
                          np.zeros((2, 4), np.int64), np.zeros(2, np.int64),
                          spec=spec)
    assert forward_fixed(cfg, qw, np.ones(8, np.uint8)) == (0, 0)


def test_fixed_requires_quant_spec_and_supported_transfer():
    spec = QuantSpec(5)
    qw = _random_qweights(NetworkConfig(d=3, n1=4, n2=4), spec, 0)
    with pytest.raises(ValueError):
        forward_fixed(NetworkConfig(d=3, n1=4, n2=4), qw, np.zeros(8, np.uint8))
    cfg = NetworkConfig(d=3, n1=4, n2=4, transfer="tanh", quant=spec)
    with pytest.raises(ValueError, match="no fixed-point datapath for transfer 'tanh'"):
        forward_fixed(cfg, qw, np.zeros(8, np.uint8))


def test_fixed_rejects_off_grid_weights():
    spec = QuantSpec(3)
    cfg = NetworkConfig(d=3, n1=4, n2=4, transfer="sqnl", quant=spec)
    qw = _random_qweights(cfg, spec, 1)
    qw.w1[0, 0] = 100  # outside the 3-bit grid
    with pytest.raises(ValueError):
        forward_fixed(cfg, qw, np.zeros(8, np.uint8))


def test_sqnl_fixed_close_to_real_exhaustive():
    """Fixed-point SQNL differs from the real function by less than one
    output step, for every representable input, at every bit width."""
    for bits in range(3, 10):
        frac = bits - 1
        codes = np.arange(-(1 << frac), 1 << frac, dtype=np.int64)
        got = _pykernels._sqnl_fixed(codes, frac, bits)
        x = codes.astype(np.float64) / (1 << frac)
        want = np.where(x < 0, 2 * x + x * x, 2 * x - x * x)
        err = np.abs(got.astype(np.float64) / (1 << frac) - want)
        assert err.max() < 2.0 ** -(bits - 1)


def test_power_of_two_net_fixed_matches_float_class():
    """When every float intermediate is exactly representable on the b-bit
    grid, the fixed path truncates nothing and the classes agree."""
    from scdec.nn.forward import forward_acts

    spec = QuantSpec(5)
    step = spec.step
    cfg = NetworkConfig(d=3, n1=4, n2=4, transfer="relu", quant=spec)
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(400):
        choices = np.array([-0.25, -0.125, 0.0, 0.125, 0.25])
        w = Weights(
            w1=rng.choice(choices, (4, 8)), b1=rng.choice(choices, 4),
            w2=rng.choice(choices, (4, 4)), b2=rng.choice(choices, 4),
            wout=rng.choice(choices, (2, 4)), bout=rng.choice(choices, 2),
        )
        s = rng.integers(0, 2, size=8, dtype=np.uint8)
        _, y1, _, y2, _ = forward_acts(cfg, w, s[None].astype(float))
        ok = all(
            np.all(np.abs(y) <= spec.max_int * step)
            and np.all(y / step == np.round(y / step))
            for y in (y1, y2)
        )
        if not ok:
            continue
        checked += 1
        _, _, cls = forward_float(cfg, w, s)
        assert (cls.lx, cls.lz) == forward_fixed(cfg, quantize_weights(w, spec), s)
    assert checked > 100  # the construction must actually exercise the claim


@pytest.mark.parametrize("transfer_fn", ("sqnl", "relu"))
def test_fixed_matches_bigint_oracle(transfer_fn):
    rng = np.random.default_rng(42)
    for trial in range(300):
        bits = int(rng.integers(3, 10))
        extra = bool(rng.integers(0, 2))
        spec = QuantSpec(bits, extra)
        cfg = NetworkConfig(d=3, n1=int(rng.integers(1, 7)),
                            n2=int(rng.integers(1, 7)),
                            transfer=transfer_fn, quant=spec)
        qw = _random_qweights(cfg, spec, trial)
        syn = rng.integers(0, 2, size=(4, 8), dtype=np.uint8)
        got = forward_fixed_batch(cfg, qw, syn)
        for i in range(4):
            want = fixed_forward_bigint(
                qw, syn[i], spec.wfrac, bits, transfer_fn)
            assert list(got[i]) == want, (trial, bits, extra)


def test_fixed_deterministic_bits():
    spec = QuantSpec(7)
    cfg = NetworkConfig(d=5, n1=8, n2=8, transfer="sqnl", quant=spec)
    qw = _random_qweights(cfg, spec, 9)
    rng = np.random.default_rng(1)
    syn = rng.integers(0, 2, size=(1000, 24), dtype=np.uint8)
    a = forward_fixed_batch(cfg, qw, syn)
    b = forward_fixed_batch(cfg, qw, syn)
    assert np.array_equal(a, b)


# ------------------------------------------------------------ checkpoint --

def test_checkpoint_roundtrip_float_and_quantized(tmp_path):
    cfg = NetworkConfig(d=3, n1=8, n2=4, transfer="sqnl", rotated=True)
    base = init_weights(cfg, seed=3)
    spec = QuantSpec(5, extra_sample_bit=True)
    qw = quantize_weights(expand_rotated(cfg, base), spec)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, weights=base, qweights=qw)
    cfg2, weights2, qw2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert isinstance(weights2, BaseWeights)
    for k, v in base.arrays().items():
        assert np.array_equal(v, getattr(weights2, k))  # exact float64 roundtrip
    assert qw2.spec == spec
    for k, v in qw.arrays().items():
        assert np.array_equal(v, getattr(qw2, k))


def test_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"something": 1}))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    """A save that raises after writing part of the document leaves the
    previous checkpoint byte for byte and no temp file beside it."""
    from scdec.nn import config as config_mod

    cfg = NetworkConfig(d=3, n1=8, n2=4, transfer="sqnl", rotated=True)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, weights=init_weights(cfg, seed=3))
    before = path.read_bytes()

    def crashing_dump(doc, fh):
        fh.write(json.dumps(doc)[:50])
        raise OSError("disk full")

    monkeypatch.setattr(config_mod.json, "dump", crashing_dump)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, cfg, weights=init_weights(cfg, seed=4))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
