import numpy as np
import pytest

from scdec.lattice import build_layout
from scdec.nn import NetworkConfig, expand_rotated
from scdec.noise import TRAIN_STREAM, compute_syndrome_bits, sample_depolarizing_bits
from scdec import ped
from scdec.train import (
    MWPM_PTH,
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    init_weights,
    loss_and_gradients,
    target_bits,
    train_loop,
)
from scdec.nn.config import BaseWeights, Weights

from oracles import gf2_span, philox_scalar


def _flatten(w):
    return np.concatenate([a.ravel() for a in w.arrays().values()])


def _unflatten_like(vec, w):
    out = {}
    i = 0
    for k, a in w.arrays().items():
        out[k] = vec[i:i + a.size].reshape(a.shape).copy()
        i += a.size
    return type(w)(**out)


# ------------------------------------------------------------- targets --

def test_target_bits_identity():
    lay = build_layout(3)
    x = np.zeros((1, 9), np.uint8)
    z = np.zeros((1, 9), np.uint8)
    tx, tz = target_bits(lay, x, z, compute_syndrome_bits(lay, x, z))
    assert (int(tx[0]), int(tz[0])) == (0, 0)


def test_target_bits_full_column_is_logical_x():
    lay = build_layout(3)
    x = np.zeros((1, 9), np.uint8)
    x[0, [0, 3, 6]] = 1
    z = np.zeros((1, 9), np.uint8)
    tx, tz = target_bits(lay, x, z, compute_syndrome_bits(lay, x, z))
    assert (int(tx[0]), int(tz[0])) == (1, 0)


def test_targets_match_brute_force_coset_classification_d3():
    """Exhaustive over all 4^9 configurations: the target class equals the
    GF(2) coset of actual XOR ped_output relative to the stabilizer group."""
    from oracles import enumerate_pauli_configs

    lay = build_layout(3)
    x, z, _ = enumerate_pauli_configs(9)
    syn = compute_syndrome_bits(lay, x, z)
    tx, tz = target_bits(lay, x, z, syn)

    # independent route: stabilizer span membership on the residual
    gens = []
    for a in range(lay.n_anc):
        mask = 0
        for q in lay.anc_adjacency[a]:
            mask |= 1 << (q if a < lay.n_anc_x else q + 9)
    # X-ancilla measures Z errors: its stabilizer is the X-type operator
        gens.append(mask)
    span = gf2_span(gens)
    lx_op = sum(1 << (3 * r) for r in range(3))
    lz_op = sum(1 << (c + 9) for c in range(3))

    px, pz = ped.decode_bits(lay, syn)
    rx = x ^ px
    rz = z ^ pz
    keys = (rx.astype(object) * (1 << np.arange(9, dtype=object))).sum(axis=1) \
        + (rz.astype(object) * (1 << np.arange(9, 18, dtype=object))).sum(axis=1)
    for i in range(0, len(keys), 37):  # dense stride over all 262144 configs
        k = int(keys[i])
        want_lx = int(tx[i])
        want_lz = int(tz[i])
        residual_class = k ^ (lx_op if want_lx else 0) ^ (lz_op if want_lz else 0)
        assert residual_class in span, i


def test_loss_examples():
    # zero weights in a 1/1 relu net, so the outputs equal bout
    cfg = NetworkConfig(d=3, n1=1, n2=1, transfer="relu")

    def value(bout, t, w1_00=0.0, **reg):
        w1 = np.zeros((1, 8))
        w1[0, 0] = w1_00
        w = Weights(w1, np.zeros(1), np.zeros((1, 1)), np.zeros(1),
                    np.zeros((2, 1)), np.array(bout, dtype=float))
        t = np.array([t], dtype=float)
        return loss_and_gradients(cfg, w, np.zeros((1, 8)), t, **reg)[0]

    assert value([1.0, -1.0], [1.0, -1.0]) == 0.0
    assert value([0.5, -1.0], [1.0, -1.0]) == pytest.approx(0.25)
    # one weight 0.6, two-bit grid (step 0.5), reg 0.1, zero output error
    got = value([0.0, 0.0], [0.0, 0.0], 0.6, reg_scale=0.1, reg_bits=2)
    assert got == pytest.approx(0.1 * (0.36 + 0.01))


# ----------------------------------------------------------- gradients --

def test_zero_gradient_at_exact_fit():
    cfg = NetworkConfig(d=3, n1=2, n2=2, transfer="relu")
    w = Weights(np.zeros((2, 8)), np.zeros(2), np.zeros((2, 2)), np.zeros(2),
                np.zeros((2, 2)), np.array([1.0, -1.0]))
    x = np.ones((4, 8))
    t = np.tile([1.0, -1.0], (4, 1))
    value, grads, out = loss_and_gradients(cfg, w, x, t)
    assert value == 0.0
    assert all(not g.any() for g in grads.arrays().values())


def test_sqnl_derivative_value():
    from scdec.nn import transfer_deriv

    assert transfer_deriv("sqnl", 0.5) == pytest.approx(1.0)


@pytest.mark.parametrize("transfer", ("tanh", "relu", "sqnl"))
@pytest.mark.parametrize("rotated", (False, True))
def test_gradients_match_finite_differences(transfer, rotated):
    rng = np.random.default_rng(hash((transfer, rotated)) % 2 ** 31)
    cfg = NetworkConfig(d=3, n1=8 if rotated else 4, n2=4, transfer=transfer,
                        rotated=rotated)
    for trial in range(4):
        w = init_weights(cfg, seed=trial)
        x = rng.integers(0, 2, size=(8, cfg.n_in)).astype(np.float64)
        t = rng.choice([-1.0, 1.0], size=(8, 2))
        reg = 0.3 if trial % 2 else 0.0
        _, grads, _ = loss_and_gradients(cfg, w, x, t, reg, 3)
        gv = _flatten(grads)
        v0 = _flatten(w)
        h = 1e-5
        fd = np.empty_like(v0)
        for i in range(v0.size):
            vp = v0.copy()
            vp[i] += h
            vm = v0.copy()
            vm[i] -= h
            lp = loss_and_gradients(cfg, _unflatten_like(vp, w), x, t, reg, 3)[0]
            lm = loss_and_gradients(cfg, _unflatten_like(vm, w), x, t, reg, 3)[0]
            fd[i] = (lp - lm) / (2 * h)
        rel = np.abs(gv - fd) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() < 1e-5


# ---------------------------------------------------------------- init --

@pytest.mark.parametrize("seed", [0, 2 ** 32 + 7, 2 ** 64 - 1])
@pytest.mark.parametrize("d,rotated", [(3, False), (3, True), (9, False), (9, True)])
def test_init_weights_are_philox_words_of_the_init_stream(d, rotated, seed):
    """Parameter block ``j``, counted across the parameters in order, is the
    Philox block at counter (j_lo, j_hi, 0, INIT_STREAM) under key (seed_lo,
    seed_hi); each array starts a new block, and its word ``u`` becomes
    ``(2u/2^32 - 1)/sqrt(fan_in)``."""
    from scdec.noise import INIT_STREAM

    M = 0xFFFFFFFF
    cfg = NetworkConfig(d=d, n1=16, n2=4, transfer="sqnl", rotated=rotated)
    w = init_weights(cfg, seed)
    assert isinstance(w, BaseWeights if rotated else Weights)
    fan_in = {"1": cfg.n_in, "2": cfg.n1, "out": cfg.n2}
    j = 0
    for name, a in w.arrays().items():
        words = []
        while len(words) < a.size:
            words += philox_scalar((j & M, j >> 32, 0, INIT_STREAM), (seed & M, seed >> 32))
            j += 1
        u = np.array(words[:a.size], dtype=np.float64) / 2.0 ** 32
        want = (2.0 * u - 1.0) * (1.0 / np.sqrt(fan_in[name[1:]]))
        assert a.dtype == np.float64 and np.array_equal(a.ravel(), want), name


# ---------------------------------------------------------------- adam --

def test_adam_zero_gradient_keeps_weights():
    cfg = NetworkConfig(d=3, n1=2, n2=2)
    w = init_weights(cfg, 0)
    before = _flatten(w).copy()
    zeros = _unflatten_like(np.zeros_like(before), w)
    adam_step(AdamState.init(w), w, zeros, lr=0.1)
    assert np.array_equal(_flatten(w), before)


def test_adam_first_step_is_signed_lr():
    cfg = NetworkConfig(d=3, n1=2, n2=2)
    w = init_weights(cfg, 1)
    before = _flatten(w).copy()
    g = np.full_like(before, 50.0)
    g[::2] = -50.0
    adam_step(AdamState.init(w), w, _unflatten_like(g, w), lr=1e-3)
    step = _flatten(w) - before
    assert np.allclose(step, -1e-3 * np.sign(g), rtol=1e-6)


def test_adam_two_steps_match_hand_recurrence():
    cfg = NetworkConfig(d=3, n1=1, n2=1)
    w = Weights(np.zeros((1, 8)), np.zeros(1), np.zeros((1, 1)), np.zeros(1),
                np.zeros((2, 1)), np.zeros(2))
    state = AdamState.init(w)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g1, g2 = 0.3, -0.2
    grads1 = _unflatten_like(np.full(_flatten(w).size, g1), w)
    grads2 = _unflatten_like(np.full(_flatten(w).size, g2), w)
    adam_step(state, w, grads1, lr, b1, b2, eps)
    adam_step(state, w, grads2, lr, b1, b2, eps)

    m = v = 0.0
    x = 0.0
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert np.allclose(_flatten(w), x, atol=1e-12)


# ------------------------------------------------------------- training --

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(reg_scale=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(reg_bits=9)
    with pytest.raises(ValueError, match="n_batches"):
        TrainConfig(n_batches=-1)
    with pytest.raises(ValueError, match="log_every"):
        TrainConfig(log_every=0)
    for bad in (-0.01, 1.5, float("nan")):
        with pytest.raises(ValueError, match="p_train"):
            TrainConfig(p_train=bad)
    assert TrainConfig(p_train=1.0).p_train == 1.0
    assert TrainConfig(n_batches=0, log_every=1).n_batches == 0
    assert TrainConfig().resolved_p_train(3) == MWPM_PTH[3]
    assert TrainConfig(p_train=0.07).resolved_p_train(3) == 0.07


def test_zero_batches_returns_initial_weights():
    lay = build_layout(3)
    cfg = NetworkConfig(d=3, n1=8, n2=4, rotated=True)
    tc = TrainConfig(n_batches=0, seed=4)
    w, history = train_loop(tc, cfg, lay)
    w0 = init_weights(cfg, seed=4)
    assert np.array_equal(_flatten(w), _flatten(w0))
    assert history == []


def test_training_determinism():
    lay = build_layout(3)
    cfg = NetworkConfig(d=3, n1=8, n2=4, rotated=True)
    tc = TrainConfig(n_batches=30, batch_size=256, seed=11, log_every=10)
    w1, h1 = train_loop(tc, cfg, lay)
    w2, h2 = train_loop(tc, cfg, lay)
    assert np.array_equal(_flatten(w1), _flatten(w2))
    assert h1 == h2


def test_training_ler_sane_and_sharing_preserved():
    lay = build_layout(3)
    cfg = NetworkConfig(d=3, n1=8, n2=4, transfer="sqnl", rotated=True)
    tc = TrainConfig(n_batches=300, batch_size=512, seed=2, log_every=100)
    w, history = train_loop(tc, cfg, lay)
    assert isinstance(w, BaseWeights)
    for row in history:
        assert np.isfinite(row["ler"]) and 0.0 <= row["ler"] <= 1.0
    # by the last iteration the net must beat coin flipping (the 0.5 + 3
    # sigma bound of full-protocol iterations is checked in acceptance)
    assert history[-1]["ler"] < 0.5
    # expanding keeps the four copies exactly tied
    full = expand_rotated(cfg, w)
    for g in range(4):
        assert np.array_equal(full.b1[g * 2:(g + 1) * 2], w.b1)
    assert full.bout[0] == full.bout[1] == w.bout[0]


def test_loss_decreases_on_held_out_batch():
    lay = build_layout(3)
    cfg = NetworkConfig(d=3, n1=8, n2=4, transfer="sqnl", rotated=True)
    xb, zb = sample_depolarizing_bits(lay, 0.08251, 555, 9, 0, 2048)
    syn = compute_syndrome_bits(lay, xb, zb)
    tx, tz = target_bits(lay, xb, zb, syn)
    t = np.stack([tx, tz], axis=1) * 2.0 - 1.0
    x = syn.astype(np.float64)
    for seed in (0, 1, 2):
        w0 = init_weights(cfg, seed)
        before = loss_and_gradients(cfg, w0, x, t)[0]
        tc = TrainConfig(n_batches=1000, batch_size=128, seed=seed)
        w, _ = train_loop(tc, cfg, lay)
        after = loss_and_gradients(cfg, w, x, t)[0]
        assert after < before


def test_sqnl_nan_weight_diverges(monkeypatch):
    import scdec.train as train_mod

    lay = build_layout(3)
    cfg = NetworkConfig(d=3, n1=4, n2=4, transfer="sqnl")

    def nan_init(cfg, seed):
        w = init_weights(cfg, seed)
        w.w1[0, 0] = np.nan
        return w

    x = np.ones((4, cfg.n_in))
    t = np.ones((4, 2))
    assert not np.isfinite(loss_and_gradients(cfg, nan_init(cfg, 0), x, t)[0])
    monkeypatch.setattr(train_mod, "init_weights", nan_init)
    with pytest.raises(TrainingDiverged):
        train_loop(TrainConfig(n_batches=3, batch_size=64), cfg, lay)


def test_divergence_detection(monkeypatch):
    import scdec.train as train_mod

    lay = build_layout(3)
    cfg = NetworkConfig(d=3, n1=8, n2=4, transfer="relu", rotated=False)
    # an absurd regularization scale overflows the loss immediately
    tc = TrainConfig(n_batches=10, batch_size=64, reg_scale=1e308, seed=0)
    with pytest.raises(TrainingDiverged, match=r"at batch 0 "):
        train_loop(tc, cfg, lay)

    # a loss that turns non-finite later is reported at its own batch, the
    # one whose inputs were sampled while the step before it ran
    calls = []

    def nan_at_fourth(*args, **kwargs):
        value, grads, out = loss_and_gradients(*args, **kwargs)
        calls.append(value)
        return (np.nan if len(calls) == 4 else value), grads, out

    monkeypatch.setattr(train_mod, "loss_and_gradients", nan_at_fourth)
    tc = TrainConfig(n_batches=10, batch_size=64, seed=0)
    with pytest.raises(TrainingDiverged, match=r"non-finite loss nan at batch 3 "):
        train_loop(tc, cfg, lay)
    assert len(calls) == 4


def test_iteration_callback_sees_the_weights_of_its_batch_count():
    """Each logged row's callback sees the weights after exactly
    ``row["batches"]`` ADAM steps, never a step of the batch sampled ahead."""
    lay = build_layout(3)
    cfg = NetworkConfig(d=3, n1=8, n2=4, transfer="sqnl", rotated=True)
    tc = TrainConfig(n_batches=9, batch_size=128, seed=5, log_every=4)
    seen = []

    def snapshot(weights, row):
        seen.append((row["batches"], _flatten(weights).copy()))

    train_loop(tc, cfg, lay, iteration_cb=snapshot)
    assert [b for b, _ in seen] == [4, 8, 9]

    # serial replay of the same batches
    p = tc.resolved_p_train(3)
    weights = init_weights(cfg, tc.seed)
    state = AdamState.init(weights)
    expected = {}
    for batch in range(tc.n_batches):
        xb, zb = sample_depolarizing_bits(lay, p, tc.seed, TRAIN_STREAM,
                                          batch * tc.batch_size, tc.batch_size)
        syn = compute_syndrome_bits(lay, xb, zb)
        tx, tz = target_bits(lay, xb, zb, syn)
        t = np.stack([tx, tz], axis=1).astype(np.float64) * 2.0 - 1.0
        _, grads, _ = loss_and_gradients(cfg, weights, syn.astype(np.float64), t)
        adam_step(state, weights, grads, tc.lr, tc.beta1, tc.beta2, tc.eps)
        expected[batch + 1] = _flatten(weights).copy()
    for batches, flat in seen:
        assert np.array_equal(flat, expected[batches])
