"""Acceptance suite: one test per criterion, printed as one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
The training-based criteria share one module-scoped training session.
"""

import time

import numpy as np
import pytest

from scdec.lattice import build_layout
from scdec.nn import (
    NetworkConfig,
    QuantSpec,
    QuantizedWeights,
    expand_rotated,
    forward_float_batch,
    quantize_weights,
)
from scdec.noise import compute_syndrome_bits, sample_depolarizing_bits
from scdec import ped
from scdec.eval import (
    BenchmarkPoint,
    FitResult,
    MwpmBenchmarkDecoder,
    NNFixedDecoder,
    NNFloatDecoder,
    benchmark,
    default_eps_grid,
    fit_model,
    model_eps_l,
    pseudo_threshold,
)
from scdec.hwcost import KIND_HIDDEN, KIND_INPUT, KIND_OUTPUT, network_cost, node_cost, pareto_front
from scdec.mwpm import MwpmDecoder, _levels, _pack_bits, _split_components, _tables
from scdec.train import TrainConfig, init_weights, loss_and_gradients, train_loop

from oracles import (brute_force_boundary_matching, fixed_forward_bigint, logical_class,
                     mask_bits, match_defects, match_weight, rotate_error,
                     rotate_syndrome)


def report(n, ok, detail):
    print(f"\ncriterion {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# -------------------------------------------------------------------- 1 --

def test_criterion_1_ped_round_trip():
    t0 = time.time()
    lay3 = build_layout(3)
    syn = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(np.uint8)
    x, z = ped.decode_bits(lay3, syn)
    ok = np.array_equal(compute_syndrome_bits(lay3, x, z), syn)
    for d in (5, 7, 9):
        lay = build_layout(d)
        rng = np.random.default_rng(1000 + d)
        syn = rng.integers(0, 2, size=(100_000, lay.n_anc), dtype=np.uint8)
        x, z = ped.decode_bits(lay, syn)
        ok = ok and np.array_equal(compute_syndrome_bits(lay, x, z), syn)
    dt = time.time() - t0
    report(1, ok and dt < 10,
           f"round trip exact on 256 exhaustive (d=3) + 3x100000 random "
           f"syndromes (d=5,7,9) in {dt:.1f}s")


# -------------------------------------------------------------------- 2 --

def test_criterion_2_ped_worked_example():
    lay = build_layout(5)
    s = np.zeros(24, np.uint8)
    s[8] = 1
    x, z = ped.decode_bits(lay, s)
    ok = not x.any() and list(np.flatnonzero(z[0])) == [23, 24]
    report(2, ok, "syndrome {X-ancilla 8} at d=5 decodes to Z on {23, 24}")


# -------------------------------------------------------------------- 3 --

def test_criterion_3_equivariance_suite():
    t0 = time.time()
    ok = True
    for d in (3, 5, 7, 9):
        lay = build_layout(d)
        rng = np.random.default_rng(3000 + d)
        s = rng.integers(0, 2, size=(10_000, lay.n_anc), dtype=np.uint8)
        # pure-error decoder commutes with the rotation
        xr, zr = ped.decode_bits(lay, rotate_syndrome(lay, s))
        x, z = ped.decode_bits(lay, s)
        ex, ez = rotate_error(lay, x, z)
        ok = ok and np.array_equal(xr, ex) and np.array_equal(zr, ez)
        # rotated networks swap their outputs under the rotation
        cfg = NetworkConfig(d=d, n1=8, n2=4, transfer="sqnl", rotated=True)
        full = expand_rotated(cfg, init_weights(cfg, seed=d))
        out = forward_float_batch(cfg, full, s)
        out_rot = forward_float_batch(cfg, full, rotate_syndrome(lay, s))
        ok = ok and np.max(np.abs(out_rot - out[:, ::-1])) < 1e-12
    dt = time.time() - t0
    report(3, ok and dt < 30,
           f"PED equivariance exact and NN sigma-swap < 1e-12 on 10000 "
           f"random cases per distance in {dt:.1f}s")


# -------------------------------------------------------------------- 4 --

def test_criterion_4_mwpm_exactness():
    t0 = time.time()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 9))  # up to 8 defects
        dist = rng.integers(1, 40, size=(k, k))
        dist = (dist + dist.T).astype(np.int64)
        bnd = rng.integers(1, 40, size=k).astype(np.int64)
        want = brute_force_boundary_matching(dist.tolist(), bnd.tolist())
        ok = ok and match_weight(dist, bnd, match_defects(dist, bnd)) == want

    # the library's own DP on sampled lattice components of 2 to 8 defects
    n_comps = 0
    for d in (5, 7, 9):
        lay = build_layout(d)
        xb, zb = sample_depolarizing_bits(lay, 0.15, 4, 0, 0, 200)
        syn = compute_syndrome_bits(lay, xb, zb)
        nx = lay.n_anc_x
        for tab, cols in zip(_tables(d), (syn[:, :nx], syn[:, nx:])):
            _, comps = _split_components(_pack_bits(cols), tab.or_tab)
            comps = np.unique(comps)
            n = np.bitwise_count(comps)
            comps = comps[(n >= 2) & (n <= 8)]
            for comp, val in zip(comps.tolist(), _levels(tab, comps)[1].tolist()):
                idx = [u for u in range(comp.bit_length()) if comp >> u & 1]
                want = brute_force_boundary_matching(
                    tab.dist[np.ix_(idx, idx)].tolist(), tab.bnd[idx].tolist())
                ok = ok and val >> 8 == want
            n_comps += comps.size

    lay = build_layout(3)
    dec = MwpmDecoder(lay)
    for q in range(9):
        for pauli in ("x", "y", "z"):
            x = np.zeros(9, np.uint8)
            z = np.zeros(9, np.uint8)
            if pauli in ("x", "y"):
                x[q] = 1
            if pauli in ("y", "z"):
                z[q] = 1
            syn = compute_syndrome_bits(lay, x, z)[0]
            zmask, xmask = dec.decode_masks(syn)
            ok = ok and logical_class(lay, x ^ mask_bits(xmask, 9),
                                      z ^ mask_bits(zmask, 9)) == (0, 0)
    dt = time.time() - t0
    report(4, ok and n_comps > 0 and dt < 60,
           f"matching weights = brute force on 1000 random graphs (reference "
           f"matcher) and {n_comps} lattice components at d=5-9 (library DP), "
           f"<= 8 defects each, and all 27 single-Pauli errors corrected at "
           f"d=3 in {dt:.1f}s")


# -------------------------------------------------------------------- 5 --

def test_criterion_5_mwpm_baseline_reproduction():
    t0 = time.time()
    results = {}
    for d, target, tol in ((3, 0.08251, 0.010), (5, 0.10372, 0.015)):
        lay = build_layout(d)
        dec = MwpmBenchmarkDecoder(lay)
        pts = benchmark(dec, lay, default_eps_grid(10), 1_000_000, seed=505)
        p_th, _ = pseudo_threshold(pts)
        results[d] = (p_th, abs(p_th - target) <= tol)
    dt = time.time() - t0
    ok = all(good for _, good in results.values())
    report(5, ok,
           f"MWPM p_th d=3: {results[3][0]:.5f} (0.08251 +- 0.010), "
           f"d=5: {results[5][0]:.5f} (0.10372 +- 0.015); 10 points x 1e6 "
           f"shots each in {dt:.0f}s")


# -------------------------------------------------------------------- 6 --

def _flatten(w):
    return np.concatenate([a.ravel() for a in w.arrays().values()])


def _unflatten_like(vec, w):
    out = {}
    i = 0
    for k, a in w.arrays().items():
        out[k] = vec[i:i + a.size].reshape(a.shape).copy()
        i += a.size
    return type(w)(**out)


def test_criterion_6_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(6)
    worst = 0.0
    configs = 0
    while configs < 100:
        transfer = ("tanh", "relu", "sqnl")[configs % 3]
        rotated = bool(configs % 2)
        cfg = NetworkConfig(d=3, n1=8 if rotated else 4, n2=4,
                            transfer=transfer, rotated=rotated)
        w = init_weights(cfg, seed=configs)
        x = rng.integers(0, 2, size=(6, cfg.n_in)).astype(np.float64)
        t = rng.choice([-1.0, 1.0], size=(6, 2))
        reg = 0.3 if configs % 4 < 2 else 0.0
        _, grads, _ = loss_and_gradients(cfg, w, x, t, reg, 4)
        gv = _flatten(grads)
        v0 = _flatten(w)
        h = 1e-5
        fd = np.empty_like(v0)
        for i in range(v0.size):
            vp = v0.copy()
            vp[i] += h
            vm = v0.copy()
            vm[i] -= h
            lp = loss_and_gradients(cfg, _unflatten_like(vp, w), x, t, reg, 4)[0]
            lm = loss_and_gradients(cfg, _unflatten_like(vm, w), x, t, reg, 4)[0]
            fd[i] = (lp - lm) / (2 * h)
        rel = np.abs(gv - fd) / np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(rel.max()))
        configs += 1
    dt = time.time() - t0
    report(6, worst < 1e-5 and dt < 60,
           f"backprop vs central differences: max relative error {worst:.2e} "
           f"over 100 configurations (all transfers, both rotation modes) "
           f"in {dt:.0f}s")


# ------------------------------------------------------------------ 7/8 --

TRAIN_SEEDS = (1, 2, 3)
N_BATCHES = 4007  # first batch count reaching 2e7 samples at batch size 4992
EVAL_SHOTS = 300_000


@pytest.fixture(scope="module")
def trained_nets():
    """Three desk-scale training runs at d=3 plus their float thresholds.

    The regularized cost (reg toward the 8-bit grid) is the protocol the
    float baselines use before quantization.
    """
    lay = build_layout(3)
    cfg = NetworkConfig(d=3, n1=16, n2=4, transfer="sqnl", rotated=True)
    runs = []
    for seed in TRAIN_SEEDS:
        tc = TrainConfig(n_batches=N_BATCHES, seed=seed, p_train=0.08251,
                         reg_scale=1.0, reg_bits=8)
        weights, history = train_loop(tc, cfg, lay)
        pts = benchmark(NNFloatDecoder(cfg, weights), lay,
                        default_eps_grid(10), EVAL_SHOTS, seed=700 + seed)
        try:
            p_th, _ = pseudo_threshold(pts)
        except Exception:
            p_th = float("nan")
        runs.append({"seed": seed, "weights": weights, "history": history,
                     "p_th": p_th, "samples": N_BATCHES * tc.batch_size,
                     "batch_size": tc.batch_size, "log_every": tc.log_every})
    return {"cfg": cfg, "layout": lay, "runs": runs}


def test_criterion_7_desk_scale_training(trained_nets):
    runs = trained_nets["runs"]
    assert all(r["samples"] >= 2 * 10 ** 7 for r in runs)
    # every logged iteration is sane: finite and no worse than chance
    curve_ok = True
    for r in runs:
        sigma = np.sqrt(0.25 / (r["log_every"] * r["batch_size"]))
        for row in r["history"]:
            curve_ok = curve_ok and np.isfinite(row["ler"])
            curve_ok = curve_ok and row["ler"] <= 0.5 + 3 * sigma
    best = max(r["p_th"] for r in runs)
    ok = curve_ok and best >= 0.090
    report(7, ok,
           f"d=3 rotated sqnl (16,4), {runs[0]['samples']:.1e} samples/seed: "
           f"p_th by seed {[round(r['p_th'], 5) for r in runs]}, "
           f"best {best:.5f} >= 0.090 (paper float: 0.09769)")


def test_criterion_8_quantization_consistency(trained_nets):
    t0 = time.time()
    rng = np.random.default_rng(8)
    # bit-exactness of the fixed-point path against the big-int oracle
    pairs = 0
    exact = True
    while pairs < 10_000:
        bits = 3 + (pairs % 7)
        spec = QuantSpec(bits, extra_sample_bit=bool(pairs % 2))
        cfg = NetworkConfig(d=3, n1=int(rng.integers(1, 9)),
                            n2=int(rng.integers(1, 9)),
                            transfer="sqnl" if pairs % 3 else "relu",
                            quant=spec)
        lim = 1 << spec.wfrac

        def draw(shape):
            return rng.integers(-lim, lim, size=shape).astype(np.int64)

        qw = QuantizedWeights(w1=draw((cfg.n1, 8)), b1=draw(cfg.n1),
                              w2=draw((cfg.n2, cfg.n1)), b2=draw(cfg.n2),
                              wout=draw((2, cfg.n2)), bout=draw(2), spec=spec)
        n_inputs = 8
        syn = rng.integers(0, 2, size=(n_inputs, 8), dtype=np.uint8)
        from scdec.nn import forward_fixed_batch

        got = forward_fixed_batch(cfg, qw, syn)
        for i in range(n_inputs):
            want = fixed_forward_bigint(qw, syn[i], spec.wfrac, bits, cfg.transfer)
            exact = exact and list(got[i]) == want
            pairs += 1

    # quantizing the trained net to 9 bits costs at most 5% of p_th
    cfg = trained_nets["cfg"]
    lay = trained_nets["layout"]
    best = max(trained_nets["runs"], key=lambda r: r["p_th"])
    full = expand_rotated(cfg, best["weights"])
    qw = quantize_weights(full, QuantSpec(9))
    pts = benchmark(NNFixedDecoder(cfg, qw), lay, default_eps_grid(10),
                    EVAL_SHOTS, seed=700 + best["seed"])
    p_th_fixed, _ = pseudo_threshold(pts)
    ratio = p_th_fixed / best["p_th"]
    dt = time.time() - t0
    ok = exact and ratio >= 0.95
    report(8, ok,
           f"fixed path bit-exact on {pairs} oracle pairs (b=3..9); 9-bit "
           f"p_th {p_th_fixed:.5f} / float {best['p_th']:.5f} = {ratio:.4f} "
           f">= 0.95 in {dt:.0f}s")


# -------------------------------------------------------------------- 9 --

def test_criterion_9_fit_recovery():
    eps = np.array(default_eps_grid(10))
    ok = True
    for (p_th, s, c) in ((0.1, 2.0, 1.0), (0.08, 1.86, 0.0)):
        pts = [BenchmarkPoint(float(e), float(l), 10 ** 6, 1e-9)
               for e, l in zip(eps, model_eps_l(FitResult(p_th, s, c, 0), eps))]
        fit = fit_model(pts)
        ok = ok and abs(fit.p_th - p_th) / p_th < 0.01
        ok = ok and abs(fit.s - s) / s < 0.01
        ok = ok and abs(fit.c - c) <= 0.01 * max(abs(c), 1.0)
        ok = ok and fit.residual < 1e-10

    lo = BenchmarkPoint(0.08, 0.075, 10 ** 6, 7e-8)
    hi = BenchmarkPoint(0.09, 0.095, 10 ** 6, 9e-8)
    p_th_got, _ = pseudo_threshold([lo, hi])
    x1, x2 = np.log(0.08), np.log(0.09)
    y1, y2 = np.log(0.075), np.log(0.095)
    m = (y2 - y1) / (x2 - x1)
    closed_form = float(np.exp(x1 + (y1 - x1) / (1.0 - m)))
    ok = ok and abs(p_th_got - closed_form) < 1e-12
    report(9, ok,
           "fit recovers (p_th, s, c) within 1% on exact synthetic data; "
           "crossing matches closed-form log interpolation to 1e-12")


# ------------------------------------------------------------------- 10 --

def test_criterion_10_cost_model_properties():
    t0 = time.time()
    ok = True
    # additivity
    cfg = NetworkConfig(d=5, n1=16, n2=8, transfer="sqnl", quant=QuantSpec(5))
    total = network_cost(cfg)
    parts = [node_cost(cfg.n_in, 5, "sqnl", KIND_INPUT).scaled(16),
             node_cost(16, 5, "sqnl", KIND_HIDDEN).scaled(8),
             node_cost(8, 5, "sqnl", KIND_OUTPUT).scaled(2)]
    ok = ok and total.pp_bits == sum(p.pp_bits for p in parts)
    ok = ok and total.fa_count == sum(p.fa_count for p in parts)
    ok = ok and total.bitops == sum(p.bitops for p in parts)

    # monotonicity over the full grid
    for kind in (KIND_INPUT, KIND_HIDDEN, KIND_OUTPUT):
        for b in range(1, 10):
            prev = None
            for m in range(1, 257):
                r = node_cost(m, b, "sqnl", kind)
                if prev is not None:
                    ok = ok and r.pp_bits > prev.pp_bits
                    ok = ok and r.bitops > prev.bitops
                    ok = ok and r.fa_count >= prev.fa_count
                    ok = ok and r.tree_depth >= prev.tree_depth
                prev = r
        for m in (1, 7, 32, 256):
            prev = None
            for b in range(1, 10):
                r = node_cost(m, b, "sqnl", kind)
                if prev is not None:
                    ok = ok and r.pp_bits > prev.pp_bits and r.bitops > prev.bitops
                    ok = ok and r.fa_count >= prev.fa_count
                    ok = ok and r.tree_depth >= prev.tree_depth
                prev = r

    # pareto front equals the quadratic dominance filter
    rng = np.random.default_rng(10)
    for _ in range(50):
        pts = [(float(c), float(p)) for c, p in rng.integers(0, 40, size=(100, 2))]
        got = pareto_front(pts)
        want = [(ci, pi) for i, (ci, pi) in enumerate(pts)
                if not any((cj <= ci and pj >= pi) and (cj < ci or pj > pi)
                           for j, (cj, pj) in enumerate(pts) if j != i)]
        ok = ok and got == want
    dt = time.time() - t0
    report(10, ok and dt < 10,
           f"additivity exact, monotone over m=1..256 x b=1..9, Pareto = "
           f"brute force on 50 random clouds in {dt:.1f}s")
