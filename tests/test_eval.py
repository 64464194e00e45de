import sys
import threading
import time

import numpy as np
import pytest

import scdec.eval as eval_mod
from scdec import _threads, ped, train
from scdec.cli import main
from scdec.lattice import build_layout
from scdec.nn import NetworkConfig, QuantSpec
from scdec.noise import EVAL_STREAM_BASE, compute_syndrome_bits, sample_depolarizing_bits
from scdec.eval import (
    BenchmarkPoint,
    FitResult,
    MwpmBenchmarkDecoder,
    NoCrossing,
    TrivialDecoder,
    benchmark,
    default_eps_grid,
    fit_model,
    model_eps_l,
    nn_decoder,
    pseudo_threshold,
    read_points_csv,
    write_points_csv,
)

from oracles import enumerate_pauli_configs


def _points_from_model(p_th, s, c, eps):
    fit = FitResult(p_th, s, c, 0.0)
    els = model_eps_l(fit, eps)
    return [BenchmarkPoint(float(e), float(l), 10 ** 6, l * (1 - l) / 10 ** 6)
            for e, l in zip(eps, els)]


# ------------------------------------------------------------ benchmark --

def test_eps_zero_gives_zero_logical_rate():
    lay = build_layout(3)
    pts = benchmark(TrivialDecoder(), lay, [0.0], 2000, seed=0)
    assert pts[0].eps_l == 0.0
    assert pts[0].variance == 0.0


def test_benchmark_validates_inputs():
    lay = build_layout(3)
    with pytest.raises(ValueError):
        benchmark(TrivialDecoder(), lay, [], 100, seed=0)
    with pytest.raises(ValueError):
        benchmark(TrivialDecoder(), lay, [0.1], 0, seed=0)
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="must be in"):
            benchmark(TrivialDecoder(), lay, [0.1, bad], 100, seed=0)


def test_trivial_decoder_matches_exact_enumeration():
    """At d=3 the always-identity decoder fails exactly when the pure-error
    residual is non-identity; the exact probability comes from summing all
    4^9 configuration probabilities."""
    lay = build_layout(3)
    p = 0.1
    x, z, nerr = enumerate_pauli_configs(9)
    prob = (1 - p) ** (9 - nerr) * (p / 3.0) ** nerr
    syn = compute_syndrome_bits(lay, x, z)
    from scdec.train import target_bits

    tx, tz = target_bits(lay, x, z, syn)
    exact = float(prob[(tx | tz).astype(bool)].sum())

    shots = 400_000
    pts = benchmark(TrivialDecoder(), lay, [p], shots, seed=123)
    sigma = np.sqrt(exact * (1 - exact) / shots)
    assert abs(pts[0].eps_l - exact) < 3 * sigma


def test_benchmark_point_variance():
    p = BenchmarkPoint.from_counts(0.1, 250, 1000)
    assert p.eps_l == 0.25
    assert p.variance == pytest.approx(0.25 * 0.75 / 1000)


def test_failure_counting_is_xz_symmetric():
    """Swapping the lx/lz roles of both prediction and truth leaves the
    failure decision (and hence the rate) unchanged for every bit pattern."""
    patterns = np.array([[a, b] for a in (0, 1) for b in (0, 1)], np.uint8)
    for pred in patterns:
        for truth in patterns:
            fail = np.any(pred != truth)
            fail_swapped = np.any(pred[::-1] != truth[::-1])
            assert fail == fail_swapped


# ------------------------------------------------------ sharded benchmark --

# 17,500 shots: an uneven last shard at both 2^14 and 1,000 shots a shard
_SHOTS = 17_500
_EPS = [0.04, 0.08, 0.12]


def _curve_cases():
    """(name, decoder, layout) of every decoder kind ``scdec eval`` runs."""
    cfg = NetworkConfig(d=5, n1=16, n2=4, transfer="sqnl", rotated=True)
    weights = train.init_weights(cfg, 3)
    lay5, lay7 = build_layout(5), build_layout(7)
    return [("trivial", TrivialDecoder(), lay5),
            ("mwpm-d5", MwpmBenchmarkDecoder(lay5), lay5),
            ("mwpm-d7", MwpmBenchmarkDecoder(lay7), lay7),
            ("nn-fixed", nn_decoder(cfg, weights, QuantSpec(5)), lay5),
            ("nn-float", nn_decoder(cfg, weights), lay5)]


def _csv_bytes(path, points, layout, name) -> bytes:
    write_points_csv(path, points, distance=layout.d, decoder=name)
    return path.read_bytes()


@pytest.fixture(scope="module")
def serial_curves(tmp_path_factory):
    """Curve CSV bytes of each case, every point sampled and decoded as one
    batch on the calling thread."""
    path = tmp_path_factory.mktemp("serial") / "curve.csv"
    out = {}
    for name, decoder, layout in _curve_cases():
        points = []
        for i, eps in enumerate(_EPS):
            x, z = sample_depolarizing_bits(layout, eps, 9, EVAL_STREAM_BASE + i, 0, _SHOTS)
            syn = compute_syndrome_bits(layout, x, z)
            tx, tz = train.target_bits(layout, x, z, syn)
            pred = decoder.predict(syn)
            bad = np.count_nonzero((pred[:, 0] != tx) | (pred[:, 1] != tz))
            points.append(BenchmarkPoint.from_counts(eps, int(bad), _SHOTS))
        out[name] = _csv_bytes(path, points, layout, name)
    return out


@pytest.mark.parametrize("chunk", [1 << 14, 1000])
@pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
def test_curves_do_not_depend_on_workers_or_shards(monkeypatch, tmp_path, serial_curves,
                                                   n_workers, chunk):
    """8 workers is more threads than this host has CPUs; a short switch
    interval interleaves the workers' bytecode as finely as it can."""
    monkeypatch.setattr(_threads, "workers", lambda: n_workers)
    monkeypatch.setattr(eval_mod, "_CHUNK", chunk)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for name, decoder, layout in _curve_cases():
            points = benchmark(decoder, layout, _EPS, _SHOTS, seed=9)
            assert (_csv_bytes(tmp_path / "curve.csv", points, layout, name)
                    == serial_curves[name])
    finally:
        sys.setswitchinterval(interval)


class _SecondShardFails(TrivialDecoder):
    """Raises on shard 1 of point 0 (``_CHUNK`` = 1,000); every other shard
    takes 50 ms, so a run that does not stop takes seconds."""

    def __init__(self, monkeypatch):
        self.shard = threading.local()
        self.started = []       # (stream, shot0, started after the raise)
        self.raised = False
        sample = eval_mod.sample_depolarizing_bits

        def recording_sample(layout, eps, seed, stream, shot0, n):
            self.started.append((stream, shot0, self.raised))
            self.shard.key = (stream, shot0)
            return sample(layout, eps, seed, stream, shot0, n)

        monkeypatch.setattr(eval_mod, "sample_depolarizing_bits", recording_sample)
        monkeypatch.setattr(eval_mod, "_CHUNK", 1000)

    def predict(self, syn):
        if self.shard.key == (EVAL_STREAM_BASE, 1000):
            self.raised = True
            raise ValueError("shard 1 failed")
        time.sleep(0.05)
        return super().predict(syn)


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_a_failing_shard_stops_the_benchmark(monkeypatch, n_workers):
    monkeypatch.setattr(_threads, "workers", lambda: n_workers)
    decoder = _SecondShardFails(monkeypatch)
    threads = threading.active_count()
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="shard 1 failed"):
        benchmark(decoder, build_layout(3), [0.1] * 4, 100_000, seed=0)
    assert time.perf_counter() - t0 < 3.0      # 400 shards would take 10 s or more
    assert (EVAL_STREAM_BASE, 1000, False) in decoder.started
    assert [s for s in decoder.started if s[2]] == []
    assert threading.active_count() == threads     # the pool's threads are joined


def test_eval_exits_3_when_a_shard_raises(monkeypatch, tmp_path, capsys):
    decoder = _SecondShardFails(monkeypatch)
    monkeypatch.setattr(eval_mod, "TrivialDecoder", lambda: decoder)
    out = tmp_path / "curve.csv"
    code = main(["eval", "--decoder", "trivial", "-d", "3", "--set", "shots=100000",
                 "--out", str(out)])
    assert code == 3 and "shard 1 failed" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------ pseudo-threshold --

def test_exact_touch_returns_that_point():
    pts = [BenchmarkPoint(0.05, 0.02, 1000, 1e-5),
           BenchmarkPoint(0.08, 0.08, 1000, 1e-5),
           BenchmarkPoint(0.12, 0.2, 1000, 1e-5)]
    p_th, (lo, hi) = pseudo_threshold(pts)
    assert p_th == 0.08
    assert lo < 0.08 < hi


def test_crossing_matches_closed_form_log_interpolation():
    lo = BenchmarkPoint(0.08, 0.075, 10 ** 6, 0.075 * 0.925 / 10 ** 6)
    hi = BenchmarkPoint(0.09, 0.095, 10 ** 6, 0.095 * 0.905 / 10 ** 6)
    p_th, _ = pseudo_threshold([lo, hi])
    x1, x2 = np.log(0.08), np.log(0.09)
    y1, y2 = np.log(0.075), np.log(0.095)
    m = (y2 - y1) / (x2 - x1)
    expect = np.exp(x1 + (y1 - x1) / (1 - m))
    assert abs(p_th - expect) < 1e-12


def test_no_crossing_raises():
    pts = [BenchmarkPoint(0.05, 0.10, 1000, 1e-5),
           BenchmarkPoint(0.10, 0.20, 1000, 1e-5)]
    with pytest.raises(NoCrossing):
        pseudo_threshold(pts)


def test_crossing_invariant_under_non_bracketing_points():
    lo = BenchmarkPoint(0.08, 0.075, 10 ** 6, 7e-8)
    hi = BenchmarkPoint(0.09, 0.095, 10 ** 6, 9e-8)
    extra_lo = BenchmarkPoint(0.01, 0.0005, 10 ** 6, 5e-10)
    extra_hi = BenchmarkPoint(0.3, 0.5, 10 ** 6, 2.5e-7)
    a, cia = pseudo_threshold([lo, hi])
    b, cib = pseudo_threshold([extra_lo, lo, hi, extra_hi])
    assert a == b and cia == cib


def test_ci_width_shrinks_with_shots():
    def pts(shots):
        el_lo, el_hi = 0.075, 0.095
        return [
            BenchmarkPoint(0.08, el_lo, shots, el_lo * (1 - el_lo) / shots),
            BenchmarkPoint(0.09, el_hi, shots, el_hi * (1 - el_hi) / shots),
        ]

    _, (lo1, hi1) = pseudo_threshold(pts(10 ** 5))
    _, (lo4, hi4) = pseudo_threshold(pts(4 * 10 ** 5))
    ratio = (hi4 - lo4) / (hi1 - lo1)
    assert abs(ratio - 0.5) < 0.05


# ------------------------------------------------------------ model fit --

def test_fit_recovers_exact_parameters():
    eps = np.array(default_eps_grid(10))
    pts = _points_from_model(0.1, 2.0, 1.0, eps)
    fit = fit_model(pts)
    assert abs(fit.p_th - 0.1) / 0.1 < 0.01
    assert abs(fit.s - 2.0) / 2.0 < 0.01
    assert abs(fit.c - 1.0) < 0.01 * max(1.0, 1.0)
    assert fit.residual < 1e-10


def test_fit_recovers_pure_power_law():
    eps = np.array(default_eps_grid(10))
    pts = _points_from_model(0.08, 1.86, 0.0, eps)
    fit = fit_model(pts)
    assert abs(fit.p_th - 0.08) / 0.08 < 0.01
    assert abs(fit.s - 1.86) / 1.86 < 0.01
    assert abs(fit.c) < 0.01
    assert fit.residual < 1e-10


def test_fit_needs_enough_points():
    pts = _points_from_model(0.1, 2.0, 0.0, np.array([0.05, 0.1, 0.2]))
    with pytest.raises(ValueError):
        fit_model(pts)


# ------------------------------------------------------------------- io --

def test_points_csv_roundtrip(tmp_path):
    pts = [BenchmarkPoint(0.05, 0.0123, 1000, 1.2e-5),
           BenchmarkPoint(0.1, 0.1, 1000, 9e-5)]
    path = tmp_path / "curve.csv"
    write_points_csv(path, pts, distance=5, decoder="mwpm", header_note="prov")
    back, d, dec = read_points_csv(path)
    assert d == 5 and dec == "mwpm"
    assert back == pts
    assert open(path).readline().startswith("# prov")
