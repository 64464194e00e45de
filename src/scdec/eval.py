"""Monte Carlo benchmarking, pseudo-threshold extraction and curve fitting.

A decoder is anything whose ``predict(syn)`` maps a uint8 syndrome batch
(n, n_anc) to (n, 2) logical-class bits *relative to the pure-error decoder
output*: the prediction is compared against the logical difference between
the actual error and the pure error.  The always-identity decoder therefore
measures the raw pure-error decoder; the MWPM decoder predicts the class of
``mwpm_correction XOR pure_error``, so it fails exactly when the residual
``actual XOR mwpm_correction``, whose syndrome is trivial, has a nonzero
centre-cut parity (:func:`scdec.lattice.cut_parities`), as usual.

Logical failure counts an error in either output bit (X or Z), and the
logical error rate model fitted to the measured curves is

    eps_l = p_th * (eps_p / p_th) ** (s * (1 - c * eps_p))

with pseudo-threshold ``p_th``, slope ``s`` and flattening ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _threads, ped
from ._fileio import atomic_write
from ._kernels import fixed_nonlinearity
from .lattice import Layout
from .mwpm import MwpmDecoder
from .nn import (NetworkConfig, QuantizedWeights, QuantSpec, expand_rotated,
                 forward_fixed_batch, forward_float_batch, quantize_weights)
from .noise import EVAL_STREAM_BASE, compute_syndrome_bits, sample_depolarizing_bits
from .train import target_bits

# two-sided 99.9% normal quantile, used for all confidence intervals
Z999 = 3.2905267314919255

# Most shots in one shard of ``benchmark``
_CHUNK = 1 << 14

# Header of a curve CSV (write_points_csv)
CURVE_COLUMNS = ("distance", "decoder", "eps_p", "eps_l", "shots", "variance")


class NoCrossing(ValueError):
    """The measured curve never crosses the eps_l = eps_p line."""


@dataclass(frozen=True)
class BenchmarkPoint:
    eps_p: float
    eps_l: float
    shots: int
    variance: float

    @classmethod
    def from_counts(cls, eps_p: float, failures: int, shots: int) -> "BenchmarkPoint":
        eps_l = failures / shots
        return cls(eps_p, eps_l, shots, eps_l * (1.0 - eps_l) / shots)


@dataclass(frozen=True)
class FitResult:
    p_th: float
    s: float
    c: float
    residual: float  # sum of squared log-domain residuals


class TrivialDecoder:
    """Always predicts logical identity; benchmarks the raw pure-error
    decoder when used as the classifier."""

    def predict(self, syn: np.ndarray) -> np.ndarray:
        return np.zeros((syn.shape[0], 2), dtype=np.uint8)


class MwpmBenchmarkDecoder:
    """Minimum-weight matching as a class predictor in the common frame."""

    def __init__(self, layout: Layout):
        self.layout = layout
        self._dec = MwpmDecoder(layout)

    def predict(self, syn: np.ndarray) -> np.ndarray:
        lz_m, lx_m = self._dec.cut_parities_batch(syn)
        lx_p, lz_p = ped.decode_cut_parities(self.layout, syn)
        return np.stack([lx_m ^ lx_p, lz_m ^ lz_p], axis=1).astype(np.uint8)


class NNFloatDecoder:
    def __init__(self, cfg: NetworkConfig, weights):
        self.cfg = cfg
        self.weights = expand_rotated(cfg, weights)
        self.weights.validate(cfg)

    def predict(self, syn: np.ndarray) -> np.ndarray:
        out = forward_float_batch(self.cfg, self.weights, syn)
        return (out > 0.0).astype(np.uint8)


class NNFixedDecoder:
    def __init__(self, cfg: NetworkConfig, qweights: QuantizedWeights):
        # a tanh net, a spec mismatch or an off-grid weight fails here,
        # before any shot
        fixed_nonlinearity(cfg.transfer)
        if cfg.quant is None:
            cfg = NetworkConfig(cfg.d, cfg.n1, cfg.n2, cfg.transfer,
                                cfg.rotated, qweights.spec)
        elif qweights.spec != cfg.quant:
            raise ValueError(f"weights quantized for {qweights.spec}, "
                             f"config wants {cfg.quant}")
        qweights.validate()
        self.cfg = cfg
        self.qweights = qweights

    def predict(self, syn: np.ndarray) -> np.ndarray:
        return forward_fixed_batch(self.cfg, self.qweights, syn)


def nn_decoder(cfg: NetworkConfig, weights, quant: QuantSpec | None = None):
    """Float decoder of ``weights``, or fixed-point on the grid of ``quant``."""
    if quant is None:
        return NNFloatDecoder(cfg, weights)
    return NNFixedDecoder(cfg, quantize_weights(expand_rotated(cfg, weights), quant))


def default_eps_grid(n_points: int = 10, lo: float = 0.03, hi: float = 0.3):
    """Logarithmically spaced physical error rates, the standard test grid."""
    return [float(e) for e in np.geomspace(lo, hi, n_points)]


def check_settings(eps_list, shots: int, seed: int) -> list:
    """``eps_list`` as floats, after checking that it is a nonempty list of
    probabilities, that ``shots`` is positive and that ``seed`` fits the
    64-bit Philox key."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("eps_list must not be empty")
    if shots <= 0:
        raise ValueError("shots must be positive")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    for eps in eps_list:
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"physical error rate must be in [0, 1], got {eps}")
    return eps_list


def benchmark(decoder, layout: Layout, eps_list, shots: int, seed: int):
    """Logical error rate of ``decoder`` at each physical rate.

    A shot fails when the predicted class differs from the true logical
    difference in either bit.  Shot ``k`` of point ``i`` is drawn from
    stream ``EVAL_STREAM_BASE + i``, so results are independent of how the
    shots are split.  The call's shots are cut, in point order, into shards
    of at most ``_CHUNK`` shots (``_shards``); a shard may span points, and
    each runs its decoder once on the worker threads of
    :func:`scdec._threads.pool`.  Failure counts are summed per point, in
    shard order.  Spanning points lets a decoder with a fixed cost per call,
    such as the MWPM DP, make fewer and larger calls on short points.
    """
    eps_list = check_settings(eps_list, shots, seed)
    failures = [0] * len(eps_list)
    count = partial(_shard_failures, decoder, layout, eps_list, seed)
    with _threads.pool() as ex:
        for runs in ex.map(count, _shards(len(eps_list), shots)):
            for i, bad in runs:
                failures[i] += bad
    return [BenchmarkPoint.from_counts(eps, f, shots)
            for eps, f in zip(eps_list, failures)]


def _shards(n_points: int, shots: int):
    """The ``n_points * shots`` shots of a call in point order, cut into
    shards of ``_CHUNK``: each shard a list of runs ``(i, shot0, n)``, the
    ``n`` shots from ``shot0`` of point ``i``."""
    total = n_points * shots
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        runs = []
        while start < stop:
            i, shot0 = divmod(start, shots)
            n = min(stop - start, shots - shot0)
            runs.append((i, shot0, n))
            start += n
        yield runs


def _shard_failures(decoder, layout: Layout, eps_list, seed: int, runs):
    """``(i, failures)`` of each run ``(i, shot0, n)`` of one shard.

    Each run is sampled from its own point's stream; the decoder predicts
    the shard's syndromes in one call."""
    syns, targets = [], []
    for i, shot0, n in runs:
        x, z = sample_depolarizing_bits(layout, eps_list[i], seed,
                                        EVAL_STREAM_BASE + i, shot0, n)
        syn = compute_syndrome_bits(layout, x, z)
        syns.append(syn)
        targets.append(target_bits(layout, x, z, syn))
    if len(runs) == 1:
        syn, (tx, tz) = syns[0], targets[0]
    else:
        # joined along the shots of the kernels' ancilla-major layout
        syn = np.concatenate([s.T for s in syns], axis=1).T
        tx, tz = (np.concatenate(t) for t in zip(*targets))
    pred = decoder.predict(syn)
    bad = (pred[:, 0] != tx) | (pred[:, 1] != tz)
    ends = np.cumsum([n for _, _, n in runs])
    return [(i, int(np.count_nonzero(bad[end - n:end])))
            for (i, _, n), end in zip(runs, ends.tolist())]


def pseudo_threshold(points):
    """Crossing of the measured curve with eps_l = eps_p.

    Interpolates linearly in the log domain between the bracketing pair and
    returns ``(p_th, (ci_low, ci_high))`` with a 99.9% normal interval built
    from the summed binomial variances of the two bracket points.

    Raises :class:`NoCrossing` when no bracketing pair exists.
    """
    pts = sorted(points, key=lambda p: p.eps_p)
    for p in pts:
        if p.eps_l == p.eps_p:
            half = Z999 * np.sqrt(max(p.variance, 0.0))
            return p.eps_p, (p.eps_p - half, p.eps_p + half)
    for lo, hi in zip(pts, pts[1:]):
        g_lo = lo.eps_l - lo.eps_p
        g_hi = hi.eps_l - hi.eps_p
        if (lo.eps_l > 0 and hi.eps_l > 0 and g_lo < 0 <= g_hi
                and lo.eps_p < hi.eps_p):
            return _interp_crossing(lo, hi)
    raise NoCrossing("curve does not cross eps_l = eps_p on the sampled grid")


def _interp_crossing(lo, hi):
    x1, x2 = np.log(lo.eps_p), np.log(hi.eps_p)
    y1, y2 = np.log(lo.eps_l), np.log(hi.eps_l)
    m = (y2 - y1) / (x2 - x1)
    if m == 1.0:  # parallel to the identity in log space; bracket endpoints
        m = np.nextafter(1.0, 0.0)
    xstar = x1 + (y1 - x1) / (1.0 - m)
    p_th = float(np.exp(xstar))

    # first-order propagation of the two log-rate variances to log p_th
    dx = x2 - x1
    dxdy1 = 1.0 / (1.0 - m) - (y1 - x1) / ((1.0 - m) ** 2 * dx)
    dxdy2 = (y1 - x1) / ((1.0 - m) ** 2 * dx)
    var_log = (dxdy1 ** 2) * lo.variance / lo.eps_l ** 2 \
        + (dxdy2 ** 2) * hi.variance / hi.eps_l ** 2
    half = Z999 * np.sqrt(max(var_log, 0.0))
    return p_th, (float(np.exp(xstar - half)), float(np.exp(xstar + half)))


def _model_log(theta, eps_p):
    log_pth, s, c = theta
    return log_pth + s * (1.0 - c * eps_p) * (np.log(eps_p) - log_pth)


def fit_model(points) -> FitResult:
    """Least-squares fit of the error-rate model in the log domain."""
    # imported here: scipy.optimize is most of the time ``import scdec.cli`` took
    from scipy.optimize import least_squares

    pts = [p for p in points if p.eps_l > 0]
    if len(pts) < 4:
        raise ValueError("need at least 4 points with eps_l > 0")
    eps_p = np.array([p.eps_p for p in pts])
    log_el = np.log([p.eps_l for p in pts])

    if eps_p.min() == eps_p.max():
        raise ValueError("fit needs a spread of physical error rates")
    try:
        pth0, _ = pseudo_threshold(pts)
    except NoCrossing:
        pth0 = float(eps_p.max())
    lo_i, hi_i = np.argmin(eps_p), np.argmax(eps_p)
    s0 = (log_el[hi_i] - log_el[lo_i]) / (np.log(eps_p[hi_i]) - np.log(eps_p[lo_i]))
    lower = np.array([np.log(1e-6), 1e-3, -20.0])
    upper = np.array([np.log(0.999), 50.0, 20.0])
    theta0 = np.clip([np.log(pth0), max(s0, 0.1), 0.0],
                     lower + 1e-9, upper - 1e-9)

    result = least_squares(
        lambda th: _model_log(th, eps_p) - log_el,
        theta0, bounds=(lower, upper),
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=10_000,
    )
    resid = float(np.sum(result.fun ** 2))
    return FitResult(float(np.exp(result.x[0])), float(result.x[1]),
                     float(result.x[2]), resid)


def model_eps_l(fit: FitResult, eps_p) -> np.ndarray:
    """Evaluate the fitted model (useful for generating synthetic data)."""
    eps_p = np.asarray(eps_p, dtype=np.float64)
    return fit.p_th * (eps_p / fit.p_th) ** (fit.s * (1.0 - fit.c * eps_p))


def write_points_csv(path, points, *, distance: int, decoder: str,
                     header_note: str = "") -> None:
    """One row per benchmark point; leading comment line carries provenance."""
    lines = []
    if header_note:
        lines.append(f"# {header_note}")
    lines.append(",".join(CURVE_COLUMNS))
    for p in points:
        lines.append(f"{distance},{decoder},{float(p.eps_p)!r},"
                     f"{float(p.eps_l)!r},{p.shots},{float(p.variance)!r}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_points_csv(path):
    """Inverse of :func:`write_points_csv`; returns (points, distance, decoder)."""
    with open(path) as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.startswith("#")]
    if not lines:
        return [], None, None
    return parse_points(lines[0].split(","), lines[1:])


def parse_points(header, rows):
    """(points, distance, decoder) from the data rows of a curve table whose
    header cells ``header`` name every one of ``CURVE_COLUMNS``."""
    idx = [header.index(c) for c in CURVE_COLUMNS]
    points = []
    distance = None
    decoder = None
    for line in rows:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"curve row has {len(cells)} cells, header has "
                             f"{len(header)}: {line!r}")
        dist, dec, eps_p, eps_l, shots, var = (cells[i] for i in idx)
        distance = int(dist)
        decoder = dec
        points.append(BenchmarkPoint(float(eps_p), float(eps_l), int(shots),
                                     float(var)))
    return points, distance, decoder
