"""ADAM training with on-the-fly sampling and quantization regularization.

Per batch: sample depolarizing errors at ``p_train``, extract syndromes, run
the pure-error decoder, and take the logical difference between the actual
error and the decoder output as the target class.  Targets are encoded as
+/-1 against the sign-affine outputs.  The cost is

    sum (y - t)^2  +  reg_scale * (sum w^2 + sum (w - w_q)^2)

summed over the batch and over every parameter (biases included), where
``w_q`` is the nearest level of the ``reg_bits`` grid, treated as locally
constant when differentiating.

For rotated nets only the quarter-size base parameters are trained; the
expansion keeps the sharing equalities exact after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import _threads, ped
from .lattice import Layout, cut_parities
from .nn.config import BaseWeights, NetworkConfig, Weights
from .nn.forward import forward_acts, transfer_deriv
from .nn.quantize import grid_levels
from .nn.rotated import expand_rotated, reduce_rotated_grads
from .noise import (
    INIT_STREAM,
    TRAIN_STREAM,
    compute_syndrome_bits,
    sample_depolarizing_bits,
)

# Pseudo-thresholds of the MWPM baseline per distance; the default sampling
# rate for training targets the regime the decoder is compared in.
MWPM_PTH = {3: 0.08251, 5: 0.10372, 7: 0.11368, 9: 0.11932}


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 4992
    n_batches: int = 300_000
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    reg_scale: float = 0.0
    reg_bits: int = 5
    p_train: Optional[float] = None  # default: MWPM pseudo-threshold of d
    seed: int = 0
    log_every: int = 2000  # batches per logged/checkpointed iteration

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.n_batches < 0:
            raise ValueError("n_batches must be >= 0")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"adam_eps (eps) must be finite and > 0, got {self.eps}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        if not (np.isfinite(self.reg_scale) and self.reg_scale >= 0):
            raise ValueError(f"reg_scale must be finite and >= 0, got {self.reg_scale}")
        if not 2 <= self.reg_bits <= 8:
            raise ValueError("reg_bits must be in 2..8")
        if self.p_train is not None and not 0.0 <= self.p_train <= 1.0:
            raise ValueError(f"p_train must be in [0, 1], got {self.p_train}")
        if not 0 <= self.seed < 1 << 64:     # the Philox key holds 64 bits
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")

    def resolved_p_train(self, d: int) -> float:
        if self.p_train is not None:
            return self.p_train
        try:
            return MWPM_PTH[d]
        except KeyError:
            raise ValueError(f"no default training error rate for d={d}") from None


def target_bits(layout: Layout, x_bits, z_bits, syn):
    """Batched target class bits (lx, lz) for sampled errors and their
    syndromes; the decoder output parities are computed linearly."""
    alx, alz = cut_parities(layout, x_bits, z_bits)
    plx, plz = ped.decode_cut_parities(layout, syn)
    return (alx ^ plx).astype(np.uint8), (alz ^ plz).astype(np.uint8)


def loss_and_gradients(cfg: NetworkConfig, weights, x: np.ndarray, t: np.ndarray,
                       reg_scale: float = 0.0, reg_bits: int = 5):
    """Cost, its exact gradient, and the raw outputs for a batch.

    ``weights`` is Weights, or BaseWeights for rotated configs (gradients are
    then returned on the base parameters).  ``x`` is the (n, n_in) float
    input batch, ``t`` the (n, 2) array of +/-1 targets.
    Returns ``(value, grads, outputs)``.
    """
    rotated = isinstance(weights, BaseWeights)
    full = expand_rotated(cfg, weights)

    a1, y1, a2, y2, out = forward_acts(cfg, full, x)
    dout = 2.0 * (out - t)
    gwout = dout.T @ y2
    gbout = dout.sum(axis=0)
    dy2 = dout @ full.wout
    da2 = dy2 * transfer_deriv(cfg.transfer, a2)
    gw2 = da2.T @ y1
    gb2 = da2.sum(axis=0)
    dy1 = da2 @ full.w2
    da1 = dy1 * transfer_deriv(cfg.transfer, a1)
    gw1 = da1.T @ x
    gb1 = da1.sum(axis=0)
    grads_full = Weights(gw1, gb1, gw2, gb2, gwout, gbout)

    value = float(np.sum((out - t) ** 2))
    if reg_scale > 0.0:
        # regularization acts on the physical (expanded) parameters
        for name, w in full.arrays().items():
            wq = grid_levels(w, reg_bits - 1) / (1 << (reg_bits - 1))
            value += reg_scale * float(np.sum(w * w) + np.sum((w - wq) ** 2))
            g = getattr(grads_full, name)
            g += reg_scale * (2.0 * w + 2.0 * (w - wq))

    if rotated:
        return value, reduce_rotated_grads(cfg, grads_full), out
    return value, grads_full, out


@dataclass
class AdamState:
    """First/second moment estimates per parameter array and the step count."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, weights) -> "AdamState":
        return cls(
            m={k: np.zeros_like(v) for k, v in weights.arrays().items()},
            v={k: np.zeros_like(v) for k, v in weights.arrays().items()},
        )


def adam_step(state: AdamState, weights, grads, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected ADAM update; mutates ``weights`` and ``state``."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, w in weights.arrays().items():
        g = getattr(grads, name)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        w -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return weights, state


def init_weights(cfg: NetworkConfig, seed: int):
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer, drawn
    from the counter-based stream so runs are reproducible.

    Parameter block ``j``, counted across the parameters in order, is shot
    ``j`` of ``INIT_STREAM`` with four words per shot."""
    from ._kernels import philox_lanes

    full = cfg.param_shapes()
    arrays = {}
    word = 0
    for name, shape in cfg.param_shapes(base=cfg.rotated).items():
        fan_in = full["w" + name[1:]][1]    # a bias shares its layer's fan-in
        n = int(np.prod(shape))
        blocks = (n + 3) // 4
        words = np.empty((blocks, 4), dtype=np.uint64)
        for first, lanes in philox_lanes(4, seed, INIT_STREAM, word, blocks):
            words[first:first + lanes.shape[-1]] = lanes[:, 0].T   # copy before the next pass
        word += blocks
        u = words.reshape(-1)[:n].astype(np.float64) / 2.0 ** 32
        bound = 1.0 / np.sqrt(fan_in)
        arrays[name] = ((2.0 * u - 1.0) * bound).reshape(shape)
    cls = BaseWeights if cfg.rotated else Weights
    return cls(**arrays)


def _batch_inputs(layout: Layout, p: float, seed: int, batch: int, b: int):
    """Float network input ``x`` and +/-1 targets ``t`` of batch ``batch``."""
    x_bits, z_bits = sample_depolarizing_bits(
        layout, p, seed, TRAIN_STREAM, batch * b, b)
    syn = compute_syndrome_bits(layout, x_bits, z_bits)
    tx, tz = target_bits(layout, x_bits, z_bits, syn)
    t = np.stack([tx, tz], axis=1).astype(np.float64) * 2.0 - 1.0
    return syn.astype(np.float64), t


def train_loop(train_cfg: TrainConfig, net_cfg: NetworkConfig, layout: Layout,
               iteration_cb: Optional[Callable] = None):
    """Train a network with freshly sampled data every batch.

    Returns ``(weights, history)`` where ``weights`` is BaseWeights for
    rotated configs and ``history`` one dict per logged iteration with keys
    iteration, batches, samples, ler, loss.  ``iteration_cb(weights, row)``
    runs after each logged iteration (checkpointing hook).

    On the worker threads of :func:`scdec._threads.pool`, batch ``k + 1``
    is sampled while batch ``k``'s ADAM step runs; logging and
    ``iteration_cb`` run between steps.
    """
    if net_cfg.d != layout.d:
        raise ValueError("network and layout distances differ")
    p = train_cfg.resolved_p_train(layout.d)
    weights = init_weights(net_cfg, train_cfg.seed)
    state = AdamState.init(weights)
    history = []
    b = train_cfg.batch_size
    n_batches = train_cfg.n_batches

    def step(batch, x, t):
        """ADAM step on one batch; returns its loss and failed shots."""
        value, grads, out = loss_and_gradients(
            net_cfg, weights, x, t, train_cfg.reg_scale, train_cfg.reg_bits)
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss {value} at batch {batch} "
                f"(lr={train_cfg.lr}, reg_scale={train_cfg.reg_scale})")
        adam_step(state, weights, grads, train_cfg.lr,
                  train_cfg.beta1, train_cfg.beta2, train_cfg.eps)
        return value, int(np.sum(np.any((out > 0.0) != (t > 0.0), axis=1)))

    it_fail = 0
    it_shots = 0
    it_loss = 0.0
    with _threads.pool() as ex:
        inputs = partial(_batch_inputs, layout, p, train_cfg.seed, b=b)
        nxt = ex.submit(inputs, 0) if n_batches else None
        for batch in range(n_batches):
            x, t = nxt.result()
            if batch + 1 < n_batches:
                nxt = ex.submit(inputs, batch + 1)
            value, fails = ex.submit(step, batch, x, t).result()
            it_fail += fails
            it_shots += b
            it_loss += value

            if (batch + 1) % train_cfg.log_every == 0 or batch + 1 == n_batches:
                row = {
                    "iteration": len(history) + 1,
                    "batches": batch + 1,
                    "samples": (batch + 1) * b,
                    "ler": it_fail / it_shots,
                    "loss": it_loss / (it_shots / b),
                }
                history.append(row)
                if iteration_cb is not None:
                    iteration_cb(weights, row)
                it_fail = 0
                it_shots = 0
                it_loss = 0.0
    return weights, history
