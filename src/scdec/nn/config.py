"""Network configuration, weight containers and the checkpoint format.

Checkpoints are JSON (text) files.  Float weights are stored as plain JSON
numbers, which round-trip 64-bit floats exactly in Python; quantized weights
are stored as the signed integers ``k`` with value ``k * 2^-wfrac``, making
fixed-point models bit-exactly portable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._fileio import atomic_write

TRANSFERS = ("tanh", "relu", "sqnl")

CHECKPOINT_FORMAT = "scdec-checkpoint-v1"


@dataclass(frozen=True)
class QuantSpec:
    """Two's complement fixed-point grid.

    ``bits`` data bits give the representable set
    ``{k * 2^-(bits-1)} over [-1, 1 - 2^-(bits-1)]``.  With
    ``extra_sample_bit`` the *sampling* grid gains one bit (step halves,
    range ``[-1, 1 - 2^-bits]``) while activations keep ``bits`` bits.
    """

    bits: int
    extra_sample_bit: bool = False

    def __post_init__(self):
        if not 3 <= self.bits <= 9:
            raise ValueError(f"bit width must be in 3..9, got {self.bits}")

    @property
    def wfrac(self) -> int:
        """Fractional bits of the weight grid."""
        return self.bits - 1 + (1 if self.extra_sample_bit else 0)

    @property
    def step(self) -> float:
        return 2.0 ** (-self.wfrac)

    @property
    def min_int(self) -> int:
        return -(1 << self.wfrac)

    @property
    def max_int(self) -> int:
        return (1 << self.wfrac) - 1


@dataclass(frozen=True)
class NetworkConfig:
    """Two-hidden-layer fully connected classifier over syndromes."""

    d: int
    n1: int
    n2: int
    transfer: str = "sqnl"
    rotated: bool = False
    quant: Optional[QuantSpec] = None

    def __post_init__(self):
        if self.transfer not in TRANSFERS:
            raise ValueError(f"unknown transfer {self.transfer!r}")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("hidden layers need at least one node")
        if self.rotated and (self.n1 % 4 or self.n2 % 4):
            raise ValueError("rotational weight sharing needs 4 | n1 and 4 | n2")

    @property
    def n_in(self) -> int:
        return self.d * self.d - 1

    def param_shapes(self, base: bool = False) -> dict:
        """Shapes of the six parameter arrays in order: the full set, or with
        ``base`` the quarter-size set a rotated net trains, whose output bias
        is one shared scalar."""
        rows1, rows2 = (self.n1 // 4, self.n2 // 4) if base else (self.n1, self.n2)
        return {"w1": (rows1, self.n_in), "b1": (rows1,),
                "w2": (rows2, self.n1), "b2": (rows2,),
                "wout": (2, rows2), "bout": (1 if base else 2,)}

    def to_dict(self) -> dict:
        out = {
            "d": self.d, "n1": self.n1, "n2": self.n2,
            "transfer": self.transfer, "rotated": self.rotated,
        }
        if self.quant is not None:
            out["quant"] = {"bits": self.quant.bits,
                            "extra_sample_bit": self.quant.extra_sample_bit}
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        quant = d.get("quant")
        return cls(
            d=d["d"], n1=d["n1"], n2=d["n2"], transfer=d["transfer"],
            rotated=d["rotated"],
            quant=QuantSpec(**quant) if quant else None,
        )


_FIELDS = ("w1", "b1", "w2", "b2", "wout", "bout")


@dataclass
class _Params:
    """The six parameter arrays every weight container holds."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    wout: np.ndarray
    bout: np.ndarray

    def arrays(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    def _check_shapes(self, cfg: NetworkConfig, base: bool) -> None:
        """Shapes ``cfg.param_shapes(base)`` and finite entries."""
        for name, shape in cfg.param_shapes(base).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")


@dataclass
class Weights(_Params):
    """Full (expanded) parameter set, shaped ``cfg.param_shapes()``."""

    def validate(self, cfg: NetworkConfig) -> None:
        self._check_shapes(cfg, base=False)


@dataclass
class BaseWeights(_Params):
    """Quarter-size parameters of a rotated net, shaped
    ``cfg.param_shapes(base=True)``."""

    def validate(self, cfg: NetworkConfig) -> None:
        if not cfg.rotated:
            raise ValueError("base weights only exist for rotated configs")
        self._check_shapes(cfg, base=True)


@dataclass
class QuantizedWeights(_Params):
    """Integer parameter set on the fixed-point grid of ``spec``.

    Entry ``k`` represents the value ``k * 2^-spec.wfrac``.
    """

    spec: QuantSpec = field(default=None)

    def validate(self) -> None:
        for name in _FIELDS:
            arr = getattr(self, name)
            if arr.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integer, got {arr.dtype}")
            if arr.min(initial=0) < self.spec.min_int or arr.max(initial=0) > self.spec.max_int:
                raise ValueError(f"{name} falls outside the {self.spec.bits}-bit grid")


def save_checkpoint(path, cfg: NetworkConfig, weights=None, qweights=None,
                    extra: dict | None = None) -> None:
    """Write a checkpoint.  ``weights`` is a Weights (unrotated) or
    BaseWeights (rotated); ``qweights`` an optional QuantizedWeights."""
    doc = {"format": CHECKPOINT_FORMAT, "config": cfg.to_dict()}
    if weights is not None:
        key = "base_weights" if isinstance(weights, BaseWeights) else "weights"
        doc[key] = {k: v.tolist() for k, v in weights.arrays().items()}
    if qweights is not None:
        doc["quant"] = {"bits": qweights.spec.bits,
                        "extra_sample_bit": qweights.spec.extra_sample_bit}
        doc["quantized_weights"] = {k: v.tolist() for k, v in qweights.arrays().items()}
    if extra:
        doc["extra"] = extra
    with atomic_write(path) as fh:
        json.dump(doc, fh)


def load_checkpoint(path):
    """Read a checkpoint; returns ``(cfg, weights, qweights)`` where
    ``weights`` is BaseWeights for rotated configs and Weights otherwise,
    either possibly None."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a scdec checkpoint: {path}")
    cfg = NetworkConfig.from_dict(doc["config"])
    weights = None
    if "base_weights" in doc:
        weights = BaseWeights(**{k: np.asarray(v, dtype=np.float64)
                                 for k, v in doc["base_weights"].items()})
    elif "weights" in doc:
        weights = Weights(**{k: np.asarray(v, dtype=np.float64)
                             for k, v in doc["weights"].items()})
    qweights = None
    if "quantized_weights" in doc:
        spec = QuantSpec(**doc["quant"])
        qweights = QuantizedWeights(
            **{k: np.asarray(v, dtype=np.int64)
               for k, v in doc["quantized_weights"].items()},
            spec=spec,
        )
    return cfg, weights, qweights
