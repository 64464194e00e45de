"""Network configuration, weight containers and the checkpoint format.

Checkpoints are JSON (text) files.  Float weights are stored as plain JSON
numbers, which round-trip 64-bit floats exactly in Python; quantized weights
are stored as the signed integers ``k`` with value ``k * 2^-wfrac``, making
fixed-point models bit-exactly portable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._fileio import atomic_write
from ..lattice import check_distance

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
        check_distance(self.d)
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


def param_order(a: np.ndarray) -> str:
    """``"F"`` for a column-major array, else ``"C"``: the order in which a
    parameter vector holds the array's entries."""
    return "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"


@dataclass
class _Params:
    """The six parameter arrays every weight container holds."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    wout: np.ndarray
    bout: np.ndarray

    _vec = None     # the vector the arrays view, set by on_vector

    @classmethod
    def on_vector(cls, vec: np.ndarray, shapes: dict, f_order=()):
        """A container whose arrays, shaped ``shapes``, are consecutive views
        of the vector ``vec``: column-major for the names in ``f_order``,
        C-ordered otherwise."""
        arrays, at = {}, 0
        for name, shape in shapes.items():
            part = vec[at:at + math.prod(shape)]
            arrays[name] = (part.reshape(shape[::-1]).T if name in f_order
                            else part.reshape(shape))
            at += part.size
        params = cls(**arrays)
        params._vec = vec
        return params

    def arrays(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    def vector(self):
        """``(vec, shared)``: the six arrays' entries as one vector, each
        array in its :func:`param_order`.  ``shared`` tells whether the
        arrays are views of ``vec`` (a container made by :meth:`on_vector`)
        or ``vec`` is a copy."""
        arrays = self.arrays().values()
        if self._vec is not None and all(a.base is self._vec for a in arrays):
            return self._vec, True
        return np.concatenate([np.ravel(a, order=param_order(a)) for a in arrays]), False

    def assign(self, vec: np.ndarray) -> None:
        """Copy ``vec``, laid out as :meth:`vector` lays it out, into the
        arrays."""
        at = 0
        for a in self.arrays().values():
            a[...] = vec[at:at + a.size].reshape(a.shape, order=param_order(a))
            at += a.size

    def _check_shapes(self, cfg: NetworkConfig, base: bool) -> None:
        """Shapes ``cfg.param_shapes(base)`` and finite entries."""
        for name, shape in cfg.param_shapes(base).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(self.vector()[0]).all():
            bad = next(name for name, arr in self.arrays().items()
                       if not np.isfinite(arr).all())
            raise ValueError(f"{bad} contains non-finite values")


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
    either possibly None.  A malformed document raises ValueError naming the
    field at fault."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a scdec checkpoint: {path}")
    try:
        cfg = NetworkConfig.from_dict(_section(doc, "config"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"checkpoint field 'config' is malformed: "
                         f"{type(exc).__name__}: {exc}") from None
    weights = None
    if "base_weights" in doc:
        weights = BaseWeights(**_params(doc, "base_weights", np.float64))
    elif "weights" in doc:
        weights = Weights(**_params(doc, "weights", np.float64))
    qweights = None
    if "quantized_weights" in doc:
        try:
            spec = QuantSpec(**_section(doc, "quant"))
        except TypeError as exc:
            raise ValueError(f"checkpoint field 'quant' is malformed: {exc}") from None
        qweights = QuantizedWeights(**_params(doc, "quantized_weights", np.int64),
                                    spec=spec)
    return cfg, weights, qweights


def _section(doc: dict, name: str) -> dict:
    """The JSON object ``doc[name]`` of a checkpoint document."""
    value = doc.get(name)
    if not isinstance(value, dict):
        raise ValueError(f"checkpoint field {name!r} is missing or not an object")
    return value


def _params(doc: dict, name: str, dtype) -> dict:
    """The six parameter arrays of the checkpoint field ``name`` as
    ``dtype`` arrays."""
    arrays = _section(doc, name)
    if sorted(arrays) != sorted(_FIELDS):
        raise ValueError(f"checkpoint field {name!r} must hold exactly "
                         f"{', '.join(_FIELDS)}, got {', '.join(sorted(arrays))}")
    return {k: np.asarray(arrays[k], dtype=dtype) for k in _FIELDS}
