"""Four-fold rotational weight sharing.

A rotated net carries a quarter-size independent parameter set that is copied
into four hidden-node groups, one per lattice rotation.  The sharing scheme
makes the network exactly equivariant: rotating the input syndrome by 90
degrees swaps the X and Z outputs.

With ``pi = rot_anc`` (ancilla permutation of one rotation) and group index
``g`` in 0..3:

    w1[g*m1 + j, i]           = w1_base[j, pi^-g(i)]
    w2[g*m2 + j, g'*m1 + j']  = w2_base[j, ((g' - g) mod 4)*m1 + j']
    wout[o, g*m2 + j]         = wout_base[sigma^g(o), j]

where sigma swaps the two outputs; biases are copied per group and the
output bias is a single shared scalar.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..lattice import build_layout
from .config import BaseWeights, NetworkConfig, Weights


@lru_cache(maxsize=None)
def _anc_perms(d: int):
    """(perm^g, perm^-g) read-only index arrays for g = 0..3 at distance
    ``d``, built once."""
    layout = build_layout(d)
    fwd = tuple(np.array(layout.rot_anc_power(g), dtype=np.intp) for g in range(4))
    for perm in fwd:
        perm.setflags(write=False)
    return fwd, tuple(fwd[-g % 4] for g in range(4))


class _Sharing(NamedTuple):
    """Index tables of one rotated config, over its *full vector*: the six
    full arrays in order, each C-ordered except ``w1`` when a quarter holds
    more than one row."""

    expand: np.ndarray      # base-vector position each full entry copies
    gathers: tuple          # full positions of copy g = 0..3 of each base entry
    f_order: tuple          # names held column-major


@lru_cache(maxsize=None)
def _sharing(cfg: NetworkConfig) -> _Sharing:
    """The tables of ``cfg``, built once per config.

    The full ``w1`` is column-major when a quarter holds more than one row:
    OpenBLAS's sums in ``x @ w1.T`` depend on the operand's layout, and this
    one keeps the bits of every trained network (``np.vstack`` of the
    column-gathered quarters gives it).  Copy ``g`` of a base entry is the
    one in row group ``g`` (column group for ``wout``); the output bias has
    two copies, so ``gathers[2]`` and ``gathers[3]`` stop short of it, the
    last base entry.
    """
    m1, m2 = cfg.n1 // 4, cfg.n2 // 4
    base_shapes = cfg.param_shapes(base=True)
    offsets = np.cumsum([0] + [math.prod(s) for s in base_shapes.values()])
    _, inv = _anc_perms(cfg.d)
    g1, j1 = np.divmod(np.arange(cfg.n1), m1)   # copy and base row per full row
    g2, j2 = np.divmod(np.arange(cfg.n2), m2)
    o = np.arange(2)[:, None]
    # (base index within the array, copy) of every full entry
    entries = {
        "w1": (j1[:, None] * cfg.n_in + np.asarray(inv)[g1], g1[:, None]),
        "b1": (j1, g1),
        "w2": (j2[:, None] * cfg.n1 + (g1 - g2[:, None]) % 4 * m1 + j1, g2[:, None]),
        "b2": (j2, g2),
        "wout": ((o + g2) % 2 * m2 + j2, g2),
        "bout": (np.zeros(2, dtype=np.intp), np.arange(2)),
    }
    f_order = ("w1",) if m1 > 1 else ()
    expand, copy = [], []
    for (name, shape), at in zip(cfg.param_shapes().items(), offsets):
        order = "F" if name in f_order else "C"
        index, group = (np.broadcast_to(a, shape) for a in entries[name])
        expand.append(np.ravel(index + at, order=order))
        copy.append(np.ravel(group, order=order))
    expand = np.concatenate(expand)
    table = np.empty((4, offsets[-1]), dtype=np.intp)
    table[np.concatenate(copy), expand] = np.arange(expand.size)
    gathers = (table[0], table[1], table[2, :-1], table[3, :-1])
    for a in (expand,) + gathers:
        a.setflags(write=False)
    return _Sharing(expand, gathers, f_order)


def expand_rotated(cfg: NetworkConfig, base: BaseWeights | Weights) -> Weights:
    """Expand quarter-size weights into the full shared set; full sets pass.

    The full arrays are views of one full vector (see :class:`_Sharing`),
    gathered from the base vector in one ``take``."""
    if isinstance(base, Weights):
        return base
    if not cfg.rotated:
        raise ValueError("config is not rotated")
    base.validate(cfg)
    sharing = _sharing(cfg)
    return Weights.on_vector(base.vector()[0].take(sharing.expand),
                             cfg.param_shapes(), sharing.f_order)


def reduce_rotated_grads(cfg: NetworkConfig, grads) -> BaseWeights:
    """Pull full-parameter gradients back onto the shared base parameters.

    This is the exact transpose of :func:`expand_rotated`: each base entry
    accumulates the gradients of its copies, copy 0 first.  ``grads`` is a
    Weights or its full vector.
    """
    sharing = _sharing(cfg)
    if isinstance(grads, Weights):
        grads = np.concatenate([np.ravel(a, order="F" if name in sharing.f_order else "C")
                                for name, a in grads.arrays().items()])
    acc = np.zeros(sharing.gathers[0].size)
    for index in sharing.gathers:
        acc[:index.size] += grads.take(index)
    return BaseWeights.on_vector(acc, cfg.param_shapes(base=True))
