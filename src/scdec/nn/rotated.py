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

from functools import lru_cache

import numpy as np

from ..lattice import build_layout
from .config import BaseWeights, NetworkConfig, Weights


@lru_cache(maxsize=None)
def _anc_perms(d: int):
    """(perm^g, perm^-g) read-only index arrays for g = 0..3 at distance
    ``d``; every training step uses them twice, so they are built once."""
    layout = build_layout(d)
    fwd = tuple(np.array(layout.rot_anc_power(g), dtype=np.intp) for g in range(4))
    for perm in fwd:
        perm.setflags(write=False)
    return fwd, tuple(fwd[-g % 4] for g in range(4))


def expand_rotated(cfg: NetworkConfig, base: BaseWeights | Weights) -> Weights:
    """Expand quarter-size weights into the full shared set; full sets pass."""
    if isinstance(base, Weights):
        return base
    if not cfg.rotated:
        raise ValueError("config is not rotated")
    base.validate(cfg)
    m1 = cfg.n1 // 4
    _, inv = _anc_perms(cfg.d)

    w1 = np.vstack([base.w1[:, inv[g]] for g in range(4)])
    b1 = np.tile(base.b1, 4)
    w2 = np.vstack([
        np.hstack([base.w2[:, ((gp - g) % 4) * m1:(((gp - g) % 4) + 1) * m1]
                   for gp in range(4)])
        for g in range(4)
    ])
    b2 = np.tile(base.b2, 4)
    wout = np.hstack([base.wout if g % 2 == 0 else base.wout[::-1] for g in range(4)])
    bout = np.full(2, base.bout[0], dtype=np.float64)
    return Weights(w1, b1, w2, b2, wout, bout)


def reduce_rotated_grads(cfg: NetworkConfig, grads: Weights) -> BaseWeights:
    """Pull full-parameter gradients back onto the shared base parameters.

    This is the exact transpose of :func:`expand_rotated`: each base entry
    accumulates the gradients of its four copies.
    """
    m1, m2 = cfg.n1 // 4, cfg.n2 // 4
    fwd, _ = _anc_perms(cfg.d)

    acc = BaseWeights(**{name: np.zeros(shape)
                         for name, shape in cfg.param_shapes(base=True).items()})
    for g in range(4):
        acc.w1 += grads.w1[g * m1:(g + 1) * m1][:, fwd[g]]
        acc.b1 += grads.b1[g * m1:(g + 1) * m1]
        block2 = grads.w2[g * m2:(g + 1) * m2]
        for gp in range(4):
            rel = (gp - g) % 4
            acc.w2[:, rel * m1:(rel + 1) * m1] += block2[:, gp * m1:(gp + 1) * m1]
        acc.b2 += grads.b2[g * m2:(g + 1) * m2]
        blocko = grads.wout[:, g * m2:(g + 1) * m2]
        acc.wout += blocko if g % 2 == 0 else blocko[::-1]
    acc.bout[0] = grads.bout.sum()
    return acc
