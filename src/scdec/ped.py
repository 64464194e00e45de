"""Symmetric pure-error decoder.

Any syndrome is mapped to a data-error configuration that reproduces it by
propagating XOR chains from the lattice centre to the boundary.  The ancillas
split into four rotated families of chains indexed by ``(t, r, c)``:

* ``t`` is 0 for chains rooted at X-ancillas (which emit Z corrections) and
  1 for Z-ancilla chains (X corrections);
* ``r`` is the side, -1/+1 meaning left/right for X-chains and up/down for
  Z-chains;
* ``c`` in ``0 .. (d+1)//2 - 1`` selects the chain within a family.

Every chain has exactly ``(d-1)//2`` ancillas, each ancilla belongs to
exactly one chain, and along a chain the correction obeys

    E(q_0) = E(a_0),      E(q_i) = E(a_i) XOR E(q_{i-1}),

which makes the decoder a linear map over GF(2).  The whole decode is
precomputed as two syndrome-to-plane parity matrices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .lattice import Layout, build_layout


class ChainSpec(NamedTuple):
    """One decoding chain: type ``t`` (0 = X-ancilla chain, 1 = Z), side
    ``r`` (-1/+1), chain id ``c`` and its ancilla count ``length``."""

    t: int
    r: int
    c: int
    length: int


def chain_indices(d: int, t: int, r: int, c: int):
    """Closed-form data and ancilla indices of chain ``(t, r, c)``.

    Returns ``(q, a)``: equal-length lists, innermost element first.
    """
    if t not in (0, 1):
        raise ValueError(f"t must be 0 or 1, got {t}")
    if r not in (-1, 1):
        raise ValueError(f"r must be -1 or +1, got {r}")
    if not 0 <= c < (d + 1) // 2:
        raise ValueError(f"chain id {c} out of range for d={d}")
    half = (d - 1) // 2
    q = [
        ((d - 1) // 2 + r * (i + 1) + 1) * (t * d + (1 - t)) - 1
        + 2 * c * (d * (1 - t) - t)
        for i in range(half)
    ]
    a = [
        (d * d - 1) // 4 * (1 + 2 * t)
        + ((r - 1) // 2 + r * i) * ((d + 1) // 2) + c
        for i in range(half)
    ]
    return q, a


def chain_specs(d: int):
    """All chains of the decoder, covering each ancilla exactly once."""
    return [
        ChainSpec(t, r, c, (d - 1) // 2)
        for t in (0, 1)
        for r in (-1, 1)
        for c in range((d + 1) // 2)
    ]


@lru_cache(maxsize=None)
def decode_tables(d: int):
    """Per-distance linear-decode tables.

    ``px``/``pz`` are ``(n_anc, n_data)`` uint8 matrices: the decoded X (Z)
    plane is ``syndrome @ px`` (``@ pz``) over GF(2).  Row ``a`` of the
    proper matrix holds the data qubits whose correction toggles when
    syndrome bit ``a`` flips, i.e. the chain suffix starting at ``a``.
    """
    n_data = d * d
    n_anc = d * d - 1
    px = np.zeros((n_anc, n_data), dtype=np.uint8)
    pz = np.zeros((n_anc, n_data), dtype=np.uint8)
    for spec in chain_specs(d):
        q, a = chain_indices(d, spec.t, spec.r, spec.c)
        plane = pz if spec.t == 0 else px
        for i, anc in enumerate(a):
            # E(q_j) accumulates E(a_i) for all i <= j
            plane[anc, q[i:]] = 1
    return px, pz


@lru_cache(maxsize=None)
def cut_parity_matrix(d: int):
    """Syndrome-to-cut-parity matrix of the decoder output, ``(n_anc, 2)``.

    Over GF(2), ``s @ m[:, 0]`` equals the centre-row X-plane parity of
    ``decode_bits(s)`` and ``s @ m[:, 1]`` the centre-column Z-plane parity.
    """
    layout = build_layout(d)
    px, pz = decode_tables(d)
    cut_z = np.fromiter(sorted(layout.logical_cut_z), dtype=np.intp)
    cut_x = np.fromiter(sorted(layout.logical_cut_x), dtype=np.intp)
    return np.stack([px[:, cut_z].sum(axis=1), pz[:, cut_x].sum(axis=1)],
                    axis=1).astype(np.uint8) & 1


def decode_bits(layout: Layout, syn: np.ndarray):
    """Batch decode; ``syn`` is ``(n, n_anc)`` uint8 (or a single syndrome).
    Returns ``(x_bits, z_bits)`` uint8 arrays ``(n, n_data)``."""
    syn = np.atleast_2d(syn)
    if syn.shape[-1] != layout.n_anc:
        raise ValueError("syndrome sized for a different layout")
    px, pz = decode_tables(layout.d)
    return _kernels.gf2_matmul(syn, px), _kernels.gf2_matmul(syn, pz)


def decode_cut_parities(layout: Layout, syn: np.ndarray):
    """Centre-cut parities of ``decode_bits(syn)`` without forming the planes.
    Returns ``(lx, lz)`` uint8 arrays of length ``n``."""
    par = _kernels.gf2_matmul(syn, cut_parity_matrix(layout.d))
    return par[:, 0], par[:, 1]
