"""Rotated surface code geometry for odd distances.

Conventions used throughout the package:

* Data qubits live on a ``d x d`` grid, indexed row-major from the top-left,
  so qubit ``i`` sits at ``(row, col) = (i // d, i % d)``.
* The ``d^2 - 1`` ancillas sit on plaquettes between the data qubits.  A
  plaquette is addressed by integer coordinates ``(a, b)`` with
  ``-1 <= a, b <= d - 1``; its centre is ``(a + 0.5, b + 0.5)`` and it touches
  the data qubits ``{a, a+1} x {b, b+1}`` that fall on the grid.
* X-ancillas occupy plaquettes with ``a + b`` odd and ``0 <= b <= d - 2``
  (two-qubit half-plaquettes on the top and bottom edges only); Z-ancillas
  occupy plaquettes with ``a + b`` even and ``0 <= a <= d - 2`` (half
  plaquettes on the left and right edges only).
* Ancilla indices: X-ancillas are ``b * (d+1)//2 + (a+1)//2`` and fill
  ``0 .. (d^2-1)//2 - 1``; Z-ancillas are
  ``(d^2-1)//2 + a * (d+1)//2 + (d-1-b)//2``.  This is the unique numbering
  consistent with the closed-form chain indexing used by the pure-error
  decoder (see :mod:`scdec.ped`), e.g. at d=5 the chain t=0, r=+1, c=2 runs
  through ancillas 8 and 11 and data qubits 23 and 24.
* X-ancillas measure the Z-components of data errors and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ANC_X = 0
ANC_Z = 1


@dataclass(frozen=True)
class LogicalClass:
    """One of the four logical classes I, X, Z, Y as a pair of bits."""

    lx: int
    lz: int

    def __xor__(self, other: "LogicalClass") -> "LogicalClass":
        return LogicalClass(self.lx ^ other.lx, self.lz ^ other.lz)

    @property
    def name(self) -> str:
        return {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(self.lx, self.lz)]


def check_distance(d: int) -> None:
    """Raise ValueError unless ``d`` is an odd code distance ``>= 3``."""
    if d % 2 == 0 or d < 3:
        raise ValueError(f"distance must be odd and >= 3, got {d}")


class Layout:
    """Immutable geometry of a distance-``d`` rotated surface code.

    Attributes mirror the wire-level description of the code:

    d, n_data, n_anc
        Distance, ``d^2`` data qubits, ``d^2 - 1`` ancillas.
    anc_adjacency
        ``anc_adjacency[a]`` is the sorted tuple of 2 or 4 data-qubit indices
        whose parity ancilla ``a`` reports.
    anc_type
        ``ANC_X`` or ``ANC_Z`` per ancilla; X-ancillas are exactly
        ``0 .. n_anc//2 - 1``.
    rot_anc, rot_data
        Index permutations realizing a 90-degree clockwise rotation of the
        lattice: the qubit/ancilla at index ``i`` moves to ``rot_*[i]``.
        Applying either four times yields the identity, and ``rot_anc``
        exchanges X- and Z-ancillas.
    logical_cut_x, logical_cut_z
        The centre column (top-to-bottom) and centre row (left-to-right) of
        data indices used as reference cuts for logical-class extraction.
    """

    def __init__(self, d: int):
        check_distance(d)
        self.d = d
        self.n_data = d * d
        self.n_anc = d * d - 1
        self.n_anc_x = self.n_anc // 2

        self._plaq_of_anc: list[tuple[int, int]] = [None] * self.n_anc
        for a in range(-1, d):
            for b in range(-1, d):
                idx = _anc_index(d, a, b)
                if idx is not None:
                    self._plaq_of_anc[idx] = (a, b)

        self.anc_type = tuple(
            ANC_X if i < self.n_anc_x else ANC_Z for i in range(self.n_anc)
        )
        self.anc_adjacency = tuple(
            tuple(
                r * d + c
                for r in (a, a + 1)
                for c in (b, b + 1)
                if 0 <= r < d and 0 <= c < d
            )
            for (a, b) in self._plaq_of_anc
        )

        # 90-degree clockwise rotation: point (r, c) -> (c, d-1-r),
        # plaquette (a, b) -> (b, d-2-a).  Types swap since a+b flips parity.
        self.rot_data = tuple(
            (i % d) * d + (d - 1 - i // d) for i in range(self.n_data)
        )
        self.rot_anc = tuple(
            _anc_index(d, b, d - 2 - a) for (a, b) in self._plaq_of_anc
        )

        mid = (d - 1) // 2
        self.logical_cut_x = frozenset(r * d + mid for r in range(d))  # a column
        self.logical_cut_z = frozenset(mid * d + c for c in range(d))  # a row

        # Dense parity-check matrices for vectorized syndrome extraction:
        # hx rows are X-ancillas (read the z-plane), hz rows Z-ancillas.
        adj = np.zeros((self.n_anc, self.n_data), dtype=np.uint8)
        for a, qs in enumerate(self.anc_adjacency):
            adj[a, list(qs)] = 1
        self.hx = adj[: self.n_anc_x]
        self.hz = adj[self.n_anc_x :]
        self._cut_x = np.fromiter(sorted(self.logical_cut_x), dtype=np.intp)
        self._cut_z = np.fromiter(sorted(self.logical_cut_z), dtype=np.intp)

    def __repr__(self) -> str:
        return f"Layout(d={self.d})"

    def rot_anc_power(self, g: int) -> tuple[int, ...]:
        """``rot_anc`` composed ``g`` times (``g`` taken mod 4)."""
        perm = list(range(self.n_anc))
        for _ in range(g % 4):
            perm = [self.rot_anc[p] for p in perm]
        return tuple(perm)

    def to_dict(self) -> dict:
        """JSON-ready dump of the full geometry (CLI debugging aid)."""
        return {
            "d": self.d,
            "n_data": self.n_data,
            "n_anc": self.n_anc,
            "anc_type": ["X" if t == ANC_X else "Z" for t in self.anc_type],
            "anc_adjacency": [list(a) for a in self.anc_adjacency],
            "rot_anc": list(self.rot_anc),
            "rot_data": list(self.rot_data),
            "logical_cut_x": sorted(self.logical_cut_x),
            "logical_cut_z": sorted(self.logical_cut_z),
        }


def _anc_index(d: int, a: int, b: int):
    """Ancilla index of plaquette (a, b), or None where no ancilla sits."""
    if not (-1 <= a <= d - 1 and -1 <= b <= d - 1):
        return None
    if (a + b) % 2 != 0:  # X-type: interior columns only
        if 0 <= b <= d - 2:
            return b * ((d + 1) // 2) + (a + 1) // 2
        return None
    if 0 <= a <= d - 2:  # Z-type: interior rows only
        return (d * d - 1) // 2 + a * ((d + 1) // 2) + (d - 1 - b) // 2
    return None


@lru_cache(maxsize=None)
def build_layout(d: int) -> Layout:
    """Construct (and cache) the layout for odd distance ``d >= 3``."""
    return Layout(d)


def rotate_syndrome(layout: Layout, s):
    """Rotate a syndrome 90 degrees: bit ``rot_anc[a]`` of the result is bit
    ``a`` of ``s``.  Accepts a Syndrome, a single bit vector or a batch
    (last axis indexed by ancilla); returns the same kind."""
    from .noise import Syndrome

    if isinstance(s, Syndrome):
        return Syndrome(rotate_syndrome(layout, s.bits))
    s = np.asarray(s)
    if s.shape[-1] != layout.n_anc:
        raise ValueError(f"syndrome length {s.shape[-1]} != {layout.n_anc}")
    out = np.empty_like(s)
    out[..., list(layout.rot_anc)] = s
    return out


def rotate_error(layout: Layout, x_bits, z_bits=None):
    """Rotate an error configuration 90 degrees.

    Data indices are permuted by ``rot_data`` and the X/Z bit planes are
    exchanged, because the rotation maps X-stabilizers onto Z-stabilizers.
    Takes an ErrorConfig (returning one) or two bit planes, possibly
    batched, returning ``(x_bits, z_bits)``.
    """
    from .noise import ErrorConfig

    if isinstance(x_bits, ErrorConfig):
        return ErrorConfig(*rotate_error(layout, x_bits.x_bits, x_bits.z_bits))
    x_bits = np.asarray(x_bits)
    z_bits = np.asarray(z_bits)
    if x_bits.shape[-1] != layout.n_data or z_bits.shape[-1] != layout.n_data:
        raise ValueError("error configuration size mismatch")
    perm = list(layout.rot_data)
    new_x = np.empty_like(z_bits)
    new_z = np.empty_like(x_bits)
    new_x[..., perm] = z_bits
    new_z[..., perm] = x_bits
    return new_x, new_z


def cut_parities(layout: Layout, x_bits: np.ndarray, z_bits: np.ndarray):
    """Parities of the X-plane along the centre row and of the Z-plane along
    the centre column.  For a trivial-syndrome residual these are the logical
    class bits; linear over XOR of configurations in general."""
    x_bits = np.asarray(x_bits)
    z_bits = np.asarray(z_bits)
    lx = x_bits[..., layout._cut_z].astype(np.uint8, copy=False)
    lz = z_bits[..., layout._cut_x].astype(np.uint8, copy=False)
    return (np.bitwise_xor.reduce(lx, axis=-1) & 1,
            np.bitwise_xor.reduce(lz, axis=-1) & 1)


def logical_class(layout: Layout, x_bits, z_bits=None) -> LogicalClass:
    """Logical class of a residual error with trivial syndrome.

    Takes an ErrorConfig or two bit planes.  Raises ValueError when the
    syndrome is nontrivial, since the cut parity would then depend on the
    choice of cut.
    """
    from .noise import ErrorConfig, compute_syndrome_bits

    if isinstance(x_bits, ErrorConfig):
        x_bits, z_bits = x_bits.x_bits, x_bits.z_bits
    syn = compute_syndrome_bits(layout, x_bits, z_bits)
    if np.any(syn):
        raise ValueError("residual has nontrivial syndrome; class undefined")
    lx, lz = cut_parities(layout, x_bits, z_bits)
    return LogicalClass(int(lx), int(lz))
