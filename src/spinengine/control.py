"""Which unitaries can local control reach: dynamical Lie algebra rank.

The reachable unitary group of a drift Hamiltonian plus tunable control
Hamiltonians is generated by the real Lie algebra spanned by their
skew-Hermitian directions under nested commutators.  This module closes
that span numerically and classifies the result:

* ``FULL``       — span dimension d^2 - 1: every special unitary is
  reachable (arbitrary-precision in the limit of many pulses).
* ``COMMUTING``  — all generators commute pairwise and at least one
  field is controllable; reachable unitaries are diagonal in the shared
  eigenbasis, so pre/post rotations in engine bounds stay trivial.
* ``INTERMEDIATE(dim)`` — anything else; only the dimension is reported.

Matrices are kept Hermitian (the i factor is implicit) and projected
traceless, since the trace direction only generates global phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .hamiltonians import SIGMA_X, SIGMA_Y, SIGMA_Z, embed_site_operator
from .thermo import check_hermitian

FULL = "FULL"
COMMUTING = "COMMUTING"
INTERMEDIATE = "INTERMEDIATE"

RANK_TOL = 1e-9
_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def _traceless(matrix: np.ndarray) -> np.ndarray:
    d = matrix.shape[0]
    return matrix - (np.trace(matrix) / d) * np.eye(d)


@dataclass(frozen=True)
class GeneratorSet:
    """Drift and control Hamiltonians over one Hilbert space (d <= 64)."""

    drift: np.ndarray | None
    controls: tuple = ()

    def __post_init__(self):
        drift = None if self.drift is None else check_hermitian(np.asarray(self.drift))
        controls = tuple(check_hermitian(np.asarray(c)) for c in self.controls)
        dims = {m.shape[0] for m in controls} | ({drift.shape[0]} if drift is not None else set())
        if not dims:
            raise ValueError("need at least one generator")
        if len(dims) != 1:
            raise ValueError("generators act on different Hilbert spaces")
        d = dims.pop()
        if d > 64:
            raise ValueError("Hilbert dimension above 64 not supported")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "controls", controls)

    @property
    def dim(self) -> int:
        return self.generators()[0].shape[0]

    def generators(self) -> list:
        gens = [] if self.drift is None else [self.drift]
        return gens + list(self.controls)


class UnitaryClass(NamedTuple):
    kind: str  # FULL | COMMUTING | INTERMEDIATE
    dimension: int


class _Span:
    """Orthonormal basis of a real span of d x d matrices under the inner
    product Re Tr(A^dagger B), kept as the rows of one array that grows by
    doubling."""

    def __init__(self, dim: int):
        # row k holds the real coordinates of basis matrix k: the float
        # view of a complex array, so a dot product is Re Tr(A^dagger B)
        self._coords = np.empty((1, 2 * dim * dim))
        self.dim = dim
        self.size = 0

    @property
    def rows(self) -> np.ndarray:
        return self._coords[:self.size].view(complex).reshape(-1, self.dim, self.dim)

    def add(self, matrix: np.ndarray) -> bool:
        """Append the unit part of ``matrix`` outside the span and return
        True, unless its norm is at most ``RANK_TOL`` or that part's norm
        is at most ``RANK_TOL`` times it."""
        v = np.asarray(matrix, dtype=complex).ravel().view(float)
        scale = np.linalg.norm(v)
        if scale <= RANK_TOL:
            return False
        basis = self._coords[:self.size]
        for _ in range(2):  # re-orthogonalize once for numerical safety
            v = v - (basis @ v) @ basis
        residual = np.linalg.norm(v)
        if residual <= RANK_TOL * scale:
            return False
        if self.size == len(self._coords):
            self._coords = np.concatenate([self._coords, np.empty_like(self._coords)])
        self._coords[self.size] = v / residual
        self.size += 1
        return True


def lie_algebra_dimension(gens: GeneratorSet) -> int:
    """Dimension of the real Lie algebra closure of the generators.

    Breadth-first commutator closure over the span's orthonormal rows:
    a round's frontier is the rows the previous round added, and each
    frontier row is commuted with every row known at the round's start,
    keeping the candidates that extend the span (rank tolerance
    ``RANK_TOL``).  Stops when a round adds nothing or the span saturates
    at d^2 - 1; every round but the last adds a row, so that takes at
    most d^2 - 1 rounds.
    """
    cap = gens.dim ** 2 - 1
    span = _Span(gens.dim)
    for g in gens.generators():
        span.add(_traceless(g))

    # the rows have unit norm, so their commutators stay O(1) and a
    # candidate whose norm is ~1e-15 is floating-point noise that the
    # span's absolute tolerance rejects
    start = 0
    while start < span.size < cap:
        known = span.rows
        for a in known[start:]:
            # i[A, B] = i(AB - (AB)^dagger) for Hermitian A, B; written this
            # way it is Hermitian to the bit, so roundoff fakes no direction
            for ab in a @ known:
                if span.add(1j * (ab - ab.conj().T)) and span.size == cap:
                    return cap
        start = len(known)
    return span.size


def _all_commute(gens: GeneratorSet) -> bool:
    mats = np.array(gens.generators())
    scale = np.abs(mats).max()
    bound = RANK_TOL * max(1.0, scale * scale)
    products = mats[:, None] @ mats[None]  # A_i A_j
    return np.abs(products - products.swapaxes(0, 1)).max() <= bound


def classify_unitary_class(gens: GeneratorSet) -> UnitaryClass:
    """FULL at su(d) closure; COMMUTING for pairwise-commuting generators
    with at least one control; INTERMEDIATE(dim) otherwise."""
    dimension = lie_algebra_dimension(gens)
    if dimension == gens.dim ** 2 - 1:
        return UnitaryClass(FULL, dimension)
    if gens.controls and _all_commute(gens):
        return UnitaryClass(COMMUTING, dimension)
    return UnitaryClass(INTERMEDIATE, dimension)


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def _chain_bonds(n_sites: int) -> list:
    if n_sites < 2:
        return []
    bonds = [(k, k + 1) for k in range(n_sites - 1)]
    if n_sites > 2:
        bonds.append((n_sites - 1, 0))
    return bonds


def heisenberg_chain_drift(n_sites: int, coupling: float = 1.0) -> np.ndarray:
    """Isotropic exchange sum over chain bonds (periodic for 3+ sites)."""
    dim = 2 ** n_sites
    drift = np.zeros((dim, dim), dtype=np.complex128)
    for (i, k) in _chain_bonds(n_sites):
        for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            drift += coupling * (embed_site_operator(pauli, i, n_sites)
                                 @ embed_site_operator(pauli, k, n_sites))
    return drift


def ising_chain_drift(n_sites: int, coupling: float = 1.0) -> np.ndarray:
    """ZZ ring of the engine's Ising medium: its Hamiltonian at zero field."""
    return np.diag(kernels.ising_energies(n_sites, coupling, 0.0)).astype(complex)


def site_controls(n_sites: int, site: int, axes: Sequence[str]) -> list:
    """Single-site Pauli controls, e.g. axes ('x', 'z')."""
    out = []
    for axis in axes:
        key = axis.strip().lower()
        if key not in _PAULI:
            raise ValueError(f"unknown control axis {axis!r}; use x, y, or z")
        out.append(embed_site_operator(_PAULI[key], site, n_sites))
    return out
