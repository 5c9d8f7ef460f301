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

from dataclasses import dataclass, field
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
        if self.drift is not None:
            return self.drift.shape[0]
        return self.controls[0].shape[0]

    def generators(self) -> list:
        gens = [] if self.drift is None else [self.drift]
        return gens + list(self.controls)


class UnitaryClass(NamedTuple):
    kind: str  # FULL | COMMUTING | INTERMEDIATE
    dimension: int


def _vec(matrix: np.ndarray) -> np.ndarray:
    # real coordinates with <A,B> = Tr(A B) for Hermitian A, B
    return np.concatenate([matrix.real.ravel(), matrix.imag.ravel()])


class _Span:
    """Incremental orthonormal basis of a real span with rank tolerance."""

    def __init__(self, tol: float):
        self.tol = tol
        self.basis: list = []

    def add(self, matrix: np.ndarray) -> bool:
        v = _vec(matrix)
        scale = np.linalg.norm(v)
        if scale <= self.tol:
            return False
        for _ in range(2):  # re-orthogonalize once for numerical safety
            for b in self.basis:
                v = v - (b @ v) * b
        residual = np.linalg.norm(v)
        if residual <= self.tol * scale:
            return False
        self.basis.append(v / residual)
        return True


def lie_algebra_dimension(gens: GeneratorSet) -> int:
    """Dimension of the real Lie algebra closure of the generators.

    Breadth-first commutator closure: each round commutes the newly
    accepted directions against every accepted direction, keeping those
    that extend the span (Gram-Schmidt with relative tolerance
    ``RANK_TOL``).  Stops when a round adds nothing or the span saturates
    at d^2 - 1; every round but the last adds a direction, so that takes
    at most d^2 - 1 rounds.
    """
    cap = gens.dim ** 2 - 1

    # work with unit-norm matrices: commutators of unit generators stay
    # O(1), so a candidate whose norm is ~1e-15 is pure floating-point
    # noise and the absolute tolerance in the span rejects it
    span = _Span(RANK_TOL)
    accepted: list = []
    frontier: list = []
    for g in gens.generators():
        mat = _traceless(g)
        norm = np.linalg.norm(mat)
        if norm > RANK_TOL and span.add(mat):
            accepted.append(mat / norm)
            frontier.append(mat / norm)

    while frontier and len(span.basis) < cap:
        fresh = []
        for a in frontier:
            for b in accepted:
                comm = a @ b - b @ a
                # hermitize i[A,B] exactly; roundoff otherwise leaks a
                # non-Hermitian component that fakes new directions
                herm = 0.5j * (comm - comm.conj().T)
                if span.add(herm):
                    unit = herm / np.linalg.norm(herm)
                    accepted.append(unit)
                    fresh.append(unit)
                    if len(span.basis) >= cap:
                        return cap
        frontier = fresh
    return len(span.basis)


def _all_commute(gens: GeneratorSet) -> bool:
    mats = gens.generators()
    scale = max((np.abs(m).max() for m in mats), default=0.0)
    bound = RANK_TOL * max(1.0, scale * scale)
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            if np.abs(a @ b - b @ a).max() > bound:
                return False
    return True


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
