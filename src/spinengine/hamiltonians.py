"""Spin-chain Hamiltonians: Pauli matrices, site embeddings, the Ising ring.

Dense operators act on the full ``2**n`` dimensional Hilbert space with
site ``j`` occupying bit ``j`` of the basis index (see ``kernels`` for
the bit convention).  The Ising builders return ``thermo``'s two
Hamiltonian forms: the ring as its energy table, or the same energies
as a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .thermo import DenseOperator, EnergyTable

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def embed_site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Tensor a single-site operator into the full chain space at ``site``."""
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} outside chain of {n_sites} sites")
    left = np.eye(1 << (n_sites - 1 - site), dtype=complex)
    right = np.eye(1 << site, dtype=complex)
    return np.kron(np.kron(left, np.asarray(op, dtype=complex)), right)


@dataclass(frozen=True)
class IsingParams:
    """Parameters of the finite periodic chain ``H = -h sum Z_j - J sum Z_j Z_j+1``;
    ``coupling > 0`` is ferromagnetic."""

    n_sites: int
    coupling: float
    field: float

    def __post_init__(self):
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 1:
            raise ValueError("n_sites must be a positive integer")
        if not (np.isfinite(self.coupling) and np.isfinite(self.field)):
            raise ValueError("coupling and field must be finite")


def ising_diagonal(params: IsingParams) -> EnergyTable:
    """Energy table of the finite periodic chain (bit set = spin down)."""
    return ising_diagonals(params.n_sites, params.coupling, (params.field,))[0]


def ising_diagonals(n_sites: int, coupling: float, fields) -> list[EnergyTable]:
    """:func:`ising_diagonal` at one chain and coupling and each of
    ``fields``, from one enumeration of the ring."""
    for h in fields:
        IsingParams(n_sites, coupling, h)
    # a finite field can still overflow the energies; the check below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        tables = kernels.ising_energies(n_sites, coupling, fields)
    if not np.all(np.isfinite(tables)):
        raise ValueError("energy table has non-finite entries")
    return [EnergyTable(energies) for energies in tables]


def ising_composite(params: IsingParams) -> DenseOperator:
    """The chain's energy table as a dense (diagonal) complex matrix."""
    return DenseOperator(ising_diagonal(params).matrix)
