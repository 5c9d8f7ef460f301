"""Spin-chain Hamiltonians: local fields, interactions, and Ising tables.

Dense operators act on the full ``2**n`` dimensional Hilbert space with
site ``j`` occupying bit ``j`` of the basis index (see ``kernels`` for
the bit convention).  Diagonal Ising chains are stored as plain energy
tables instead of matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENT2 = np.eye(2, dtype=complex)

HERMITICITY_TOL = 1e-12


def check_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate a square, finite, Hermitian matrix and return it as complex."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValueError(f"operator is not Hermitian within {tol:g} (max-norm)")
    return np.asarray(m, dtype=complex)


def embed_site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Tensor a single-site operator into the full chain space at ``site``."""
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} outside chain of {n_sites} sites")
    left = np.eye(1 << (n_sites - 1 - site), dtype=complex)
    right = np.eye(1 << site, dtype=complex)
    return np.kron(np.kron(left, np.asarray(op, dtype=complex)), right)


@dataclass(frozen=True)
class LocalField:
    """A Hermitian operator acting on a single site."""

    site: int
    operator: np.ndarray

    def __post_init__(self):
        if self.site < 0:
            raise ValueError("site index must be non-negative")
        object.__setattr__(self, "operator", check_hermitian(self.operator))


@dataclass(frozen=True)
class CompositeHamiltonian:
    """External (sum of local fields) plus fixed interaction part.

    ``matrix`` is the dense total; ``external`` and ``interaction`` keep
    the split so protocols can swap fields while the interaction stays
    untouched.
    """

    n_sites: int
    fields: tuple[LocalField, ...]
    external: np.ndarray
    interaction: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def compose(local_fields, interaction=None, n_sites=None) -> CompositeHamiltonian:
    """Assemble ``sum_j H_ext^(j) + H_int`` from per-site fields.

    ``interaction`` is a dense operator on the full space (or ``None``
    for non-interacting spins).  ``n_sites`` may be omitted when it is
    implied by the field list or the interaction dimension.
    """
    fields = tuple(local_fields)
    if n_sites is None:
        if interaction is not None:
            dim = np.asarray(interaction).shape[0]
            n_sites = int(round(np.log2(dim)))
            if 1 << n_sites != dim:
                raise ValueError("interaction dimension is not a power of two")
        elif fields:
            n_sites = max(f.site for f in fields) + 1
        else:
            raise ValueError("cannot infer chain length from empty input")
    dim = 1 << n_sites
    external = np.zeros((dim, dim), dtype=complex)
    for f in fields:
        if f.site >= n_sites:
            raise ValueError(f"field on site {f.site} outside chain of {n_sites}")
        external += embed_site_operator(f.operator, f.site, n_sites)
    if interaction is None:
        interaction = np.zeros((dim, dim), dtype=complex)
    else:
        interaction = check_hermitian(interaction)
        if interaction.shape[0] != dim:
            raise ValueError("interaction dimension does not match chain length")
    return CompositeHamiltonian(
        n_sites=n_sites,
        fields=fields,
        external=external,
        interaction=interaction,
        matrix=external + interaction,
    )


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


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Classical Ising chain stored as a ``2**n`` energy table."""

    n_sites: int
    coupling: float
    field: float
    energies: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.energies) != 1 << self.n_sites:
            raise ValueError("energy table length must be 2**n_sites")
        if not np.all(np.isfinite(self.energies)):
            raise ValueError("energy table has non-finite entries")


def ising_diagonal(params: IsingParams) -> DiagonalHamiltonian:
    """Energy table of the finite periodic chain (bit set = spin down)."""
    energies = kernels.ising_energies(params.n_sites, params.coupling, params.field)
    return DiagonalHamiltonian(
        n_sites=params.n_sites,
        coupling=params.coupling,
        field=params.field,
        energies=energies,
    )


def ising_composite(params: IsingParams) -> CompositeHamiltonian:
    """Dense chain Hamiltonian: sigma_z fields plus the diagonal ZZ ring."""
    n = params.n_sites
    fields = [LocalField(j, -params.field * SIGMA_Z) for j in range(n)]
    interaction = np.diag(kernels.ising_energies(n, params.coupling, 0.0)).astype(complex)
    return compose(fields, interaction, n_sites=n)
