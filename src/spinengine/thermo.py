"""Spectral thermodynamics: Gibbs states, entropies, relative entropies.

Energies are in units with k_B = hbar = 1 and entropies in nats.
States are (populations, eigenbasis) pairs; ``basis=None`` marks the
computational basis so large diagonal chains never materialize a dense
eigenvector matrix.

Every relative entropy, for each unitary class, is one sum over paired
populations (:func:`_divergence`).  A population is in the support iff
it is positive.  The divergence is ``math.inf``, never an exception,
iff more than ``LEAKED_MASS_TOL`` of the state's mass sits on zero
reference populations; otherwise that mass is dropped.  The eigenvalues
of a raw density matrix within ``SUPPORT_TOL`` of zero are ``eigh``
roundoff and are set to zero when the matrix is decomposed.

Every Hamiltonian goes through :func:`as_operator` once, at the API
boundary, and comes out in one of two validated forms with the same
small interface (levels, Gibbs state, energy of a state):

* :class:`EnergyTable`, the energies of an operator that is diagonal
  in the computational basis (``hamiltonians.ising_diagonal`` builds
  the Ising ring's).  Its Gibbs state keeps ``basis=None`` and its
  energies cost O(d), or O(d^2) against a rotated state;
* :class:`DenseOperator`, a Hermitian complex matrix (a raw matrix
  once :func:`check_hermitian` accepts it).  Its Gibbs state needs
  ``eigh`` and its energies cost O(d^3) against a rotated state.

Forms pass through :func:`as_operator` unchanged, so code that holds a
form (the engine's cycle loop) never validates it again.

:func:`gibbs_stack` and :func:`mean_energy` take a whole stack of tables
or matrices at once (the steps of an engine isotherm), under the checks
a :class:`DensityState` makes, and give each row the value the forms
give it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORT_TOL = 1e-14
LEAKED_MASS_TOL = 1e-12
POPULATION_SUM_TOL = 1e-12
BASIS_UNITARY_TOL = 1e-10
HERMITICITY_TOL = 1e-12


def check_hermitian(matrix) -> np.ndarray:
    """Validate a square, finite, Hermitian matrix and return it as complex."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"operator is not Hermitian within {HERMITICITY_TOL:g} (max-norm)")
    return np.asarray(m, dtype=complex)


def _is_unitary(u: np.ndarray) -> bool:
    """``U+ U = 1`` within ``BASIS_UNITARY_TOL`` (max-norm) for a square
    matrix, or for every matrix of a stack; false on a NaN entry."""
    # a NaN entry makes the max NaN, which fails the comparison
    return bool(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])))
                <= BASIS_UNITARY_TOL)


def check_unitary(matrix, name: str) -> np.ndarray:
    """Validate a square matrix with ``U+ U = 1`` within ``BASIS_UNITARY_TOL``
    (max-norm) and return it as complex."""
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not _is_unitary(u):
        raise ValueError(f"{name} is not unitary")
    return u


def _checked_populations(p: np.ndarray) -> np.ndarray:
    """Populations along the last axis (one state, or one per row of a
    stack), clipped at zero once the sign, NaN and sum rules hold."""
    # "not <=" so that a NaN population fails the check
    if not np.all(-POPULATION_SUM_TOL <= p):
        raise ValueError("population is NaN or negative beyond tolerance")
    if not np.all(np.abs(np.sum(p, axis=-1) - 1.0) <= POPULATION_SUM_TOL * max(1, p.shape[-1])):
        raise ValueError("populations do not sum to one")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class DensityState:
    """Mixed state as populations over an orthonormal basis.

    ``basis`` columns are the eigenvectors; ``None`` means the
    computational basis (the identity), used for diagonal chains.
    """

    populations: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.populations, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"populations must be one-dimensional, got shape {p.shape}")
        object.__setattr__(self, "populations", _checked_populations(p))
        if self.basis is not None:
            u = check_unitary(self.basis, "basis")
            if len(u) != len(p):
                raise ValueError(f"basis is {len(u)}x{len(u)} but there are "
                                 f"{len(p)} populations")
            object.__setattr__(self, "basis", u)

    @property
    def dim(self) -> int:
        return len(self.populations)

    def basis_matrix(self) -> np.ndarray:
        """The basis columns; the identity for the computational basis."""
        return self.basis if self.basis is not None else np.eye(self.dim, dtype=complex)

    def matrix(self) -> np.ndarray:
        if self.basis is None:
            return np.diag(self.populations).astype(complex)
        return (self.basis * self.populations) @ self.basis.conj().T

    def energy(self, hamiltonian) -> float:
        """Mean energy ``Tr(rho H)`` (see :meth:`EnergyTable.energy` and
        :meth:`DenseOperator.energy` for the cost)."""
        return as_operator(hamiltonian).energy(self)


def mean_energy(populations: np.ndarray, bases: np.ndarray | None, hamiltonians: np.ndarray):
    """``Tr(rho H)`` of one state against one operator, or of every pair
    along the leading axes of stacks, each pair summed as it is alone.

    Against a table the state's ``populations`` are its diagonal in the
    computational basis and ``bases`` is ``None``; against a matrix they
    are taken over the basis columns: ``sum_j p_j <b_j|H|b_j>``.
    """
    if bases is not None:
        hamiltonians = np.einsum("...ij,...ij->...j", bases.conj(), hamiltonians @ bases).real
    # vecdot sums through BLAS, as np.dot does; einsum's plain running sum
    # errs some ten times more at d = 2^16
    return np.vecdot(populations, hamiltonians)


def _boltzmann(levels: np.ndarray, beta: float) -> np.ndarray:
    """Normalized ``exp(-beta E)`` via exponentials shifted by the minimum,
    along the last axis (one spectrum, or one per row of a stack)."""
    weights = np.exp(-beta * (levels - np.min(levels, axis=-1, keepdims=True)))
    return weights / np.sum(weights, axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class EnergyTable:
    """A Hamiltonian diagonal in the computational basis, as its energies."""

    energies: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.energies)

    @property
    def matrix(self) -> np.ndarray:
        """The dense diagonal matrix, for pairing a table with a dense operator."""
        return np.diag(self.energies).astype(complex)

    def levels(self) -> np.ndarray:
        return self.energies

    def gibbs(self, beta: float) -> DensityState:
        return DensityState(populations=_boltzmann(self.energies, beta), basis=None)

    def energy(self, state: DensityState) -> float:
        """``p . E`` in the computational basis (O(d)), else ``E . |B|^2 p`` (O(d^2))."""
        diagonal = state.populations if state.basis is None \
            else np.abs(state.basis) ** 2 @ state.populations
        return float(mean_energy(diagonal, None, self.energies))


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A Hermitian complex matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def levels(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def gibbs(self, beta: float) -> DensityState:
        values, vectors = np.linalg.eigh(self.matrix)
        return DensityState(populations=_boltzmann(values, beta), basis=vectors)

    def energy(self, state: DensityState) -> float:
        """``sum_j p_j <b_j|H|b_j>``: O(d) in the computational basis, else
        one matrix product, O(d^3)."""
        if state.basis is None:
            return float(mean_energy(state.populations, None, np.diag(self.matrix).real))
        return float(mean_energy(state.populations, state.basis, self.matrix))


def gibbs_stack(hamiltonians: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Gibbs states of a stack of Hamiltonians at one ``beta``, under the
    checks :class:`DensityState` makes on each.

    Tables (m, d) give populations (m, d) and bases ``None`` (the
    computational basis); Hermitian matrices (m, d, d) give populations
    and eigenbases (m, d, d) from one stacked ``eigh``.
    """
    if hamiltonians.ndim == 2:
        return _checked_populations(_boltzmann(hamiltonians, beta)), None
    values, vectors = np.linalg.eigh(hamiltonians)
    if not _is_unitary(vectors):
        raise ValueError("basis is not unitary")
    return _checked_populations(_boltzmann(values, beta)), vectors


def as_operator(hamiltonian) -> EnergyTable | DenseOperator:
    """The accepted form of a Hamiltonian: any matrix becomes a
    :class:`DenseOperator` once :func:`check_hermitian` accepts it.  A form
    is returned unchanged: forms are trusted, so build them with this
    function or with the ``hamiltonians`` builders."""
    if isinstance(hamiltonian, (EnergyTable, DenseOperator)):
        return hamiltonian
    return DenseOperator(check_hermitian(hamiltonian))


def _as_state(state) -> DensityState:
    if isinstance(state, DensityState):
        return state
    vals, vecs = np.linalg.eigh(check_hermitian(state))
    vals = np.where(np.abs(vals) > SUPPORT_TOL, vals, 0.0)
    return DensityState(populations=vals[::-1], basis=vecs[:, ::-1])


def _as_states(rho, sigma) -> tuple[DensityState, DensityState]:
    r, s = _as_state(rho), _as_state(sigma)
    if r.dim != s.dim:
        raise ValueError("states act on different spaces")
    return r, s


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError("inverse temperature must be nonnegative and finite")
    return beta


def log_partition(hamiltonian, beta: float) -> float:
    """log-sum-exp stable ``log Tr exp(-beta H)``."""
    beta = _check_beta(beta)
    energies = as_operator(hamiltonian).levels()
    emin = float(np.min(energies))
    return float(np.log(np.sum(np.exp(-beta * (energies - emin)))) - beta * emin)


def gibbs(hamiltonian, beta: float) -> DensityState:
    """Thermal state ``exp(-beta H)/Z`` via shifted exponentials."""
    return as_operator(hamiltonian).gibbs(_check_beta(beta))


def von_neumann_entropy(state) -> float:
    """``-sum p log p`` in nats over the positive populations."""
    p = _as_state(state).populations
    p = p[p > 0]
    return max(float(-np.sum(p * np.log(p))), 0.0)


def _divergence(p: np.ndarray, q: np.ndarray, overlap: np.ndarray | None = None) -> float:
    """``D(rho || sigma)`` from the populations ``p`` of rho and ``q`` of sigma.

    Without ``overlap`` the populations pair index by index (one basis, or
    two sorted spectra): ``sum p (log p - log q)``, exactly 0 where they
    are equal.  Across two bases, ``overlap[i, j] = |<sigma_i|rho_j>|^2``
    and the two sums ``sum p log p - sum (overlap p) log q`` are taken.
    See the module docstring for the support rule.
    """
    mass = p if overlap is None else overlap @ p
    live = q > 0
    if float(np.sum(mass[~live])) > LEAKED_MASS_TOL:
        return math.inf
    if overlap is None:
        live &= p > 0
        return max(float(np.sum(p[live] * (np.log(p[live]) - np.log(q[live])))), 0.0)
    own = p[p > 0]
    return max(float(np.sum(own * np.log(own)) - np.dot(mass[live], np.log(q[live]))), 0.0)


def relative_entropy(rho, sigma) -> float:
    """``D(rho || sigma)`` in nats, ``math.inf`` outside the reference support."""
    r, s = _as_states(rho, sigma)
    if r.basis is None and s.basis is None:
        return _divergence(r.populations, s.populations)
    overlap = np.abs(s.basis_matrix().conj().T @ r.basis_matrix()) ** 2
    return _divergence(r.populations, s.populations, overlap)


def relative_entropy_down(rho, sigma) -> float:
    """Minimum of ``D(U rho U+ || sigma)`` over all unitaries.

    Achieved by pairing both spectra sorted non-increasingly, i.e. the
    largest population with the reference's largest population.
    """
    r, s = _as_states(rho, sigma)
    return _divergence(np.sort(r.populations)[::-1], np.sort(s.populations)[::-1])


def min_relative_entropy(rho, sigma, unitary="identity") -> float:
    """Dissipation term of the efficiency bound for a control class.

    ``unitary`` is ``"full"`` (arbitrary unitaries allowed, sorted-spectra
    pairing), ``"commuting"`` or ``"identity"`` (no nontrivial rotation
    available), or an explicit unitary matrix to apply to ``rho``.
    """
    if isinstance(unitary, str):
        if unitary == "full":
            return relative_entropy_down(rho, sigma)
        if unitary in ("commuting", "identity"):
            return relative_entropy(rho, sigma)
        raise ValueError(f"unknown unitary class {unitary!r}")
    u = check_unitary(unitary, "explicit rotation")
    r = _as_state(rho)
    return relative_entropy(DensityState(r.populations, u @ r.basis_matrix()), sigma)


def trace_distance(rho, sigma) -> float:
    r, s = _as_state(rho), _as_state(sigma)
    if r.basis is None and s.basis is None:
        return 0.5 * float(np.sum(np.abs(r.populations - s.populations)))
    diff = r.matrix() - s.matrix()
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
