"""Work-extraction engine: stepwise protocols, cycles, and efficiency bounds.

A protocol is a sequence of unitaries, quenches (instantaneous field
changes), and idealized thermal contacts that reset the medium to the
bath's Gibbs state at the current Hamiltonian.  Work is positive when
extracted, heat is positive when absorbed by the medium; in those
conventions every closed steady cycle satisfies W = Q_hot + Q_cold.

Hamiltonians may be energy tables (``DiagonalHamiltonian``) or dense
operators (matrices, ``CompositeHamiltonian``); see
:func:`thermo.as_operator`.  Local fields commute with the Ising
coupling, so Ising cycles and bounds run on tables in O(2^N) per step.
:func:`run_cycle` validates every operator and unitary of a protocol
once, before it iterates; :func:`apply_step` validates its own
arguments on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels, thermo
from .hamiltonians import CompositeHamiltonian, DiagonalHamiltonian
from .thermo import DenseOperator, DensityState, EnergyTable, as_operator, gibbs, \
    min_relative_entropy, relative_entropy, trace_distance, von_neumann_entropy

CYCLE_CLOSURE_TOL = 1e-10
STEADY_STATE_TOL = 1e-10
MAX_CYCLE_PASSES = 100


class UndefinedResultError(ValueError):
    """A requested quantity has no defined value for these inputs."""


@dataclass(frozen=True)
class Betas:
    """Hot and cold inverse temperatures, ``0 < beta_h < beta_c``."""

    beta_h: float
    beta_c: float

    def __post_init__(self):
        if not (0 < self.beta_h < self.beta_c) or not np.isfinite(self.beta_c):
            raise ValueError("need 0 < beta_h < beta_c (hot bath is hotter)")

    @property
    def t_h(self) -> float:
        return 1.0 / self.beta_h

    @property
    def t_c(self) -> float:
        return 1.0 / self.beta_c

    @property
    def carnot(self) -> float:
        return 1.0 - self.t_c / self.t_h


@dataclass(frozen=True)
class Unitary:
    """Apply ``matrix`` to the state while the field moves to ``hamiltonian_after``."""

    matrix: np.ndarray
    hamiltonian_after: object


@dataclass(frozen=True)
class Quench:
    """Instantaneous Hamiltonian change, identity action on the state."""

    hamiltonian_after: object


@dataclass(frozen=True)
class ThermalContact:
    """Full equilibration with one bath at the current Hamiltonian."""

    bath: str  # "hot" or "cold"

    def __post_init__(self):
        if self.bath not in ("hot", "cold"):
            raise ValueError("bath must be 'hot' or 'cold'")


@dataclass(frozen=True)
class StepRecord:
    kind: str
    work: float
    heat: float
    bath: str | None = None


@dataclass(frozen=True)
class StepResult:
    state: DensityState
    hamiltonian: EnergyTable | DenseOperator
    record: StepRecord


@dataclass(frozen=True)
class CycleReport:
    total_work: float
    heat_hot: float
    heat_cold: float
    efficiency: float
    steady: bool
    n_passes: int
    energy_closure: float
    steps: tuple[StepRecord, ...] = field(repr=False, default=())


def _prepare(step):
    """Validate a protocol step; its operators come back in accepted form."""
    if isinstance(step, Unitary):
        u = np.asarray(step.matrix, dtype=complex)
        square = u.ndim == 2 and u.shape[0] == u.shape[1]
        if not square or np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) \
                > thermo.BASIS_UNITARY_TOL:
            raise ValueError("step matrix is not unitary")
        return Unitary(u, as_operator(step.hamiltonian_after))
    if isinstance(step, Quench):
        return Quench(as_operator(step.hamiltonian_after))
    if isinstance(step, ThermalContact):
        return step
    raise TypeError(f"unknown step type {type(step).__name__}")


def _advance(state: DensityState, h, step, betas: Betas) -> StepResult:
    """One step of an already prepared protocol; validates nothing."""
    if isinstance(step, Unitary):
        basis = state.basis if state.basis is not None else np.eye(state.dim, dtype=complex)
        new_state = DensityState(populations=state.populations, basis=step.matrix @ basis)
        work = state.energy(h) - new_state.energy(step.hamiltonian_after)
        return StepResult(new_state, step.hamiltonian_after, StepRecord("unitary", work, 0.0))
    if isinstance(step, Quench):
        h_next = step.hamiltonian_after
        work = state.energy(h) - state.energy(h_next)
        return StepResult(state, h_next, StepRecord("quench", work, 0.0))
    beta = betas.beta_h if step.bath == "hot" else betas.beta_c
    new_state = gibbs(h, beta)
    heat = new_state.energy(h) - state.energy(h)
    return StepResult(new_state, h, StepRecord("contact", 0.0, heat, step.bath))


def apply_step(state: DensityState, hamiltonian, step, betas: Betas) -> StepResult:
    """Advance one protocol step, accounting work and heat."""
    return _advance(state, as_operator(hamiltonian), _prepare(step), betas)


def _arrays(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two operator forms as arrays of one kind: tables if both are tables."""
    if isinstance(a, EnergyTable) and isinstance(b, EnergyTable):
        return a.energies, b.energies
    return a.matrix, b.matrix


def _check_protocol(hamiltonian0, steps) -> None:
    """Every operator acts on one space and the protocol ends where it began."""
    h = hamiltonian0
    for step in steps:
        if isinstance(step, (Unitary, Quench)):
            h = step.hamiltonian_after
            if h.dim != hamiltonian0.dim or (isinstance(step, Unitary)
                                             and step.matrix.shape[0] != h.dim):
                raise ValueError("protocol operators act on different spaces")
    first, last = _arrays(hamiltonian0, h)
    scale = max(1.0, float(np.max(np.abs(first))))
    if np.max(np.abs(last - first)) > CYCLE_CLOSURE_TOL * scale:
        raise ValueError("protocol does not return to the initial Hamiltonian")


def run_cycle(hamiltonian0, steps, betas: Betas, *, initial_state: DensityState | None = None,
              steady_tol: float = STEADY_STATE_TOL,
              max_passes: int = MAX_CYCLE_PASSES) -> CycleReport:
    """Iterate a cyclic protocol to its steady cycle and account the books.

    The protocol must restore the initial Hamiltonian and touch the hot
    bath at least once, otherwise the cycle efficiency is undefined.
    """
    steps = [_prepare(s) for s in steps]
    h0 = as_operator(hamiltonian0)
    _check_protocol(h0, steps)
    if not any(isinstance(s, ThermalContact) and s.bath == "hot" for s in steps):
        raise UndefinedResultError("cycle never touches the hot bath")

    state = initial_state if initial_state is not None else gibbs(h0, betas.beta_c)
    steady = False
    n_passes = 0
    records: list[StepRecord] = []
    work = heat_hot = heat_cold = 0.0
    for _ in range(max_passes):
        n_passes += 1
        start = state
        h = h0
        records = []
        work = heat_hot = heat_cold = 0.0
        for step in steps:
            result = _advance(state, h, step, betas)
            state, h = result.state, result.hamiltonian
            records.append(result.record)
            work += result.record.work
            if result.record.bath == "hot":
                heat_hot += result.record.heat
            elif result.record.bath == "cold":
                heat_cold += result.record.heat
        if trace_distance(start, state) < steady_tol:
            steady = True
            break
    efficiency = work / abs(heat_hot) if heat_hot != 0.0 else math.nan
    closure = abs(work - (heat_hot + heat_cold))
    return CycleReport(total_work=work, heat_hot=heat_hot, heat_cold=heat_cold,
                       efficiency=efficiency, steady=steady, n_passes=n_passes,
                       energy_closure=closure, steps=tuple(records))


def isothermal_staircase(h_from, h_to, bath: str, n_steps: int) -> list:
    """Discretized isotherm: ``n_steps`` quench-contact pairs ending at ``h_to``."""
    if n_steps < 1:
        raise ValueError("need at least one staircase step")
    a, b = _arrays(as_operator(h_from), as_operator(h_to))
    form = EnergyTable if a.ndim == 1 else DenseOperator
    steps: list = []
    for k in range(1, n_steps + 1):
        steps.append(Quench(form(a + (k / n_steps) * (b - a))))
        steps.append(ThermalContact(bath))
    return steps


def carnot_like_cycle(h_d, h_a, h_b, h_c, betas: Betas, n_steps: int) -> list:
    """Quench D->A, hot staircase A->B, quench B->C, cold staircase C->D."""
    return ([Quench(as_operator(h_a))]
            + isothermal_staircase(h_a, h_b, "hot", n_steps)
            + [Quench(as_operator(h_c))]
            + isothermal_staircase(h_c, h_d, "cold", n_steps))


@dataclass(frozen=True)
class WorkHeatBound:
    work_max: float
    heat_min: float


def carnot_like_work_bound(h_d, h_a, h_b, betas: Betas, rotation="identity") -> WorkHeatBound:
    """Largest work and smallest hot heat on the cold-corner to hot-corner leg.

    The leg starts at the cold Gibbs state of ``h_d``, applies the
    adiabatic ``rotation`` while moving to ``h_a``, and ends hot-thermal
    at ``h_b``.  ``rotation`` is a unitary class name or explicit matrix.
    """
    omega_d = gibbs(h_d, betas.beta_c)
    omega_b = gibbs(h_b, betas.beta_h)
    omega_a = gibbs(h_a, betas.beta_h)
    d_db = relative_entropy(omega_d, omega_b)
    d_da = min_relative_entropy(omega_d, omega_a, rotation)
    delta_s = von_neumann_entropy(omega_b) - von_neumann_entropy(omega_d)
    return WorkHeatBound(work_max=betas.t_h * (d_db - d_da),
                         heat_min=betas.t_h * (delta_s - d_da))


@dataclass(frozen=True)
class BoundInputs:
    """Corner Hamiltonians of a Carnot-like cycle plus allowed rotations.

    ``h_b`` is the Hamiltonian at the last hot contact, ``h_c`` right
    after the following adiabat, ``h_d`` at the last cold contact, and
    ``h_a`` right after the adiabat closing the cycle.  All four must
    share the same interaction part: the interaction matrix of a
    ``CompositeHamiltonian``, the coupling and chain length of a
    ``DiagonalHamiltonian`` (its field-free energies on the diagonal when
    mixed with composites); ``u``/``v`` name the unitary class
    available on each adiabat ("full", "commuting", "identity") or give
    the rotation explicitly.
    """

    h_a: object
    h_b: object
    h_c: object
    h_d: object
    betas: Betas
    u: object = "identity"
    v: object = "identity"

    def __post_init__(self):
        corners = (self.h_a, self.h_b, self.h_c, self.h_d)
        if all(isinstance(h, DiagonalHamiltonian) for h in corners):
            shared = len({(h.n_sites, h.coupling) for h in corners}) == 1
        elif all(isinstance(h, (CompositeHamiltonian, DiagonalHamiltonian))
                 for h in corners):
            # a table's interaction is its field-free energy table on the diagonal
            mats = [h.interaction if isinstance(h, CompositeHamiltonian)
                    else np.diag(kernels.ising_energies(h.n_sites, h.coupling, 0.0))
                    for h in corners]
            shared = all(m.shape == mats[0].shape
                         and np.max(np.abs(m - mats[0])) <= 1e-12 for m in mats[1:])
        else:
            # a raw matrix does not split off its interaction
            shared = True
        if not shared:
            raise ValueError("corner Hamiltonians do not share the interaction")


class BoundTerms(NamedTuple):
    delta_s: float
    d_u: float
    d_v: float

    def efficiency(self, betas: Betas) -> float:
        """Efficiency bound ``1 - (T_c/T_h) (dS + D_U) / (dS - D_V)``.

        Returns ``-inf`` when the hot-side penalty is infinite (the
        protocol family cannot run a cycle at all) and raises
        ``UndefinedResultError`` when the denominator ``dS - D_V`` is
        not positive.
        """
        if math.isinf(self.d_v) or self.delta_s - self.d_v <= 0:
            raise UndefinedResultError("bound undefined: dS - D_V must be positive")
        if math.isinf(self.d_u):
            return -math.inf
        return 1.0 - (betas.t_c / betas.t_h) * (self.delta_s + self.d_u) \
            / (self.delta_s - self.d_v)


def bound_terms(inputs: BoundInputs) -> BoundTerms:
    """Entropy gain and the two corner dissipation penalties of the bound."""
    betas = inputs.betas
    omega_b = gibbs(inputs.h_b, betas.beta_h)
    omega_c = gibbs(inputs.h_c, betas.beta_c)
    omega_d = gibbs(inputs.h_d, betas.beta_c)
    omega_a = gibbs(inputs.h_a, betas.beta_h)
    delta_s = von_neumann_entropy(omega_b) - von_neumann_entropy(omega_d)
    d_u = min_relative_entropy(omega_b, omega_c, inputs.u)
    d_v = min_relative_entropy(omega_d, omega_a, inputs.v)
    return BoundTerms(delta_s, d_u, d_v)


def efficiency_bound(inputs: BoundInputs) -> float:
    """Upper bound on cycle efficiency from the corner dissipation penalties
    (see :meth:`BoundTerms.efficiency`)."""
    return bound_terms(inputs).efficiency(inputs.betas)
