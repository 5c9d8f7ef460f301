"""Work-extraction engine: stepwise protocols, cycles, and efficiency bounds.

A protocol is a sequence of unitaries, quenches (instantaneous field
changes), idealized thermal contacts that reset the medium to the
bath's Gibbs state at the current Hamiltonian, and isotherms (a
staircase of quench/contact pairs with one bath).  Work is positive when
extracted, heat is positive when absorbed by the medium; in those
conventions every closed steady cycle satisfies W = Q_hot + Q_cold.

Hamiltonians may be energy tables (``thermo.EnergyTable``, as
``hamiltonians.ising_diagonal`` builds them) or dense operators
(matrices, ``thermo.DenseOperator``); see :func:`thermo.as_operator`.
Local fields commute with the Ising coupling, so Ising cycles and
bounds run on tables: O(2^N) time per isotherm step.  An isotherm
evaluates its steps as arrays, in blocks of about ``_BLOCK_ENTRIES``
matrix entries, so its memory does not grow with its number of steps.
:func:`run_cycle` validates every operator and unitary of a protocol
once, before it iterates; :func:`apply_step` validates its own
arguments on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonians import embed_site_operator
from .thermo import DenseOperator, DensityState, EnergyTable, as_operator, check_unitary, \
    gibbs, gibbs_stack, mean_energy, min_relative_entropy, trace_distance, \
    von_neumann_entropy

CYCLE_CLOSURE_TOL = 1e-10
ON_SITE_TOL = 1e-10
STEADY_STATE_TOL = 1e-10
# matrix entries (rows x d for tables, rows x d^2 for matrices) per block of
# isotherm steps: large enough to amortize numpy's per-call cost, small
# enough to keep each block's arrays within a few MB
_BLOCK_ENTRIES = 1 << 15


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


def _check_bath(bath: str) -> None:
    if bath not in ("hot", "cold"):
        raise ValueError("bath must be 'hot' or 'cold'")


@dataclass(frozen=True)
class ThermalContact:
    """Full equilibration with one bath at the current Hamiltonian."""

    bath: str  # "hot" or "cold"

    def __post_init__(self):
        _check_bath(self.bath)


@dataclass(frozen=True)
class Isotherm:
    """``n_steps`` quench/contact pairs with one bath, from the current
    Hamiltonian ``a`` to ``b = hamiltonian_after``.

    Step k quenches to ``a + (k/n_steps)(b - a)`` and thermalizes there,
    so the isotherm ends on that operator at k = n_steps, which is ``b``
    up to rounding.  The steps run on tables if ``a`` and ``b`` are both
    tables, else on matrices.
    """

    hamiltonian_after: object
    bath: str  # "hot" or "cold"
    n_steps: int

    def __post_init__(self):
        _check_bath(self.bath)
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError("an isotherm needs a whole number of steps, at least one")


class StepResult(NamedTuple):
    """The state and Hamiltonian after a step, with its work and heat; ``bath``
    names the bath of a thermal contact and is ``None`` otherwise."""

    state: DensityState
    hamiltonian: EnergyTable | DenseOperator
    work: float
    heat: float
    bath: str | None = None


@dataclass(frozen=True)
class CycleReport:
    total_work: float
    heat_hot: float
    heat_cold: float
    n_passes: int
    energy_closure: float

    @property
    def efficiency(self) -> float:
        """``W / |Q_hot|``; ``UndefinedResultError`` when the steady cycle
        exchanges no heat with the hot bath."""
        if self.heat_hot == 0.0:
            raise UndefinedResultError("cycle efficiency undefined: no heat "
                                       "exchanged with the hot bath")
        return self.total_work / abs(self.heat_hot)


def _prepare(step):
    """Validate a protocol step; its operators come back in accepted form."""
    if isinstance(step, Unitary):
        return Unitary(check_unitary(step.matrix, "step matrix"),
                       as_operator(step.hamiltonian_after))
    if isinstance(step, Quench):
        return Quench(as_operator(step.hamiltonian_after))
    if isinstance(step, Isotherm):
        return Isotherm(as_operator(step.hamiltonian_after), step.bath, step.n_steps)
    if isinstance(step, ThermalContact):
        return step
    raise TypeError(f"unknown step type {type(step).__name__}")


def _advance(state: DensityState, h, step, betas: Betas) -> StepResult:
    """One step of an already prepared protocol; validates nothing."""
    if isinstance(step, Unitary):
        new_state = DensityState(populations=state.populations,
                                 basis=step.matrix @ state.basis_matrix())
        work = state.energy(h) - new_state.energy(step.hamiltonian_after)
        return StepResult(new_state, step.hamiltonian_after, work, 0.0)
    if isinstance(step, Quench):
        h_next = step.hamiltonian_after
        work = state.energy(h) - state.energy(h_next)
        return StepResult(state, h_next, work, 0.0)
    beta = betas.beta_h if step.bath == "hot" else betas.beta_c
    if isinstance(step, Isotherm):
        return _isotherm(state, h, step, beta)
    new_state = gibbs(h, beta)
    heat = new_state.energy(h) - state.energy(h)
    return StepResult(new_state, h, 0.0, heat, step.bath)


def _isotherm(state: DensityState, h, step: Isotherm, beta: float) -> StepResult:
    """Every step of an isotherm, as arrays over blocks of steps.

    Step k moves the state rho_{k-1} from H_{k-1} to H_k (work
    E(rho_{k-1}, H_{k-1}) - E(rho_{k-1}, H_k)) and replaces it by the
    Gibbs state rho_k of H_k (heat E(rho_k, H_k) - E(rho_{k-1}, H_k)),
    with rho_0 = ``state`` and H_0 = ``h``.  Each block is checked as one
    :class:`thermo.DensityState` per step would be.
    """
    a, b = _arrays(h, step.hamiltonian_after)
    n = step.n_steps
    rows = max(1, _BLOCK_ENTRIES // a.size)
    # rho_{k-1} as mean_energy takes it against this isotherm's form, and
    # its energy at H_{k-1}
    own_before = state.energy(h)
    if a.ndim == 1:
        pops_before, basis_before = state.populations, None
        if state.basis is not None:
            pops_before = np.abs(state.basis) ** 2 @ state.populations
    else:
        pops_before, basis_before = state.populations, state.basis_matrix()
    work = heat = 0.0
    for first in range(1, n + 1, rows):
        ks = np.arange(first, min(first + rows, n + 1))
        hs = a + (ks / n).reshape((-1,) + (1,) * a.ndim) * (b - a)
        pops, bases = gibbs_stack(hs, beta)
        own = mean_energy(pops, bases, hs)
        cross = mean_energy(np.concatenate([pops_before[None], pops[:-1]]),
                            None if bases is None
                            else np.concatenate([basis_before[None], bases[:-1]]), hs)
        work += float(np.sum(np.concatenate([[own_before], own[:-1]]) - cross))
        heat += float(np.sum(own - cross))
        own_before, pops_before = own[-1], pops[-1]
        basis_before = None if bases is None else bases[-1]
    # copies, so that the result holds no view of the last block
    form = EnergyTable if a.ndim == 1 else DenseOperator
    end = DensityState(pops_before, None if basis_before is None else basis_before.copy())
    return StepResult(end, form(hs[-1].copy()), work, heat, step.bath)


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
        if isinstance(step, (Unitary, Quench, Isotherm)):
            h = step.hamiltonian_after
            if h.dim != hamiltonian0.dim or (isinstance(step, Unitary)
                                             and step.matrix.shape[0] != h.dim):
                raise ValueError("protocol operators act on different spaces")
    first, last = _arrays(hamiltonian0, h)
    scale = max(1.0, float(np.max(np.abs(first))))
    if np.max(np.abs(last - first)) > CYCLE_CLOSURE_TOL * scale:
        raise ValueError("protocol does not return to the initial Hamiltonian")


def run_cycle(hamiltonian0, steps, betas: Betas) -> CycleReport:
    """Run a cyclic protocol from the cold Gibbs state to its steady cycle
    and account the books.

    The protocol must restore the initial Hamiltonian and touch the hot
    bath at least once, otherwise the cycle efficiency is undefined.
    A thermal contact discards the incoming state, so every pass ends in
    the state the first one ends in: the second pass, if the first does
    not already return to its start, is the steady cycle.
    """
    steps = [_prepare(s) for s in steps]
    h0 = as_operator(hamiltonian0)
    _check_protocol(h0, steps)
    if not any(isinstance(s, (ThermalContact, Isotherm)) and s.bath == "hot" for s in steps):
        raise UndefinedResultError("cycle never touches the hot bath")

    state = gibbs(h0, betas.beta_c)
    for n_passes in (1, 2):
        start = state
        h = h0
        work = heat_hot = heat_cold = 0.0
        for step in steps:
            result = _advance(state, h, step, betas)
            state, h = result.state, result.hamiltonian
            work += result.work
            if result.bath == "hot":
                heat_hot += result.heat
            elif result.bath == "cold":
                heat_cold += result.heat
        if trace_distance(start, state) < STEADY_STATE_TOL:
            break
    closure = abs(work - (heat_hot + heat_cold))
    return CycleReport(total_work=work, heat_hot=heat_hot, heat_cold=heat_cold,
                       n_passes=n_passes, energy_closure=closure)


def carnot_like_cycle(h_d, h_a, h_b, h_c, betas: Betas, n_steps: int) -> list:
    """Quench D->A, hot isotherm A->B, quench B->C, cold isotherm C->D,
    each isotherm in ``n_steps`` steps."""
    return [Quench(as_operator(h_a)), Isotherm(as_operator(h_b), "hot", n_steps),
            Quench(as_operator(h_c)), Isotherm(as_operator(h_d), "cold", n_steps)]


def _off_site(diff: np.ndarray) -> float:
    """Max-norm of what is left of a Hamiltonian difference, as a table or
    a matrix, once its on-site part is removed: 0 iff it is a sum of
    one-site terms.

    A table is on-site iff it is affine in the configuration bits: the
    fit takes the all-up entry and the n single-flip slopes and spreads
    them over all 2^n entries by doubling, O(d).  A matrix loses its
    identity component and, on each site, the traceless part of its
    one-site partial trace.  A dimension that is not a power of two
    counts as one site, so everything is on-site there.
    """
    d = len(diff)
    n = d.bit_length() - 1
    if d != 1 << n:
        return 0.0
    if diff.ndim == 1:
        fit = diff[:1]
        for j in range(n):
            fit = np.concatenate([fit, fit + (diff[1 << j] - diff[0])])
        return float(np.max(np.abs(diff - fit)))
    mean = np.trace(diff) / d
    rest = diff - mean * np.eye(d)
    for j in range(n):
        split = diff.reshape(1 << (n - 1 - j), 2, 1 << j, 1 << (n - 1 - j), 2, 1 << j)
        reduced = np.einsum("iajibj->ab", split) / (d >> 1) - mean * np.eye(2)
        rest = rest - embed_site_operator(reduced, j, n)
    return float(np.max(np.abs(rest)))


@dataclass(frozen=True)
class BoundInputs:
    """Corner Hamiltonians of a Carnot-like cycle plus allowed rotations.

    ``h_b`` is the Hamiltonian at the last hot contact, ``h_c`` right
    after the following adiabat, ``h_d`` at the last cold contact, and
    ``h_a`` right after the adiabat closing the cycle; ``u``/``v`` name
    the unitary class available on each adiabat ("full", "commuting",
    "identity") or give the rotation explicitly.

    The corners obey the paper's operation set: each differs from
    ``h_d`` by on-site terms only, so the interaction stays fixed.  Two
    tables differ on-site iff their difference is affine in the
    configuration bits; any other pair is compared as matrices, whose
    difference must vanish once its one-site partial traces are removed
    (within ``ON_SITE_TOL`` times the largest entry, at least 1).  Corners
    on different spaces are rejected.  The corners are stored in their
    :func:`thermo.as_operator` form.
    """

    h_a: object
    h_b: object
    h_c: object
    h_d: object
    betas: Betas
    u: object = "identity"
    v: object = "identity"

    def __post_init__(self):
        for name in ("h_a", "h_b", "h_c", "h_d"):
            object.__setattr__(self, name, as_operator(getattr(self, name)))
        for h in (self.h_a, self.h_b, self.h_c):
            if h.dim != self.h_d.dim:
                raise ValueError("corner Hamiltonians act on different spaces")
            base, other = _arrays(self.h_d, h)
            scale = max(1.0, float(np.max(np.abs(base))), float(np.max(np.abs(other))))
            if not _off_site(other - base) <= ON_SITE_TOL * scale:
                raise ValueError("corner Hamiltonians differ by more than on-site terms")


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
