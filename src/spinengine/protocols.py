"""Carnot-like engine protocols on the Ising working medium.

Evaluates, in the thermodynamic limit and for finite chains, the work
density and efficiency of four-corner cycles (quench, hot isotherm,
quench, cold isotherm) whose corner fields are the only controls; the
coupling J is fixed by the medium.  The per-site ledger is

    w   = (T_h - T_c) * ds  -  T_h * d_DA  -  T_c * d_BC,
    q_h = T_h * (ds - d_DA),        eta = w / q_h,

where ``ds`` is the entropy-density gain along the hot isotherm and the
``d`` terms are relative-entropy densities of the states entering each
isotherm against the local Gibbs state there.  Two families:

* ``PAPER_PROTOCOL``: pure polarized corners A, D (infinite-field
  marker) and a shared field h_C = h_B, so the only knob is h_B.  Its
  work-optimal field is solved in closed form (:func:`_paper_field`).
* ``FREE_FIELDS``: additionally relaxes each matching field to minimize
  the corresponding penalty.  Its optimum is the paper optimum, at the
  same field (:func:`sweep_j`).

Everything evaluates through the reduced transfer-matrix parts rather
than total free energies; total-energy differences at strong coupling
cancel catastrophically (the surviving signal can sit 20 orders of
magnitude below the ground-state term).  A finite N-ring is the chain
plus the transfer-matrix correction of Z_N = lambda_+^N + lambda_-^N
(:func:`ising._ring`), at any N.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import ising
from .engine import Betas, UndefinedResultError
from .gridsearch import _PRUNE_RTOL, _nested_argmax, _refine
from .ising import _core

PAPER_PROTOCOL = "paper"
FREE_FIELDS = "free"

# most field grid points per coupling: 50x the strong-coupling grids in use
# (2e5 points), and 80 MB per grid array
_GRID_POINTS_MAX = 10_000_000


class ProtocolFields(NamedTuple):
    """Fields at the four cycle corners; ``math.inf`` marks a fully
    polarized (pure) corner, allowed at A and D."""

    h_a: float
    h_b: float
    h_c: float
    h_d: float


class SweepPoint(NamedTuple):
    j: float
    h_opt: float
    work_density: float
    efficiency: float
    mode: str


class ChainPoint(NamedTuple):
    """Finite-chain optimum under a minimum-field constraint."""

    j: float
    epsilon: float
    h_opt: float
    work_density: float
    efficiency: float


def _entropy_density(beta: float, j: float, h: float) -> float:
    if math.isinf(h):
        return 0.0
    return ising.entropy_density(beta, j, h)


def _ledger(j: float, fields: ProtocolFields, betas: Betas):
    """(w, q_h) per site.  The penalties are >= 0 or ``math.inf`` (pure
    reference against a mixed state), so an infinite one gives w = -inf
    by IEEE rules, and an infinite d_DA also q_h = -inf."""
    ds = _entropy_density(betas.beta_h, j, fields.h_b) \
        - _entropy_density(betas.beta_c, j, fields.h_d)
    d_da = ising.relative_entropy_density(
        betas.beta_c, betas.beta_h, j, fields.h_d, fields.h_a)
    d_bc = ising.relative_entropy_density(
        betas.beta_h, betas.beta_c, j, fields.h_b, fields.h_c)
    w = (betas.t_h - betas.t_c) * ds - betas.t_h * d_da - betas.t_c * d_bc
    return w, betas.t_h * (ds - d_da)


def work_density(j: float, fields: ProtocolFields, betas: Betas) -> float:
    """Extracted work per site of the four-corner cycle; ``-inf`` when a
    mismatch penalty is infinite (pure reference against a mixed state)."""
    return _ledger(j, fields, betas)[0]


def efficiency_thermo_limit(j: float, fields: ProtocolFields, betas: Betas) -> float:
    """Work over hot heat for the cycle; raises when no heat is drawn."""
    w, q_h = _ledger(j, fields, betas)
    if not q_h > 0.0:
        raise UndefinedResultError(
            "no positive heat intake on the hot isotherm; efficiency undefined")
    return w / q_h


def _grid_tops(js: np.ndarray, floors: np.ndarray, grid_step: float) -> np.ndarray:
    """The top of every row's field grid: 4*max(1, |J|) above the row's
    floor, or floor + 1 when that is not above it.

    A ``grid_step`` that is not positive and finite, or that would give
    some row more than ``_GRID_POINTS_MAX`` points, raises ``ValueError``
    before any grid exists.
    """
    if not 0.0 < grid_step < math.inf:
        raise ValueError(f"field grid step {grid_step!r} must be positive and finite")
    tops = 4.0 * np.maximum(1.0, np.abs(js))
    tops = np.where(tops <= floors, floors + 1.0, tops)
    points = np.max((tops - floors) / grid_step, initial=0.0)
    if not points < _GRID_POINTS_MAX:
        raise ValueError(f"field grid step {grid_step!r} makes {points:.3g} grid points for "
                         f"one coupling, above the cap of {_GRID_POINTS_MAX}; "
                         "raise the grid step")
    return tops


def _eta(w, s_h, beta_h: float):
    """Efficiency w / (T_h s_h) of the matched cycles, 0 where s_h <= 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(s_h > 0.0, w * beta_h / np.where(s_h > 0.0, s_h, 1.0), 0.0)


def _paper_work(j, h, betas: Betas):
    """Vectorized work density of the shared-field family h_C = h_B = h.

    ``j`` is a scalar or broadcasts against ``h``.  With matched pure
    corners the ledger collapses to the exact identity
    w = T_h*delta_h - T_c*delta_c on the reduced log-corrections, which
    stays fully accurate when both terms are ~1e-18.
    """
    j = np.asarray(j, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    bh, bc = betas.beta_h, betas.beta_c
    return ising._log_excess(bh * j, bh * np.abs(h)) / bh \
        - ising._log_excess(bc * j, bc * np.abs(h)) / bc


def _paper_field(js: np.ndarray, betas: Betas) -> np.ndarray:
    """Work-optimal field h >= 0 of :func:`_paper_work` at every coupling
    of ``js``, in closed form up to one Newton iteration for all couplings.

    The work has dw/dh = m_h - m_c, and on h > 0 the two magnetizations
    m = sinh b / sqrt(sinh^2 b + e^{-4a}) are equal iff

        g(h) = log sinh(beta_c h) - log sinh(beta_h h) + 2 (beta_c - beta_h) J = 0.

    g rises strictly in h (beta coth(beta h) rises with beta), from
    ln(beta_c/beta_h) + 2 (beta_c - beta_h) J at h -> 0 to infinity, and
    m_h > m_c where g < 0.  So h = 0 for J >= 0 and for
    -J <= 1/(2 beta_L), with beta_L = (beta_c - beta_h)/ln(beta_c/beta_h)
    the logarithmic mean; every other coupling has one root, where the
    work peaks, in [max(0, 2|J| - 1/beta_L), 2|J|].  g is taken as
    (beta_c - beta_h)(h - 2|J|) + log((1 - e^{-2 beta_c h})/(1 - e^{-2 beta_h h})),
    which does not cancel at strong coupling, and its slope

        g' = (beta_c - beta_h) + 2 beta_c/expm1(2 beta_c h) - 2 beta_h/expm1(2 beta_h h)

    rises from 0 to beta_c - beta_h: g is convex and g(2|J|) > 0, so
    Newton's iteration from 2|J| falls onto the root
    (:func:`ising._newton`).  With m = expm1(-2 beta h),
    2 beta/expm1(2 beta h) = -2 beta (1 + 1/m), which is 0, not inf*0,
    where 2 beta h overflows.  Raises ``ValueError`` where the root is not
    a float: 2|J| overflows.
    """
    bh, bc = betas.beta_h, betas.beta_c
    gap = bc - bh
    inv_log_mean = math.log1p(gap / bh) / gap
    with np.errstate(over="ignore"):
        jj = -2.0 * js
    live = jj > inv_log_mean
    hi = np.where(live, jj, 0.0)

    def step(rows, h):
        m_c, m_h = np.expm1(-2.0 * bc * h), np.expm1(-2.0 * bh * h)
        g = gap * (h - hi[rows]) + np.log(m_c / m_h)
        return g / (2.0 * bh / m_h - 2.0 * bc / m_c - gap)

    with np.errstate(over="ignore"):
        return ising._newton(step, hi, live)


def sweep_j(j_values: Sequence[float], betas: Betas,
            mode: str = PAPER_PROTOCOL) -> list[SweepPoint]:
    """Maximize the cycle work density over the corner field h_B >= 0 at
    every coupling in ``j_values``, and report the optimal field, the work
    density, and the efficiency there.

    The paper optimum is solved, not searched (:func:`_paper_field`); the
    work there comes from :func:`_paper_work` and the efficiency from one
    hot ``_core`` call for all couplings.  Free corner fields reach the
    same maximum at the same field (envelope theorem): with h_C relaxed
    to its minimizer h_C*, dw_free/dh_B = (h_C* - h_B) d<M>_h/dh, so the
    free work is stationary only where h_C* = h_B, which is the paper
    family's own stationarity condition m_c = m_h, and w_free >= w_paper
    at every field.  So ``FREE_FIELDS`` returns the paper optimum under
    its own ``mode``.
    """
    if mode not in (PAPER_PROTOCOL, FREE_FIELDS):
        raise ValueError(f"unknown protocol mode: {mode!r}")
    js = np.array(j_values, dtype=np.float64).reshape(-1)
    h_opt = _paper_field(js, betas)
    w_opt = _paper_work(js, h_opt, betas)
    a_h, b_h = betas.beta_h * js, betas.beta_h * h_opt
    eta_opt = _eta(w_opt, _core(a_h, b_h).entropy(a_h, b_h), betas.beta_h)
    return [SweepPoint(float(j), float(h), float(w), float(eta), mode)
            for j, h, w, eta in zip(js, h_opt, w_opt, eta_opt)]


def efficiency_at_max_work(j: float, betas: Betas, mode: str = PAPER_PROTOCOL) -> SweepPoint:
    """:func:`sweep_j` at a single coupling."""
    return sweep_j([j], betas, mode)[0]


# ---------------------------------------------------------------------------
# finite chains
# ---------------------------------------------------------------------------

def _ring_work(n: int, j, h, betas: Betas):
    """Work per site of the N-ring's matched cycle at the shared field h,
    elementwise over broadcast (j, h), and the hot entropy per site.

    One :func:`ising._ring` call serves both temperatures.  They share the
    ring's ground log-scale, which enters as the same energy at both, so
    the work is T_h*excess_h - T_c*excess_c of the reduced parts: the
    chain's :func:`_paper_work` plus the transfer-matrix correction.
    """
    beta = np.array([[betas.beta_h], [betas.beta_c]])
    excess, entropy = ising._ring(n, beta * j, beta * np.abs(h))
    return excess[0] / betas.beta_h - excess[1] / betas.beta_c, entropy[0]


def _chain_cell_bound(j, h, w, betas: Betas) -> np.ndarray:
    """Upper bound of the ring's work per site over each cell between
    consecutive fields h >= 0 along the last axis of ``h``, with ``w`` the
    work there and ``j`` the coupling of each row, certified for any cell
    width (Piyavskii-Shubert): dw/dh = (<M>_h - <M>_c)/N, and spin-flip
    symmetry puts <M> in [0, N] on h >= 0, so a cell of width H holds at
    most (w_a + w_b + H)/2.

    The antiferromagnetic rows it serves switch ground sectors at one
    field: with k <= N/2 down spins the lowest class has k isolated down
    spins, E_k = (|J| - h) N + k (2h - 4|J|), so every sector crosses at
    h = 2|J| at once.

    The bound is widened by ``_PRUNE_RTOL``*((T_h + T_c)*ln 2 + 4|J|), the
    scale at which w is rounded: each reduced term T*excess of w is at most
    T*ln 2 (:func:`_ring_work`), and the rounding of a = beta*J and
    b = beta*|h| moves T*delta by up to about 1e-16*(2|J| + |h|) at the
    switch field, where delta is largest.
    """
    bound = 0.5 * (w[:, :-1] + w[:, 1:] + (h[:, 1:] - h[:, :-1]))
    return bound + _PRUNE_RTOL * ((betas.t_h + betas.t_c) * math.log(2.0) + 4.0 * np.abs(j))


def chain_sweep(n: int, j_values: Sequence[float], betas: Betas,
                epsilons: Sequence[float] = (0.0,),
                grid_step: float = 1e-2) -> list[ChainPoint]:
    """Finite-chain analogue of :func:`sweep_j` for the shared-field
    family, with the corner fields constrained to h >= epsilon, at every
    (epsilon, J) pair of the N-ring (N >= 1); rows are epsilon-major.

    A ferromagnetic row (J >= 0) has its optimum at the floor epsilon:
    by Griffiths' second inequality <M> rises with beta at h >= 0, so the
    work per site, whose slope is (<M>_h - <M>_c)/N, never rises with h.
    An antiferromagnetic pair gets a field grid on [epsilon,
    4*max(1, |J|)] (:func:`_grid_tops`), and one nested scan
    (:func:`gridsearch._nested_argmax`) searches the grids of all such
    pairs in shared work calls, on the work per site alone
    (:func:`_ring_work` at each field's coupling), only in the cells that
    :func:`_chain_cell_bound` cannot rule out.  One golden-section
    refinement (:func:`gridsearch._refine`) then runs for all of them at
    once.  The work and the efficiency w / (T_h*s_h) (:func:`_eta`) of
    every row then come from one :func:`_ring_work` call at the optimal
    fields.
    """
    if n < 1:
        raise ValueError(f"chain length {n} must be at least 1")
    eps = np.array(epsilons, dtype=np.float64).reshape(-1)
    if np.any(eps < 0):
        raise ValueError("field floor must be nonnegative")
    js = np.array(j_values, dtype=np.float64).reshape(-1)
    eps_rows, j_rows = np.repeat(eps, len(js)), np.tile(js, len(eps))
    h_opt = eps_rows.copy()
    anti = np.flatnonzero(j_rows < 0)
    if len(anti):
        def work(rows, hs):
            return _ring_work(n, j_rows[anti[rows]], hs, betas)[0]

        floors = eps_rows[anti]
        scans = _nested_argmax(
            work, floors, _grid_tops(j_rows[anti], floors, grid_step), grid_step,
            lambda rows, h, w: _chain_cell_bound(j_rows[anti[rows]], h, w, betas))
        h_opt[anti] = _refine(work, scans)
    w, s_h = _ring_work(n, j_rows, h_opt, betas)
    eta = _eta(w, s_h, betas.beta_h)
    return [ChainPoint(float(j), float(floor), float(h), float(w), float(e))
            for j, floor, h, w, e in zip(j_rows, eps_rows, h_opt, w, eta)]


def chain_efficiency_at_max_work(n: int, j: float, betas: Betas,
                                 epsilon: float = 0.0,
                                 grid_step: float = 1e-2) -> ChainPoint:
    """:func:`chain_sweep` at a single coupling and field floor."""
    return chain_sweep(n, [j], betas, [epsilon], grid_step)[0]
