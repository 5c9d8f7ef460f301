"""Carnot-like engine protocols on the Ising working medium.

Evaluates, in the thermodynamic limit and for finite chains, the work
density and efficiency of four-corner cycles (quench, hot isotherm,
quench, cold isotherm) whose corner fields are the only controls; the
coupling J is fixed by the medium.  The per-site ledger is

    w   = (T_h - T_c) * ds  -  T_h * d_DA  -  T_c * d_BC,
    q_h = T_h * (ds - d_DA),        eta = w / q_h,

where ``ds`` is the entropy-density gain along the hot isotherm and the
``d`` terms are relative-entropy densities of the states entering each
isotherm against the local Gibbs state there.  Two searchable families:

* ``PAPER_PROTOCOL``: pure polarized corners A, D (infinite-field
  marker) and a shared field h_C = h_B, so the only knob is h_B.
* ``FREE_FIELDS``: additionally relaxes each matching field to minimize
  the corresponding penalty.

Everything evaluates through the reduced transfer-matrix parts rather
than total free energies; total-energy differences at strong coupling
cancel catastrophically (the surviving signal can sit 20 orders of
magnitude below the ground-state term).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import ising, kernels
from .engine import Betas, UndefinedResultError
from .gridsearch import _PRUNE_RTOL, _SCAN_BLOCK, _nested_argmax, _refine
from .ising import _core

PAPER_PROTOCOL = "paper"
FREE_FIELDS = "free"

_EXP_FLOOR = -700.0  # lowest Boltzmann exponent of a partition sum (see _weights)
# most field grid points per coupling: 50x the strong-coupling grids in use
# (2e5 points), and 80 MB per grid array
_GRID_POINTS_MAX = 10_000_000
# most fields times sectors in one finite-chain work call: 8192 fields at
# N = 24 (3.3 MB of weights) ran about 3 times slower per field than 5000
_SECTOR_TERMS = 1 << 17


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


def _peaked_cell_max(h, values, peak, peak_value) -> np.ndarray:
    """Maximum over each cell between consecutive fields along the last
    axis of ``h`` of a function that rises up to ``peak`` and falls after
    it, from its ``values`` at the fields and its ``peak_value`` at
    ``peak`` (both broadcast against the cells): the larger cell end, or
    the peak value when the cell contains the peak."""
    ends = np.maximum(values[..., :-1], values[..., 1:])
    return np.where((h[..., :-1] < peak) & (peak < h[..., 1:]), np.maximum(ends, peak_value), ends)


def _paper_cell_bound(j, h, w, betas: Betas) -> np.ndarray:
    """Upper bound of :func:`_paper_work` over each cell between
    consecutive fields h >= 0 along the last axis of ``h``, with ``w``
    the work there and ``j`` the coupling, broadcast against them (one
    per row of cells in :func:`gridsearch._nested_argmax`): the smaller
    of two bounds, each certified for any cell width.

    * Lipschitz (Piyavskii-Shubert): the branch switch at h = 2|J| does
      not depend on beta, so the ground terms of both temperatures cancel
      and dw/dh = m_h - m_c lies in [-1, 1]; a cell of width H then holds
      at most (w_a + w_b + H)/2.
    * Excess: w <= T_h*delta_h, since delta_c >= 0.  T_h*delta_h has slope
      m_h - rb (rb = 0 below the switch, 1 above it): it rises up to the
      switch for J < 0 and falls after it (on all of h >= 0 for J >= 0),
      so its cell maximum sits at a cell end, or at h = 2|J| when the cell
      contains it (:func:`_peaked_cell_max`).

    The bound is widened by ``_PRUNE_RTOL`` times the excess bound, the
    scale of the rounding in w = T_h*delta_h - T_c*delta_c.
    """
    bh = betas.beta_h
    switch = np.maximum(-2.0 * np.asarray(j, dtype=np.float64), 0.0)
    excess = _peaked_cell_max(h, ising._log_excess(bh * j, bh * h) / bh,
                              switch, ising._log_excess(bh * j, bh * switch) / bh)
    lipschitz = 0.5 * (w[..., :-1] + w[..., 1:] + (h[..., 1:] - h[..., :-1]))
    return np.minimum(lipschitz, excess) + _PRUNE_RTOL * excess


def _free_cell_bound(j, h, peak, betas: Betas) -> np.ndarray:
    """Upper bound of :func:`_free_work` over each cell between
    consecutive fields h >= 0 along the last axis of ``h``, with ``j`` the
    coupling and ``peak`` = ``ising.optimal_field(beta_h, J)``, broadcast
    against them (one per row of cells in
    :func:`gridsearch._nested_argmax`), certified for any cell width.

    w = (T_h - T_c)*s_h - T_c*D_min with D_min >= 0, so w <= (T_h -
    T_c)*s_h.  The hot entropy s_h rises up to the optimal field and falls
    after it, so its cell maximum sits at a cell end, or at the optimal
    field when the cell contains it (:func:`_peaked_cell_max`).  s_h is
    computed by the same expression as in :func:`_free_work`, so the bound
    lies above w at every grid point bit for bit; it is widened by
    ``_PRUNE_RTOL`` times its size, for the rounding of s_h between the
    grid points and at the peak.
    """
    def hot_entropy(h):
        a_h, b_h = betas.beta_h * j, betas.beta_h * np.abs(h)
        return (betas.t_h - betas.t_c) * _core(a_h, b_h).entropy(a_h, b_h)

    bound = _peaked_cell_max(h, hot_entropy(h), peak, hot_entropy(peak))
    return bound + _PRUNE_RTOL * np.abs(bound)


def _free_penalty_min(j, h_b, betas: Betas, core_s):
    """Minimal cold-entry penalty min over h_C >= 0 of D(hot B || cold C)
    per site, and the h_C that attains it, elementwise over ``h_b``
    (``j`` is a scalar or broadcasts against it), given ``core_s``, the
    hot ``_core`` at (beta_h*J, beta_h*|h_B|).

    The minimizer is the I-projection of the hot state onto the cold
    Gibbs family: the penalty is convex in h_C and stationary where the
    cold magnetization matches the hot one, m.  The chain's
    m = sinh b / sqrt(sinh^2 b + e^{-4a}) inverts in closed form,
    sinh(beta_c h_C) = m e^{-2 beta_c J} / sqrt((1 - m)(1 + m)), taken in
    logs with the exact complement ``one_minus_m``; where m rounds to 1
    the root is not finite and h_B takes its place.

    The exact candidates 0, h_B and (beta_h/beta_c)*h_B compete with the
    root, come first and win ties: where one of them is the exact
    minimizer (a structural zero such as the scaled field at J = 0, or
    an exponentially steep well) the rounded root leaves a small excess.
    All four go through one broadcast :func:`ising._relative_entropy`.
    """
    j = np.asarray(j, dtype=np.float64)
    h_b = np.asarray(h_b, dtype=np.float64)
    bh, bc = betas.beta_h, betas.beta_c
    m = core_s.rb + core_s.delta_b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_sinh = np.log(m) - 2.0 * bc * j \
            - 0.5 * (np.log(core_s.one_minus_m) + np.log1p(m))
        # asinh(e^L), in log form where e^L would overflow
        asinh = np.where(log_sinh > 0.0,
                         log_sinh + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * log_sinh))),
                         np.arcsinh(np.exp(log_sinh)))
    root = np.where(np.isfinite(asinh), asinh / bc, h_b)
    candidates = np.stack(np.broadcast_arrays(0.0, h_b, (bh / bc) * h_b, root))
    values = ising._relative_entropy(bh, bc, j, h_b, candidates, core_s)
    pick = np.argmin(values, axis=0)[None]
    return np.take_along_axis(values, pick, 0)[0], np.take_along_axis(candidates, pick, 0)[0]


def _free_work(j, h, betas: Betas):
    """Vectorized work density with h_B = h and each matching field
    relaxed."""
    j = np.asarray(j, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    a_h, b_h = betas.beta_h * j, betas.beta_h * np.abs(h)
    core_h = _core(a_h, b_h)
    d_min, _ = _free_penalty_min(j, h, betas, core_h)
    return (betas.t_h - betas.t_c) * core_h.entropy(a_h, b_h) - betas.t_c * d_min


def sweep_j(j_values: Sequence[float], betas: Betas,
            mode: str = PAPER_PROTOCOL, grid_step: float = 1e-2) -> list[SweepPoint]:
    """Maximize the cycle work density over the corner field h_B >= 0 at
    every coupling in ``j_values``, on the work alone, and report the
    optimal field, the work density, and the efficiency there.

    Each coupling gets a field grid on [0, 4*max(1, |J|)]
    (:func:`_grid_tops`), and one nested scan
    (:func:`gridsearch._nested_argmax`) searches the grids of all
    couplings in shared work calls, only in the cells that the mode's
    certified bound cannot rule out (:func:`_paper_cell_bound`, or
    :func:`_free_cell_bound` with one :func:`ising.optimal_field` call for
    all couplings).  One golden-section refinement
    (:func:`gridsearch._refine`) then runs for all couplings at once.
    """
    if mode not in (PAPER_PROTOCOL, FREE_FIELDS):
        raise ValueError(f"unknown protocol mode: {mode!r}")
    paper = mode == PAPER_PROTOCOL
    work = _paper_work if paper else _free_work
    js = np.array(j_values, dtype=np.float64).reshape(-1)
    floors = np.zeros(len(js))
    tops = _grid_tops(js, floors, grid_step)
    peaks = None if paper else ising.optimal_field(betas.beta_h, js)

    def row_work(rows, h):
        return work(js[rows], h, betas)

    def cell_bound(rows, h, w):
        if paper:
            return _paper_cell_bound(js[rows], h, w, betas)
        return _free_cell_bound(js[rows], h, peaks[rows], betas)

    scans = _nested_argmax(row_work, floors, tops, grid_step, cell_bound)
    h_opt = _refine(row_work, scans)
    w_opt = work(js, h_opt, betas)
    a_h, b_h = betas.beta_h * js, betas.beta_h * np.abs(h_opt)
    eta_opt = _eta(w_opt, _core(a_h, b_h).entropy(a_h, b_h), betas.beta_h)
    return [SweepPoint(float(j), float(h), float(w), float(eta), mode)
            for j, h, w, eta in zip(js, h_opt, w_opt, eta_opt)]


def efficiency_at_max_work(j: float, betas: Betas, mode: str = PAPER_PROTOCOL,
                           grid_step: float = 1e-2) -> SweepPoint:
    """:func:`sweep_j` at a single coupling."""
    return sweep_j([j], betas, mode, grid_step)[0]


# ---------------------------------------------------------------------------
# finite chains
# ---------------------------------------------------------------------------

def _temperatures(betas: Betas) -> np.ndarray:
    """Both inverse temperatures as a column, hot then cold."""
    return np.array([[betas.beta_h], [betas.beta_c]])


def _weights(beta: np.ndarray, x) -> np.ndarray:
    """Boltzmann weights e^{-beta*x} of energies x >= 0 at each inverse
    temperature of the column ``beta`` (:func:`_temperatures`, or its hot
    row alone), along a new second-to-last axis, each at least
    e^_EXP_FLOOR (1e-304).

    Every sum of them here has a term of at least 1, which absorbs the
    floor, and numpy's exp is 20 to 200 times slower where its result
    would be subnormal or 0.
    """
    w = -beta * x[..., None, :]
    np.maximum(w, _EXP_FLOOR, out=w)
    return np.exp(w, out=w)


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum of ``x`` over axis 0, by halving it in place.

    The order of the additions does not depend on the other axes (numpy's
    ``sum`` adds a lone column pairwise, and other shapes row by row or
    not, as its iterator chooses), so a field gets the same bits alone
    as in a batch.
    """
    rows = len(x)
    while rows > 1:
        half = (rows + 1) // 2
        x[:rows - half] += x[half:rows]
        rows = half
    return x[0]


def _sectors(levels, j, betas: Betas):
    """The sector terms of :func:`_chain_gap` on the ring's sector table
    ``levels`` (:func:`kernels.levels`) at coupling ``j`` (a scalar, or
    one coupling per field along the last axis): each sector's lowest
    bond energy f_M = min -J*B, its sums C_M at both temperatures
    (:func:`_weights`), and its hot sum D_M."""
    _, b, g = levels
    bond = -(b * j)
    f = bond.min(axis=0)
    excess = bond - f
    c = _sum_rows(g[..., None, :] * _weights(_temperatures(betas), excess))
    return f, c, _sum_rows(g * excess * np.exp(-betas.beta_h * excess))


def _columns(parts, rows) -> tuple:
    """Columns ``rows`` (last axis) of each array of ``parts``, one per
    field; a single column, which broadcasts, when all rows are one."""
    rows = np.asarray(rows)
    if rows.size and np.all(rows == rows.flat[0]):
        rows = rows.reshape(-1)[:1]
    return tuple(np.take(part, rows, axis=-1) for part in parts)


def _sector_sums(m, f, c, hs, beta):
    """The ground-shifted sector energies f_M - h*M - s at each field,
    with s = min_M (f_M - h*M), and the sums z = sum_M C_M e^{-beta (f_M -
    h*M - s)}, one row per inverse temperature of the column ``beta``
    (``c`` holds C_M at the same temperatures).  1 <= z <= 2^N."""
    shifted = f - m * hs
    shifted -= shifted.min(axis=0)
    weights = _weights(beta, shifted)
    weights *= c
    return shifted, _sum_rows(weights)


def _chain_gap(levels, sectors, hs, betas: Betas):
    """Free-energy gap T_h*logZ_h - T_c*logZ_c of the ring with sector
    table ``levels`` (:func:`kernels.levels`) at each field, and a
    function of no arguments that returns the hot entropy there.

    The field enters the energy only through -h*M, so each partition sum
    runs over the magnetization sectors (:func:`_sectors`):

        Z = sum_M C_M e^{-beta (f_M - h*M - s)},
        C_M = sum_{B in M} g e^{-beta (-J*B - f_M)},

    with f_M the sector's lowest -J*B and s = min_M (f_M - h*M) the ground
    energy, so a field costs one exponential per sector and temperature
    (:func:`_sector_sums`).  Every exponent is <= 0, and both temperatures
    share s, so strong couplings do not cancel away the signal.  The hot
    entropy adds D_M = sum_{B in M} g (-J*B - f_M) e^{-beta_h (-J*B - f_M)};
    the gap reads only f_M and C_M, the first two of ``sectors``.
    """
    f, c = sectors[:2]
    shifted, (z_h, z_c) = _sector_sums(levels[0], f, c, hs, _temperatures(betas))

    def hot_entropy():
        d_h = sectors[2]
        energy = _sum_rows(np.exp(-betas.beta_h * shifted) * (shifted * c[:, 0] + d_h)) / z_h
        return betas.beta_h * energy + np.log(z_h)

    return betas.t_h * np.log(z_h) - betas.t_c * np.log(z_c), hot_entropy


def _chain_cell_bound(rows, h, w, betas: Betas, j, hot_excess, block: int) -> np.ndarray:
    """Upper bound of the ring's work per site over each cell between
    consecutive fields h >= 0 along the last axis of ``h`` (one row of
    cells per grid row ``rows``, as :func:`gridsearch._nested_argmax`
    passes them), with ``w`` the work there and ``j`` the coupling of every
    grid row: the smaller of two bounds, each certified for any cell width.

    * Lipschitz, every row: dw/dh = (<M>_h - <M>_c)/N, and spin-flip
      symmetry puts <M> in [0, N] on h >= 0, so a cell of width H holds
      at most (w_a + w_b + H)/2.
    * Excess, rows with J >= 0: z_c >= 1 (:func:`_sector_sums`), so
      w <= T_h*log z_h / N, which ``hot_excess(rows, h)`` returns for at
      most ``block`` fields a call.  For J >= 0 the ground sector is M = N
      at every h >= 0, so T_h*log z_h has slope <M>_h - N <= 0 and its
      cell maximum sits at the cell's left end.  Rows with J < 0 switch
      ground sectors at up to N/2 fields and keep the Lipschitz bound
      alone.

    The bound is widened by ``_PRUNE_RTOL``*(T_h + T_c)*ln 2: each term
    T*log z / N of w lies in [0, T*ln 2], and w, which can cancel, is
    rounded at that absolute scale.
    """
    bound = 0.5 * (w[:, :-1] + w[:, 1:] + (h[:, 1:] - h[:, :-1]))
    ferro = np.flatnonzero(j[rows] >= 0)
    if len(ferro):
        left = h[ferro, :-1].ravel()
        left_rows = np.repeat(rows[ferro], w.shape[1] - 1)
        excess = np.concatenate([hot_excess(left_rows[i:i + block], left[i:i + block])
                                 for i in range(0, len(left), block)])
        bound[ferro] = np.minimum(bound[ferro], excess.reshape(len(ferro), -1))
    return bound + _PRUNE_RTOL * (betas.t_h + betas.t_c) * math.log(2.0)


def chain_sweep(n: int, j_values: Sequence[float], betas: Betas,
                epsilons: Sequence[float] = (0.0,),
                grid_step: float = 1e-2) -> list[ChainPoint]:
    """Finite-chain analogue of :func:`sweep_j` for the shared-field
    family, with the corner fields constrained to h >= epsilon, at every
    (epsilon, J) pair; rows are epsilon-major.

    The search runs on the work per site alone, gap / N, and the
    efficiency gap / (T_h*S_h) (:func:`_eta`) is computed once, at the
    optimum.  Each pair has its own field grid on [epsilon,
    4*max(1, |J|)] (:func:`_grid_tops`), and one nested scan
    (:func:`gridsearch._nested_argmax`) searches the grids of all pairs
    in shared work calls, only in the cells that
    :func:`_chain_cell_bound` cannot rule out.  One golden-section
    refinement (:func:`gridsearch._refine`) then runs for all pairs at
    once.  The ring's sector table (:func:`kernels.levels`) and the
    sector terms of the rows are built once; a work call takes the f_M
    and C_M columns of its rows, one column when they are all one row.
    """
    eps = np.array(epsilons, dtype=np.float64).reshape(-1)
    if np.any(eps < 0):
        raise ValueError("field floor must be nonnegative")
    levels = kernels.levels(n)
    js = np.array(j_values, dtype=np.float64).reshape(-1)
    eps_rows, j_rows = np.repeat(eps, len(js)), np.tile(js, len(eps))
    row_sectors = _sectors(levels, j_rows, betas)
    hot = _temperatures(betas)[:1]
    block = min(_SCAN_BLOCK, _SECTOR_TERMS // len(levels[0]))

    def work(rows, hs):
        return _chain_gap(levels, _columns(row_sectors[:2], rows), hs, betas)[0] / n

    def hot_excess(rows, hs):
        f, c = _columns(row_sectors[:2], rows)
        _, (z_h,) = _sector_sums(levels[0], f, c[:, :1], hs, hot)
        return betas.t_h * np.log(z_h) / n

    def cell_bound(rows, h, w):
        return _chain_cell_bound(rows[:, 0], h, w, betas, j_rows, hot_excess, block)

    scans = _nested_argmax(work, eps_rows, _grid_tops(j_rows, eps_rows, grid_step), grid_step,
                           cell_bound, block)
    h_opt = _refine(work, scans)
    gap, hot_entropy = _chain_gap(levels, row_sectors, h_opt, betas)
    eta = _eta(gap, hot_entropy(), betas.beta_h)
    return [ChainPoint(float(j), float(floor), float(h), float(w), float(e))
            for j, floor, h, w, e in zip(j_rows, eps_rows, h_opt, gap / n, eta)]


def chain_efficiency_at_max_work(n: int, j: float, betas: Betas,
                                 epsilon: float = 0.0,
                                 grid_step: float = 1e-2) -> ChainPoint:
    """:func:`chain_sweep` at a single coupling and field floor."""
    return chain_sweep(n, [j], betas, [epsilon], grid_step)[0]
