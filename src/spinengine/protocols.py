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

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import ising, kernels
from .engine import Betas, UndefinedResultError
from .ising import _core

PAPER_PROTOCOL = "paper"
FREE_FIELDS = "free"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 160  # for brackets that rounding keeps wider than the tolerance
_REFINE_TOL = 1e-8  # bracket width at which a refined field stops moving
_SCAN_BLOCK = 8192  # grid points per evaluation in _grid_argmax
_CELL = 64  # grid points per cell of a pruned scan
_PRUNE_MIN_POINTS = 4096  # smaller grids are scanned whole
_PRUNE_RTOL = 1e-9  # relative rounding margin of a cell bound
_EXP_FLOOR = -700.0  # lowest Boltzmann exponent of a partition sum (see _weights)
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


def _golden_max(f, lo, hi, tol: float):
    """Deterministic golden-section maximization, elementwise over arrays.

    Two probes per iteration; assumes unimodality on [lo, hi] (every use
    here refines around a grid argmax).  Each element freezes once its
    own bracket is within ``tol`` and later probes leave it untouched,
    so a batch of brackets follows each element's scalar path exactly.
    """
    lo = np.asarray(lo, dtype=np.float64) + 0.0
    hi = np.asarray(hi, dtype=np.float64) + 0.0
    for _ in range(_GOLDEN_ITERS):
        gap = hi - lo
        live = gap > tol
        if not np.any(live):
            break
        c = hi - _INVPHI * gap
        d = lo + _INVPHI * gap
        keep_left = f(c) >= f(d)
        hi = np.where(live & keep_left, d, hi)
        lo = np.where(live & ~keep_left, c, lo)
    return 0.5 * (lo + hi)


def _scan(w_of, h: np.ndarray) -> np.ndarray:
    """``w_of`` over ``h`` in blocks of ``_SCAN_BLOCK`` points, which keeps
    the temporaries of each evaluation small."""
    return np.concatenate([w_of(h[i:i + _SCAN_BLOCK]) for i in range(0, len(h), _SCAN_BLOCK)])


def _pruned_argmax(w_of, grid: np.ndarray, cell_bound):
    """Index and value of the first maximum of ``w_of`` on ``grid``, or
    None where only a full scan can tell.

    The grid is cut into cells of ``_CELL`` points and evaluated at the
    cell ends.  A cell whose bound ``cell_bound(h_ends, w_ends)`` lies
    below the best end value by more than a rounding margin cannot hold
    the maximum; the inner points of all other cells (ties and NaN bounds
    included) are evaluated in one scan.  A NaN at the first point is the
    argmax, as with ``np.argmax``; any other non-finite value returns None.
    """
    last = len(grid) - 1
    ends = np.append(np.arange(0, last, _CELL), last)
    w_ends = _scan(w_of, grid[ends])
    if np.isnan(w_ends[0]):
        return 0, w_ends[0]
    if not np.all(np.isfinite(w_ends)):
        return None
    best = w_ends.max()
    bound = cell_bound(grid[ends], w_ends)
    kept = ends[:-1][~(bound < best - _PRUNE_RTOL * abs(best))]
    inner = (kept[:, None] + np.arange(1, _CELL)).ravel()
    inner = inner[inner < last]
    w_inner = _scan(w_of, grid[inner])
    if not np.all(np.isfinite(w_inner)):
        return None
    idx, w = np.append(ends, inner), np.append(w_ends, w_inner)
    top = w.max()
    return int(idx[w == top].min()), top


def _grid_argmax(w_of, lo: float, hi: float, step: float, cell_bound=None):
    """Best point of ``w_of`` on the grid lo, lo + step, ..., hi.

    Returns the bracket (the grid neighbours of the argmax), the grid
    field and the grid work; the argmax is the first maximum, a NaN
    counting as one, as with ``np.argmax``.  The grid lives only inside
    this call, so consecutive scans never hold two grids at once.

    With ``cell_bound`` a grid of at least ``_PRUNE_MIN_POINTS`` points
    is scanned only in the cells that can hold the argmax
    (:func:`_pruned_argmax`), with the same result.  ``cell_bound(h, w)``
    maps the fields ``h`` at the cell ends and the work ``w`` there to an
    upper bound on ``w_of`` over each cell between consecutive ends.
    """
    grid = np.arange(lo, hi + 0.5 * step, step)
    found = None
    if cell_bound is not None and len(grid) >= _PRUNE_MIN_POINTS:
        found = _pruned_argmax(w_of, grid, cell_bound)
    if found is None:
        w_grid = _scan(w_of, grid)
        k = int(np.argmax(w_grid))
        found = k, w_grid[k]
    k, w_k = found
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], grid[k], w_k


def _refine(w_of, scans) -> np.ndarray:
    """One golden-section refinement of every ``_grid_argmax`` bracket.

    Keeps the grid point wherever it beats the refined one: the maximum
    may sit in an exponentially narrow spike at a bracket end that
    refinement steps over.
    """
    lo, hi, h_grid, w_grid = np.array(scans, dtype=np.float64).reshape(-1, 4).T
    h_ref = _golden_max(w_of, lo, hi, _REFINE_TOL)
    return np.where(w_of(h_ref) >= w_grid, h_ref, h_grid)


def _maximize(work, js: np.ndarray, floors: np.ndarray, grid_step: float,
              cell_bound=None) -> np.ndarray:
    """The field h >= floor that maximizes ``work(j, h)`` in every row of
    ``js`` and ``floors``.

    Each row gets a grid on [floor, 4*max(1, |J|)] (on [floor, floor + 1]
    when that is empty); one golden-section refinement then runs around
    all the grid argmaxes at once.  A ``grid_step`` that would give some
    row more than ``_GRID_POINTS_MAX`` points raises ``ValueError`` before
    any grid exists.  ``cell_bound(j)``, when given, is the
    :func:`_grid_argmax` cell bound of the row at coupling ``j``.
    """
    h_max = 4.0 * np.maximum(1.0, np.abs(js))
    h_max = np.where(h_max <= floors, floors + 1.0, h_max)
    points = np.max((h_max - floors) / grid_step, initial=0.0)
    if not points < _GRID_POINTS_MAX:
        raise ValueError(f"field grid step {grid_step!r} makes {points:.3g} grid points for "
                         f"one coupling, above the cap of {_GRID_POINTS_MAX}; "
                         "raise the grid step")
    scans = [_grid_argmax(lambda h: work(j, h), floor, hi, grid_step,
                          None if cell_bound is None else cell_bound(j))
             for j, floor, hi in zip(js, floors, h_max)]
    return _refine(lambda h: work(js, h), scans)


def _eta(w, s_h, beta_h: float):
    """Efficiency w / (T_h s_h) of the matched cycles, 0 where s_h <= 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(s_h > 0.0, w * beta_h / np.where(s_h > 0.0, s_h, 1.0), 0.0)


def _paper_work(j, h, betas: Betas, core_h=None):
    """Vectorized work density of the shared-field family h_C = h_B = h.

    ``j`` is a scalar or broadcasts against ``h``.  With matched pure
    corners the ledger collapses to the exact identity
    w = T_h*delta_h - T_c*delta_c on the reduced log-corrections, which
    stays fully accurate when both terms are ~1e-18.  ``core_h`` is the
    hot ``_core`` at (beta_h*J, beta_h*|h|) when the caller holds it.
    """
    j = np.asarray(j, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    bh, bc = betas.beta_h, betas.beta_c
    delta_h = ising._log_excess(bh * j, bh * np.abs(h)) if core_h is None else core_h.delta
    return delta_h / bh - ising._log_excess(bc * j, bc * np.abs(h)) / bc


def _paper_cell_bound(j: float, betas: Betas):
    """The :func:`_grid_argmax` cell bound of :func:`_paper_work` at
    coupling ``j``, on fields h >= 0: the smaller of two certified bounds.

    * Lipschitz (Piyavskii-Shubert): the branch switch at h = 2|J| does
      not depend on beta, so the ground terms of both temperatures cancel
      and dw/dh = m_h - m_c lies in [-1, 1]; a cell of width H then holds
      at most (w_a + w_b + H)/2.
    * Excess: w <= T_h*delta_h, since delta_c >= 0.  T_h*delta_h has slope
      m_h - rb (rb = 0 below the switch, 1 above it): it rises up to the
      switch for J < 0 and falls after it (on all of h >= 0 for J >= 0),
      so its cell maximum sits at a cell end, or at h = 2|J| when the cell
      contains it.

    The bound is widened by ``_PRUNE_RTOL`` times the excess bound, the
    scale of the rounding in w = T_h*delta_h - T_c*delta_c.
    """
    bh = betas.beta_h
    switch = max(-2.0 * j, 0.0)
    excess_switch = ising._log_excess(bh * j, bh * switch) / bh

    def bound(h, w):
        excess = ising._log_excess(bh * j, bh * h) / bh
        excess = np.maximum(excess[:-1], excess[1:])
        excess = np.where((h[:-1] < switch) & (switch < h[1:]),
                          np.maximum(excess, excess_switch), excess)
        lipschitz = 0.5 * (w[:-1] + w[1:] + (h[1:] - h[:-1]))
        return np.minimum(lipschitz, excess) + _PRUNE_RTOL * excess

    return bound


def _free_penalty_min(j, h_b, betas: Betas, core_s=None):
    """Minimal cold-entry penalty min over h_C >= 0 of D(hot B || cold C)
    per site, and the h_C that attains it, elementwise over ``h_b``
    (``j`` is a scalar or broadcasts against it).  ``core_s`` is the hot
    ``_core`` at (beta_h*J, beta_h*|h_B|) when the caller holds it.

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
    if core_s is None:
        core_s = _core(bh * j, bh * np.abs(h_b))
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


def _free_work(j, h, betas: Betas, core_h=None):
    """Vectorized work density with h_B = h and each matching field
    relaxed; ``core_h`` as in :func:`_paper_work`."""
    j = np.asarray(j, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    a_h, b_h = betas.beta_h * j, betas.beta_h * np.abs(h)
    if core_h is None:
        core_h = _core(a_h, b_h)
    d_min, _ = _free_penalty_min(j, h, betas, core_h)
    return (betas.t_h - betas.t_c) * core_h.entropy(a_h, b_h) - betas.t_c * d_min


def sweep_j(j_values: Sequence[float], betas: Betas,
            mode: str = PAPER_PROTOCOL, grid_step: float = 1e-2) -> list[SweepPoint]:
    """Maximize the cycle work density over the corner field h_B >= 0 at
    every coupling in ``j_values`` (:func:`_maximize`, on the work alone).
    Reports the optimal field, the work density, and the efficiency there.
    Paper mode scans only the grid cells that :func:`_paper_cell_bound`
    cannot rule out; free mode has no such bound and scans every point.
    """
    if mode not in (PAPER_PROTOCOL, FREE_FIELDS):
        raise ValueError(f"unknown protocol mode: {mode!r}")
    work = _paper_work if mode == PAPER_PROTOCOL else _free_work
    js = np.array(j_values, dtype=np.float64).reshape(-1)
    cell_bound = (lambda j: _paper_cell_bound(j, betas)) if mode == PAPER_PROTOCOL else None
    h_opt = _maximize(lambda j, h: work(j, h, betas), js, np.zeros(len(js)), grid_step,
                      cell_bound)
    a_h, b_h = betas.beta_h * js, betas.beta_h * np.abs(h_opt)
    core_h = _core(a_h, b_h)
    w_opt = work(js, h_opt, betas, core_h)
    eta_opt = _eta(w_opt, core_h.entropy(a_h, b_h), betas.beta_h)
    return [SweepPoint(float(j), float(h), float(w), float(eta), mode)
            for j, h, w, eta in zip(js, h_opt, w_opt, eta_opt)]


def efficiency_at_max_work(j: float, betas: Betas, mode: str = PAPER_PROTOCOL,
                           grid_step: float = 1e-2) -> SweepPoint:
    """:func:`sweep_j` at a single coupling."""
    return sweep_j([j], betas, mode, grid_step)[0]


def ferro_efficiency_limit(epsilon: float, n: int, betas: Betas) -> float:
    """Large-J efficiency ceiling of the ferromagnetic N-chain with a
    minimum field epsilon: Carnot times the ratio of ground-doublet
    entropies log(1 + e^{-beta*eps*N}) at the two temperatures."""
    if epsilon < 0:
        raise ValueError("field floor must be nonnegative")
    if n < 1:
        raise ValueError("need at least one site")
    x_h = betas.beta_h * epsilon * n
    x_c = betas.beta_c * epsilon * n
    if x_h == 0.0:
        return betas.carnot
    if x_h > 500.0:
        # both logs underflow; use their exact large-x ratio e^{-(x_c - x_h)}
        return betas.carnot * math.exp(x_h - x_c)
    return betas.carnot * math.log1p(math.exp(-x_c)) / math.log1p(math.exp(-x_h))


# ---------------------------------------------------------------------------
# finite chains
# ---------------------------------------------------------------------------

def _ring(n: int):
    """The ring's (M, B, g) classes (:func:`kernels.levels`) grouped into
    magnetization sectors: each sector's M (descending) as a column of
    shape (sectors, 1), and B and g of shape (longest sector, sectors, 1),
    a sector's classes along axis 0, padded with zero-degeneracy copies
    of its first class."""
    sectors = [list(cls) for _, cls in itertools.groupby(kernels.levels(n), lambda c: c[0])]
    longest = max(map(len, sectors))
    padded = [cls + [(*cls[0][:2], 0)] * (longest - len(cls)) for cls in sectors]
    m, b, g = np.array(padded, dtype=np.float64).transpose(2, 1, 0)[..., None]
    return m[0], b, g


def _weights(betas: Betas, x) -> np.ndarray:
    """Boltzmann weights e^{-beta*x} of energies x >= 0 at both
    temperatures, hot then cold along a new second-to-last axis, each at
    least e^_EXP_FLOOR (1e-304).

    Every sum of them here has a term of at least 1, which absorbs the
    floor, and numpy's exp is 20 to 200 times slower where its result
    would be subnormal or 0.
    """
    w = -np.array([[betas.beta_h], [betas.beta_c]]) * x[..., None, :]
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


def _sectors(ring, j, betas: Betas):
    """The sector terms of :func:`_chain_gap` on the :func:`_ring` at
    coupling ``j`` (a scalar, or one coupling per field along the last
    axis): each sector's lowest bond energy f_M = min -J*B, its sums C_M
    at both temperatures (:func:`_weights`), and each class's excess
    -J*B - f_M."""
    _, b, g = ring
    bond = -(b * j)
    f = bond.min(axis=0)
    excess = bond - f
    return f, _sum_rows(g[..., None, :] * _weights(betas, excess)), excess


def _chain_gap(ring, sectors, hs: np.ndarray, betas: Betas):
    """Free-energy gap T_h*logZ_h - T_c*logZ_c of the ring at each field,
    and a function of no arguments that returns the hot entropy there.

    The field enters the energy only through -h*M, so each partition sum
    runs over the magnetization sectors (:func:`_sectors`):

        Z = sum_M C_M e^{-beta (f_M - h*M - s)},
        C_M = sum_{B in M} g e^{-beta (-J*B - f_M)},

    with f_M the sector's lowest -J*B and s = min_M (f_M - h*M) the ground
    energy, so a field costs one exponential per sector and temperature.
    Every exponent is <= 0, and both temperatures share s, so strong
    couplings do not cancel away the signal.  The hot entropy adds
    D_M = sum_{B in M} g (-J*B - f_M) e^{-beta_h (-J*B - f_M)} from the
    same classes.
    """
    m, _, g = ring
    f, c, excess = sectors
    shifted = f - m * hs
    shifted -= shifted.min(axis=0)
    weights = _weights(betas, shifted)
    weights *= c
    z_h, z_c = _sum_rows(weights)

    def hot_entropy():
        d_h = _sum_rows(g * excess * np.exp(-betas.beta_h * excess))
        energy = _sum_rows(np.exp(-betas.beta_h * shifted) * (shifted * c[:, 0] + d_h)) / z_h
        return betas.beta_h * energy + np.log(z_h)

    return betas.t_h * np.log(z_h) - betas.t_c * np.log(z_c), hot_entropy


def chain_sweep(n: int, j_values: Sequence[float], betas: Betas,
                epsilons: Sequence[float] = (0.0,),
                grid_step: float = 1e-2) -> list[ChainPoint]:
    """Finite-chain analogue of :func:`sweep_j` for the shared-field
    family, with the corner fields constrained to h >= epsilon, at every
    (epsilon, J) pair; rows are epsilon-major.

    The search (:func:`_maximize`) runs on the work per site alone,
    gap / N, and the efficiency gap / (T_h*S_h) is computed once, at the
    optimum.  The sector terms of the rows are built once, for every
    refinement probe and the optimum.
    """
    eps = np.array(epsilons, dtype=np.float64).reshape(-1)
    if np.any(eps < 0):
        raise ValueError("field floor must be nonnegative")
    ring = _ring(n)
    js = np.array(j_values, dtype=np.float64).reshape(-1)
    eps_rows, j_rows = np.repeat(eps, len(js)), np.tile(js, len(eps))
    row_sectors = _sectors(ring, j_rows, betas)

    def work(j, hs):
        # a grid scan passes its row's coupling, the refinement j_rows itself
        sectors = row_sectors if j is j_rows else _sectors(ring, j, betas)
        return _chain_gap(ring, sectors, hs, betas)[0] / n

    h_opt = _maximize(work, j_rows, eps_rows, grid_step)
    gap, hot_entropy = _chain_gap(ring, row_sectors, h_opt, betas)
    s_h = hot_entropy()
    with np.errstate(invalid="ignore", divide="ignore"):
        eta = np.where(s_h > 0.0, gap / (betas.t_h * np.where(s_h > 0, s_h, 1.0)), 0.0)
    return [ChainPoint(float(j), float(floor), float(h), float(w), float(e))
            for j, floor, h, w, e in zip(j_rows, eps_rows, h_opt, gap / n, eta)]


def chain_efficiency_at_max_work(n: int, j: float, betas: Betas,
                                 epsilon: float = 0.0,
                                 grid_step: float = 1e-2) -> ChainPoint:
    """:func:`chain_sweep` at a single coupling and field floor."""
    return chain_sweep(n, [j], betas, [epsilon], grid_step)[0]
