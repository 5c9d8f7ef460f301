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

from . import ising, kernels, thermo
from .engine import Betas, UndefinedResultError
from .ising import _core

PAPER_PROTOCOL = "paper"
FREE_FIELDS = "free"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_BLOCK = 8192  # grid points per evaluation in _grid_argmax


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


def _golden_max(f, lo, hi, tol: float, iters: int = 160):
    """Deterministic golden-section maximization, elementwise over arrays.

    Two probes per iteration; assumes unimodality on [lo, hi] (every use
    here refines around a grid argmax).  Each element freezes once its
    own bracket is within ``tol`` and later probes leave it untouched,
    so a batch of brackets follows each element's scalar path exactly.
    """
    lo = np.asarray(lo, dtype=np.float64) + 0.0
    hi = np.asarray(hi, dtype=np.float64) + 0.0
    for _ in range(iters):
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


def _grid_argmax(w_of, lo: float, hi: float, step: float):
    """Best point of ``w_of`` on the grid lo, lo + step, ..., hi.

    Returns the bracket (the grid neighbours of the argmax), the grid
    field and the grid work.  The grid lives only inside this call, so
    consecutive scans never hold two grids at once.  ``w_of`` sees it in
    blocks of ``_SCAN_BLOCK`` points to keep the temporaries of each
    evaluation small: a strong-coupling grid has 2e5 points.
    """
    grid = np.arange(lo, hi + 0.5 * step, step)
    w_grid = np.concatenate([w_of(grid[i:i + _SCAN_BLOCK])
                             for i in range(0, len(grid), _SCAN_BLOCK)])
    k = int(np.argmax(w_grid))
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], grid[k], w_grid[k]


def _refine(w_of, scans, tol: float) -> np.ndarray:
    """One golden-section refinement of every ``_grid_argmax`` bracket.

    Keeps the grid point wherever it beats the refined one: the maximum
    may sit in an exponentially narrow spike at a bracket end that
    refinement steps over.
    """
    lo, hi, h_grid, w_grid = np.array(scans, dtype=np.float64).reshape(-1, 4).T
    h_ref = _golden_max(w_of, lo, hi, tol)
    return np.where(w_of(h_ref) >= w_grid, h_ref, h_grid)


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
            mode: str = PAPER_PROTOCOL, grid_step: float = 1e-2,
            refine_tol: float = 1e-8) -> list[SweepPoint]:
    """Maximize the cycle work density over the corner field h_B >= 0 at
    every coupling in ``j_values``.

    Each J gets a coarse grid on [0, 4*max(1, |J|)]; one golden-section
    refinement then runs around all the grid argmaxes at once.  Both
    search on the work alone.  Reports the optimal field, the work
    density, and the efficiency there.
    """
    if mode not in (PAPER_PROTOCOL, FREE_FIELDS):
        raise ValueError(f"unknown protocol mode: {mode!r}")
    work = _paper_work if mode == PAPER_PROTOCOL else _free_work
    js = np.array(j_values, dtype=np.float64).reshape(-1)
    scans = [_grid_argmax(lambda h: work(j, h, betas),
                          0.0, 4.0 * max(1.0, abs(j)), grid_step) for j in js]
    h_opt = _refine(lambda h: work(js, h, betas), scans, refine_tol)
    a_h, b_h = betas.beta_h * js, betas.beta_h * np.abs(h_opt)
    core_h = _core(a_h, b_h)
    w_opt = work(js, h_opt, betas, core_h)
    eta_opt = _eta(w_opt, core_h.entropy(a_h, b_h), betas.beta_h)
    return [SweepPoint(float(j), float(h), float(w), float(eta), mode)
            for j, h, w, eta in zip(js, h_opt, w_opt, eta_opt)]


def efficiency_at_max_work(j: float, betas: Betas, mode: str = PAPER_PROTOCOL,
                           grid_step: float = 1e-2,
                           refine_tol: float = 1e-8) -> SweepPoint:
    """:func:`sweep_j` at a single coupling."""
    return sweep_j([j], betas, mode, grid_step, refine_tol)[0]


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


def entropy_ratio_limit_check(hamiltonian, betas: Betas, j_grid) -> np.ndarray:
    """Ratio S(omega_c(J*H)) / S(omega_h(J*H)) over a coupling grid.

    ``hamiltonian`` is a Hermitian matrix, or a callable J -> matrix for
    families whose weak perturbation rides on 1/J.  Returns nan where
    the hot entropy vanishes on its numerical support.
    """
    out = []
    for jv in np.asarray(j_grid, dtype=np.float64):
        mat = hamiltonian(float(jv)) if callable(hamiltonian) else hamiltonian
        scaled = float(jv) * np.asarray(mat)
        s_c = thermo.von_neumann_entropy(thermo.gibbs(scaled, betas.beta_c))
        s_h = thermo.von_neumann_entropy(thermo.gibbs(scaled, betas.beta_h))
        out.append(s_c / s_h if s_h > 0.0 else math.nan)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# finite chains
# ---------------------------------------------------------------------------

def _chain_stats(levels: np.ndarray, j: float, beta: float, hs: np.ndarray):
    """(logZ-shift, entropy) rows at each field in ``hs``.

    ``levels`` holds the chain's (M, B, g) classes as columns, so each
    row is a log-sum-exp over the classes weighted by degeneracy.
    """
    m, b, g = levels
    energies = -j * b[None, :] - hs[:, None] * m[None, :]
    shifted = energies - energies.min(axis=1, keepdims=True)
    weights = g * np.exp(-beta * shifted)
    z = weights.sum(axis=1)
    logz = np.log(z)
    return logz, beta * np.einsum("ij,ij->i", shifted, weights) / z + logz


def chain_efficiency_at_max_work(n: int, j: float, betas: Betas,
                                 epsilon: float = 0.0, h_max: float = None,
                                 grid_step: float = 1e-2,
                                 refine_tol: float = 1e-8) -> ChainPoint:
    """Finite-chain analogue of :func:`efficiency_at_max_work` with the
    shared-field family and corner fields constrained to h >= epsilon.

    Work per cycle is the exact free-energy gap T_h*logZ_h - T_c*logZ_c
    evaluated with a shared ground-energy shift, so strong couplings do
    not cancel away the signal.
    """
    if epsilon < 0:
        raise ValueError("field floor must be nonnegative")
    if h_max is None:
        h_max = 4.0 * max(1.0, abs(j))
    if h_max <= epsilon:
        h_max = epsilon + 1.0

    classes = np.array(kernels.levels(n), dtype=np.float64).T
    t_h, t_c = betas.t_h, betas.t_c

    def evaluate(hs):
        logz_h, s_h = _chain_stats(classes, j, betas.beta_h, hs)
        logz_c, _ = _chain_stats(classes, j, betas.beta_c, hs)
        gap = t_h * logz_h - t_c * logz_c
        with np.errstate(invalid="ignore", divide="ignore"):
            eta = np.where(s_h > 0.0, gap / (t_h * np.where(s_h > 0, s_h, 1.0)), 0.0)
        return gap / n, eta

    def w_of(hs):
        return evaluate(hs)[0]

    scan = _grid_argmax(w_of, epsilon, h_max, grid_step)
    h_opt = _refine(w_of, [scan], refine_tol)
    w_opt, eta_opt = evaluate(h_opt)
    return ChainPoint(float(j), float(epsilon), float(h_opt[0]),
                      float(w_opt[0]), float(eta_opt[0]))
