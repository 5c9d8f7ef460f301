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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import ising, kernels, thermo
from .engine import Betas, UndefinedResultError
from .ising import _core

PAPER_PROTOCOL = "paper"
FREE_FIELDS = "free"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _penalties(j: float, fields: ProtocolFields, betas: Betas):
    ds = _entropy_density(betas.beta_h, j, fields.h_b) \
        - _entropy_density(betas.beta_c, j, fields.h_d)
    d_da = ising.relative_entropy_density(
        betas.beta_c, betas.beta_h, j, fields.h_d, fields.h_a)
    d_bc = ising.relative_entropy_density(
        betas.beta_h, betas.beta_c, j, fields.h_b, fields.h_c)
    return ds, d_da, d_bc


def work_density(j: float, fields: ProtocolFields, betas: Betas) -> float:
    """Extracted work per site of the four-corner cycle; ``-inf`` when a
    mismatch penalty is infinite (pure reference against a mixed state)."""
    ds, d_da, d_bc = _penalties(j, fields, betas)
    if math.isinf(d_da) or math.isinf(d_bc):
        return -math.inf
    return (betas.t_h - betas.t_c) * ds - betas.t_h * d_da - betas.t_c * d_bc


def efficiency_thermo_limit(j: float, fields: ProtocolFields, betas: Betas) -> float:
    """Work over hot heat for the cycle; raises when no heat is drawn."""
    ds, d_da, d_bc = _penalties(j, fields, betas)
    q_h = betas.t_h * (ds - d_da)
    if not q_h > 0.0:
        raise UndefinedResultError(
            "no positive heat intake on the hot isotherm; efficiency undefined")
    if math.isinf(d_bc):
        return -math.inf
    w = (betas.t_h - betas.t_c) * ds - betas.t_h * d_da - betas.t_c * d_bc
    return w / q_h


def _golden_max(f, lo, hi, tol: float, iters: int = 160):
    """Deterministic golden-section maximization, elementwise over arrays.

    Two probes per iteration; assumes unimodality on [lo, hi] (all uses
    here refine around a grid argmax or minimize a convex penalty).
    """
    lo = np.asarray(lo, dtype=np.float64) + 0.0
    hi = np.asarray(hi, dtype=np.float64) + 0.0
    for _ in range(iters):
        gap = hi - lo
        if np.all(gap <= tol):
            break
        c = hi - _INVPHI * gap
        d = lo + _INVPHI * gap
        keep_left = f(c) >= f(d)
        hi = np.where(keep_left, d, hi)
        lo = np.where(keep_left, lo, c)
    return 0.5 * (lo + hi)


def _paper_work_eta(j: float, h, betas: Betas):
    """Vectorized (w, eta, s_h) for the shared-field family h_C = h_B = h.

    With matched pure corners the ledger collapses to the exact identity
    w = T_h*delta_h - T_c*delta_c on the reduced log-corrections, which
    stays fully accurate when both terms are ~1e-18.
    """
    h = np.asarray(h, dtype=np.float64)
    bh, bc = betas.beta_h, betas.beta_c
    core_h = _core(np.full_like(h, bh * j), bh * np.abs(h))
    core_c = _core(np.full_like(h, bc * j), bc * np.abs(h))
    w = core_h.delta / bh - core_c.delta / bc
    s_h = core_h.delta - bh * j * core_h.delta_a - bh * np.abs(h) * core_h.delta_b
    with np.errstate(invalid="ignore", divide="ignore"):
        eta = np.where(s_h > 0.0, w * bh / np.where(s_h > 0.0, s_h, 1.0), 0.0)
    return w, eta, s_h


def _free_penalty_min(j: float, h_b, betas: Betas, tol: float = 1e-10):
    """Minimal cold-entry penalty min over h_C of D(hot B || cold C), per
    site, elementwise over an h_b array.  Convex in h_C (second
    derivative is beta_c times a susceptibility), so golden section is
    exact enough."""
    h_b = np.asarray(h_b, dtype=np.float64)
    bh, bc = betas.beta_h, betas.beta_c
    core_s = _core(np.full_like(h_b, bh * j), bh * np.abs(h_b))
    u_excess = -j * core_s.delta_a - np.abs(h_b) * core_s.delta_b
    s_s = core_s.delta - bh * j * core_s.delta_a - bh * np.abs(h_b) * core_s.delta_b

    def d_of(h_c):
        core_r = _core(np.full_like(h_c, bc * j), bc * np.abs(h_c))
        offset = -j * (core_s.ra - core_r.ra) + h_c * (core_r.rb - core_s.rb)
        val = bc * (offset + u_excess + (h_b - h_c) * core_s.delta_b) \
            + core_r.delta - s_s
        return np.maximum(val, 0.0)

    hi = np.maximum(4.0 * max(1.0, abs(j)), h_b) + 1.0
    h_c_ref = _golden_max(lambda x: -d_of(x), np.zeros_like(h_b), hi,
                          tol * max(1.0, abs(j)))
    # the minimum can sit in an exponentially narrow well at a candidate
    # field (degenerate corner, matched field, or scaled field); golden
    # section alone cannot resolve those, so compare explicitly
    candidates = np.stack([
        np.asarray(h_c_ref, dtype=np.float64),
        np.zeros_like(h_b),
        h_b,
        (betas.beta_h / betas.beta_c) * h_b,
    ])
    values = np.stack([d_of(c) for c in candidates])
    pick = np.argmin(values, axis=0)
    return np.take_along_axis(values, pick[None], 0)[0], \
        np.take_along_axis(candidates, pick[None], 0)[0]


def _free_work_eta(j: float, h, betas: Betas):
    h = np.asarray(h, dtype=np.float64)
    _, _, s_h = _paper_work_eta(j, h, betas)
    d_min, _ = _free_penalty_min(j, h, betas)
    w = (betas.t_h - betas.t_c) * s_h - betas.t_c * d_min
    with np.errstate(invalid="ignore", divide="ignore"):
        eta = np.where(s_h > 0.0, w * betas.beta_h / np.where(s_h > 0.0, s_h, 1.0), 0.0)
    return w, eta, s_h


def efficiency_at_max_work(j: float, betas: Betas, mode: str = PAPER_PROTOCOL,
                           grid_step: float = 1e-2,
                           refine_tol: float = 1e-8) -> SweepPoint:
    """Maximize the cycle work density over the corner field h_B >= 0.

    Coarse grid on [0, 4*max(1, |J|)] followed by golden-section
    refinement around the best grid point; reports the optimal field,
    the work density, and the efficiency there.
    """
    if mode not in (PAPER_PROTOCOL, FREE_FIELDS):
        raise ValueError(f"unknown protocol mode: {mode!r}")
    evaluate = _paper_work_eta if mode == PAPER_PROTOCOL else _free_work_eta

    hi = 4.0 * max(1.0, abs(j))
    grid = np.arange(0.0, hi + 0.5 * grid_step, grid_step)
    w_grid, _, _ = evaluate(j, grid, betas)
    k = int(np.argmax(w_grid))
    lo_b = grid[max(k - 1, 0)]
    hi_b = grid[min(k + 1, len(grid) - 1)]

    def w_of(h):
        return evaluate(j, h, betas)[0]

    # keep the grid argmax as a candidate: the maximum may sit in an
    # exponentially narrow spike at a boundary that refinement steps over
    h_ref = float(_golden_max(w_of, lo_b, hi_b, refine_tol))
    h_opt = h_ref if float(w_of(h_ref)) >= float(w_grid[k]) else float(grid[k])
    w_opt, eta_opt, _ = evaluate(j, h_opt, betas)
    return SweepPoint(float(j), h_opt, float(w_opt), float(eta_opt), mode)


def sweep_j(j_values: Sequence[float], betas: Betas,
            mode: str = PAPER_PROTOCOL, grid_step: float = 1e-2,
            refine_tol: float = 1e-8) -> list[SweepPoint]:
    return [efficiency_at_max_work(float(j), betas, mode, grid_step, refine_tol)
            for j in j_values]


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
        hs = np.atleast_1d(np.asarray(hs, dtype=np.float64))
        logz_h, s_h = _chain_stats(classes, j, betas.beta_h, hs)
        logz_c, _ = _chain_stats(classes, j, betas.beta_c, hs)
        gap = t_h * logz_h - t_c * logz_c
        with np.errstate(invalid="ignore", divide="ignore"):
            eta = np.where(s_h > 0.0, gap / (t_h * np.where(s_h > 0, s_h, 1.0)), 0.0)
        return gap / n, eta

    grid = np.arange(epsilon, h_max + 0.5 * grid_step, grid_step)
    w_grid, _ = evaluate(grid)
    k = int(np.argmax(w_grid))
    lo_b = grid[max(k - 1, 0)]
    hi_b = grid[min(k + 1, len(grid) - 1)]
    h_ref = float(_golden_max(lambda h: evaluate(h)[0][0], lo_b, hi_b, refine_tol))
    h_opt = h_ref if float(evaluate(h_ref)[0][0]) >= float(w_grid[k]) else float(grid[k])
    w_opt, eta_opt = evaluate(h_opt)
    return ChainPoint(float(j), float(epsilon), h_opt,
                      float(w_opt[0]), float(eta_opt[0]))
