"""Maximization of a work function over field grids, many grids at once.

The one field search left in :mod:`spinengine.protocols`, for the
antiferromagnetic rows of the finite-chain sweep, whose optimum has no
closed form yet: a grid argmax per row from one nested scan of all rows
that drops the cells a caller's certified bound rules out
(:func:`_nested_argmax`), then one golden-section refinement of every
row's bracket in shared calls (:func:`_refine`).  The work callback is ``work(rows, h)``, with ``rows``
the row index of each field in ``h``.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 160  # for brackets that rounding keeps wider than the tolerance
_REFINE_TOL = 1e-8  # bracket width at which a refined field stops moving
_SCAN_BLOCK = 8192  # grid points per work call of a scan
_BRANCH = 8  # cells a cell of _nested_argmax is cut into
_PRUNE_RTOL = 1e-9  # relative rounding margin of a cell bound


def _golden_max(work, lo, hi, tol: float) -> np.ndarray:
    """Deterministic golden-section maximization of ``work(rows, h)`` on
    every bracket [lo[k], hi[k]] (row k), elementwise.

    Assumes unimodality on each bracket (every use here refines around a
    grid argmax).  Both probes of every bracket go to one ``work`` call,
    with the row indices tiled twice.  Each element freezes once its own
    bracket is within ``tol`` and later probes leave it untouched, so a
    batch of brackets follows each element's scalar path exactly.
    """
    lo = np.asarray(lo, dtype=np.float64).reshape(-1) + 0.0
    hi = np.asarray(hi, dtype=np.float64).reshape(-1) + 0.0
    n = len(lo)
    rows = np.tile(np.arange(n), 2)
    for _ in range(_GOLDEN_ITERS):
        gap = hi - lo
        live = gap > tol
        if not np.any(live):
            break
        c = hi - _INVPHI * gap
        d = lo + _INVPHI * gap
        w = work(rows, np.concatenate([c, d]))
        keep_left = w[:n] >= w[n:]
        hi = np.where(live & keep_left, d, hi)
        lo = np.where(live & ~keep_left, c, lo)
    return 0.5 * (lo + hi)


def _nested_argmax(work, floors: np.ndarray, tops: np.ndarray, step: float,
                   cell_bound, block: int = _SCAN_BLOCK) -> np.ndarray:
    """Grid argmax of ``work(rows, h)`` on the grid floors[k], floors[k] +
    step, ..., tops[k] of every row k, from one nested scan of all rows:
    row k of the returned array holds the bracket (the grid neighbours of
    the argmax), the grid field and the grid work.

    Point i of row k is floors[k] + i*((floors[k] + step) - floors[k]),
    np.arange's own fill rule, so no grid is ever built.  Each row starts
    as one cell between its end points.  At each level every cell is cut
    at the largest power of ``_BRANCH`` below its width, which gives it at
    most ``_BRANCH`` - 1 new points; the new points of all cells go to
    shared ``work`` calls of at most ``block`` points.  ``cell_bound(rows,
    h, w)`` maps the fields and the work at consecutive points along the
    last axis to an upper bound on the work over each cell between them;
    a cell whose bound lies below its row's best value by more than a
    rounding margin cannot hold the maximum and is dropped, and the others
    are cut again until the stride is 1.  A row's argmax is its first
    maximum over the points evaluated, which is the grid's own.  A NaN at
    the first point is the argmax, as with ``np.argmax``; a row with any
    other non-finite value is scanned again at every grid point, and its
    ``np.argmax`` taken.
    """
    sizes = np.ceil((tops + 0.5 * step - floors) / step).astype(np.int64)
    deltas = (floors + step) - floors
    best = np.full(len(sizes), -np.inf)
    first = np.zeros(len(sizes), dtype=np.int64)
    fallback = np.zeros(len(sizes), dtype=bool)

    def scan(rows, idx):
        """The work at points ``idx`` of ``rows``, in calls of at most
        ``block`` points, each folded into its row's first maximum."""
        out = np.empty(len(idx))
        for a in range(0, len(idx), block):
            r, i = rows[a:a + block], idx[a:a + block]
            w = out[a:a + block] = work(r, floors[r] + i * deltas[r])
            fallback[r[~np.isfinite(w)]] = True
            before = best[r]
            with np.errstate(invalid="ignore"):  # a nan row falls back
                np.maximum.at(best, r, w)
            top = best[r]
            first[r[top > before]] = sizes.max()  # a new best: first index below
            hit = w == top
            np.minimum.at(first, r[hit], i[hit])
        return out

    ends = np.stack([np.zeros_like(sizes), sizes - 1])
    w_ends = scan(np.tile(np.arange(len(sizes)), 2), ends.ravel()).reshape(2, -1)
    cells = (sizes >= 3) & ~fallback
    c_rows, c_lo, c_hi = np.flatnonzero(cells), ends[0, cells], ends[1, cells]
    c_w = w_ends[:, cells].T
    branch = np.arange(_BRANCH + 1)
    powers = _BRANCH ** np.arange(int(math.log(sizes.max(initial=2), _BRANCH)) + 2)
    while len(c_rows):
        stride = powers[np.searchsorted(powers, c_hi - c_lo) - 1]
        # each cell's ends and new points, padded with its upper end
        idx = np.minimum(c_lo[:, None] + stride[:, None] * branch, c_hi[:, None])
        new = (idx < c_hi[:, None]) & (branch > 0)
        w = np.repeat(c_w[:, 1:], _BRANCH + 1, axis=1)
        w[:, 0] = c_w[:, 0]
        w[new] = scan(np.broadcast_to(c_rows[:, None], idx.shape)[new], idx[new])
        live = (stride > 1) & ~fallback[c_rows]
        if not live.any():
            break
        c_rows, idx, w = c_rows[live], idx[live], w[live]
        bound = cell_bound(c_rows[:, None], floors[c_rows, None] + idx * deltas[c_rows, None], w)
        threshold = best[c_rows] - _PRUNE_RTOL * np.abs(best[c_rows])
        keep = (idx[:, 1:] - idx[:, :-1] >= 2) & ~(bound < threshold[:, None])
        c_rows = np.broadcast_to(c_rows[:, None], keep.shape)[keep]
        c_lo, c_hi = idx[:, :-1][keep], idx[:, 1:][keep]
        c_w = np.stack([w[:, :-1][keep], w[:, 1:][keep]], axis=1)

    nan_first = np.isnan(w_ends[0])
    first[nan_first] = 0
    best[nan_first] = w_ends[0, nan_first]
    for row in np.flatnonzero(fallback & ~nan_first):
        w = scan(np.broadcast_to(row, sizes[row]), np.arange(sizes[row]))
        first[row] = np.argmax(w)
        best[row] = w[first[row]]
    return np.stack([floors + np.maximum(first - 1, 0) * deltas,
                     floors + np.minimum(first + 1, sizes - 1) * deltas,
                     floors + first * deltas, best], axis=1)


def _refine(work, scans) -> np.ndarray:
    """One golden-section refinement (:func:`_golden_max`) of every
    grid-argmax bracket, row k on ``scans[k]`` (as :func:`_nested_argmax`
    returns them), all rows in the same ``work(rows, h)`` calls.

    Keeps the grid point wherever it beats the refined one: the maximum
    may sit in an exponentially narrow spike at a bracket end that
    refinement steps over.
    """
    lo, hi, h_grid, w_grid = np.array(scans, dtype=np.float64).reshape(-1, 4).T
    h_ref = _golden_max(work, lo, hi, _REFINE_TOL)
    return np.where(work(np.arange(len(h_ref)), h_ref) >= w_grid, h_ref, h_grid)
