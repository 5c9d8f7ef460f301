"""Maximization of a work function over field grids, many grids at once.

The one search the sweeps of :mod:`spinengine.protocols` use: a grid
argmax per row (a full scan, :func:`_grid_argmax`, or one nested scan
of all rows that drops the cells a caller's bound rules out,
:func:`_nested_argmax`), then one golden-section refinement of every
row's bracket in shared calls (:func:`_refine`).  The work callback is
``work(rows, h)``, with ``rows`` the row index of each field in ``h``.
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


def _scan(w_of, h: np.ndarray) -> np.ndarray:
    """``w_of`` over ``h`` in blocks of ``_SCAN_BLOCK`` points, which keeps
    the temporaries of each evaluation small."""
    return np.concatenate([w_of(h[i:i + _SCAN_BLOCK]) for i in range(0, len(h), _SCAN_BLOCK)])


def _grid_argmax(w_of, lo: float, hi: float, step: float):
    """Best point of ``w_of`` on the grid lo, lo + step, ..., hi, every
    point evaluated.

    Returns the bracket (the grid neighbours of the argmax), the grid
    field and the grid work; the argmax is the first maximum, a NaN
    counting as one, as with ``np.argmax``.  The grid lives only inside
    this call, so consecutive scans never hold two grids at once.
    """
    grid = np.arange(lo, hi + 0.5 * step, step)
    w_grid = _scan(w_of, grid)
    k = int(np.argmax(w_grid))
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], grid[k], w_grid[k]


def _nested_argmax(work, floors: np.ndarray, tops: np.ndarray, step: float,
                   cell_bound=None, block: int = _SCAN_BLOCK) -> np.ndarray:
    """The :func:`_grid_argmax` result of ``work(rows, h)`` on the grid
    floors[k], floors[k] + step, ..., tops[k] of every row k, one row of
    the returned array each, from one nested scan of all rows.

    Point i of row k is floors[k] + i*((floors[k] + step) - floors[k]),
    np.arange's own fill rule, so no grid is ever built.  Each row starts
    as one cell between its end points.  At each level every cell is cut
    at the largest power of ``_BRANCH`` below its width (at stride 1
    without ``cell_bound``); the new points of all rows go to shared
    ``work`` calls of at most ``block`` points.  ``cell_bound(rows,
    h, w)`` maps the fields and the work at consecutive points along the
    last axis to an upper bound on the work over each cell between them;
    a cell whose bound lies below its row's best value by more than a
    rounding margin cannot hold the maximum and is dropped, and the others
    are cut again until the stride is 1.  A row's argmax is its first
    maximum over the points evaluated, which is the grid's own.  A NaN at
    the first point is the argmax, as with ``np.argmax``; a row with any
    other non-finite value is scanned again by :func:`_grid_argmax`.
    """
    sizes = np.ceil((tops + 0.5 * step - floors) / step).astype(np.int64)
    deltas = (floors + step) - floors
    best = np.full(len(sizes), -np.inf)
    first = np.zeros(len(sizes), dtype=np.int64)
    fallback = np.zeros(len(sizes), dtype=bool)

    def scan(total, points, keep):
        """Evaluate ``points(a, b)`` (rows and indices of the points a..b-1)
        in blocks, fold them into each row's first maximum, and return the
        values when ``keep``."""
        kept = []
        for a in range(0, total, block):
            rows, idx = points(a, min(a + block, total))
            w = work(rows, floors[rows] + idx * deltas[rows])
            fallback[rows[~np.isfinite(w)]] = True
            before = best[rows]
            with np.errstate(invalid="ignore"):  # a nan row falls back
                np.maximum.at(best, rows, w)
            top = best[rows]
            first[rows[top > before]] = sizes.max()  # a new best: first index below
            hit = w == top
            np.minimum.at(first, rows[hit], idx[hit])
            if keep:
                kept.append(w)
        return np.concatenate(kept or [np.empty(0)]) if keep else None

    ends = np.stack([np.zeros_like(sizes), sizes - 1])
    end_rows = np.tile(np.arange(len(sizes)), 2)
    w_ends = scan(2 * len(sizes), lambda a, b: (end_rows[a:b], ends.ravel()[a:b]),
                  True).reshape(2, -1)
    cells = (sizes >= 3) & ~fallback
    c_rows, c_lo, c_hi = np.flatnonzero(cells), ends[0, cells], ends[1, cells]
    c_w = w_ends[:, cells].T
    branch = np.arange(_BRANCH + 1)
    powers = _BRANCH ** np.arange(int(math.log(sizes.max(initial=2), _BRANCH)) + 2)
    while len(c_rows):
        width = c_hi - c_lo
        stride = np.ones_like(width) if cell_bound is None \
            else powers[np.searchsorted(powers, width) - 1]
        count = (width - 1) // stride
        ends_at = np.cumsum(count)

        def points(a, b):
            p = np.arange(a, b)
            k = np.searchsorted(ends_at, p, side="right")
            return c_rows[k], c_lo[k] + (p - ends_at[k] + count[k] + 1) * stride[k]

        split = stride > 1
        w_new = scan(int(ends_at[-1]), points, split.any())
        live = split & ~fallback[c_rows]
        if not live.any():
            break
        # each live cell's ends and new points, padded with its upper end
        w_new = w_new[np.repeat(live, count)]
        c_rows, c_lo, c_hi, c_w, stride = (x[live] for x in (c_rows, c_lo, c_hi, c_w, stride))
        idx = np.minimum(c_lo[:, None] + stride[:, None] * branch, c_hi[:, None])
        w = np.repeat(c_w[:, 1:], _BRANCH + 1, axis=1)
        w[:, 0] = c_w[:, 0]
        w[:, 1:][idx[:, 1:] < c_hi[:, None]] = w_new
        h = floors[c_rows, None] + idx * deltas[c_rows, None]
        bound = cell_bound(c_rows[:, None], h, w)
        threshold = best[c_rows] - _PRUNE_RTOL * np.abs(best[c_rows])
        keep = (idx[:, 1:] - idx[:, :-1] >= 2) & ~(bound < threshold[:, None])
        c_rows = np.broadcast_to(c_rows[:, None], keep.shape)[keep]
        c_lo, c_hi = idx[:, :-1][keep], idx[:, 1:][keep]
        c_w = np.stack([w[:, :-1][keep], w[:, 1:][keep]], axis=1)

    nan_first = np.isnan(w_ends[0])
    first[nan_first] = 0
    best[nan_first] = w_ends[0, nan_first]
    scans = np.stack([floors + np.maximum(first - 1, 0) * deltas,
                      floors + np.minimum(first + 1, sizes - 1) * deltas,
                      floors + first * deltas, best], axis=1)
    for row in np.flatnonzero(fallback & ~nan_first):
        scans[row] = _grid_argmax(lambda h: work([row], h),
                                  floors[row], tops[row], step)
    return scans


def _refine(work, scans) -> np.ndarray:
    """One golden-section refinement (:func:`_golden_max`) of every
    ``_grid_argmax`` bracket, row k on ``scans[k]``, all rows in the same
    ``work(rows, h)`` calls.

    Keeps the grid point wherever it beats the refined one: the maximum
    may sit in an exponentially narrow spike at a bracket end that
    refinement steps over.
    """
    lo, hi, h_grid, w_grid = np.array(scans, dtype=np.float64).reshape(-1, 4).T
    h_ref = _golden_max(work, lo, hi, _REFINE_TOL)
    return np.where(work(np.arange(len(h_ref)), h_ref) >= w_grid, h_ref, h_grid)
