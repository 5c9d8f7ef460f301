"""The finite ring summed by magnetization sector: a float reference for
the closed-form ring of ``spinengine.ising``.

The field enters the ring's energy only through -h*M, so each partition
sum runs over the N + 1 magnetization sectors:

    Z = sum_M C_M e^{-beta (f_M - h*M - s)},
    C_M = sum_{B in M} g e^{-beta (-J*B - f_M)},

with f_M the sector's lowest bond energy -J*B and s = min_M (f_M - h*M)
the ground energy, shared by both temperatures, so every exponent is
<= 0 and strong couplings do not cancel away the signal.  Each sum adds
its terms in one fixed order (by halving), so a field gets the same bits
alone as in a batch.  log z rounds to 0 once every excited weight is
below 1e-16, so this reference is exact only where the gap is not tiny
against T*log 2; ``hp_oracle`` covers the rest.
"""

from __future__ import annotations

import numpy as np

from spinengine import kernels

_EXP_FLOOR = -700.0  # lowest Boltzmann exponent of a partition sum (see _weights)


def sector_table(n: int):
    """``kernels.levels`` as a table of the n + 1 magnetization sectors: M
    as a column of shape (sectors, 1) in descending order, and B and g of
    shape (longest sector, sectors, 1), each sector padded to the longest
    with g = 0 copies of its first class."""
    m, b, g = kernels.levels(n)
    sectors = n - 2.0 * np.arange(n + 1)
    longest = max(1, n // 2)
    b_table = np.empty((longest, n + 1, 1))
    g_table = np.zeros((longest, n + 1, 1))
    for k, level in enumerate(sectors):
        rows = np.flatnonzero(m == level)
        b_table[:, k, 0] = b[rows[0]]
        b_table[:len(rows), k, 0] = b[rows]
        g_table[:len(rows), k, 0] = g[rows]
    return sectors[:, None], b_table, g_table


def _temperatures(betas) -> np.ndarray:
    """Both inverse temperatures as a column, hot then cold."""
    return np.array([[betas.beta_h], [betas.beta_c]])


def _weights(beta: np.ndarray, x) -> np.ndarray:
    """Boltzmann weights e^{-beta*x} of energies x >= 0 at each inverse
    temperature of the column ``beta``, along a new second-to-last axis,
    each at least e^_EXP_FLOOR (1e-304), which every sum's term of at
    least 1 absorbs."""
    w = -beta * x[..., None, :]
    np.maximum(w, _EXP_FLOOR, out=w)
    return np.exp(w, out=w)


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum of ``x`` over axis 0, by halving it in place."""
    rows = len(x)
    while rows > 1:
        half = (rows + 1) // 2
        x[:rows - half] += x[half:rows]
        rows = half
    return x[0]


def _sectors(levels, j, betas):
    """Each sector's lowest bond energy f_M = min -J*B, its sums C_M at
    both temperatures, and its hot sum D_M = sum g (-J*B - f_M)
    e^{-beta_h (-J*B - f_M)}, at coupling ``j`` (a scalar, or one coupling
    per field along the last axis) on the table ``levels``
    (:func:`sector_table`)."""
    _, b, g = levels
    bond = -(b * j)
    f = bond.min(axis=0)
    excess = bond - f
    c = _sum_rows(g[..., None, :] * _weights(_temperatures(betas), excess))
    return f, c, _sum_rows(g * excess * np.exp(-betas.beta_h * excess))


def gap_entropy(n: int, j, hs, betas):
    """Free-energy gap T_h*logZ_h - T_c*logZ_c of the N-ring at each field
    of ``hs`` and coupling ``j`` (a scalar or one per field), and the hot
    entropy there, both for the whole ring."""
    levels = sector_table(n)
    f, c, d_h = _sectors(levels, j, betas)
    shifted = f - levels[0] * hs
    shifted -= shifted.min(axis=0)
    weights = _weights(_temperatures(betas), shifted)
    weights *= c
    z_h, z_c = _sum_rows(weights)
    energy = _sum_rows(np.exp(-betas.beta_h * shifted) * (shifted * c[:, 0] + d_h)) / z_h
    return (betas.t_h * np.log(z_h) - betas.t_c * np.log(z_c),
            betas.beta_h * energy + np.log(z_h))
