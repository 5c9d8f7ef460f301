"""The finite periodic Ising ring, built in one place.

A configuration of ``n`` spins is an integer ``c`` in ``[0, 2**n)``;
bit ``j`` set means spin ``j`` points down (``sigma_j = -1``), so config
0 is the all-up state.  The chain energy is

    E(c) = -h * M(c)  -  J * B(c),   M = sum_j sigma_j,  B = sum_j sigma_j sigma_{j+1}

with periodic neighbours (at ``n = 2`` the ring has two bonds, at
``n = 1`` the single bond is ``sigma_0^2 = 1``).  The ring comes in two
views:

* ``ising_energies``: the energy of every configuration, indexed by
  bitmask (``2**n`` entries; one table per field for several fields),
  for diagonal Hamiltonians and as the enumeration oracle;
* ``levels``: the distinct ``(M, B)`` classes with their exact
  degeneracies.  A configuration with ``k`` down spins in ``r`` domains
  has ``M = n - 2k`` and ``B = n - 4r``, and there are
  ``(n/r) C(k-1, r-1) C(n-k-1, r-1)`` of them; the two polarized states
  (``r = 0``) are their own classes.  Anything that depends on a
  configuration only through ``(M, B)`` sums over these few classes
  (27 at ``n = 10``, 146 at ``n = 24``) instead of all ``2**n``.
"""

from __future__ import annotations

from math import comb

import numpy as np

_CHUNK = 1 << 20  # configs per numpy block, keeps transient arrays ~8 MB


def _check_length(n: int) -> None:
    if not 1 <= n <= 24:
        raise ValueError(f"chain length {n} outside supported range 1..24")


def _config_sums(configs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Magnetization and bond sums for an array of config integers."""
    mask = np.uint64((1 << n) - 1)
    c = configs.astype(np.uint64)
    down = np.bitwise_count(c).astype(np.int64)
    rot = ((c >> np.uint64(1)) | ((c & np.uint64(1)) << np.uint64(n - 1))) & mask
    flips = np.bitwise_count(c ^ rot).astype(np.int64)
    return n - 2 * down, n - 2 * flips


def ising_energies(n: int, j: float, h) -> np.ndarray:
    """Energy of every configuration of the periodic chain, indexed by
    bitmask.  With a sequence of fields ``h`` the result has one such
    table per field (rows), from one enumeration: each chunk's M and B
    sums serve every field."""
    _check_length(n)
    j, hs = float(j), np.asarray(h, dtype=np.float64)
    size = 1 << n
    out = np.empty(hs.shape + (size,), dtype=np.float64)
    tables = out.reshape(-1, size)
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        msum, bsum = _config_sums(np.arange(start, stop, dtype=np.uint64), n)
        bond = j * bsum
        for table, field in zip(tables, hs.reshape(-1)):
            table[start:stop] = -field * msum - bond
    return out


def levels(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ring's ``(M, B, g)`` classes (magnetization sum, bond sum and
    the exact number of configurations) as three flat float64 arrays.

    The classes come in descending M (``k`` down spins, M = n - 2k), each
    magnetization in ascending domain count ``r`` (B = n - 4r).  The
    degeneracies sum to ``2**n``.
    """
    _check_length(n)
    # r = 0: a polarized state
    classes = [(n - 2 * k, n - 4 * r,
                n * comb(k - 1, r - 1) * comb(n - k - 1, r - 1) // r if r else 1)
               for k in range(n + 1) for r in range(1, min(k, n - k) + 1) or [0]]
    return tuple(np.array(x, dtype=np.float64) for x in zip(*classes))


def ground_state_stats(n: int, j: float, h: float, tol: float) -> tuple[float, int]:
    """Minimum energy and number of configurations within ``tol`` of it.

    Raises ``ValueError`` when some class energy is not finite: an energy
    that overflowed to -inf would count as a ground state.
    """
    j, h = float(j), float(h)
    if not (np.isfinite(j) and np.isfinite(h)):
        raise ValueError("coupling and field must be finite")
    m, b, g = levels(n)
    with np.errstate(over="ignore", invalid="ignore"):
        energies = -h * m - j * b
    if not np.all(np.isfinite(energies)):
        raise ValueError("class energies have non-finite entries")
    e0 = float(np.min(energies))
    return e0, int(np.sum(g[energies <= e0 + float(tol)]))
