"""Ising ring kernels: the bitmask table and the (M, B) level classes,
checked against brute-force enumeration."""

import math
from collections import Counter

import numpy as np
import pytest

from spinengine import kernels


def brute_force_energies(n, j, h):
    """Direct per-configuration loop, the slow oracle for the kernels."""
    out = np.empty(1 << n)
    for c in range(1 << n):
        spins = [1 - 2 * ((c >> k) & 1) for k in range(n)]
        bond = sum(spins[k] * spins[(k + 1) % n] for k in range(n))
        out[c] = -h * sum(spins) - j * bond
    return out


def test_energies_match_brute_force():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(5):
            j, h = rng.uniform(-3, 3, size=2)
            got = kernels.ising_energies(n, j, h)
            np.testing.assert_allclose(got, brute_force_energies(n, j, h),
                                       rtol=0, atol=1e-12)


def test_all_up_is_index_zero():
    # bit 1 = spin down, so configuration 0 is the fully polarized state
    e = kernels.ising_energies(6, 1.0, 2.0)
    assert e[0] == -6 * 1.0 - 6 * 2.0


def classes(n):
    """The (M, B, g) classes of ``kernels.levels`` as integer triples."""
    return list(zip(*(x.astype(int).tolist() for x in kernels.levels(n))))


def test_levels_match_enumerated_histogram():
    for n in range(1, 17):
        msum = -kernels.ising_energies(n, 0.0, 1.0)
        bsum = -kernels.ising_energies(n, 1.0, 0.0)
        counts = Counter(zip(msum.astype(int).tolist(), bsum.astype(int).tolist()))
        found = classes(n)
        assert len(found) == len(counts)
        assert {(m, b): g for m, b, g in found} == counts
        assert sum(g for _, _, g in found) == 2 ** n


def test_levels_grouped_by_descending_magnetization():
    for n in range(1, 25):
        m, b, g = kernels.levels(n)
        assert m.ndim == b.ndim == g.ndim == 1 and len(m) == len(b) == len(g)
        assert m.dtype == b.dtype == g.dtype == np.float64
        ms = m.tolist()
        assert ms == sorted(ms, reverse=True)
        assert len(set(ms)) == n + 1


def test_sector_table():
    # magnetization M = N - 2k holds the configurations with k down spins,
    # in ascending domain count r (B = N - 4r, r = 0 for the polarized
    # states), with no zero-degeneracy class
    for n in range(1, 25):
        m, b, g = kernels.levels(n)
        assert sorted(set(m.tolist()), reverse=True) == [n - 2 * k for k in range(n + 1)]
        for k in range(n + 1):
            bs, gs = b[m == n - 2 * k], g[m == n - 2 * k]
            assert sum(gs) == math.comb(n, k)
            count = max(1, min(k, n - k))
            first_r = 1 if 0 < k < n else 0
            assert bs.tolist() == [n - 4 * r for r in range(first_r, first_r + count)]
            assert np.all(gs > 0) and np.all(gs == np.round(gs))


def test_tables_from_one_enumeration(monkeypatch):
    # a chunk of 16 configurations makes every table span many chunks
    monkeypatch.setattr(kernels, "_CHUNK", 16)
    for n in (1, 5, 9):
        configs = np.arange(1 << n, dtype=np.uint64)
        msum, bsum = kernels._config_sums(configs, n)
        fields = (0.0, 0.3, -2.0 / 3.0, 1e5)
        tables = kernels.ising_energies(n, 1.7, fields)
        assert tables.shape == (len(fields), 1 << n)
        for table, h in zip(tables, fields):
            np.testing.assert_array_equal(table, -h * msum - 1.7 * bsum)


def test_ground_state_stats_agrees_with_table():
    rng = np.random.default_rng(12)
    cases = [(n, *rng.uniform(-2, 2, size=2)) for n in range(1, 17)]
    # integer couplings and fields put whole classes at the same energy
    cases += [(n, float(rng.integers(-3, 4)), float(rng.integers(-4, 5)))
              for n in range(1, 17)]
    # odd antiferromagnetic rings: frustrated, 2N ground states at h = 0
    cases += [(n, -1.0, 0.0) for n in range(3, 17, 2)]
    for n, j, h in cases:
        table = kernels.ising_energies(n, j, h)
        e0, count = kernels.ground_state_stats(n, j, h, 1e-9)
        assert e0 == pytest.approx(float(np.min(table)), abs=1e-12)
        assert count == int(np.sum(table <= np.min(table) + 1e-9))


def test_chain_length_bounds():
    with pytest.raises(ValueError):
        kernels.ising_energies(0, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernels.ising_energies(25, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernels.levels(0)


@pytest.mark.parametrize("j, h", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)])
def test_ground_state_stats_rejects_nonfinite(j, h):
    with pytest.raises(ValueError, match="finite"):
        kernels.ground_state_stats(4, j, h, 1e-9)
