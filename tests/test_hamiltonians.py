"""Chain Hamiltonian construction: spectra, sign and bit conventions, symmetries."""

import numpy as np
import pytest

from spinengine import kernels
from spinengine.hamiltonians import (SIGMA_Z, IsingParams, embed_site_operator,
                                     ising_composite, ising_diagonal, ising_diagonals)
from spinengine.thermo import DenseOperator, EnergyTable, check_hermitian


def test_two_free_spins_spectrum():
    table = ising_diagonal(IsingParams(2, 0.0, 1.0)).energies
    assert sorted(table) == [-2.0, 0.0, 0.0, 2.0]


def test_three_site_ferromagnet_spectrum():
    # by hand: aligned rings at -3, every other configuration at +1
    table = np.sort(ising_diagonal(IsingParams(3, 1.0, 0.0)).energies)
    np.testing.assert_allclose(table, [-3, -3, 1, 1, 1, 1, 1, 1])


def test_four_site_antiferromagnet_neel_pair():
    table = ising_diagonal(IsingParams(4, -1.0, 0.0)).energies
    assert np.min(table) == -4.0
    assert np.sum(table == -4.0) == 2


def test_diagonal_matches_composed_dense():
    # -h sum_j Z_j from Kronecker embeddings plus the field-free ring pins
    # the sign of the field and which bit is which site
    rng = np.random.default_rng(21)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        j, h = rng.uniform(-2, 2, size=2)
        params = IsingParams(n, j, h)
        composed = (-h * sum(embed_site_operator(SIGMA_Z, k, n) for k in range(n))
                    + np.diag(kernels.ising_energies(n, j, 0.0)))
        table = ising_diagonal(params)
        dense = ising_composite(params)
        assert isinstance(table, EnergyTable)
        np.testing.assert_allclose(dense.matrix, composed, atol=1e-12)
        np.testing.assert_allclose(table.energies, np.real(composed.diagonal()), atol=1e-12)


def test_spectrum_symmetries():
    rng = np.random.default_rng(22)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        j, h = rng.uniform(-2, 2, size=2)
        table = ising_diagonal(IsingParams(n, j, h)).energies
        flipped = ising_diagonal(IsingParams(n, j, -h)).energies
        np.testing.assert_allclose(np.sort(table), np.sort(flipped), atol=1e-12)
        # cyclic site relabeling permutes configurations, not energies
        configs = np.arange(1 << n, dtype=np.uint64)
        rotated = ((configs >> 1) | ((configs & 1) << (n - 1))) & ((1 << n) - 1)
        np.testing.assert_allclose(table, table[rotated], atol=1e-12)


def test_ising_diagonal_requires_finite_chain():
    with pytest.raises(ValueError):
        ising_diagonal(IsingParams(None, 1.0, 0.0))


def test_corner_tables_from_one_enumeration():
    # the four corner tables of one bound: the same bits as one table each
    for n, j in ((1, 0.7), (4, -1.3), (8, 0.45)):
        fields = (0.2, 1.1, 2.0 / 3.0, -5.5)
        tables = ising_diagonals(n, j, fields)
        for table, h in zip(tables, fields):
            np.testing.assert_array_equal(table.energies,
                                          ising_diagonal(IsingParams(n, j, h)).energies)


@pytest.mark.parametrize("n, j, fields", [
    (None, 1.0, (0.0,)), (3, np.nan, (0.0,)), (3, 1.0, (0.0, np.inf)),
    # finite fields whose energies overflow
    (3, 1.0, (0.0, 1e308)),
])
def test_corner_tables_reject_bad_input(n, j, fields):
    with pytest.raises(ValueError):
        ising_diagonals(n, j, fields)


def test_all_constructions_hermitian():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        ham = ising_composite(IsingParams(n, rng.uniform(-2, 2),
                                          rng.uniform(-2, 2)))
        assert isinstance(ham, DenseOperator)
        check_hermitian(ham.matrix)
