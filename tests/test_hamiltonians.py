"""Chain Hamiltonian construction: spectra, composition, symmetries."""

import numpy as np
import pytest

from spinengine.hamiltonians import (SIGMA_X, SIGMA_Z, CompositeHamiltonian,
                                     IsingParams, LocalField, check_hermitian,
                                     compose, embed_site_operator,
                                     ising_composite, ising_diagonal)


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
    rng = np.random.default_rng(21)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        j, h = rng.uniform(-2, 2, size=2)
        params = IsingParams(n, j, h)
        dense = ising_composite(params).matrix
        assert np.max(np.abs(dense - np.diag(dense.diagonal()))) < 1e-12
        np.testing.assert_allclose(np.real(dense.diagonal()),
                                   ising_diagonal(params).energies, atol=1e-12)


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


def test_compose_single_site():
    built = compose([LocalField(0, SIGMA_Z)], n_sites=1)
    np.testing.assert_allclose(built.matrix, SIGMA_Z)


def test_compose_two_site_example():
    # fields -h*sigma_z with h=1 plus interaction -J*zz with J=1
    fields = [LocalField(0, -SIGMA_Z), LocalField(1, -SIGMA_Z)]
    zz = embed_site_operator(SIGMA_Z, 0, 2) @ embed_site_operator(SIGMA_Z, 1, 2)
    built = compose(fields, interaction=-zz)
    np.testing.assert_allclose(np.sort(np.real(built.matrix.diagonal())),
                               [-3, 1, 1, 1])


def test_compose_interaction_only():
    h_int = np.kron(SIGMA_X, SIGMA_X)
    built = compose([], interaction=h_int, n_sites=2)
    np.testing.assert_allclose(built.matrix, h_int)


def test_compose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compose([LocalField(0, np.array([[0, 1], [0, 0]], dtype=complex))],
                n_sites=1)
    with pytest.raises(ValueError):
        compose([LocalField(0, SIGMA_Z)], interaction=np.eye(8), n_sites=2)


def test_ising_diagonal_requires_finite_chain():
    with pytest.raises(ValueError):
        ising_diagonal(IsingParams(None, 1.0, 0.0))


def test_all_constructions_hermitian():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        ham = ising_composite(IsingParams(n, rng.uniform(-2, 2),
                                          rng.uniform(-2, 2)))
        assert isinstance(ham, CompositeHamiltonian)
        check_hermitian(ham.matrix)
