"""Spectral thermodynamics: Gibbs states, entropies, minimized divergences."""

import itertools
import math

import numpy as np
import pytest

from spinengine import kernels
from spinengine.hamiltonians import SIGMA_Z, IsingParams, ising_diagonal
from spinengine.thermo import (DensityState, EnergyTable, gibbs,
                               min_relative_entropy, relative_entropy,
                               relative_entropy_down, trace_distance,
                               von_neumann_entropy)


def random_state(rng, dim):
    p = rng.dirichlet(np.ones(dim))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return DensityState(populations=p, basis=q)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --------------------------------------------------------------------------
# gibbs


def test_gibbs_infinite_temperature_is_maximally_mixed():
    state = gibbs(np.diag([0.0, 1.0, 5.0]), 0.0)
    np.testing.assert_allclose(state.populations, np.full(3, 1 / 3))


def test_gibbs_single_spin_population():
    state = gibbs(-SIGMA_Z, 1.0)
    p_up = max(state.populations)
    assert p_up == pytest.approx(math.e / (math.e + 1 / math.e), abs=1e-12)


def test_gibbs_zero_temperature_limit():
    state = gibbs(np.diag([0.0, 1.0, 2.0]), 50.0)
    assert max(state.populations) > 1 - 1e-10


def test_gibbs_rejects_bad_beta():
    for beta in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            gibbs(SIGMA_Z, beta)


def test_gibbs_ignores_an_energy_shift():
    # weights are taken from the lowest level, for tables and matrices alike
    table = ising_diagonal(IsingParams(3, -0.7, 1.1))
    shifted = EnergyTable(table.energies + 2.0)
    for beta in (0.2, 1.3, 4.0):
        want = gibbs(table, beta).populations
        np.testing.assert_allclose(gibbs(shifted, beta).populations, want, rtol=0, atol=1e-12)
        dense = gibbs(table.matrix + 2.0 * np.eye(8), beta).populations
        np.testing.assert_allclose(np.sort(dense), np.sort(want), rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# entropies


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(DensityState(populations=[1.0, 0.0])) == 0.0
    mixed = DensityState(populations=np.full(4, 0.25))
    assert von_neumann_entropy(mixed) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_single_spin_value():
    p = math.e / (math.e + 1 / math.e)
    state = DensityState(populations=[p, 1 - p])
    expected = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    assert von_neumann_entropy(state) == pytest.approx(expected, abs=1e-12)
    assert 0.364 < von_neumann_entropy(state) < 0.366


def test_relative_entropy_basics():
    rng = np.random.default_rng(34)
    rho = random_state(rng, 4)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    d = relative_entropy(DensityState(populations=[0.5, 0.5]),
                         DensityState(populations=[0.9, 0.1]))
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert d == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_support_violation_is_infinite():
    rho = DensityState(populations=[0.5, 0.5])
    sigma = DensityState(populations=[1.0, 0.0])
    assert relative_entropy(rho, sigma) == math.inf


def test_support_is_every_positive_population():
    # smallest populations ~1e-24 lie inside the support: both divergences
    # are finite and equal sums over exact log-populations
    def log_gibbs(j, h):
        x = -kernels.ising_energies(5, j, h)
        return x - np.logaddexp.reduce(x)

    lp, lq = log_gibbs(-2.8, 4.9), log_gibbs(5.6, -1.4)
    rho = gibbs(ising_diagonal(IsingParams(5, -2.8, 4.9)), 1.0)
    sigma = gibbs(ising_diagonal(IsingParams(5, 5.6, -1.4)), 1.0)
    assert 1e-25 < min(rho.populations) < 1e-23
    assert 1e-25 < min(sigma.populations) < 1e-23
    same_basis = float(np.sum(np.exp(lp) * (lp - lq)))
    lp, lq = np.sort(lp), np.sort(lq)
    sorted_pairs = float(np.sum(np.exp(lp) * (lp - lq)))
    assert relative_entropy(rho, sigma) == pytest.approx(same_basis, abs=1e-12)
    assert relative_entropy_down(rho, sigma) == pytest.approx(sorted_pairs, abs=1e-12)


def test_pure_raw_matrix_reference_keeps_its_support():
    # eigh leaves ~1e-17 positive eigenvalues off a rotated pure state;
    # they are roundoff, so mass there is outside the support
    v = random_unitary(np.random.default_rng(0), 4)[:, 0]
    sigma = np.outer(v, v.conj())
    assert np.max(np.linalg.eigvalsh(sigma)[:3]) > 0
    rho = DensityState(populations=[0.5, 0.5, 0.0, 0.0])
    assert relative_entropy(rho, sigma) == math.inf
    assert relative_entropy_down(rho, sigma) == math.inf


def test_free_energy_identity():
    # D(rho || omega) = beta*(Tr rho H - Tr omega H) - (S(rho) - S(omega))
    rng = np.random.default_rng(35)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        beta = rng.uniform(0.2, 2.0)
        omega = gibbs(h, beta)
        rho = random_state(rng, 4)
        direct = relative_entropy(rho, omega)
        identity = beta * (rho.energy(h) - omega.energy(h)) \
            - (von_neumann_entropy(rho) - von_neumann_entropy(omega))
        assert direct == pytest.approx(identity, abs=1e-10)


@pytest.mark.parametrize("dim", [16, 64])
def test_energy_matches_trace(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    table = ising_diagonal(IsingParams(int(np.log2(dim)), 0.7, -1.3))
    p = rng.dirichlet(np.ones(dim))
    for state in (DensityState(populations=p, basis=random_unitary(rng, dim)),
                  DensityState(populations=p)):
        for op, dense in ((h, h), (table, np.diag(table.energies))):
            expected = np.trace(state.matrix() @ dense).real
            assert state.energy(op) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_gibbs_maximizes_entropy_at_fixed_energy():
    # move along a trace- and energy-preserving direction: entropy must drop
    rng = np.random.default_rng(36)
    energies = np.array([0.0, 0.7, 1.1, 2.3])
    omega = gibbs(np.diag(energies), 1.2)
    p = omega.populations
    basis = np.vstack([np.ones(4), energies])
    _, _, vt = np.linalg.svd(basis)
    for direction in vt[2:]:
        for t in (1e-3, -1e-3, 1e-2):
            shifted = p + t * direction
            if np.any(shifted < 0):
                continue
            s = von_neumann_entropy(DensityState(populations=shifted))
            assert s <= von_neumann_entropy(omega) + 1e-12


# --------------------------------------------------------------------------
# ordered relative entropy and class minimization


def test_relative_entropy_down_values():
    same = relative_entropy_down(DensityState(populations=[0.3, 0.7]),
                                 DensityState(populations=[0.7, 0.3]))
    assert same == pytest.approx(0.0, abs=1e-15)
    d = relative_entropy_down(DensityState(populations=[0.7, 0.3]),
                              DensityState(populations=[0.6, 0.4]))
    expected = 0.7 * math.log(0.7 / 0.6) + 0.3 * math.log(0.3 / 0.4)
    assert d == pytest.approx(expected, abs=1e-12)


def brute_force_down(p, q):
    best = math.inf
    for perm in itertools.permutations(range(len(p))):
        total = 0.0
        for a, b in zip(p, (q[i] for i in perm)):
            if a > 1e-14:
                if b <= 1e-14:
                    total = math.inf
                    break
                total += a * math.log(a / b)
        best = min(best, total)
    return max(best, 0.0)


def test_down_is_minimum_over_pairings():
    rng = np.random.default_rng(37)
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        rho, sigma = random_state(rng, dim), random_state(rng, dim)
        got = relative_entropy_down(rho, sigma)
        want = brute_force_down(rho.populations, sigma.populations)
        assert got == pytest.approx(want, abs=1e-10)


def test_down_dominates_random_rotations():
    rng = np.random.default_rng(38)
    rho, sigma = random_state(rng, 4), random_state(rng, 4)
    floor = relative_entropy_down(rho, sigma)
    for _ in range(100):
        u = random_unitary(rng, 4)
        rotated = DensityState(populations=rho.populations, basis=u @ rho.basis)
        assert floor <= relative_entropy(rotated, sigma) + 1e-10


def test_min_relative_entropy_classes():
    rng = np.random.default_rng(39)
    rho, sigma = random_state(rng, 4), random_state(rng, 4)
    assert min_relative_entropy(rho, sigma, "full") == \
        relative_entropy_down(rho, sigma)
    assert min_relative_entropy(rho, sigma, "commuting") == \
        relative_entropy(rho, sigma)
    assert min_relative_entropy(rho, sigma, "identity") == \
        relative_entropy(rho, sigma)
    u = random_unitary(rng, 4)
    rotated = DensityState(populations=rho.populations, basis=u @ rho.basis)
    assert min_relative_entropy(rho, sigma, u) == \
        pytest.approx(relative_entropy(rotated, sigma), abs=1e-12)
    with pytest.raises(ValueError):
        min_relative_entropy(rho, sigma, "diagonal")


def test_trace_distance():
    up = DensityState(populations=[1.0, 0.0])
    down = DensityState(populations=[0.0, 1.0])
    assert trace_distance(up, up) == 0.0
    assert trace_distance(up, down) == pytest.approx(1.0)
    plus = DensityState(populations=[1.0, 0.0],
                        basis=np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert trace_distance(up, plus) == pytest.approx(0.5 * math.sqrt(2), abs=1e-12)


def test_density_state_basis_must_match_populations():
    with pytest.raises(ValueError, match="4x4 but there are 2 populations"):
        DensityState([0.5, 0.5], basis=np.eye(4))
    with pytest.raises(ValueError, match="2x2 but there are 3 populations"):
        DensityState([0.2, 0.3, 0.5], basis=np.eye(2))
    assert DensityState([0.5, 0.5], basis=np.eye(2)).dim == 2


def test_density_state_rejects_nan_populations():
    for populations in ([np.nan, 0.5], [np.nan, 1.0], [0.25, 0.75, np.nan]):
        with pytest.raises(ValueError, match="NaN"):
            DensityState(np.array(populations))


def test_density_state_populations_must_be_one_dimensional():
    with pytest.raises(ValueError, match="one-dimensional"):
        DensityState([[0.25, 0.25], [0.25, 0.25]])
