"""Transfer-matrix thermodynamics of the periodic Ising chain."""

import math

import numpy as np
import pytest

from spinengine import ising, kernels

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def enumeration_logz(n, j, h, beta):
    energies = kernels.ising_energies(n, j, h)
    emin = float(np.min(energies))
    return math.log(np.sum(np.exp(-beta * (energies - emin)))) - beta * emin


# --------------------------------------------------------------------------
# dominant eigenvalue and partition function


def test_log_lambda_plus_matches_direct_formula():
    rng = np.random.default_rng(50)
    for _ in range(20):
        beta = rng.uniform(0.2, 2.0)
        j = rng.uniform(-2.0, 2.0)
        h = rng.uniform(-2.0, 2.0)
        a, b = beta * j, beta * h
        direct = math.log(math.exp(a) * math.cosh(b)
                          + math.sqrt(math.exp(2 * a) * math.sinh(b) ** 2
                                      + math.exp(-2 * a)))
        assert ising.log_lambda_plus(beta, j, h) == pytest.approx(direct, abs=1e-12)


def test_log_lambda_plus_extreme_parameters():
    # direct evaluation overflows double here; extended precision still fits
    a, b = np.longdouble(-1600.0), np.longdouble(3240.0)
    sinh_b = np.sinh(b)
    lam = np.exp(a) * np.cosh(b) + np.sqrt(np.exp(2 * a) * sinh_b * sinh_b
                                           + np.exp(-2 * a))
    expected = float(np.log(lam))
    assert ising.log_lambda_plus(40.0, -40.0, 81.0) == pytest.approx(
        expected, rel=1e-12)


def test_transfer_matrix_logz_free_spins():
    assert ising.transfer_matrix_logZ(2, 0.0, 0.0, 1.0) == pytest.approx(
        math.log(4.0), abs=1e-12)
    assert ising.transfer_matrix_logZ(5, 0.0, 1.3, 0.7) == pytest.approx(
        5.0 * math.log(2.0 * math.cosh(0.7 * 1.3)), abs=1e-12)


def test_transfer_matrix_logz_against_enumeration():
    rng = np.random.default_rng(51)
    for n in (3, 8, 9):
        for _ in range(6):
            beta = rng.uniform(0.2, 2.0)
            j = rng.uniform(-2.0, 2.0)
            h = rng.uniform(-2.0, 2.0)
            assert ising.transfer_matrix_logZ(n, j, h, beta) == pytest.approx(
                enumeration_logz(n, j, h, beta), rel=1e-12, abs=1e-10)


def test_transfer_matrix_logz_strong_coupling():
    got = ising.transfer_matrix_logZ(10, -40.0, 81.0, 1.0)
    assert got == pytest.approx(enumeration_logz(10, -40.0, 81.0, 1.0), rel=1e-12)


def test_finite_size_correction_shrinks_with_n():
    gaps = []
    for n in (8, 10, 12):
        per_site = ising.transfer_matrix_logZ(n, -1.0, 0.7, 1.0) / n
        gaps.append(abs(per_site - ising.log_lambda_plus(1.0, -1.0, 0.7)))
    assert gaps[0] > gaps[1] > gaps[2]


# --------------------------------------------------------------------------
# densities


def test_free_energy_density_closed_cases():
    assert ising.free_energy_density(0.7, 0.0, 0.0) == pytest.approx(
        -math.log(2.0) / 0.7, abs=1e-12)
    for j in (-1.3, 0.9):
        assert ising.free_energy_density(1.1, j, 0.0) == pytest.approx(
            -math.log(2.0 * math.cosh(1.1 * j)) / 1.1, abs=1e-12)
    assert ising.free_energy_density(1.1, 0.0, 0.8) == pytest.approx(
        -math.log(2.0 * math.cosh(1.1 * 0.8)) / 1.1, abs=1e-12)


def test_entropy_density_limits():
    assert ising.entropy_density(1e-6, -1.0, 0.5) == pytest.approx(
        math.log(2.0), abs=1e-5)
    assert ising.entropy_density(40.0, -1.0, 2.0) == pytest.approx(
        math.log(PHI), abs=1e-3)


def test_entropy_from_free_energy_derivative():
    # s = -df/dT
    beta, j, h = 1.0, -1.0, 1.0
    dt = 1e-5
    t = 1.0 / beta
    fd = -(ising.free_energy_density(1.0 / (t + dt), j, h)
           - ising.free_energy_density(1.0 / (t - dt), j, h)) / (2 * dt)
    assert ising.entropy_density(beta, j, h) == pytest.approx(fd, abs=1e-6)


def test_entropy_decreases_with_beta():
    betas = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    s = ising.entropy_density(betas, -1.0, 0.7)
    assert np.all(np.diff(s) < 0)


def test_internal_energy_identities():
    rng = np.random.default_rng(52)
    for _ in range(10):
        beta = rng.uniform(0.2, 3.0)
        j = rng.uniform(-2.0, 2.0)
        h = rng.uniform(-2.0, 2.0)
        f = ising.free_energy_density(beta, j, h)
        s = ising.entropy_density(beta, j, h)
        u = ising.internal_energy_density(beta, j, h)
        assert u == pytest.approx(f + s / beta, abs=1e-12)
        # u = d(beta f)/d(beta)
        db = 1e-6 * beta
        fd = (ising.free_energy_density(beta + db, j, h) * (beta + db)
              - ising.free_energy_density(beta - db, j, h) * (beta - db)) / (2 * db)
        assert u == pytest.approx(fd, abs=1e-5)


def test_magnetization_density():
    assert ising.magnetization_density(1.2, 0.0, 0.9) == pytest.approx(
        math.tanh(1.2 * 0.9), abs=1e-12)
    assert ising.magnetization_density(1.2, -0.8, 0.9) == pytest.approx(
        -ising.magnetization_density(1.2, -0.8, -0.9), abs=1e-14)
    dh = 1e-5
    fd = -(ising.free_energy_density(1.2, -0.8, 0.9 + dh)
           - ising.free_energy_density(1.2, -0.8, 0.9 - dh)) / (2 * dh)
    assert ising.magnetization_density(1.2, -0.8, 0.9) == pytest.approx(fd, abs=1e-6)


def test_vectorized_evaluation_matches_scalars():
    betas = np.array([0.5, 1.0, 2.0])
    hs = np.array([0.3, 1.0, 2.5])
    vec = ising.entropy_density(betas, -1.0, hs)
    for k in range(3):
        assert vec[k] == ising.entropy_density(float(betas[k]), -1.0, float(hs[k]))


def test_beta_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ising.entropy_density(bad, -1.0, 0.5)
        with pytest.raises(ValueError):
            ising.transfer_matrix_logZ(4, -1.0, 0.5, bad)


# --------------------------------------------------------------------------
# entropy-field derivative and the optimal field


def test_entropy_field_derivative_closed_form():
    beta, j = 1.0, -1.0
    assert ising.entropy_density_dh(beta, j, 0.0) == 0.0
    dh = 1e-5
    for h in (0.5, 1.0, 2.5):
        fd = (ising.entropy_density(beta, j, h + dh)
              - ising.entropy_density(beta, j, h - dh)) / (2 * dh)
        assert ising.entropy_density_dh(beta, j, h) == pytest.approx(fd, abs=1e-6)
    assert ising.entropy_density_dh(beta, j, 1.0) > 0
    assert ising.entropy_density_dh(beta, j, 2.5) < 0


def test_optimal_field_phase_boundary():
    assert ising.optimal_field(1.0, -0.4) == 0.0
    assert ising.optimal_field(1.0, 0.0) == 0.0
    assert ising.optimal_field(1.0, 2.0) == 0.0  # ferromagnetic: never
    assert ising.optimal_field(1.0, -0.5) == 0.0  # marginal coupling
    h = ising.optimal_field(1.0, -1.0)
    assert h == pytest.approx(1.91501, abs=1e-5)
    assert abs(h - 2.0 * math.tanh(h)) < 1e-9
    assert ising.optimal_field(40.0, -1.0) == pytest.approx(2.0, abs=1e-6)


def test_optimal_field_beats_grid():
    beta, j = 1.0, -1.0
    h_star = ising.optimal_field(beta, j)
    s_star = ising.entropy_density(beta, j, h_star)
    grid = np.arange(0.0, 4.0, 1e-2)
    assert s_star >= np.max(ising.entropy_density(beta, j, grid)) - 1e-12


def test_optimal_field_slope_jump_at_threshold():
    # left derivative is zero, right derivative is large: the optimum is
    # not analytic across 2|J|beta = 1
    step = 1e-3
    left = (ising.optimal_field(1.0, -0.499) - ising.optimal_field(1.0, -0.498)) / step
    right = (ising.optimal_field(1.0, -0.502) - ising.optimal_field(1.0, -0.501)) / step
    assert left == 0.0
    assert right > 0.5


# --------------------------------------------------------------------------
# relative entropy densities


def log_gibbs_populations(energies, beta):
    x = -beta * (energies - np.min(energies))
    return x - math.log(np.sum(np.exp(x)))


def finite_relative_entropy_per_site(n, beta_s, beta_r, j, h_s, h_r):
    # log form: populations far below 1e-14 still contribute exactly
    log_p = log_gibbs_populations(kernels.ising_energies(n, j, h_s), beta_s)
    log_q = log_gibbs_populations(kernels.ising_energies(n, j, h_r), beta_r)
    return float(np.sum(np.exp(log_p) * (log_p - log_q))) / n


def test_relative_entropy_density_same_state_is_zero():
    assert ising.relative_entropy_density(1.0, 1.0, -1.0, 0.7, 0.7) == 0.0


def test_relative_entropy_density_matches_finite_chain():
    got = ising.relative_entropy_density(0.5, 1.0, -1.0, 0.0, 0.0)
    ref = finite_relative_entropy_per_site(12, 0.5, 1.0, -1.0, 0.0, 0.0)
    assert got > 0
    assert got == pytest.approx(ref, abs=2e-2)
    # off-critical states converge much faster in N
    got2 = ising.relative_entropy_density(0.5, 1.0, -1.0, 3.1, 2.6)
    ref2 = finite_relative_entropy_per_site(14, 0.5, 1.0, -1.0, 3.1, 2.6)
    assert got2 == pytest.approx(ref2, abs=1e-4)
    # signed fields, including states polarized against the reference
    for h_s, h_r, tol in ((-3.1, -2.6, 1e-10), (3.1, -2.6, 1e-7), (-2.6, 3.1, 1e-7)):
        got = ising.relative_entropy_density(0.5, 1.0, -1.0, h_s, h_r)
        ref = finite_relative_entropy_per_site(14, 0.5, 1.0, -1.0, h_s, h_r)
        assert got == pytest.approx(ref, abs=tol)


def test_relative_entropy_broadcast_matches_scalar():
    rng = np.random.default_rng(7)
    bs, br = rng.uniform(0.05, 3.0, size=(2, 400))
    j = rng.uniform(-50.0, 50.0, size=400)
    h_s, h_r = rng.uniform(-60.0, 60.0, size=(2, 400))
    got = ising._relative_entropy(bs, br, j, h_s, h_r)
    ref = [ising.relative_entropy_density(*p) for p in zip(bs, br, j, h_s, h_r)]
    np.testing.assert_array_equal(got, ref)


def test_relative_entropy_density_strong_coupling_corner():
    # shared field h = 2|J| between the two bath temperatures: the
    # mismatch penalty survives at strong coupling but stays tiny
    d = ising.relative_entropy_density(0.5, 1.0, -40.0, 80.0, 80.0)
    assert 0.0 <= d < 1e-3


def test_relative_entropy_density_polarized_markers():
    assert ising.relative_entropy_density(0.5, 1.0, -1.0, math.inf, math.inf) == 0.0
    assert ising.relative_entropy_density(0.5, 1.0, -1.0, math.inf, -math.inf) == math.inf
    assert ising.relative_entropy_density(0.5, 1.0, -1.0, 0.7, math.inf) == math.inf
    got = ising.relative_entropy_density(2.0, 1.0, 0.3, math.inf, 0.7)
    es = np.full(1, -10 * (0.3 + 0.7))  # all-up configuration only
    n = 14
    ref = 1.0 * (-(0.3 + 0.7)) + ising.transfer_matrix_logZ(n, 0.3, 0.7, 1.0) / n
    assert got == pytest.approx(ref, abs=1e-6)


def test_relative_entropy_density_nonnegative():
    rng = np.random.default_rng(53)
    for _ in range(30):
        bs, br = sorted(rng.uniform(0.2, 3.0, size=2))
        j = rng.uniform(-3.0, 3.0)
        h_s, h_r = rng.uniform(-3.0, 3.0, size=2)
        assert ising.relative_entropy_density(bs, br, j, h_s, h_r) >= 0.0


# --------------------------------------------------------------------------
# ground-state structure


def test_ground_state_degeneracy_even_antiferromagnet():
    g0, e0 = ising.ground_state_degeneracy(4, -1.0, 0.0)
    assert (g0, e0) == (2, -4.0)


def test_ground_state_degeneracy_odd_ring_frustration():
    g0, e0 = ising.ground_state_degeneracy(5, -1.0, 0.0)
    assert (g0, e0) == (10, -3.0)
    g0, e0 = ising.ground_state_degeneracy(7, -1.0, 0.0)
    assert g0 == 14


def test_ground_state_degeneracy_critical_field():
    # h = 2|J|: every configuration without adjacent down spins is a
    # ground state; their count is the Lucas number L_N
    g0, e0 = ising.ground_state_degeneracy(8, -1.0, 2.0)
    assert g0 == 47
    assert e0 == -8.0
    lucas = {4: 7, 6: 18, 10: 123, 12: 322}
    for n, expected in lucas.items():
        g0, _ = ising.ground_state_degeneracy(n, -1.0, 2.0)
        assert g0 == expected
        assert g0 >= 2 ** (n // 2)


def test_ground_state_degeneracy_exponential_growth():
    for n in (4, 6, 8, 10, 12, 14, 16):
        g0, _ = ising.ground_state_degeneracy(n, -1.0, 2.0)
        assert g0 >= 2 ** (n // 2)
