"""Transfer-matrix thermodynamics of the periodic Ising chain."""

import math

import numpy as np
import pytest

import hp_oracle
import sector_sums
from spinengine import ising, kernels, protocols
from spinengine.engine import Betas

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def enumeration_logz(n, j, h, beta):
    energies = kernels.ising_energies(n, j, h)
    emin = float(np.min(energies))
    return math.log(np.sum(np.exp(-beta * (energies - emin)))) - beta * emin


# The infinite-chain quantities, each read off ising._core at (beta*J, beta*|h|)


def core_at(beta, j, h):
    return ising._core(beta * j, beta * abs(h))


def log_lambda(beta, j, h):
    # log lambda_+ = ra*a + rb*|b| + delta
    core = core_at(beta, j, h)
    return float(core.ra * beta * j + core.rb * beta * abs(h) + core.delta)


def free_energy(beta, j, h):
    core = core_at(beta, j, h)
    return float(core.ground_energy(j, abs(h)) - core.delta / beta)


def internal_energy(beta, j, h):
    core = core_at(beta, j, h)
    return float(core.ground_energy(j, abs(h)) - j * core.delta_a - abs(h) * core.delta_b)


def magnetization(beta, j, h):
    core = core_at(beta, j, h)
    return float(np.sign(h) * (core.rb + core.delta_b))


def transfer_matrix_log_z(n, j, h, beta):
    # Z_N = lambda_+^N + lambda_-^N, with lambda_- = det T / lambda_+
    # = 2 sinh(2a) / lambda_+ taken from the core's lambda_+
    a = beta * j
    log_lp = log_lambda(beta, j, h)
    if a == 0.0:
        return n * log_lp
    log_ratio = math.log(2.0 * abs(math.sinh(2.0 * a))) - 2.0 * log_lp
    sign = 1.0 if a > 0 or n % 2 == 0 else -1.0
    return n * log_lp + math.log1p(sign * math.exp(n * log_ratio))


# --------------------------------------------------------------------------
# dominant eigenvalue and partition function


def test_core_log_lambda_matches_direct_formula():
    rng = np.random.default_rng(50)
    for _ in range(20):
        beta = rng.uniform(0.2, 2.0)
        j = rng.uniform(-2.0, 2.0)
        h = rng.uniform(-2.0, 2.0)
        a, b = beta * j, beta * h
        direct = math.log(math.exp(a) * math.cosh(b)
                          + math.sqrt(math.exp(2 * a) * math.sinh(b) ** 2
                                      + math.exp(-2 * a)))
        assert log_lambda(beta, j, h) == pytest.approx(direct, abs=1e-12)


def test_core_log_lambda_extreme_parameters():
    # direct evaluation overflows double here; extended precision still fits
    a, b = np.longdouble(-1600.0), np.longdouble(3240.0)
    sinh_b = np.sinh(b)
    lam = np.exp(a) * np.cosh(b) + np.sqrt(np.exp(2 * a) * sinh_b * sinh_b
                                           + np.exp(-2 * a))
    expected = float(np.log(lam))
    assert log_lambda(40.0, -40.0, 81.0) == pytest.approx(
        expected, rel=1e-12)


def test_transfer_matrix_logz_free_spins():
    assert transfer_matrix_log_z(2, 0.0, 0.0, 1.0) == pytest.approx(
        math.log(4.0), abs=1e-12)
    assert transfer_matrix_log_z(5, 0.0, 1.3, 0.7) == pytest.approx(
        5.0 * math.log(2.0 * math.cosh(0.7 * 1.3)), abs=1e-12)


def test_transfer_matrix_logz_against_enumeration():
    rng = np.random.default_rng(51)
    for n in (3, 8, 9):
        for _ in range(6):
            beta = rng.uniform(0.2, 2.0)
            j = rng.uniform(-2.0, 2.0)
            h = rng.uniform(-2.0, 2.0)
            assert transfer_matrix_log_z(n, j, h, beta) == pytest.approx(
                enumeration_logz(n, j, h, beta), rel=1e-12, abs=1e-10)


def test_transfer_matrix_logz_strong_coupling():
    got = transfer_matrix_log_z(10, -40.0, 81.0, 1.0)
    assert got == pytest.approx(enumeration_logz(10, -40.0, 81.0, 1.0), rel=1e-12)


def test_finite_size_correction_shrinks_with_n():
    gaps = []
    for n in (8, 10, 12):
        per_site = enumeration_logz(n, -1.0, 0.7, 1.0) / n
        gaps.append(abs(per_site - log_lambda(1.0, -1.0, 0.7)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_transfer_matrix_logz_matches_sector_sums_past_enumeration():
    # two finite-ring paths that share no code: the core's lambda_+ through
    # Z_N = lambda_+^N + lambda_-^N, and the magnetization-sector sums of
    # the tests' reference; the ring's closed form matches both
    rng = np.random.default_rng(54)
    for n in (16, 20, 24):
        for _ in range(5):
            j, h = rng.uniform(-2.0, 2.0, size=2)
            betas = Betas(*sorted(rng.uniform(0.2, 2.0, size=2)))
            log_z = [transfer_matrix_log_z(n, j, h, beta)
                     for beta in (betas.beta_h, betas.beta_c)]
            scale = betas.t_h * abs(log_z[0]) + betas.t_c * abs(log_z[1])
            for gap in (sector_sums.gap_entropy(n, j, np.array([h]), betas)[0],
                        n * protocols._ring_work(n, j, np.array([h]), betas)[0]):
                assert abs(gap[0] - (betas.t_h * log_z[0] - betas.t_c * log_z[1])) \
                    <= 1e-12 * scale


# --------------------------------------------------------------------------
# densities


def test_core_free_energy_closed_cases():
    # f = ground energy - delta/beta
    assert free_energy(0.7, 0.0, 0.0) == pytest.approx(
        -math.log(2.0) / 0.7, abs=1e-12)
    for j in (-1.3, 0.9):
        assert free_energy(1.1, j, 0.0) == pytest.approx(
            -math.log(2.0 * math.cosh(1.1 * j)) / 1.1, abs=1e-12)
    assert free_energy(1.1, 0.0, 0.8) == pytest.approx(
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
    fd = -(free_energy(1.0 / (t + dt), j, h)
           - free_energy(1.0 / (t - dt), j, h)) / (2 * dt)
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
        f = free_energy(beta, j, h)
        s = ising.entropy_density(beta, j, h)
        u = internal_energy(beta, j, h)
        assert u == pytest.approx(f + s / beta, abs=1e-12)
        # u = d(beta f)/d(beta)
        db = 1e-6 * beta
        fd = (free_energy(beta + db, j, h) * (beta + db)
              - free_energy(beta - db, j, h) * (beta - db)) / (2 * db)
        assert u == pytest.approx(fd, abs=1e-5)


def test_core_magnetization():
    # m = sign(h) * (rb + delta_b) = -df/dh
    assert magnetization(1.2, 0.0, 0.9) == pytest.approx(
        math.tanh(1.2 * 0.9), abs=1e-12)
    assert magnetization(1.2, -0.8, 0.9) == pytest.approx(
        -magnetization(1.2, -0.8, -0.9), abs=1e-14)
    dh = 1e-5
    fd = -(free_energy(1.2, -0.8, 0.9 + dh)
           - free_energy(1.2, -0.8, 0.9 - dh)) / (2 * dh)
    assert magnetization(1.2, -0.8, 0.9) == pytest.approx(fd, abs=1e-6)


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


# --------------------------------------------------------------------------
# the work-only log excess and the optimal field


def test_log_excess_matches_core_delta():
    # the work-only path must be the delta of _core bit for bit, in both
    # branches and at the extremes: |a| up to 500*beta, b = 0, and the
    # polarized h = 0 underflow (nan) past beta*J ~ 186
    rng = np.random.default_rng(11)
    a = np.concatenate([rng.uniform(-700.0, 700.0, 4000), rng.normal(0.0, 3.0, 4000),
                        [500.0, -500.0, 700.0, -700.0, 0.0, 186.0, 186.5, 200.0, 250.0]])
    b = np.concatenate([rng.uniform(0.0, 1400.0, 4000), np.abs(rng.normal(0.0, 3.0, 4000)),
                        [0.0, 1000.0, 0.0, 1400.0, 0.0, 0.0, 0.0, 0.0, 1e-300]])
    b[::5] = 0.0
    pol = 2.0 * a + b >= 0.0
    assert pol.any() and not pol.all()
    with np.errstate(invalid="ignore"):
        mixed = ising._core(a, b)
        assert np.isnan(mixed.delta).any()
        np.testing.assert_array_equal(ising._log_excess(a, b), mixed.delta)  # nan == nan
        # single-branch inputs skip the masked merge; every field agrees
        for mask in (pol, ~pol):
            for x, y in zip(mixed, ising._core(a[mask], b[mask])):
                np.testing.assert_array_equal(x[mask], y)
        # single-branch blocks, a scalar coupling against a field row, and
        # the shape of broadcast inputs
        for beta in (0.5, 1.0, 1.4):
            for j in (-500.0, -3.0, 0.0, 1.0, 200.0):
                h = np.arange(0.0, 4.0 * max(1.0, abs(j)), 0.37)
                np.testing.assert_array_equal(ising._log_excess(beta * j, beta * h),
                                              ising._core(beta * j, beta * h).delta)
        grid = ising._log_excess(a[:6, None], b[None, :4])
        assert grid.shape == (6, 4)
        np.testing.assert_array_equal(grid, ising._core(a[:6, None], b[None, :4]).delta)
    assert np.shape(ising._log_excess(0.3, 0.2)) == ()


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


def bisect_optimal_field(beta, j, tol=1e-13):
    # the scalar math.tanh bisection the array path replaced
    jj = 2.0 * abs(j)
    if j >= 0 or jj * beta <= 1.0:
        return 0.0
    lo, hi = 0.0, jj
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - jj * math.tanh(beta * mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_optimal_field_array_path(beta):
    rng = np.random.default_rng(int(10 * beta))
    threshold = -0.5 / beta
    js = np.concatenate([
        rng.uniform(-500.0, 500.0, 200), rng.uniform(-3.0, 0.0, 200),
        [0.0, -0.0, 1.0, threshold, -500.0],
        # within 1e-9 of 2|J|beta = 1, on both sides
        threshold + np.linspace(-1e-9, 1e-9, 21)])
    got = ising.optimal_field(beta, js)
    assert got.shape == js.shape
    single = [ising.optimal_field(beta, float(j)) for j in js]
    assert all(isinstance(h, float) for h in single)
    np.testing.assert_array_equal(got, single)
    off = (js >= 0) | (2.0 * np.abs(js) * beta <= 1.0)
    assert np.all(got[off] == 0.0)
    assert np.all(got[~off] > 0.0)
    jj = 2.0 * np.abs(js)
    residual = np.abs(got - jj * np.tanh(beta * got))
    assert np.all(residual <= 1e-12 * np.maximum(1.0, jj))
    ref = np.array([bisect_optimal_field(beta, float(j)) for j in js])
    assert np.max(np.abs(got - ref)) <= 1e-10


def test_optimal_field_near_the_float_range():
    # roots above half the float range: at these couplings tanh(beta*h)
    # rounds to 1, so the root is 2|J|; the weak couplings batched with
    # them keep their bits
    huge = np.array([-4.6e307, -6e307, -8.9e307])
    for beta in (1.0, 1e-300, 1e308):
        np.testing.assert_allclose(ising.optimal_field(beta, huge), 2.0 * np.abs(huge),
                                   rtol=1e-15)
    js = np.array([-6e307, -1.0, -3.0, 2e307, -4e307])
    got = ising.optimal_field(1.0, js)
    assert np.array_equal(got, [ising.optimal_field(1.0, float(j)) for j in js])
    assert got[1] == pytest.approx(bisect_optimal_field(1.0, -1.0), abs=1e-13) and got[3] == 0.0
    assert got[4] == pytest.approx(8e307, rel=1e-15)
    with pytest.raises(ValueError, match="overflows"):
        ising.optimal_field(1.0, [-1.0, -1e308])


def test_optimal_field_beta_column_matches_scalar_beta_calls():
    # one Newton iteration for a column of betas against a row of couplings, the
    # half-scale roots near the float maximum included, equals one call
    # per beta bit for bit
    betas = np.array([0.5, 1.0, 3.0, 1e-300, 1e308])
    js = np.concatenate([np.linspace(-3.0, 0.5, 71), [-4.6e307, -8.9e307, -6e307, 2e307]])
    got = ising.optimal_field(betas[:, None], js)
    assert got.shape == (len(betas), len(js))
    want = np.array([ising.optimal_field(float(b), js) for b in betas])
    assert got.tobytes() == want.tobytes()
    assert ising.optimal_field(np.array([1.0, 2.0]), -1.0).tolist() == \
        [ising.optimal_field(1.0, -1.0), ising.optimal_field(2.0, -1.0)]
    with pytest.raises(ValueError, match="overflows"):
        ising.optimal_field(betas[:, None], [-1.0, -1e308])
    with pytest.raises(ValueError, match="positive"):
        ising.optimal_field([[1.0], [0.0]], js)


def test_newton_stops_where_rounding_takes_over(newton_calls):
    # optimal_field's Newton iterations, on batches mixing a root far above
    # 512 (floats more than 1e-13 apart), a row within 1e-12 of
    # 2|J|beta = 1, rows whose 2|J|beta overflows (beta = 1e308) or whose
    # roots sit near the float maximum (beta = 1e-300), and rows off
    # ``live``: every step is finite, the rows off ``live`` are never
    # evaluated and keep their bracket top, and each batch ends well inside
    # the cap
    cases = {1.0: [-3e4, -1.0, -0.5 * (1.0 + 1e-12), -0.25, 2.0, -4e307],
             1e308: [-1.0, -3.0, -1e-300, 1.0, -4.6e307],
             1e-300: [-1e300, -4.6e307, -8.9e307, -1.0, 0.0]}
    for beta, js in cases.items():
        js = np.array(js)
        newton_calls.clear()
        got = ising.optimal_field(beta, js)
        live = -js > 0.5 / beta
        assert np.array_equal(np.unique(np.concatenate([rows for rows, _ in newton_calls])),
                              np.flatnonzero(live))
        assert all(np.all(np.isfinite(out)) for _, out in newton_calls)
        assert len(newton_calls) <= ising._NEWTON_CAP // 2
        assert np.all(got[~live] == 0.0) and np.all((got[live] > 0.0) & (got[live] <= -2.0 * js[live]))
    # a step that never settles hits the cap and raises, never returning
    with pytest.raises(RuntimeError, match="still falling"):
        ising._newton(lambda rows, h: 1e-3 * h, np.array([1.0]), np.array([True]))


def test_optimal_field_roots_on_a_near_critical_fuzz(newton_calls):
    # seeded rows with 2|J|beta - 1 from 1e-15 to 1e-1, rows within 40
    # floats of 2|J|beta = 1 (where rounding can step an iterate below 0)
    # and rows with |J| up to 1e300: the root is positive, its exact
    # residual |h - 2|J| tanh(beta h)| (decimal oracle) is at most
    # 1e-12*max(1, 2|J|), and no row needs half the iteration cap
    rng = np.random.default_rng(46)
    for k in range(360):
        beta = 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 1:
            j = -(1.0 + 10.0 ** rng.uniform(-15.0, -1.0)) / (2.0 * beta)
        elif k % 3 == 2:
            j = -0.5 / beta - rng.integers(1, 41) * np.spacing(0.5 / beta)
        else:
            j = -10.0 ** rng.uniform(-3.0, 300.0)
            beta = 10.0 ** rng.uniform(-3.0, min(3.0, 307.0 - math.log10(-j)))
        newton_calls.clear()
        h = ising.optimal_field(beta, j)
        assert len(newton_calls) < ising._NEWTON_CAP // 2
        case = (beta, j, h)
        assert h > 0.0 if 2.0 * abs(j) * beta > 1.0 else h == 0.0, case
        assert hp_oracle.field_residual(beta, j, h) <= 1e-12 * max(1.0, 2.0 * abs(j)), case


def test_entropy_matches_decimal_oracle():
    # the hot entropy next to the switch field h = 2|J|, where a*delta_a
    # and |b|*delta_b are large and nearly equal, against the 400-digit
    # oracle to 1e-12 relative: at h = 2|J| for |J| up to 1e10, at
    # beta = 0.5, 1, 2 (so beta*J and beta*h are exact) on the polarized
    # side for |J| up to 1e10 and on both sides for |J| up to 1e3 (the
    # staggered reference rounds log sinh|b| at the scale of |b| before it
    # adds 2a), and away from it for either sign of J
    rng = np.random.default_rng(2)
    rows = []
    for _ in range(30):
        j = -10.0 ** rng.uniform(-1.0, 10.0)
        rows.append((10.0 ** rng.uniform(-1.0, 0.5), j, -2.0 * j))
    for _ in range(60):
        beta = float(rng.choice((0.5, 1.0, 2.0)))
        j = -10.0 ** rng.uniform(-1.0, 10.0)
        side = 1.0 if -j > 1e3 else rng.choice((-1.0, 1.0))
        rows.append((beta, j, -2.0 * j + side * 10.0 ** rng.uniform(-3.0, 2.5) / beta))
    for _ in range(30):
        beta = float(rng.choice((0.5, 1.0, 2.0)))
        j = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 2.0)
        rows.append((beta, j, abs(j) * 10.0 ** rng.uniform(-3.0, 1.0)))
    checked = 0
    for beta, j, h in rows:
        want = hp_oracle.chain_entropy(beta, j, h)
        if want < 1e-290:
            continue
        checked += 1
        assert ising.entropy_density(beta, j, h) == pytest.approx(want, rel=1e-12), (beta, j, h)
    assert checked >= 100


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
    ref = 1.0 * (-(0.3 + 0.7)) + enumeration_logz(n, 0.3, 0.7, 1.0) / n
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
