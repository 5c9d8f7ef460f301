"""Four-corner cycle families on the Ising medium, finite and infinite."""

import math

import numpy as np
import pytest

from spinengine import ising, kernels, protocols
from spinengine.engine import Betas, UndefinedResultError
from spinengine.protocols import (FREE_FIELDS, PAPER_PROTOCOL, ProtocolFields,
                                  ChainPoint, chain_efficiency_at_max_work,
                                  chain_sweep, efficiency_at_max_work,
                                  efficiency_thermo_limit,
                                  ferro_efficiency_limit, sweep_j,
                                  work_density)
from spinengine.thermo import gibbs, von_neumann_entropy

BETAS = Betas(0.5, 1.0)


def matched_fields(h_b, scale=None):
    scale = BETAS.beta_h / BETAS.beta_c if scale is None else scale
    return ProtocolFields(h_a=math.inf, h_b=h_b, h_c=scale * h_b, h_d=math.inf)


# --------------------------------------------------------------------------
# ledger at fixed fields


def test_free_spins_reach_carnot():
    # matched corners at J=0: both penalties vanish identically and the
    # ledger collapses to w = (T_h - T_c) * s_hot
    fields = matched_fields(1.0)
    s_hot = ising.entropy_density(BETAS.beta_h, 0.0, 1.0)
    w = work_density(0.0, fields, BETAS)
    assert w == pytest.approx((BETAS.t_h - BETAS.t_c) * s_hot, abs=1e-14)
    assert efficiency_thermo_limit(0.0, fields, BETAS) == 0.5


def test_strong_antiferromagnet_near_carnot():
    # shared corner field at twice the coupling: the frustrated chain
    # carries log(golden ratio) entropy per site at both temperatures
    fields = ProtocolFields(math.inf, 80.0, 80.0, math.inf)
    w = work_density(-40.0, fields, BETAS)
    eta = efficiency_thermo_limit(-40.0, fields, BETAS)
    assert w >= (BETAS.t_h - BETAS.t_c) * 0.5 * math.log(2.0) - 1e-3
    assert w == pytest.approx(
        (BETAS.t_h - BETAS.t_c) * math.log((1 + math.sqrt(5)) / 2), abs=1e-3)
    assert eta >= 0.49
    assert eta < 0.5


def test_mismatched_pure_corner_kills_the_work():
    # mixed state entering a pure reference: infinite penalty
    fields = ProtocolFields(h_a=math.inf, h_b=1.0, h_c=1.0, h_d=0.5)
    assert work_density(-1.0, fields, BETAS) == -math.inf
    with pytest.raises(UndefinedResultError):
        efficiency_thermo_limit(-1.0, fields, BETAS)


def test_no_heat_intake_is_undefined():
    fields = ProtocolFields(math.inf, math.inf, math.inf, 0.5)
    with pytest.raises(UndefinedResultError):
        efficiency_thermo_limit(-1.0, fields, BETAS)


# --------------------------------------------------------------------------
# work-optimal protocols


def test_optimizer_at_zero_coupling():
    point = efficiency_at_max_work(0.0, BETAS)
    assert point.efficiency == 0.5
    assert point.work_density == pytest.approx(
        (BETAS.t_h - BETAS.t_c) * math.log(2.0), abs=1e-9)
    assert point.h_opt == pytest.approx(0.0, abs=1e-6)
    assert point.mode == PAPER_PROTOCOL


def test_optimizer_matches_ledger_exactly():
    point = efficiency_at_max_work(-3.0, BETAS)
    fields = ProtocolFields(math.inf, point.h_opt, point.h_opt, math.inf)
    assert work_density(-3.0, fields, BETAS) == pytest.approx(
        point.work_density, abs=1e-12)
    assert efficiency_thermo_limit(-3.0, fields, BETAS) == pytest.approx(
        point.efficiency, abs=1e-12)


def test_optimal_antiferromagnetic_field_bracket():
    point = efficiency_at_max_work(-3.0, BETAS)
    lo = ising.optimal_field(BETAS.beta_h, -3.0)
    hi = ising.optimal_field(BETAS.beta_c, -3.0)
    assert lo < hi
    assert lo - 1e-2 <= point.h_opt <= hi + 1e-2


def test_ferromagnetic_collapse():
    for mode in (PAPER_PROTOCOL, FREE_FIELDS):
        point = efficiency_at_max_work(40.0, BETAS, mode)
        assert point.work_density < 1e-3
        assert point.efficiency < 0.05


def test_free_fields_dominate_paper_protocol():
    for j in (-3.0, -1.0, 1.0):
        paper = efficiency_at_max_work(j, BETAS, PAPER_PROTOCOL)
        free = efficiency_at_max_work(j, BETAS, FREE_FIELDS)
        assert free.work_density >= paper.work_density - 1e-12


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        efficiency_at_max_work(1.0, BETAS, "both")


def test_oversized_field_grid_rejected():
    # 4e10 points: refused before the grid is allocated (it would take 298 GiB)
    for search in (lambda: sweep_j([0.0], BETAS, grid_step=1e-10),
                   lambda: chain_sweep(6, [0.0], BETAS, [0.1], grid_step=1e-10)):
        with pytest.raises(ValueError, match="grid step"):
            search()


def test_sweep_reproduces_efficiency_curve_shape():
    j_values = [-5.0, -4.0, -3.0, -2.0, -1.0, -0.5, -0.2, 0.0,
                1.0, 2.0, 3.0, 5.0]
    points = {p.j: p for p in sweep_j(j_values, BETAS)}
    # antiferromagnetic side climbs monotonically toward Carnot
    af = [points[j].efficiency for j in (-5.0, -4.0, -3.0, -2.0, -1.0)]
    assert all(a > b for a, b in zip(af, af[1:]))
    # ferromagnetic side decays monotonically from the J=0 optimum
    fm = [points[j].efficiency for j in (0.0, 1.0, 2.0, 3.0, 5.0)]
    assert all(a > b for a, b in zip(fm, fm[1:]))
    # the optimal field switches off at weak coupling (kink in the curve)
    assert points[-1.0].h_opt > 0.5
    assert points[-0.5].h_opt == pytest.approx(0.0, abs=1e-6)
    # the kink leaves a local efficiency minimum strictly inside J < 0
    assert points[-1.0].efficiency < points[-2.0].efficiency
    assert points[-1.0].efficiency < points[-0.5].efficiency
    # nothing beats Carnot anywhere
    assert all(p.efficiency <= 0.5 + 1e-12 for p in points.values())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_sweep_matches_pointwise_optimizer():
    # one batched refinement follows every J's own scalar path exactly
    # (J = 200 includes the nan rows of the h = 0 underflow); the free
    # mode runs on a coarser field grid to keep the J = -500 scan short
    j_values = [-500.0, -3.0, 0.0, 1.0, 200.0]
    for mode, step in ((PAPER_PROTOCOL, 1e-2), (FREE_FIELDS, 1e-1)):
        batch = sweep_j(j_values, BETAS, mode, grid_step=step)
        single = [efficiency_at_max_work(j, BETAS, mode, grid_step=step)
                  for j in j_values]
        assert [p.mode for p in batch] == [p.mode for p in single]
        np.testing.assert_array_equal([p[:4] for p in batch], [p[:4] for p in single])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_paper_sweep_matches_full_core_scan():
    # the paper search runs on the work-only log excess and scans only the
    # cells its bound keeps; the same search built on the full _core, on
    # every grid point, gives the same rows (J = 200 and 250 include the
    # nan rows of the h = 0 underflow, J = -1e4 scans 4e6 points)
    bh, bc = BETAS.beta_h, BETAS.beta_c

    def work_eta(j, h):
        a_h, b_h = bh * j, bh * np.abs(h)
        core_h = ising._core(a_h, b_h)
        w = core_h.delta / bh - ising._core(bc * j, bc * np.abs(h)).delta / bc
        s_h = core_h.entropy(a_h, b_h)
        with np.errstate(divide="ignore"):
            eta = np.where(s_h > 0.0, w * bh / np.where(s_h > 0.0, s_h, 1.0), 0.0)
        return w, eta

    js = np.array([-1e4, -500.0, -499.0, -3.0, 0.0, 1.0, 200.0, 250.0, 499.0])
    scans = [protocols._grid_argmax(lambda h: work_eta(j, h)[0],
                                    0.0, 4.0 * max(1.0, abs(j)), 1e-2) for j in js]
    h_ref = protocols._refine(lambda h: work_eta(js, h)[0], scans)
    w_ref, eta_ref = work_eta(js, h_ref)
    got = sweep_j(js, BETAS, PAPER_PROTOCOL)
    np.testing.assert_array_equal([p[:4] for p in got],
                                  np.column_stack([js, h_ref, w_ref, eta_ref]))


def full_grid_argmax(w_of, lo, hi, step):
    # the unpruned scan: every grid point in one call, first maximum wins
    grid = np.arange(lo, hi + 0.5 * step, step)
    w_grid = w_of(grid)
    k = int(np.argmax(w_grid))
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], grid[k], w_grid[k]


def assert_same_bits(got, want):
    assert np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pruned_paper_scan_matches_full_scan_on_random_grids():
    # log-uniform draws over the whole coupling range: weak grids below
    # the pruning threshold, strong antiferromagnets with their switch at
    # h = 2|J|, strong ferromagnets down to the nan rows (beta_c*J > ~186);
    # a draw takes the finest step that keeps its grid under 4e5 points
    rng = np.random.default_rng(20161018)
    pruned = 0
    for _ in range(300):
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-3.0, 3.0, size=2))
        betas = Betas(beta_h, beta_c)
        j = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 4.0)
        h_max = 4.0 * max(1.0, abs(j))
        step = rng.choice([s for s in (1e-3, 1e-2, 0.1) if h_max / s <= 4e5] or [0.1])
        pruned += h_max / step >= protocols._PRUNE_MIN_POINTS

        def w_of(h):
            return protocols._paper_work(j, h, betas)

        got = protocols._grid_argmax(w_of, 0.0, h_max, step,
                                     protocols._paper_cell_bound(j, betas))
        assert_same_bits(got, full_grid_argmax(w_of, 0.0, h_max, step))
    assert pruned >= 120


@pytest.mark.parametrize("case", ["ties", "nan-first", "nan-inner-end", "nan-inner", "inf-end"])
def test_pruned_scan_matches_full_scan_on_synthetic_work(case):
    # a work table on the integer grid 0..n-1, with its exact maximum over
    # each cell as the cell bound: every cell holding a tie is kept (the
    # ties sit at 0, where the rounding margin is 0 too), and the first
    # maximum in index order wins
    n, cell = 10_000, protocols._CELL
    table = -1.0 - np.abs(np.arange(n) - 5000.0)
    if case == "ties":
        table[[70, 2 * cell, 3000, 5000, 7 * cell + 5]] = 0.0
    elif case == "nan-first":
        table[0] = np.nan
    elif case == "nan-inner-end":
        table[3 * cell] = np.nan
    elif case == "nan-inner":
        table[5000 - 2] = np.nan
    else:
        table[4 * cell] = np.inf

    def w_of(h):
        return table[h.astype(np.int64)]

    def exact_cell_max(h, w):
        ends = h.astype(np.int64)
        return np.array([table[a:b + 1].max() for a, b in zip(ends[:-1], ends[1:])])

    got = protocols._grid_argmax(w_of, 0.0, n - 1.0, 1.0, exact_cell_max)
    assert_same_bits(got, full_grid_argmax(w_of, 0.0, n - 1.0, 1.0))


def test_paper_cell_bound_premises():
    # the two bounds of _paper_cell_bound, checked on the work it bounds at
    # 4000 random (beta_h, beta_c, J, h), weak and strong coupling, against
    # pairs of nearby fields h1 < h2 (finite differences)
    rng = np.random.default_rng(1972)
    rtol = protocols._PRUNE_RTOL
    for _ in range(500):
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-3.0, 3.0, size=2))
        betas = Betas(beta_h, beta_c)
        j = rng.choice((-1.0, 1.0), size=8) * 10.0 ** rng.uniform(-3.0, 4.0, size=8)
        switch = np.maximum(-2.0 * j, 0.0)
        h1 = np.where(rng.random(8) < 0.5, rng.uniform(0.0, 4.0, 8) * np.maximum(1.0, np.abs(j)),
                      switch + rng.normal(0.0, 1.0, 8) / beta_h)
        h1 = np.abs(h1) + 1e-300
        h2 = h1 + 10.0 ** rng.uniform(-4.0, 0.0, 8)

        def work_excess(h):
            w = protocols._paper_work(j, h, betas)
            return w, ising._log_excess(beta_h * j, beta_h * h) / beta_h

        (w1, e1), (w2, e2) = work_excess(h1), work_excess(h2)
        scale = rtol * (e1 + e2 + np.abs(w1) + np.abs(w2))
        assert np.all(np.isfinite(w1) & np.isfinite(w2))
        # |dw/dh| <= 1: the ground terms cancel and dw/dh = m_h - m_c
        assert np.all(np.abs(w2 - w1) <= (h2 - h1) + scale)
        # w <= T_h*delta_h: the cold log excess is nonnegative
        assert np.all((w1 <= e1) & (w2 <= e2))
        # T_h*delta_h rises up to h = 2|J| and falls after it
        rising, falling = h2 <= switch, h1 >= switch
        assert np.all(e2[rising] >= e1[rising] - rtol * e2[rising])
        assert np.all(e2[falling] <= e1[falling] + rtol * e1[falling])


@pytest.mark.parametrize("beta_h,beta_c", [(0.5, 1.0), (0.05, 2.0), (1.0, 2.5)])
def test_paper_cell_bound_covers_every_grid_point(beta_h, beta_c):
    # the bound of each 64-point cell lies above the work at every grid
    # point of the cell, and its excess part alone (an infinite Lipschitz
    # part) above T_h*delta_h, the cells around the peak at h = 2|J| included
    # (beta_c*J stays below the nan rows, whose scan stops at h = 0)
    betas = Betas(beta_h, beta_c)
    for j in (-100.0, -7.3, -1.0, -0.02, 0.0, 0.5, 3.0, 60.0):
        grid = np.arange(0.0, 4.0 * max(1.0, abs(j)) + 0.5e-2, 1e-2)
        w = protocols._paper_work(j, grid, betas)
        excess = ising._log_excess(beta_h * j, beta_h * grid) / beta_h
        ends = np.append(np.arange(0, len(grid) - 1, protocols._CELL), len(grid) - 1)
        bound = protocols._paper_cell_bound(j, betas)
        both = bound(grid[ends], w[ends])
        excess_only = bound(grid[ends], np.full(len(ends), np.inf))
        assert np.all(both >= np.maximum(np.maximum.reduceat(w, ends[:-1]), w[ends[1:]]))
        assert np.all(excess_only >= np.maximum(np.maximum.reduceat(excess, ends[:-1]),
                                                excess[ends[1:]]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pruned_sweep_evaluates_few_grid_points(monkeypatch):
    # J = -499 is a pruned antiferromagnet, J = 499 a nan row that stops
    # at its cell ends; the count includes the refinement and the rows
    evaluated = []

    def counting_work(j, h, betas, core_h=None):
        evaluated.append(np.size(h))
        return paper_work(j, h, betas, core_h)

    paper_work = protocols._paper_work
    monkeypatch.setattr(protocols, "_paper_work", counting_work)
    rows = sweep_j([-499.0, 499.0], BETAS)
    grid_points = 2 * len(np.arange(0.0, 4.0 * 499.0 + 0.005, 1e-2))
    assert sum(evaluated) <= 0.05 * grid_points
    assert rows[0].work_density > 0.0 and math.isnan(rows[1].work_density)


def test_golden_max_batch_matches_scalar_calls():
    def peak(x):
        return -np.abs(x - 1.25)

    lo = np.array([0.0, 1.0, 0.5, 1.2, 1.2])
    hi = np.array([3.0, 2.0, 2.5, 1.3, 1.2 + 5e-9])
    batch = protocols._golden_max(peak, lo, hi, 1e-8)
    for k in range(len(lo)):
        assert batch[k] == protocols._golden_max(peak, lo[k], hi[k], 1e-8)
    assert np.all(np.abs(batch[:4] - 1.25) <= 1e-8)


@pytest.mark.parametrize("beta_h,beta_c", [(0.5, 1.0), (0.4, 1.4), (0.1, 3.0), (0.9, 1.0)])
def test_free_penalty_min_against_scalar_scan(beta_h, beta_c):
    # oracle: the scalar relative-entropy density on a dense h_C grid
    # plus the exact candidates 0, h_B and (beta_h/beta_c) h_B
    betas = Betas(beta_h, beta_c)
    for j in (-500.0, -50.0, -5.0, -1.0, 0.0, 1.0, 5.0, 50.0):
        top = 4.0 * max(1.0, abs(j))
        h_bs = np.unique(np.concatenate([[0.0, 1e-12, 2.0 * abs(j) + 1e-9],
                                         np.linspace(0.0, top, 5)]))
        d_min, h_c = protocols._free_penalty_min(j, h_bs, betas)
        # includes the points where the hot magnetization rounds to 1
        assert np.all(np.isfinite(d_min)) and np.all(np.isfinite(h_c))
        for h_b, d, h in zip(h_bs, d_min, h_c):
            exact = (0.0, h_b, (beta_h / beta_c) * h_b)
            scan = np.linspace(0.0, max(top, h_b) + 1.0, 61)
            ref = min(ising.relative_entropy_density(beta_h, beta_c, j, h_b, x)
                      for x in (*scan, *exact))
            assert d <= ref + 1e-12 * max(1.0, abs(j))
            assert d == pytest.approx(
                ising.relative_entropy_density(beta_h, beta_c, j, h_b, h), abs=1e-12)
            if h not in exact:
                m_cold = ising.magnetization_density(beta_c, j, h)
                m_hot = ising.magnetization_density(beta_h, j, h_b)
                assert abs(m_cold - m_hot) <= 1e-12


# --------------------------------------------------------------------------
# ferromagnetic precision limit


def test_ferro_limit_without_field_floor_is_carnot():
    assert ferro_efficiency_limit(0.0, 6, BETAS) == BETAS.carnot


def test_ferro_limit_value():
    def closed_form(eps, n):
        x_h = BETAS.beta_h * eps * n
        x_c = BETAS.beta_c * eps * n
        return BETAS.carnot * math.log1p(math.exp(-x_c)) / math.log1p(math.exp(-x_h))

    got = ferro_efficiency_limit(0.1, 6, BETAS)
    assert got == pytest.approx(closed_form(0.1, 6), rel=1e-12)
    assert 0.39 < got < 0.40


def test_ferro_limit_decays_with_chain_length():
    values = [ferro_efficiency_limit(0.1, n, BETAS) for n in (6, 12, 24)]
    assert values[0] > values[1] > values[2]
    assert ferro_efficiency_limit(0.1, 96, BETAS) < 0.01


def test_ferro_limit_deep_tail():
    # doublet splitting far beyond both thermal scales: the log1p forms
    # underflow but the exact tail ratio survives
    got = ferro_efficiency_limit(50.0, 24, BETAS)
    assert got == pytest.approx(BETAS.carnot * math.exp(-600.0), rel=1e-12)
    assert 0.0 < got < 1e-200


def test_ferro_limit_validation():
    with pytest.raises(ValueError):
        ferro_efficiency_limit(-0.1, 6, BETAS)
    with pytest.raises(ValueError):
        ferro_efficiency_limit(0.1, 0, BETAS)


# --------------------------------------------------------------------------
# entropy-ratio diagnostics: S(omega_c) / S(omega_h) of J * H at strong J


def gibbs_entropies(hamiltonian, j):
    scaled = j * np.asarray(hamiltonian, dtype=float)
    return tuple(von_neumann_entropy(gibbs(scaled, beta))
                 for beta in (BETAS.beta_c, BETAS.beta_h))


def test_entropy_ratio_single_gap_vanishes():
    s_c, s_h = gibbs_entropies(np.diag([0.0, 1.0]), 50.0)
    assert 0.0 < s_c / s_h < 1e-5
    # fully gapped at large beta: the Gibbs state is pure to the last bit
    assert gibbs_entropies(np.diag([0.0, 1.0]), 1600.0) == (0.0, 0.0)


def test_entropy_ratio_degenerate_ground_space_survives():
    s_c, s_h = gibbs_entropies(np.diag([0.0, 0.0, 1.0]), 50.0)
    assert s_c == pytest.approx(math.log(2.0), abs=1e-9)
    assert s_h == pytest.approx(math.log(2.0), abs=1e-9)
    assert s_c / s_h > 1.0 - 1e-6


# --------------------------------------------------------------------------
# finite chains


def test_chain_optimum_strong_ferromagnet():
    point = chain_efficiency_at_max_work(6, 30.0, BETAS)
    assert point.efficiency == pytest.approx(0.5, abs=5e-2)
    # ground doublet carries log 2 of entropy across the whole chain
    assert point.work_density == pytest.approx(
        (BETAS.t_h - BETAS.t_c) * math.log(2.0) / 6, abs=1e-6)


def test_chain_matches_thermodynamic_limit():
    chain = chain_efficiency_at_max_work(12, -1.0, BETAS)
    limit = efficiency_at_max_work(-1.0, BETAS)
    assert chain.efficiency == pytest.approx(limit.efficiency, abs=1e-3)
    assert chain.h_opt == pytest.approx(limit.h_opt, abs=5e-2)


def test_long_chain_work_converges_to_closed_form():
    # the finite-N gap shrinks exponentially; slowest near J = 0
    for j, tol in ((-2.0, 1e-11), (-0.5, 1e-9), (0.5, 1e-9)):
        chain = chain_efficiency_at_max_work(24, j, BETAS)
        limit = efficiency_at_max_work(j, BETAS)
        assert chain.work_density == pytest.approx(limit.work_density, abs=tol)


def test_chain_field_floor_lowers_efficiency():
    free = chain_efficiency_at_max_work(6, 30.0, BETAS, epsilon=0.0)
    floored = chain_efficiency_at_max_work(6, 30.0, BETAS, epsilon=0.5)
    assert floored.efficiency < free.efficiency
    assert floored.h_opt >= 0.5


def enumerated_gap_entropy(n, j, h, betas):
    """Free-energy gap T_h*logZ_h - T_c*logZ_c and hot entropy of the ring
    at field h, summed over all 2^N configurations of the bitmask table."""
    energies = kernels.ising_energies(n, j, h)
    shifted = energies - np.min(energies)

    def logz_entropy(beta):
        x = -beta * shifted
        logz = math.log(np.sum(np.exp(x)))
        p = np.exp(x - logz)
        return logz, float(-np.sum(p * (x - logz)))

    logz_h, s_h = logz_entropy(betas.beta_h)
    logz_c, _ = logz_entropy(betas.beta_c)
    return betas.t_h * logz_h - betas.t_c * logz_c, s_h


def enumerated_chain_point(n, j, h, betas):
    """Work per site and efficiency of the shared-field finite cycle at
    field h, by enumeration."""
    gap, s_h = enumerated_gap_entropy(n, j, h, betas)
    return gap / n, gap / (betas.t_h * s_h)


def class_gap_entropy(n, j, hs, betas):
    """Gap and hot entropy at each field, summed class by class over the
    (M, B, g) levels with one ground shift per field."""
    m, b, g = np.array(kernels.levels(n), dtype=np.float64).T
    shifted = -j * b[None, :] - hs[:, None] * m[None, :]
    shifted -= shifted.min(axis=1, keepdims=True)

    def logz_entropy(beta):
        weights = g * np.exp(-beta * shifted)
        z = weights.sum(axis=1)
        return np.log(z), beta * (shifted * weights).sum(axis=1) / z + np.log(z)

    logz_h, s_h = logz_entropy(betas.beta_h)
    logz_c, _ = logz_entropy(betas.beta_c)
    return betas.t_h * logz_h - betas.t_c * logz_c, s_h


SECTOR_JS = (0.0, 0.5, -0.5, 30.0, -30.0, 200.0, -200.0, 1e4, -1e4)
SECTOR_BETAS = (Betas(0.5, 1.0), Betas(1e-3, 2e-3), Betas(1.0, 1e3))


def sector_fields(j):
    return np.array([0.0, 1e-12, 0.3, 2.0 * abs(j), 4.0 * max(1.0, abs(j))])


def sector_gap_entropy(n, j, hs, betas):
    ring = protocols._ring(n)
    gap, hot_entropy = protocols._chain_gap(ring, protocols._sectors(ring, j, betas), hs, betas)
    return gap, hot_entropy()


def assert_rel_close(got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(got), np.abs(want)))


def test_sector_sum_matches_enumeration():
    for n in range(1, 17):
        for betas in SECTOR_BETAS:
            for j in SECTOR_JS:
                hs = sector_fields(j)
                gap, s_h = sector_gap_entropy(n, j, hs, betas)
                want = np.array([enumerated_gap_entropy(n, j, h, betas) for h in hs]).T
                assert_rel_close(gap, want[0], 1e-11)
                assert_rel_close(s_h, want[1], 1e-11)
                assert np.all(s_h >= 0.0)


def test_sector_sum_matches_class_sum_at_24_sites():
    for betas in SECTOR_BETAS:
        for j in SECTOR_JS:
            hs = sector_fields(j)
            gap, s_h = sector_gap_entropy(24, j, hs, betas)
            want_gap, want_s = class_gap_entropy(24, j, hs, betas)
            assert_rel_close(gap, want_gap, 1e-11)
            assert_rel_close(s_h, want_s, 1e-11)
            assert np.all(s_h >= 0.0)


def test_sector_sum_same_bits_for_scalar_and_per_field_coupling():
    # the grid scan passes its row's coupling, the refinement one per field
    for n in (1, 5, 10, 24):
        for betas in SECTOR_BETAS:
            for j in SECTOR_JS:
                hs = sector_fields(j)
                scalar = sector_gap_entropy(n, j, hs, betas)
                per_field = sector_gap_entropy(n, np.full(len(hs), j), hs, betas)
                np.testing.assert_array_equal(scalar[0], per_field[0])
                np.testing.assert_array_equal(scalar[1], per_field[1])
                # a field alone gets the bits it gets in a batch
                for k in range(len(hs)):
                    alone = sector_gap_entropy(n, np.full(1, j), hs[k:k + 1], betas)
                    assert (alone[0][0], alone[1][0]) == (scalar[0][k], scalar[1][k])


def test_chain_matches_enumeration():
    for n in range(1, 9):
        for j, eps in ((-2.0, 0.0), (0.7, 0.3), (30.0, 0.0), (-1.0, 0.5)):
            point = chain_efficiency_at_max_work(n, j, BETAS, epsilon=eps)
            w, eta = enumerated_chain_point(n, j, point.h_opt, BETAS)
            assert point.work_density == pytest.approx(w, rel=1e-10)
            assert point.efficiency == pytest.approx(eta, rel=1e-10)
            # no field on the search interval does better
            h_max = 4.0 * max(1.0, abs(j))
            for h in np.linspace(eps, h_max, 41):
                assert enumerated_chain_point(n, j, h, BETAS)[0] \
                    <= point.work_density * (1 + 1e-10) + 1e-15


def sum_by_halving(x):
    """Sum over axis 0 in the order of protocols._chain_gap: the top half
    of the rows is added onto the bottom half until one row is left."""
    while len(x) > 1:
        half = (len(x) + 1) // 2
        x = np.concatenate([x[:len(x) - half] + x[half:], x[len(x) - half:half]])
    return x[0]


def pointwise_chain_optimum(n, j, betas, epsilon):
    """The per-point finite-chain optimizer: grid scan and golden
    refinement on the full evaluation (work, efficiency and the hot
    entropy), each temperature building its own sector sums.

    The classes of each magnetization sector are padded with zero
    degeneracies to the longest sector, and every sum is taken by
    halving, so that the bits match the batched ``chain_sweep``.
    """
    h_max = 4.0 * max(1.0, abs(j))
    if h_max <= epsilon:
        h_max = epsilon + 1.0
    levels = kernels.levels(n)
    ms = sorted({m for m, _, _ in levels}, reverse=True)
    sectors = [[(b, g) for m, b, g in levels if m == m_sector] for m_sector in ms]
    longest = max(len(cls) for cls in sectors)
    b, g = np.array([cls + [(cls[0][0], 0)] * (longest - len(cls)) for cls in sectors]).T
    m = np.array(ms, dtype=np.float64)
    bond = -j * b
    f = bond.min(axis=0)
    excess = bond - f

    def stats(beta, hs):
        c = sum_by_halving(g * np.exp(-beta * excess))
        d = sum_by_halving(g * excess * np.exp(-beta * excess))
        energies = f[:, None] - m[:, None] * hs[None, :]
        shifted = energies - energies.min(axis=0)
        weights = np.exp(-beta * shifted)
        z = sum_by_halving(c[:, None] * weights)
        logz = np.log(z)
        energy = sum_by_halving(weights * (shifted * c[:, None] + d[:, None])) / z
        return logz, beta * energy + logz

    def evaluate(hs):
        logz_h, s_h = stats(betas.beta_h, hs)
        logz_c, _ = stats(betas.beta_c, hs)
        gap = betas.t_h * logz_h - betas.t_c * logz_c
        with np.errstate(invalid="ignore", divide="ignore"):
            eta = np.where(s_h > 0.0, gap / (betas.t_h * np.where(s_h > 0, s_h, 1.0)), 0.0)
        return gap / n, eta

    def w_of(hs):
        return evaluate(hs)[0]

    scan = protocols._grid_argmax(w_of, epsilon, h_max, 1e-2)
    h_opt = protocols._refine(w_of, [scan])
    w_opt, eta_opt = evaluate(h_opt)
    return ChainPoint(float(j), float(epsilon), float(h_opt[0]),
                      float(w_opt[0]), float(eta_opt[0]))


def test_chain_sweep_matches_pointwise():
    # epsilon = 100 lies above every 4*max(1, |J|), so it takes the
    # [epsilon, epsilon + 1] fallback interval
    js, floors = (-5.0, -0.5, 0.0, 1.0, 20.0), (0.0, 0.1, 100.0)
    for n in (1, 2, 6, 10):
        rows = chain_sweep(n, js, BETAS, floors)
        expected = [pointwise_chain_optimum(n, j, BETAS, eps) for eps in floors for j in js]
        assert rows == expected
        for point in expected:
            w, _ = enumerated_chain_point(n, point.j, point.h_opt, BETAS)
            assert point.work_density == pytest.approx(w, rel=1e-10)
    assert chain_efficiency_at_max_work(10, 1.0, BETAS, epsilon=0.1) \
        == expected[floors.index(0.1) * len(js) + js.index(1.0)]


def test_chain_validation():
    with pytest.raises(ValueError):
        chain_efficiency_at_max_work(0, 1.0, BETAS)
    with pytest.raises(ValueError):
        chain_efficiency_at_max_work(25, 1.0, BETAS)
    with pytest.raises(ValueError):
        chain_efficiency_at_max_work(6, 1.0, BETAS, epsilon=-1.0)
    with pytest.raises(ValueError):
        chain_sweep(6, [1.0], BETAS, [0.0, -1.0])
