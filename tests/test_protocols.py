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
    # the paper search runs on the work-only log excess; the same search
    # built on the full _core, efficiency at every probe, gives the same rows
    bh, bc = BETAS.beta_h, BETAS.beta_c

    def work_eta(j, h):
        a_h, b_h = bh * j, bh * np.abs(h)
        core_h = ising._core(a_h, b_h)
        w = core_h.delta / bh - ising._core(bc * j, bc * np.abs(h)).delta / bc
        s_h = core_h.entropy(a_h, b_h)
        with np.errstate(divide="ignore"):
            eta = np.where(s_h > 0.0, w * bh / np.where(s_h > 0.0, s_h, 1.0), 0.0)
        return w, eta

    js = np.array([-500.0, -3.0, 0.0, 1.0, 200.0])
    scans = [protocols._grid_argmax(lambda h: work_eta(j, h)[0],
                                    0.0, 4.0 * max(1.0, abs(j)), 1e-2) for j in js]
    h_ref = protocols._refine(lambda h: work_eta(js, h)[0], scans)
    w_ref, eta_ref = work_eta(js, h_ref)
    got = sweep_j(js, BETAS, PAPER_PROTOCOL)
    np.testing.assert_array_equal([p[:4] for p in got],
                                  np.column_stack([js, h_ref, w_ref, eta_ref]))


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


def enumerated_chain_point(n, j, h, betas):
    """Work per site and efficiency of the shared-field finite cycle at
    field h, summed over all 2^N configurations of the bitmask table."""
    energies = kernels.ising_energies(n, j, h)
    shifted = energies - np.min(energies)

    def logz_entropy(beta):
        x = -beta * shifted
        logz = math.log(np.sum(np.exp(x)))
        p = np.exp(x - logz)
        return logz, float(-np.sum(p * (x - logz)))

    logz_h, s_h = logz_entropy(betas.beta_h)
    logz_c, _ = logz_entropy(betas.beta_c)
    gap = betas.t_h * logz_h - betas.t_c * logz_c
    return gap / n, gap / (betas.t_h * s_h)


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


def pointwise_chain_optimum(n, j, betas, epsilon):
    """The per-point finite-chain optimizer: grid scan and golden
    refinement on the full evaluation (work, efficiency and the cold
    entropy), each temperature building its own shifted energies."""
    h_max = 4.0 * max(1.0, abs(j))
    if h_max <= epsilon:
        h_max = epsilon + 1.0
    m, b, g = np.array(kernels.levels(n), dtype=np.float64).T

    def stats(beta, hs):
        energies = -j * b[None, :] - hs[:, None] * m[None, :]
        shifted = energies - energies.min(axis=1, keepdims=True)
        weights = g * np.exp(-beta * shifted)
        z = weights.sum(axis=1)
        logz = np.log(z)
        return logz, beta * np.einsum("ij,ij->i", shifted, weights) / z + logz

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
