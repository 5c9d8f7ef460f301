"""Four-corner cycle families on the Ising medium, finite and infinite."""

import math

import numpy as np
import pytest

import hp_oracle
import sector_sums
from spinengine import gridsearch, ising, kernels, protocols
from spinengine.engine import Betas, UndefinedResultError
from spinengine.protocols import (FREE_FIELDS, PAPER_PROTOCOL, ProtocolFields,
                                  ChainPoint, chain_efficiency_at_max_work,
                                  chain_sweep, efficiency_at_max_work,
                                  efficiency_thermo_limit, sweep_j,
                                  work_density)
from spinengine.thermo import gibbs, von_neumann_entropy

BETAS = Betas(0.5, 1.0)


def magnetization(beta, j, h):
    # m = sign(h) * (rb + delta_b) of the infinite chain
    core = ising._core(beta * j, beta * abs(h))
    return float(np.sign(h) * (core.rb + core.delta_b))


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
    # the exact efficiency is 0.5 - 2.5e-34 (decimal oracle), which rounds to 0.5
    assert eta <= 0.5


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
    # 3.9e10 points: refused before the grid is allocated (it would take
    # 290 GiB); sweep_j builds no grid, and precision only for J < 0 rows
    with pytest.raises(ValueError, match="grid step"):
        chain_sweep(6, [-1.0], BETAS, [0.1], grid_step=1e-10)


@pytest.mark.parametrize("step", [-0.1, 0.0, math.inf, math.nan])
def test_bad_field_grid_step_rejected(step):
    # grid points are computed from their index, so a step that is not
    # positive and finite is refused before any scan
    with pytest.raises(ValueError, match="positive and finite"):
        chain_sweep(4, [0.0, -2.0], BETAS, [0.1], grid_step=step)


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
    # one batched Newton iteration follows every J's own scalar path exactly
    # (J = 200 includes the nan rows of the h = 0 underflow)
    j_values = [-500.0, -3.0, 0.0, 1.0, 200.0]
    for mode in (PAPER_PROTOCOL, FREE_FIELDS):
        batch = sweep_j(j_values, BETAS, mode)
        single = [efficiency_at_max_work(j, BETAS, mode) for j in j_values]
        assert [p.mode for p in batch] == [p.mode for p in single] == [mode] * len(j_values)
        np.testing.assert_array_equal([p[:4] for p in batch], [p[:4] for p in single])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_paper_sweep_matches_full_core_scan():
    # the sweep evaluates its work from the work-only log excess; the full
    # _core at the same fields gives the same work and efficiency bit for
    # bit, and no grid point of a full-core scan, refined, does better
    # (J = 200 and 250 are the nan rows of the h = 0 underflow, J = -1e4
    # scans 4e6 points)
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
    got = sweep_j(js, BETAS, PAPER_PROTOCOL)
    h_opt = np.array([p.h_opt for p in got])
    np.testing.assert_array_equal([p[:4] for p in got],
                                  np.column_stack([js, h_opt, *work_eta(js, h_opt)]))
    finite = np.isfinite(h_opt) & (js < 200.0)
    scans = [full_grid_argmax(lambda h: work_eta(j, h)[0], 0.0, 4.0 * max(1.0, abs(j)), 1e-2)
             for j in js[finite]]
    w_ref = work_eta(js[finite], gridsearch._refine(
        lambda rows, h: work_eta(js[finite][rows], h)[0], scans))[0]
    w_got = np.array([p.work_density for p in got])[finite]
    assert np.all(w_got >= w_ref - 1e-12 * np.abs(w_ref))


def full_grid_argmax(w_of, lo, hi, step):
    # the unpruned scan: every grid point, in calls of 8192 points that keep
    # the temporaries of a 4e6-point grid small; the first maximum wins
    grid = np.arange(lo, hi + 0.5 * step, step)
    w_grid = np.concatenate([w_of(grid[i:i + 8192]) for i in range(0, len(grid), 8192)])
    k = int(np.argmax(w_grid))
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], grid[k], w_grid[k]


def assert_same_bits(got, want):
    assert np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


def lipschitz_bound(betas):
    # a certified cell bound of the paper work, whose slope m_h - m_c lies
    # in [-1, 1], widened as the ring's bound is (each term T*delta of the
    # work lies in [0, T*ln 2])
    margin = gridsearch._PRUNE_RTOL * (betas.t_h + betas.t_c) * math.log(2.0)
    return lambda rows, h, w: 0.5 * (w[..., :-1] + w[..., 1:] + np.diff(h)) + margin


def never_prunes(rows, h, w):
    # a cell bound that keeps every cell
    return np.full(w[..., 1:].shape, np.inf)


def table_scans(tables, cell_bound=never_prunes, calls=None):
    # the nested scan of work(rows, h) on synthetic tables over the
    # integer grids 0..n-1, recording the rows and fields of each work call
    def work(rows, h):
        rows = np.broadcast_to(rows, h.shape)
        if calls is not None:
            calls.append((np.array(rows), np.array(h)))
        return np.array([tables[r][int(x)] for r, x in zip(rows, h)])

    tops = np.array([len(t) - 1.0 for t in tables])
    return gridsearch._nested_argmax(work, np.zeros(len(tables)), tops, 1.0, cell_bound)


def full_scans(calls, sizes):
    # the rows that one work call evaluates at every grid point, in call order
    return [int(rows[0]) for rows, h in calls
            if np.all(rows == rows[0]) and np.array_equal(h, np.arange(sizes[rows[0]]))]


def exact_cell_max(tables):
    # each cell's exact maximum over the integer grid, as a cell bound
    def bound(rows, h, w):
        ends = h.astype(np.int64)
        rows = np.broadcast_to(rows, ends.shape)
        return np.array([[tables[r][a:b + 1].max() for r, a, b in zip(rr, ee[:-1], ee[1:])]
                         for rr, ee in zip(rows, ends)])
    return bound


@pytest.mark.parametrize("case", ["ties", "nan-first", "nan-inner-end", "nan-inner", "inf-end",
                                  "rounded-bound"])
def test_pruned_scan_matches_full_scan_on_synthetic_work(case):
    # a work table on the integer grid 0..n-1, with its exact maximum over
    # each cell as the cell bound: every cell holding a tie is kept (the
    # ties sit at 0, where the rounding margin is 0 too), and the first
    # maximum in index order wins; the marked points are multiples of the
    # stride of the second-to-last level.  "rounded-bound" lowers every
    # bound by half the rounding margin: the cell that holds the first of
    # two maxima must still be kept
    n, cell = 10_000, gridsearch._BRANCH ** 2
    table = -1.0 - np.abs(np.arange(n) - 5000.0)
    bound = exact_cell_max([table])
    if case == "rounded-bound":
        table = 1000.0 - np.abs(np.arange(n) - 5000.0)
        table[70] = 1000.0
        exact = exact_cell_max([table])

        def bound(rows, h, w):
            return exact(rows, h, w) * (1.0 - 0.5 * gridsearch._PRUNE_RTOL)
    elif case == "ties":
        table[[70, 2 * cell, 3000, 5000, 7 * cell + 5]] = 0.0
    elif case == "nan-first":
        table[0] = np.nan
    elif case == "nan-inner-end":
        table[3 * cell] = np.nan
    elif case == "nan-inner":
        table[5000 - 2] = np.nan
    else:
        table[4 * cell] = np.inf

    got = table_scans([table], bound)
    assert_same_bits(got[0], full_grid_argmax(lambda h: table[h.astype(np.int64)],
                                              0.0, n - 1.0, 1.0))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("mode", [PAPER_PROTOCOL, FREE_FIELDS])
@pytest.mark.parametrize("step", [1e-2, 0.5])
def test_packed_scan_matches_one_scan_per_coupling(mode, step):
    # all rows share the work calls of one nested scan; J = 4.9 follows
    # 8004 points of J = +-5; J = -500 (and at step 1e-2 the 4096-point
    # J = 10.2375 and the nan rows J = 200, 250) have the longest grids;
    # J = 0 has its maximum at the first grid point.  The paper work is
    # scanned under its Lipschitz bound, the free work (the test oracle
    # below, nan at every field of J = 200 and 250) unpruned
    js = np.array([0.5, -5.0, 5.0, -5.0, 5.0, 4.9, 0.0, 200.0, -500.0, 250.0,
                   10.2375, 10.235, -1.0, 3.0])
    floors = np.zeros(len(js))
    tops = protocols._grid_tops(js, floors, step)
    sizes = [len(np.arange(0.0, top + 0.5 * step, step)) for top in tops]
    if step == 1e-2:
        assert sum(sizes[1:5]) < gridsearch._SCAN_BLOCK < sum(sizes[1:6])
    paper = mode == PAPER_PROTOCOL
    work = protocols._paper_work if paper else free_work
    bound = lipschitz_bound(BETAS) if paper else never_prunes
    got = gridsearch._nested_argmax(lambda rows, h: work(js[rows], h, BETAS), floors, tops, step,
                                   bound)
    for row, j in enumerate(js):
        want = full_grid_argmax(lambda h: work(j, h, BETAS), 0.0, tops[row], step)
        assert_same_bits(got[row], want)
    assert np.isnan(got[7][3]) and np.isnan(got[9][3])


def test_packed_scan_takes_each_rows_first_maximum():
    # synthetic work tables on integer grids: ties, and nan before, after
    # and at the maximum, in rows that share calls; the first maximum of
    # each row's own scan wins, a nan counting as one
    sizes = [7, 300, 5, 3000, 40, 1, 2500, 2600, 64]
    rng = np.random.default_rng(5)
    tables = [np.round(rng.normal(size=n), 1) for n in sizes]
    tables[1][[10, 200]] = 9.0               # a tie
    tables[3][[5, 2999]] = np.nan            # nan first and last
    tables[4][[0, 39]] = 7.0                 # tie at both ends
    tables[6][2000] = np.nan                 # nan after the maximum
    tables[7][:] = 1.0                       # constant
    tables[8][[3, 63]] = [np.inf, np.inf]    # infinite ties
    calls = []
    got = table_scans(tables, calls=calls)
    # the end points of all rows come first, in one call; the new points of
    # each level go to shared calls; only the rows with a non-finite value
    # (rows 3 and 8 at an end, row 6 inside) are scanned again in full
    assert len(calls[0][1]) == 2 * len(sizes)
    assert max(len(h) for _, h in calls) <= gridsearch._SCAN_BLOCK
    assert full_scans(calls, sizes) == [3, 6, 8]
    for row, table in enumerate(tables):
        assert_same_bits(got[row], full_grid_argmax(lambda h: table[h.astype(np.int64)],
                                                    0.0, sizes[row] - 1.0, 1.0))


@pytest.mark.parametrize("bounded", [False, True])
def test_nested_scan_of_one_and_two_point_grids(bounded):
    # a grid of one point is its own argmax and bracket; a grid of two has
    # no cell to cut, with or without a cell bound
    tables = [np.array([0.5]), np.array([1.0, 2.0]), np.array([2.0, 1.0]),
              np.array([3.0, 3.0]), np.array([np.nan, 1.0]), np.array([-1.0])]
    got = table_scans(tables, exact_cell_max(tables) if bounded else never_prunes)
    for row, table in enumerate(tables):
        assert_same_bits(got[row], full_grid_argmax(lambda h: table[h.astype(np.int64)],
                                                    0.0, len(table) - 1.0, 1.0))


@pytest.mark.parametrize("bounded", [False, True])
def test_nested_scan_rescans_a_row_with_an_inner_non_finite_value(bounded):
    # a nan or inf anywhere but at the first point sends its row, and only
    # that row, to one more scan of every grid point
    tables = [-np.abs(np.arange(1000.0) - 300.0) for _ in range(4)]
    tables[1][700] = np.nan
    tables[2][0] = np.nan
    tables[3][999] = np.inf
    calls = []
    got = table_scans(tables, exact_cell_max(tables) if bounded else never_prunes, calls)
    assert full_scans(calls, [1000] * len(tables)) == [1, 3]
    for row, table in enumerate(tables):
        assert_same_bits(got[row], full_grid_argmax(lambda h: table[h.astype(np.int64)],
                                                    0.0, 999.0, 1.0))
    assert got[1][2] == 700.0 and got[2][2] == 0.0 and got[3][3] == np.inf


def sweep_fuzz(seed, draws):
    # seeded draws of betas and couplings (out to |J| = 2000, with the nan
    # rows J = 200 and 1e3) and of the grid steps of a full scan, for the
    # closed-form sweep to be checked against
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-2.0, 1.5, size=2))
        js = np.append(rng.choice((-1.0, 1.0), 6) * 10.0 ** rng.uniform(-3.0, np.log10(2000.0), 6),
                       [200.0, 1e3])
        step = 10.0 ** rng.uniform(np.log10(0.003), np.log10(0.5))
        yield Betas(beta_h, beta_c * 1.01), js, step


def magnetizations(js, h, betas):
    # m_h and m_c of the infinite chain at fields h >= 0
    cores = (ising._core(beta * js, beta * h) for beta in (betas.beta_h, betas.beta_c))
    return [core.rb + core.delta_b for core in cores]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("mode", [PAPER_PROTOCOL, FREE_FIELDS])
def test_sweep_matches_full_scan_and_refinement_per_coupling(mode):
    # on the seeded sweep fuzz, the work at every row's solved field is at
    # least that of one unpruned scan of its own grid, refined by _refine,
    # minus 1e-12 relative; both modes return the same rows
    for betas, js, step in sweep_fuzz(23, 8):
        tops = protocols._grid_tops(js, np.zeros(len(js)), step)
        scans = [full_grid_argmax(lambda h: protocols._paper_work(j, h, betas), 0.0, top, step)
                 for j, top in zip(js, tops)]
        h_ref = gridsearch._refine(lambda rows, h: protocols._paper_work(js[rows], h, betas),
                                   scans)
        w_ref = protocols._paper_work(js, h_ref, betas)
        got = sweep_j(js, betas, mode)
        w = np.array([p.work_density for p in got])
        finite = np.isfinite(w_ref)
        assert np.all(w[finite] >= w_ref[finite] - 1e-12 * np.abs(w_ref[finite]))
        assert np.all(np.isnan(w[~finite])) and np.all(betas.beta_c * js[~finite] > 186.0)
        assert_same_bits([p[:4] for p in got], [p[:4] for p in sweep_j(js, betas, PAPER_PROTOCOL)])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_paper_root_equalizes_the_magnetizations():
    # at every solved field h > 0 of the seeded sweep fuzz (its nan rows
    # included), dw/dh = m_h - m_c vanishes; h = 0 exactly where the root
    # is switched off
    rooted = 0
    for betas, js, _ in sweep_fuzz(34, 40):
        h = np.array([p.h_opt for p in sweep_j(js, betas)])
        inv_log_mean = math.log(betas.beta_c / betas.beta_h) / (betas.beta_c - betas.beta_h)
        on = -2.0 * js > inv_log_mean
        assert np.all(h[on] > 0.0) and np.all(h[~on] == 0.0)
        m_h, m_c = magnetizations(js[on], h[on], betas)
        assert np.all(np.abs(m_h - m_c) <= 1e-12)
        # the root lies in its bracket [2|J| - 1/beta_L, 2|J|]
        assert np.all((h[on] <= -2.0 * js[on]) & (h[on] >= -2.0 * js[on] - inv_log_mean))
        rooted += np.count_nonzero(on)
    assert rooted >= 40


@pytest.mark.parametrize("beta_h,beta_c", [(0.5, 1.0), (0.05, 2.0), (1.0, 2.5)])
def test_paper_root_turns_on_at_the_log_mean_threshold(beta_h, beta_c):
    # h_opt = 0 up to -J = 1/(2 beta_L), with beta_L the logarithmic mean
    # (beta_c - beta_h)/ln(beta_c/beta_h), and positive beyond it
    betas = Betas(beta_h, beta_c)
    threshold = math.log(beta_c / beta_h) / (2.0 * (beta_c - beta_h))
    below, above = sweep_j([-0.99 * threshold, -1.01 * threshold], betas)
    assert below.h_opt == 0.0 and above.h_opt > 0.0
    # the work at h = 0 is lower than at the root above the threshold
    assert above.work_density > protocols._paper_work(-1.01 * threshold, 0.0, betas)


@pytest.mark.parametrize("betas", [BETAS, Betas(1e-300, 1.0), Betas(1.0, 1e308)],
                         ids=["default", "tiny-beta-h", "huge-beta-c"])
def test_paper_root_newton_stops_when_rounding_takes_over(newton_calls, betas):
    # at |J| = 1e4 the root rounds to 2|J| = 2e4, where floats are 3.6e-12
    # apart, and one step ends the iteration; a batch with weak, near-
    # threshold and off-``live`` rows, and temperatures whose 2*beta*h
    # underflows (beta_h = 1e-300) or overflows (beta_c = 1e308), takes
    # only finite steps, never evaluates the rows off ``live`` (which stay
    # at h = 0), and ends well inside the cap
    row = sweep_j([-1e4], BETAS)[0]
    assert len(newton_calls) == 1
    assert row.h_opt == pytest.approx(2e4, abs=1.0)
    assert row.work_density == pytest.approx((BETAS.t_h - BETAS.t_c) * math.log((1 + 5 ** 0.5) / 2),
                                             rel=1e-12)
    inv_log_mean = math.log(betas.beta_c / betas.beta_h) / (betas.beta_c - betas.beta_h)
    js = np.array([-1e4, -1.0, -0.5 * inv_log_mean * (1.0 + 1e-12), -0.4 * inv_log_mean, 0.0,
                   2.0, -1e300, -3e3, -0.7])
    newton_calls.clear()
    h = protocols._paper_field(js, betas)
    live = -2.0 * js > inv_log_mean
    assert np.array_equal(np.unique(np.concatenate([rows for rows, _ in newton_calls])),
                          np.flatnonzero(live))
    assert all(np.all(np.isfinite(out)) for _, out in newton_calls)
    assert len(newton_calls) <= ising._NEWTON_CAP // 2
    assert np.all(h[~live] == 0.0) and np.all((h[live] > 0.0) & (h[live] <= -2.0 * js[live]))


def test_paper_root_on_a_near_threshold_fuzz(newton_calls):
    # seeded couplings from 1e-15 to 1e-1 above the threshold
    # -J = 1/(2 beta_L), within 40 floats of it (where rounding can step an
    # iterate below 0), and out to |J| = 1e300: the solved field is
    # positive exactly above the threshold, the exact stationarity residual
    # |m_h - m_c| there (decimal oracle) is at most 1e-14, and no sweep
    # needs half the iteration cap
    rng = np.random.default_rng(4646)
    for k in range(45):
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-2.0, 1.5, size=2))
        betas = Betas(beta_h, 1.01 * beta_c)
        gap = betas.beta_c - betas.beta_h
        inv_log_mean = math.log1p(gap / betas.beta_h) / gap  # as _paper_field rounds it
        if k % 3 == 1:
            js = -0.5 * inv_log_mean * (1.0 + 10.0 ** rng.uniform(-15.0, -1.0, 4))
        elif k % 3 == 2:
            js = -0.5 * (inv_log_mean + rng.integers(1, 41, 4) * np.spacing(inv_log_mean))
        else:
            js = -10.0 ** rng.uniform(-3.0, 300.0, 4)
        newton_calls.clear()
        h = np.array([p.h_opt for p in sweep_j(js, betas)])
        assert len(newton_calls) < ising._NEWTON_CAP // 2
        for j, field in zip(js, h):
            if field > 0.0:
                residual = hp_oracle.magnetization(betas.beta_h, j, field) \
                    - hp_oracle.magnetization(betas.beta_c, j, field)
                assert abs(residual) <= 1e-14, (betas, j, field)
            else:
                assert -2.0 * j <= inv_log_mean


def test_strong_antiferromagnet_efficiency_stays_at_carnot():
    # at the solved optimum of strong antiferromagnets (h = 2|J|, entropy
    # log(golden ratio)) the hot entropy matches the decimal oracle to
    # 1e-12 relative out to |J| = 1e10, and the efficiency prints Carnot
    # out to |J| = 1e300, not above it (the cancelling entropy printed
    # 0.5000001691 at -1e10); a frustrated ring's efficiency stays at or
    # below Carnot too
    js = [-40.0, -1e3, -1e6, -1e8, -1e10, -1e12, -1e300]
    for point in sweep_j(js, BETAS):
        if abs(point.j) <= 1e10:
            s_h = ising.entropy_density(BETAS.beta_h, point.j, point.h_opt)
            assert s_h == pytest.approx(hp_oracle.chain_entropy(BETAS.beta_h, point.j, point.h_opt),
                                        rel=1e-12)
        assert point.efficiency == BETAS.carnot
    assert chain_sweep(101, [-40.0], BETAS)[0].efficiency <= BETAS.carnot


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pruned_paper_scan_matches_full_scan_on_random_grids():
    # the nested scan of the paper work under its Lipschitz cell bound
    # (lipschitz_bound), on log-uniform draws over the whole coupling
    # range: weak grids of a few hundred points, strong antiferromagnets
    # with their switch at h = 2|J|, strong ferromagnets down to the nan
    # rows (beta_c*J > ~186); a draw takes the finest step that keeps its
    # grid under 4e5 points
    rng = np.random.default_rng(20161018)
    pruned = 0
    for _ in range(300):
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-3.0, 3.0, size=2))
        betas = Betas(beta_h, beta_c)
        j = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 4.0)
        h_max = 4.0 * max(1.0, abs(j))
        step = rng.choice([s for s in (1e-3, 1e-2, 0.1) if h_max / s <= 4e5] or [0.1])
        pruned += h_max / step >= 4096

        def w_of(h):
            return protocols._paper_work(j, h, betas)

        got = gridsearch._nested_argmax(lambda rows, h: w_of(h), np.zeros(1), np.array([h_max]),
                                       step, lipschitz_bound(betas))
        assert_same_bits(got[0], full_grid_argmax(w_of, 0.0, h_max, step))
    assert pruned >= 120


def test_paper_cell_bound_premises():
    # the premises of the paper work's cell bounds and of the root's
    # bracket, at 4000 random (beta_h, beta_c, J, h), weak and strong
    # coupling, against pairs of nearby fields h1 < h2 (finite differences)
    rng = np.random.default_rng(1972)
    rtol = gridsearch._PRUNE_RTOL
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
        # |dw/dh| <= 1 (lipschitz_bound): the ground terms cancel and dw/dh = m_h - m_c
        assert np.all(np.abs(w2 - w1) <= (h2 - h1) + scale)
        # w <= T_h*delta_h: the cold log excess is nonnegative
        assert np.all((w1 <= e1) & (w2 <= e2))
        # T_h*delta_h rises up to h = 2|J|, the top of the root's bracket,
        # and falls after it
        rising, falling = h2 <= switch, h1 >= switch
        assert np.all(e2[rising] >= e1[rising] - rtol * e2[rising])
        assert np.all(e2[falling] <= e1[falling] + rtol * e1[falling])


def counting_sweep(monkeypatch):
    # the fields at which sweep_j evaluates the paper work, one entry per
    # call, and the number of nested scans it starts
    evaluated, scans = [], []
    paper_work, nested_argmax = protocols._paper_work, protocols._nested_argmax

    def counting_work(j, h, betas):
        evaluated.append(np.size(h))
        return paper_work(j, h, betas)

    def counting_scan(*args, **kwargs):
        scans.append(args)
        return nested_argmax(*args, **kwargs)

    monkeypatch.setattr(protocols, "_paper_work", counting_work)
    monkeypatch.setattr(protocols, "_nested_argmax", counting_scan)
    return evaluated, scans


def sweep_grid_points(js):
    # the points of the default 0.01-step field grids of the couplings js
    return sum(len(np.arange(0.0, 4.0 * max(1.0, abs(j)) + 0.005, 1e-2)) for j in js)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pruned_sweep_evaluates_few_grid_points(monkeypatch):
    # J = -499 is a strong antiferromagnet, J = 499 a nan row; the default
    # weak sweep (J = -5..5 in steps of 0.1) shares its calls; the solved
    # sweep evaluates the work once per row, at its root, and scans no grid
    evaluated, scans = counting_sweep(monkeypatch)
    rows = sweep_j([-499.0, 499.0], BETAS)
    assert sum(evaluated) <= 0.05 * sweep_grid_points([-499.0, 499.0])
    assert evaluated == [2] and scans == []
    assert rows[0].work_density > 0.0 and math.isnan(rows[1].work_density)
    evaluated.clear()
    weak = [-5.0 + 0.1 * k for k in range(101)]
    sweep_j(weak, BETAS)
    assert sum(evaluated) <= 0.25 * sweep_grid_points(weak)
    assert evaluated == [101] and scans == []


def test_pruned_free_sweep_evaluates_few_grid_points(monkeypatch):
    # the free sweep at J = -1e4 (4e6 grid points) evaluates the work at
    # 0.01% of its grid points at most (once, at the paper root) and starts
    # no nested scan, so no cell bound is evaluated; the work equals the
    # strong antiferromagnet's (T_h - T_c)*ln(phi)
    evaluated, scans = counting_sweep(monkeypatch)
    row = sweep_j([-1e4], BETAS, FREE_FIELDS)[0]
    assert sum(evaluated) <= 1e-4 * sweep_grid_points([-1e4])
    assert evaluated == [1] and scans == []
    assert row.mode == FREE_FIELDS
    assert row.work_density == pytest.approx((BETAS.t_h - BETAS.t_c) * math.log((1 + 5 ** 0.5) / 2),
                                             rel=1e-12)


def test_golden_max_batch_matches_scalar_calls():
    def peak(rows, x):
        return -np.abs(x - 1.25)

    lo = np.array([0.0, 1.0, 0.5, 1.2, 1.2])
    hi = np.array([3.0, 2.0, 2.5, 1.3, 1.2 + 5e-9])
    batch = gridsearch._golden_max(peak, lo, hi, 1e-8)
    for k in range(len(lo)):
        assert batch[k] == gridsearch._golden_max(peak, lo[k], hi[k], 1e-8)
    assert np.all(np.abs(batch[:4] - 1.25) <= 1e-8)


# --------------------------------------------------------------------------
# free corner fields: the oracle of the envelope theorem.  With h_C relaxed
# to the I-projection field h_C*, dw_free/dh_B = (h_C* - h_B) d<M>_h/dh, so
# the free work peaks where h_C* = h_B, the paper family's own optimum,
# and sweep_j answers --mode free with the paper optimum


def free_penalty_min(j, h_b, betas, core_s):
    """Minimal cold-entry penalty min over h_C >= 0 of D(hot B || cold C)
    per site, and the h_C that attains it, elementwise over ``h_b``
    (``j`` is a scalar or broadcasts against it), given ``core_s``, the
    hot ``_core`` at (beta_h*J, beta_h*|h_B|).

    The minimizer is the I-projection of the hot state onto the cold
    Gibbs family: the penalty is convex in h_C and stationary where the
    cold magnetization matches the hot one, m.  The chain's
    m = sinh b / sqrt(sinh^2 b + e^{-4a}) inverts in closed form,
    sinh(beta_c h_C) = m e^{-2 beta_c J} / sqrt((1 - m)(1 + m)), taken in
    logs with the exact complement ``one_minus_m``; where m rounds to 1
    the root is not finite and h_B takes its place.  The exact candidates
    0, h_B and (beta_h/beta_c)*h_B compete with the root and win ties.
    """
    j = np.asarray(j, dtype=np.float64)
    h_b = np.asarray(h_b, dtype=np.float64)
    bh, bc = betas.beta_h, betas.beta_c
    m = core_s.rb + core_s.delta_b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_sinh = np.log(m) - 2.0 * bc * j \
            - 0.5 * (np.log(core_s.one_minus_m) + np.log1p(m))
        # asinh(e^L), in log form where e^L would overflow
        asinh = np.where(log_sinh > 0.0,
                         log_sinh + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * log_sinh))),
                         np.arcsinh(np.exp(log_sinh)))
    root = np.where(np.isfinite(asinh), asinh / bc, h_b)
    candidates = np.stack(np.broadcast_arrays(0.0, h_b, (bh / bc) * h_b, root))
    values = ising._relative_entropy(bh, bc, j, h_b, candidates, core_s)
    pick = np.argmin(values, axis=0)[None]
    return np.take_along_axis(values, pick, 0)[0], np.take_along_axis(candidates, pick, 0)[0]


def free_work(j, h, betas, fields=False):
    """Work density of the infinite chain with h_B = h and each matching
    field relaxed, and with ``fields`` also the cold field h_C* that
    attains it."""
    j = np.asarray(j, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    a_h, b_h = betas.beta_h * j, betas.beta_h * np.abs(h)
    core_h = ising._core(a_h, b_h)
    d_min, h_c = free_penalty_min(j, h, betas, core_h)
    w = (betas.t_h - betas.t_c) * core_h.entropy(a_h, b_h) - betas.t_c * d_min
    return (w, h_c) if fields else w


def ring_free_work(n, j, h_b, betas):
    """Work per site of the N-ring with h_B = h_b (an array) and the
    matching cold field relaxed, and that field h_C*, from the exact level
    classes: h_C* matches the cold <M> to the hot one (bisection), and the
    penalty is the classwise relative entropy there."""
    m, b, g = kernels.levels(n)
    log_g = np.log(g)

    def log_p(beta, h):
        x = beta * (j * b + h[:, None] * m) + log_g
        return x - np.logaddexp.reduce(x, axis=1, keepdims=True)

    def mean_m(beta, h):
        return np.exp(log_p(beta, h)) @ m

    lp_h = log_p(betas.beta_h, h_b)
    p_h = np.exp(lp_h)
    s_h = -np.sum(p_h * (lp_h - log_g), axis=1)
    target = p_h @ m
    lo, hi = np.zeros(len(h_b)), np.ones(len(h_b))
    for _ in range(60):
        short = mean_m(betas.beta_c, hi) < target
        lo, hi = np.where(short, hi, lo), np.where(short, 2.0 * hi, hi)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        short = mean_m(betas.beta_c, mid) < target
        lo, hi = np.where(short, mid, lo), np.where(short, hi, mid)
    h_c = 0.5 * (lo + hi)
    d = np.maximum(np.sum(p_h * (lp_h - log_p(betas.beta_c, h_c)), axis=1), 0.0)
    return ((betas.t_h - betas.t_c) * s_h - betas.t_c * d) / n, h_c


@pytest.mark.parametrize("beta_h,beta_c", [(0.5, 1.0), (0.4, 1.4), (0.1, 3.0), (0.9, 1.0)])
def test_free_penalty_min_against_scalar_scan(beta_h, beta_c):
    # oracle: the scalar relative-entropy density on a dense h_C grid
    # plus the exact candidates 0, h_B and (beta_h/beta_c) h_B
    betas = Betas(beta_h, beta_c)
    for j in (-500.0, -50.0, -5.0, -1.0, 0.0, 1.0, 5.0, 50.0):
        top = 4.0 * max(1.0, abs(j))
        h_bs = np.unique(np.concatenate([[0.0, 1e-12, 2.0 * abs(j) + 1e-9],
                                         np.linspace(0.0, top, 5)]))
        core_s = ising._core(beta_h * j, beta_h * h_bs)
        d_min, h_c = free_penalty_min(j, h_bs, betas, core_s)
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
                m_cold = magnetization(beta_c, j, h)
                m_hot = magnetization(beta_h, j, h_b)
                assert abs(m_cold - m_hot) <= 1e-12


def test_free_fields_never_beat_the_paper_optimum_of_the_chain():
    # seeded (betas, J) on 20001-point grids over [0, 4*max(1, |J|)]: the
    # free work lies above the paper work at every field, its maximum
    # exceeds sweep_j's optimum by at most 1e-12 relative, and it peaks
    # within a grid step of sweep_j's field, where h_C* = h_B to a step
    rng = np.random.default_rng(16)
    for _ in range(20):
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-1.5, 1.0, size=2))
        betas = Betas(beta_h, 1.01 * beta_c)
        for j in rng.choice((-1.0, 1.0), 4) * 10.0 ** rng.uniform(-2.0, 2.0, 4):
            if betas.beta_c * j > 150.0:  # the nan rows of the h = 0 underflow
                continue
            point = sweep_j([j], betas, FREE_FIELDS)[0]
            grid, step = np.linspace(0.0, 4.0 * max(1.0, abs(j)), 20001, retstep=True)
            w, h_c = free_work(j, grid, betas, fields=True)
            paper = protocols._paper_work(j, grid, betas)
            assert np.all(w >= paper - 1e-12 * np.abs(paper)), (betas, j)
            k = int(np.argmax(w))
            assert w[k] <= point.work_density + 1e-12 * abs(point.work_density), (betas, j)
            assert abs(grid[k] - point.h_opt) <= step and abs(h_c[k] - grid[k]) <= step


def test_free_fields_never_beat_the_paper_optimum_of_rings():
    # the same theorem on rings at N <= 10, by the exact level classes, on
    # 801-point grids: chain_sweep's paper optimum is the free maximum too
    rng = np.random.default_rng(17)
    for _ in range(16):
        n = int(rng.integers(2, 11))
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-1.0, 0.7, size=2))
        betas = Betas(beta_h, 1.01 * beta_c)
        j = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.5, 0.7)
        point = chain_sweep(n, [j], betas)[0]
        grid, step = np.linspace(0.0, 4.0 * max(1.0, abs(j)), 801, retstep=True)
        w, h_c = ring_free_work(n, j, grid, betas)
        paper = protocols._ring_work(n, j, grid, betas)[0]
        case = (n, betas, j)
        assert np.all(w >= paper - 1e-12 * np.abs(paper)), case
        k = int(np.argmax(w))
        assert w[k] <= point.work_density + 1e-12 * abs(point.work_density), case
        assert abs(grid[k] - point.h_opt) <= step and abs(h_c[k] - grid[k]) <= step, case


# --------------------------------------------------------------------------
# ferromagnetic precision limit: at J = 40 only the ground doublet (all
# up, all down) is populated, split by 2*h*N, and the best field is the
# floor h = epsilon


def doublet_efficiency(epsilon, n):
    # eta = (T_h*L_h - T_c*L_c) / (T_h*S_h) with x = 2*beta*epsilon*N,
    # L = log1p(e^-x) and S_h = L_h + x_h/(1 + e^x_h)
    x_h = 2.0 * BETAS.beta_h * epsilon * n
    x_c = 2.0 * BETAS.beta_c * epsilon * n
    l_h, l_c = math.log1p(math.exp(-x_h)), math.log1p(math.exp(-x_c))
    s_h = l_h + x_h / (1.0 + math.exp(x_h))
    return (BETAS.t_h * l_h - BETAS.t_c * l_c) / (BETAS.t_h * s_h)


def test_ferro_limit_without_field_floor_is_carnot():
    assert doublet_efficiency(0.0, 6) == BETAS.carnot
    for n in (2, 6, 12):
        point = chain_efficiency_at_max_work(n, 40.0, BETAS)
        assert point.efficiency == pytest.approx(BETAS.carnot, rel=1e-11)


def test_ferro_limit_value():
    epsilons = (0.05, 0.1, 0.5)
    for n in (2, 6, 12, 24):
        for eps, point in zip(epsilons, chain_sweep(n, [40.0], BETAS, epsilons)):
            assert point.h_opt == eps
            assert point.efficiency == pytest.approx(doublet_efficiency(eps, n), rel=1e-11)
    assert 0.470 < doublet_efficiency(0.1, 6) < 0.471


def test_ferro_limit_decays_with_chain_length():
    values = [chain_efficiency_at_max_work(n, 40.0, BETAS, 0.1).efficiency
              for n in (6, 12, 24)]
    assert values[0] > values[1] > values[2]
    # eta -> 1/(1 + 2*beta_h*epsilon*N) once the doublet is split far past
    # T_h: the decay in N is algebraic, not exponential
    point = chain_efficiency_at_max_work(24, 40.0, BETAS, 0.5)
    assert point.efficiency == pytest.approx(1.0 / (1.0 + 2.0 * BETAS.beta_h * 0.5 * 24),
                                             rel=1e-5)


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
    m, b, g = kernels.levels(n)
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


def assert_rel_close(got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(got), np.abs(want)))


def test_sector_sum_matches_enumeration():
    for n in range(1, 17):
        for betas in SECTOR_BETAS:
            for j in SECTOR_JS:
                hs = sector_fields(j)
                gap, s_h = sector_sums.gap_entropy(n, j, hs, betas)
                want = np.array([enumerated_gap_entropy(n, j, h, betas) for h in hs]).T
                assert_rel_close(gap, want[0], 1e-11)
                assert_rel_close(s_h, want[1], 1e-11)
                assert np.all(s_h >= 0.0)


def test_sector_sum_matches_class_sum_at_24_sites():
    for betas in SECTOR_BETAS:
        for j in SECTOR_JS:
            hs = sector_fields(j)
            gap, s_h = sector_sums.gap_entropy(24, j, hs, betas)
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
                scalar = sector_sums.gap_entropy(n, j, hs, betas)
                per_field = sector_sums.gap_entropy(n, np.full(len(hs), j), hs, betas)
                np.testing.assert_array_equal(scalar[0], per_field[0])
                np.testing.assert_array_equal(scalar[1], per_field[1])
                # a field alone gets the bits it gets in a batch
                for k in range(len(hs)):
                    alone = sector_sums.gap_entropy(n, np.full(1, j), hs[k:k + 1], betas)
                    assert (alone[0][0], alone[1][0]) == (scalar[0][k], scalar[1][k])


def test_ring_matches_sector_sums():
    # the closed form against the sector-sum reference on its own rows, to
    # the reference's tolerance or within its rounding: it sums
    # e^{-beta (E - E_0)} with energies E = -J*B - h*M of size (|J| + |h|) N,
    # and rounds log z to 0 once every excited weight is below 1e-16
    for n in (*range(1, 17), 24):
        for betas in SECTOR_BETAS:
            for j in SECTOR_JS:
                hs = sector_fields(j)
                work, s_h = protocols._ring_work(n, j, hs, betas)
                gap, want_s = sector_sums.gap_entropy(n, j, hs, betas)
                energy = 4e-16 * n * (abs(j) + hs)
                for got, want, floor in (
                        (n * work, gap, energy + 4e-16 * n * (betas.t_h + betas.t_c)),
                        (n * s_h, want_s, betas.beta_h * energy + 4e-16 * n)):
                    assert np.all(np.abs(got - want)
                                  <= 1e-11 * np.maximum(np.abs(got), np.abs(want)) + floor)
                assert np.all(s_h >= 0.0)


def test_decimal_oracle_routes_agree():
    # the oracle's transfer-matrix log Z against its exact class sums
    rng = np.random.default_rng(41)
    with hp_oracle.decimal.localcontext(hp_oracle.CONTEXT):
        for n in (1, 2, 3, 7, 12):
            for _ in range(2):
                beta = hp_oracle.Decimal(float(rng.uniform(0.1, 3.0)))
                j, h = rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 60.0), rng.uniform(0.0, 100.0)
                via_classes = hp_oracle.class_log_z(n, beta, j, h)
                via_transfer = hp_oracle.transfer_log_z(n, beta, j, h)
                assert abs(via_classes - via_transfer) <= abs(via_classes) * hp_oracle.Decimal("1e-300")


def test_ring_matches_decimal_oracle():
    # seeded rows with N up to 1e4 (every third an odd antiferromagnetic
    # ring), |J| up to 60, and fields up to 100 or within 0.1% of 2|J|:
    # the work per site, the hot entropy and the efficiency match the
    # 400-digit transfer matrix to 1e-12 relative, also where they are
    # tiny, wherever the oracle's values are normal floats
    rng = np.random.default_rng(40)
    for k in range(90):
        n = int(rng.integers(1, 25) if k % 2 else rng.integers(1, 10_001))
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-1.0, 0.5, size=2))
        betas = Betas(beta_h, 1.01 * beta_c)
        j = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(60.0))
        if k % 3 == 0:
            n, j = n | 1, -abs(j)
        h = rng.uniform(0.0, 100.0) if k % 4 < 2 else 2.0 * abs(j) * (1.0 + 1e-3 * rng.normal())
        w, s_h = protocols._ring_work(n, j, np.array([h]), betas)
        got = (w[0], s_h[0], protocols._eta(w, s_h, betas.beta_h)[0])
        want = hp_oracle.chain_point(n, betas.beta_h, betas.beta_c, j, h)
        case = (n, betas, j, h)
        if abs(want[1]) < 1e-290:
            assert abs(got[0]) <= 1e-290 and abs(got[1]) <= 1e-290, case
        else:
            assert_rel_close(got, want, 1e-12)


def test_one_site_ring_is_a_free_spin():
    # N = 1 has the one bond s*s = 1, so Z_1 = 2 e^a cosh b and the work and
    # entropy do not depend on J; the closed form reaches them through
    # delta and rho, which cancel to about 1e-8 of each other at h ~ 2|J|
    # of a strong antiferromagnet
    rng = np.random.default_rng(39)
    for _ in range(200):
        betas = Betas(*sorted(10.0 ** rng.uniform(-1.0, 0.5, size=2)))
        j = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 2.0)
        h = abs(j) * rng.choice([rng.uniform(0.0, 4.0), 2.0 + rng.normal(0.0, 0.01)])
        work, s_h = protocols._ring_work(1, j, np.array([h]), betas)
        q_h, q_c = np.exp(-2.0 * betas.beta_h * h), np.exp(-2.0 * betas.beta_c * h)
        free = betas.t_h * np.log1p(q_h) - betas.t_c * np.log1p(q_c)
        entropy = np.log1p(q_h) + 2.0 * betas.beta_h * h * q_h / (1.0 + q_h)
        assert_rel_close([work[0], s_h[0]], [free, entropy], 1e-12)


def test_long_ring_work_is_the_chain_work():
    # at N = 1e4 the ring's correction to the infinite chain is below
    # e^{-300} at these couplings, for both signs of J and both parities
    fields = np.array([0.0, 0.3, 1.0, 2.0, 3.9, 4.0, 4.1, 8.0])
    for n in (10_000, 10_001):
        for j in (-2.0, -1.0, -0.3, 0.3, 1.0, 2.0):
            work = protocols._ring_work(n, j, fields, BETAS)[0]
            assert_rel_close(work, protocols._paper_work(j, fields, BETAS), 1e-12)


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
    """The per-point finite-chain optimizer: the floor for J >= 0, else a
    grid scan and golden refinement of this one coupling, on the full
    evaluation (work, efficiency and the hot entropy) of the ring's closed
    form, which is elementwise, so that the bits match the batched
    ``chain_sweep``."""
    h_max = 4.0 * max(1.0, abs(j))
    if h_max <= epsilon:
        h_max = epsilon + 1.0

    def evaluate(hs):
        w, s_h = protocols._ring_work(n, j, hs, betas)
        with np.errstate(invalid="ignore", divide="ignore"):
            eta = np.where(s_h > 0.0, w / (betas.t_h * np.where(s_h > 0, s_h, 1.0)), 0.0)
        return w, eta

    def w_of(hs):
        return evaluate(hs)[0]

    if j >= 0:
        h_opt = np.array([epsilon])
    else:
        scan = full_grid_argmax(w_of, epsilon, h_max, 1e-2)
        h_opt = gridsearch._refine(lambda rows, h: w_of(h), [scan])
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
        chain_efficiency_at_max_work(6, 1.0, BETAS, epsilon=-1.0)
    with pytest.raises(ValueError):
        chain_sweep(6, [1.0], BETAS, [0.0, -1.0])


def chain_search(monkeypatch, n, js, betas, floors, step):
    """The work and cell bound callbacks that chain_sweep hands to the
    nested scan, with the floors, tops, couplings and grid step of its
    rows."""
    captured = {"js": [j for _ in floors for j in js if j < 0], "step": step}
    nested = protocols._nested_argmax

    def recording(work, floors, tops, step, cell_bound, *rest):
        captured.update(work=work, floors=floors, tops=tops, cell_bound=cell_bound)
        return nested(work, floors, tops, step, cell_bound, *rest)

    monkeypatch.setattr(protocols, "_nested_argmax", recording)
    chain_sweep(n, js, betas, floors, grid_step=step)
    monkeypatch.undo()
    return captured


def assert_cell_bounds_cover(search, betas, n):
    """At every cell width the nested scan forms (each power of _BRANCH
    below the grid length, with a shorter last cell), the bound of each
    cell lies above the work at every grid point of the cell, and at least
    half the row's rounding margin above both ends of the cell."""
    work, cell_bound = search["work"], search["cell_bound"]
    for row, (floor, top) in enumerate(zip(search["floors"], search["tops"])):
        grid = np.arange(floor, top + 0.5 * search["step"], search["step"])
        w = work(np.full(len(grid), row), grid)
        j = search["js"][row]
        margin = gridsearch._PRUNE_RTOL * ((betas.t_h + betas.t_c) * math.log(2.0) + 4.0 * abs(j))
        width = 1
        while width < len(grid) - 1:
            ends = np.append(np.arange(0, len(grid) - 1, width), len(grid) - 1)
            cell_max = np.maximum(np.maximum.reduceat(w, ends[:-1]), w[ends[1:]])
            bound = cell_bound(np.array([[row]]), grid[ends][None], w[ends][None])[0]
            case = (n, row, floor, width)
            assert np.all(bound >= cell_max), case
            assert np.all(bound >= np.maximum(w[ends[:-1]], w[ends[1:]]) + 0.5 * margin)
            width *= gridsearch._BRANCH


@pytest.mark.parametrize("beta_h,beta_c", [(0.5, 1.0), (1e-2, 0.7), (1.0, 30.0), (1e-2, 30.0)])
def test_chain_cell_bound_covers_every_grid_point(monkeypatch, beta_h, beta_c):
    # the grids end at 4*max(1, |J|), past the antiferromagnets' switch at
    # 2|J|.  A bound at least half the rounding margin above both ends of
    # its cell keeps a cell that ties the best to rounding.  Only the
    # antiferromagnetic rows are scanned
    betas = Betas(beta_h, beta_c)
    js = [s * j for j in (1e-3, 0.5, 5.0, 200.0) for s in (-1.0, 1.0)]
    for n in (1, 2, 3, 6, 10, 24):
        search = chain_search(monkeypatch, n, js, betas, [0.0, 0.3], 0.05)
        assert len(search["floors"]) == 8
        assert_cell_bounds_cover(search, betas, n)
    # odd rings at |J| = 1e6 on a coarse grid, deep in the frustrated phase
    for n in (3, 1001):
        search = chain_search(monkeypatch, n, [-1e6], betas, [0.0], 2e4)
        assert_cell_bounds_cover(search, betas, n)


def test_frustrated_ring_work_rounds_within_the_cell_margin():
    # the work's reduced terms round at the scale of |J| (the rounding of
    # beta*J moves them near the switch field 2|J|), which the margin's 4|J|
    # part covers: at N = 3 and J = -1e6 the decimal class sums put the
    # rounding a million times below the margin, the switch field included
    grid = np.linspace(0.0, 4e6, 11)
    w = protocols._ring_work(3, -1e6, grid, BETAS)[0]
    exact = [hp_oracle.chain_point(3, BETAS.beta_h, BETAS.beta_c, -1e6, h,
                                   hp_oracle.class_log_z)[0] for h in grid]
    margin = gridsearch._PRUNE_RTOL * ((BETAS.t_h + BETAS.t_c) * math.log(2.0) + 4e6)
    assert np.all(np.abs(w - exact) <= 1e-6 * margin)


def test_chain_sweep_matches_full_scan_and_refinement_per_row():
    # seeded draws of N, betas, couplings (strong ones of both signs),
    # floors up to 100 and grid steps: every antiferromagnetic row equals
    # one unpruned scan of its own grid, refined by _refine, bit for bit;
    # every ferromagnetic row sits at its floor, with work at least that
    # of the scan and refinement minus 1e-12 relative
    rng = np.random.default_rng(2024)
    for _ in range(10):
        n = int(rng.integers(1, 25))
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-2.0, 1.5, size=2))
        betas = Betas(beta_h, beta_c * 1.01)
        js = np.append(rng.choice((-1.0, 1.0), 3) * 10.0 ** rng.uniform(-3.0, 3.0, 3),
                       rng.choice((-1.0, 1.0)) * rng.uniform(30.0, 300.0))
        floors = rng.choice([0.0, 0.05, 0.3, 2.0, 100.0], size=2, replace=False)
        j_rows, floor_rows = np.tile(js, 2), np.repeat(floors, len(js))
        tops = protocols._grid_tops(j_rows, floor_rows, 1.0)
        step = max(10.0 ** rng.uniform(np.log10(0.003), np.log10(0.5)),
                   np.max(tops - floor_rows) / 2e4)
        def work(j, h):
            return protocols._ring_work(n, j, h, betas)[0]

        scans = [full_grid_argmax(lambda h: work(j, h), floor, top, step)
                 for j, floor, top in zip(j_rows, floor_rows, tops)]
        h_ref = gridsearch._refine(lambda rows, h: work(j_rows[rows], h), scans)
        w_ref = work(j_rows, h_ref)
        got = chain_sweep(n, js, betas, floors, grid_step=step)
        h_got, w_got = (np.array([p[k] for p in got]) for k in (2, 3))
        anti = j_rows < 0
        assert_same_bits(h_got[anti], h_ref[anti])
        assert_same_bits(w_got[anti], w_ref[anti])
        assert_same_bits(h_got[~anti], floor_rows[~anti])
        assert np.all(w_got[~anti] >= w_ref[~anti] - 1e-12 * np.abs(w_ref[~anti]))


def test_ferromagnetic_ring_optimum_is_the_floor():
    # Griffiths' second inequality: <M> rises with beta at h >= 0, so the
    # work per site never rises with h; seeded rows at N = 2..24 on
    # 4001-point grids above their floors
    rng = np.random.default_rng(1967)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        beta_h, beta_c = sorted(10.0 ** rng.uniform(-2.0, 1.0, size=2))
        betas = Betas(beta_h, beta_c * 1.01)
        j = 10.0 ** rng.uniform(-3.0, 2.0)
        floor = rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 1.0)])
        point = chain_sweep(n, [j], betas, [floor])[0]
        assert point.h_opt == floor
        grid = np.linspace(floor, floor + 4.0 * max(1.0, j), 4001)
        w = protocols._ring_work(n, j, grid, betas)[0]
        assert np.all(np.diff(w) <= 1e-12 * np.abs(w[:-1]))
        assert point.work_density >= np.max(w) * (1.0 - 1e-12)


def test_ring_ground_sector_switches_only_at_twice_the_coupling():
    # with k <= N/2 down spins the lowest class has k isolated down spins,
    # E_k = (|J| - h) N + k (2h - 4|J|): every sector crosses at h = 2|J| at
    # once, so the lowest sector of f_M - h*M on h > 0 is M = N mod 2 below
    # 2|J| and M = N above it; a ferromagnet stays at M = N
    u = np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 199), 1.0 - np.logspace(-9, -4, 6)])
    for n in range(2, 25):
        m, b, _ = sector_sums.sector_table(n)
        m = m[:, 0]
        for j in (-0.3, -1.0, -2.5, 7.0, 1.0):
            f = (-(j * b)).min(axis=0)[:, 0]
            switch = 2.0 * abs(j)
            hs = switch * np.concatenate([u, 2.0 - u])
            lowest = m[np.argmin(f[None, :] - hs[:, None] * m[None, :], axis=1)]
            below = n % 2 if j < 0 else n
            assert np.all(lowest[hs < switch] == below), (n, j)
            assert np.all(lowest[hs > switch] == n), (n, j)


def test_pruned_chain_sweep_evaluates_few_grid_points(monkeypatch):
    # the precision run of the chains benchmark (N = 10, floors 0 and 0.1,
    # J = 0..20 in steps of 2) has only ferromagnetic rows: one ring
    # evaluation for all 22 rows, at their floors.  Its antiferromagnetic
    # mirror (J = -20..-2) evaluates at most 10% of its grid points, golden
    # refinement included
    evaluated = []

    def counting_work(n, j, h, betas):
        evaluated.append(np.size(h))
        return ring_work(n, j, h, betas)

    ring_work = protocols._ring_work
    monkeypatch.setattr(protocols, "_ring_work", counting_work)
    js, floors = [2.0 * k for k in range(11)], [0.0, 0.1]
    rows = chain_sweep(10, js, BETAS, floors)
    assert evaluated == [22]
    assert [p.h_opt for p in rows] == [eps for eps in floors for _ in js]
    assert all(point.work_density > 0.0 for point in rows)
    evaluated.clear()
    js = [-2.0 * k for k in range(1, 11)]
    rows = chain_sweep(10, js, BETAS, floors)
    evaluated.pop()  # the efficiency at the optimum
    grid_points = sum(len(np.arange(eps, -4.0 * j + 0.005, 1e-2)) for eps in floors for j in js)
    assert sum(evaluated) <= 0.1 * grid_points
    assert all(point.work_density > 0.0 for point in rows)
