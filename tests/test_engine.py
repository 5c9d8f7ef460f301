"""Protocol stepping, cycle accounting, and Carnot-like bounds."""

import math

import numpy as np
import pytest

from spinengine import kernels
from spinengine.engine import (Betas, BoundInputs, Quench, ThermalContact,
                               UndefinedResultError, Unitary, apply_step,
                               bound_terms, carnot_like_cycle,
                               carnot_like_work_bound, efficiency_bound,
                               isothermal_staircase, run_cycle)
from spinengine.hamiltonians import (SIGMA_X, SIGMA_Z, IsingParams, compose,
                                     ising_composite, ising_diagonal)
from spinengine.thermo import (DensityState, gibbs, relative_entropy,
                               von_neumann_entropy)

BETAS = Betas(beta_h=0.5, beta_c=1.0)


def field(h):
    return -h * SIGMA_Z


# --------------------------------------------------------------------------
# Betas


def test_betas_derived_quantities():
    assert BETAS.t_h == 2.0
    assert BETAS.t_c == 1.0
    assert BETAS.carnot == 0.5


def test_betas_ordering_enforced():
    for bh, bc in [(1.0, 0.5), (-1.0, 2.0), (0.0, 1.0), (0.5, 0.5),
                   (0.5, math.inf)]:
        with pytest.raises(ValueError):
            Betas(bh, bc)


# --------------------------------------------------------------------------
# single steps


def test_contact_on_gibbs_state_moves_nothing():
    h = field(1.0)
    state = gibbs(h, BETAS.beta_h)
    result = apply_step(state, h, ThermalContact("hot"), BETAS)
    assert result.record.heat == pytest.approx(0.0, abs=1e-14)
    assert result.record.work == 0.0
    assert result.record.bath == "hot"


def test_contact_heating_is_positive():
    h = field(1.0)
    cold = gibbs(h, BETAS.beta_c)
    result = apply_step(cold, h, ThermalContact("hot"), BETAS)
    assert result.record.heat > 0


def test_quench_work_value():
    h = field(1.0)
    state = gibbs(h, 1.0)
    result = apply_step(state, h, Quench(0.5 * h), Betas(1.0, 2.0))
    assert result.record.work == pytest.approx(-0.5 * math.tanh(1.0), abs=1e-12)
    assert result.record.heat == 0.0


def test_unitary_work_accounting():
    h = field(1.0)
    state = gibbs(h, 1.0)
    idle = apply_step(state, h, Unitary(np.eye(2), h), BETAS)
    assert idle.record.work == pytest.approx(0.0, abs=1e-14)
    flip = apply_step(state, h, Unitary(SIGMA_X, h), BETAS)
    assert flip.record.work == pytest.approx(-2.0 * math.tanh(1.0), abs=1e-12)


def test_unitary_step_rejects_non_unitary():
    state = gibbs(field(1.0), 1.0)
    with pytest.raises(ValueError):
        apply_step(state, field(1.0), Unitary(np.diag([1.0, 2.0]), field(1.0)), BETAS)


def test_unknown_step_type_raises():
    with pytest.raises(TypeError):
        apply_step(gibbs(field(1.0), 1.0), field(1.0), "quench", BETAS)


def test_thermal_contact_validates_bath():
    with pytest.raises(ValueError):
        ThermalContact("lukewarm")


# --------------------------------------------------------------------------
# cycles


def test_cycle_without_hot_contact_is_undefined():
    with pytest.raises(UndefinedResultError):
        run_cycle(field(1.0), [], BETAS)
    with pytest.raises(UndefinedResultError):
        run_cycle(field(1.0), [ThermalContact("cold")], BETAS)


def test_non_cyclic_protocol_rejected():
    steps = [Quench(field(2.0)), ThermalContact("hot")]
    with pytest.raises(ValueError):
        run_cycle(field(1.0), steps, BETAS)


@pytest.mark.parametrize("bad_step, reason", [
    (Unitary(np.diag([1.0, 2.0, 1.0, 1.0]), np.diag([-4.0, 0.0, 0.0, 0.0])), "not unitary"),
    (Quench(np.diag([1.0, 0.0, 0.0, 0.0]) + np.eye(4, k=1)), "not Hermitian"),
    (Quench(np.diag([1.0, np.nan, 0.0, 0.0])), "non-finite"),
    (Quench(np.zeros((8, 8))), "different spaces"),
    (Quench(ising_diagonal(IsingParams(3, 1.0, 1.0))), "different spaces"),
], ids=["non-unitary", "non-hermitian", "non-finite", "larger-matrix", "longer-chain"])
def test_run_cycle_rejects_bad_protocol_input(bad_step, reason):
    h0 = ising_diagonal(IsingParams(2, 1.0, 1.0))
    steps = [ThermalContact("hot"), bad_step, ThermalContact("cold"), Quench(h0)]
    with pytest.raises(ValueError, match=reason):
        run_cycle(h0, steps, BETAS)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tables_match_dense_corners(n):
    # the Ising corners are diagonal, so the table path must reproduce the
    # dense one: same cycle books and same bound terms
    for j, h_b in ((0.0, 1.0), (0.7, 1.3), (-0.3, 0.8), (1.5, 2.5)):
        fields = (4.0 * h_b, h_b, 0.5 * h_b, 2.0 * h_b)  # A, B, C, D
        results = []
        for build in (ising_composite, ising_diagonal):
            c_a, c_b, c_c, c_d = (build(IsingParams(n, j, h)) for h in fields)
            report = run_cycle(c_d, carnot_like_cycle(c_d, c_a, c_b, c_c, BETAS, 8), BETAS)
            terms = [bound_terms(BoundInputs(c_a, c_b, c_c, c_d, BETAS, u=cls, v=cls))
                     for cls in ("identity", "full")]
            results.append((report, terms))
        (dense, dense_terms), (table, table_terms) = results
        assert table.n_passes == dense.n_passes and table.steady
        for name in ("total_work", "heat_hot", "heat_cold", "efficiency"):
            assert getattr(table, name) == pytest.approx(getattr(dense, name), rel=1e-12)
        assert table.energy_closure < 1e-12
        for got, want in zip(table_terms, dense_terms):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_protocol_may_mix_tables_and_matrices():
    # a table and the equal dense matrix close the cycle and give the same books
    table = {h: ising_diagonal(IsingParams(2, 0.5, h)) for h in (1.0, 0.4)}
    dense = {h: ising_composite(IsingParams(2, 0.5, h)) for h in (1.0, 0.4)}
    mixed = run_cycle(table[1.0], [ThermalContact("hot"), Quench(dense[0.4]),
                                   ThermalContact("cold"), Quench(dense[1.0])], BETAS)
    pure = run_cycle(dense[1.0], [ThermalContact("hot"), Quench(dense[0.4]),
                                  ThermalContact("cold"), Quench(dense[1.0])], BETAS)
    assert mixed.total_work == pytest.approx(pure.total_work, rel=1e-12)
    assert mixed.heat_hot == pytest.approx(pure.heat_hot, rel=1e-12)


def test_matched_quench_cycle_is_degenerate():
    # contact hot, quench so that beta_c*h_C = beta_h*h_B, contact cold,
    # quench back: the steady cycle moves no energy at all
    h_b = field(1.0)
    h_c = (BETAS.beta_h / BETAS.beta_c) * h_b
    steps = [ThermalContact("hot"), Quench(h_c),
             ThermalContact("cold"), Quench(h_b)]
    report = run_cycle(h_b, steps, BETAS)
    assert report.steady
    assert abs(report.total_work) < 1e-12
    assert abs(report.heat_hot) < 1e-12
    assert report.energy_closure < 1e-12


def test_otto_cycle_exact_efficiency():
    # two-field quench cycle: eta = 1 - h2/h1 whenever it runs forward
    h1, h2 = 2.0, 1.5
    steps = [ThermalContact("hot"), Quench(field(h2)),
             ThermalContact("cold"), Quench(field(h1))]
    report = run_cycle(field(h1), steps, BETAS)
    m_h = math.tanh(BETAS.beta_h * h1)
    m_c = math.tanh(BETAS.beta_c * h2)
    assert report.steady
    assert report.total_work == pytest.approx((h2 - h1) * (m_h - m_c), abs=1e-12)
    assert report.heat_hot == pytest.approx(h1 * (m_c - m_h), abs=1e-12)
    assert report.efficiency == pytest.approx(1.0 - h2 / h1, abs=1e-12)
    assert report.efficiency < BETAS.carnot
    assert report.energy_closure < 1e-12


def test_staircase_cycle_approaches_carnot():
    h_b, h_d = 1.0, 2.0
    h_c = (BETAS.beta_h / BETAS.beta_c) * h_b
    h_a = (BETAS.beta_c / BETAS.beta_h) * h_d
    steps = carnot_like_cycle(field(h_d), field(h_a), field(h_b), field(h_c),
                              BETAS, n_steps=400)
    report = run_cycle(field(h_d), steps, BETAS)
    assert report.steady
    assert report.total_work > 0
    assert report.efficiency == pytest.approx(BETAS.carnot, abs=5e-3)
    assert report.efficiency < BETAS.carnot
    assert report.energy_closure < 1e-10


def test_staircase_needs_a_step():
    with pytest.raises(ValueError):
        isothermal_staircase(field(1.0), field(2.0), "hot", 0)


# --------------------------------------------------------------------------
# work/heat bound on the cold-to-hot leg


def test_work_bound_vanishes_without_field_change():
    h = field(1.5)
    bound = carnot_like_work_bound(h, h, h, BETAS)
    assert bound.work_max == pytest.approx(0.0, abs=1e-14)


def test_work_bound_matched_rotation_corner():
    # beta_c*h_D = beta_h*h_A makes the cold corner penalty vanish exactly
    h_d, h_a, h_b = field(2.0), field(4.0), field(1.0)
    bound = carnot_like_work_bound(h_d, h_a, h_b, BETAS)
    omega_d = gibbs(h_d, BETAS.beta_c)
    omega_b = gibbs(h_b, BETAS.beta_h)
    assert bound.work_max == pytest.approx(
        BETAS.t_h * relative_entropy(omega_d, omega_b), abs=1e-12)
    expected_heat = BETAS.t_h * (von_neumann_entropy(omega_b)
                                 - von_neumann_entropy(omega_d))
    assert bound.heat_min == pytest.approx(expected_heat, abs=1e-12)


def test_work_bound_rotation_class_ordering():
    # opposite-sign fields misalign the populations, so reordering helps
    h_d, h_a, h_b = field(1.0), field(-3.0), field(1.0)
    full = carnot_like_work_bound(h_d, h_a, h_b, BETAS, rotation="full")
    commuting = carnot_like_work_bound(h_d, h_a, h_b, BETAS, rotation="commuting")
    identity = carnot_like_work_bound(h_d, h_a, h_b, BETAS, rotation="identity")
    assert commuting.work_max == identity.work_max
    assert full.work_max > identity.work_max + 1e-6


def test_staircase_leg_realizes_the_bound():
    # simulate quench D->A then a fine hot staircase A->B; the heat drawn
    # converges to heat_min from below and the work to work_max plus the
    # boundary energy Tr omega_D (H_D - H_B) that cancels in closed cycles
    h_d, h_a, h_b = field(2.0), field(4.0), field(1.0)
    bound = carnot_like_work_bound(h_d, h_a, h_b, BETAS)
    omega_d = gibbs(h_d, BETAS.beta_c)

    state = omega_d
    h = h_d
    work = heat = 0.0
    for step in [Quench(h_a)] + isothermal_staircase(h_a, h_b, "hot", 4000):
        result = apply_step(state, h, step, BETAS)
        state, h = result.state, result.hamiltonian
        work += result.record.work
        heat += result.record.heat

    assert heat <= bound.heat_min + 1e-12
    assert heat == pytest.approx(bound.heat_min, abs=1e-3)
    boundary = omega_d.energy(h_d) - omega_d.energy(h_b)
    assert work <= bound.work_max + boundary + 1e-12
    assert work == pytest.approx(bound.work_max + boundary, abs=1e-3)


# --------------------------------------------------------------------------
# efficiency bound


def corners(h_b, h_d, j=0.0, u="identity", v="identity", betas=BETAS):
    h_c = (betas.beta_h / betas.beta_c) * h_b
    h_a = (betas.beta_c / betas.beta_h) * h_d
    return BoundInputs(
        h_a=ising_composite(IsingParams(2, j, h_a)),
        h_b=ising_composite(IsingParams(2, j, h_b)),
        h_c=ising_composite(IsingParams(2, j, h_c)),
        h_d=ising_composite(IsingParams(2, j, h_d)),
        betas=betas, u=u, v=v)


def test_bound_reaches_carnot_without_interaction():
    inputs = corners(h_b=1.0, h_d=2.0, j=0.0)
    terms = bound_terms(inputs)
    assert terms.d_u == pytest.approx(0.0, abs=1e-14)
    assert terms.d_v == pytest.approx(0.0, abs=1e-14)
    assert terms.delta_s > 0
    assert efficiency_bound(inputs) == pytest.approx(BETAS.carnot, abs=1e-14)


def test_bound_undefined_when_entropy_gain_negative():
    # hot corner more polarized than the cold corner: dS <= 0
    with pytest.raises(UndefinedResultError):
        efficiency_bound(corners(h_b=8.0, h_d=0.1))


def test_bound_class_monotonicity_and_ceiling():
    rng = np.random.default_rng(40)
    checked = 0
    for _ in range(20):
        h_b, h_d = rng.uniform(0.2, 3.0, size=2)
        j = rng.uniform(-1.0, 1.0)
        # detune the free corners so the penalties are nonzero
        h_c = 0.8 * h_b
        h_a = 1.7 * h_d
        def inputs(cls):
            return BoundInputs(
                h_a=ising_composite(IsingParams(2, j, h_a)),
                h_b=ising_composite(IsingParams(2, j, h_b)),
                h_c=ising_composite(IsingParams(2, j, h_c)),
                h_d=ising_composite(IsingParams(2, j, h_d)),
                betas=BETAS, u=cls, v=cls)
        try:
            eta_id = efficiency_bound(inputs("identity"))
        except UndefinedResultError:
            continue
        eta_full = efficiency_bound(inputs("full"))
        eta_comm = efficiency_bound(inputs("commuting"))
        assert eta_full >= eta_comm - 1e-12
        assert eta_comm == pytest.approx(eta_id, abs=1e-14)
        assert eta_full <= BETAS.carnot + 1e-12
        checked += 1
    assert checked >= 10


def test_interacting_medium_stays_below_carnot():
    # ferromagnetic two-spin medium: no corner choice on this grid closes
    # the gap to Carnot
    best = -math.inf
    for h_b in (0.5, 1.0, 1.5, 2.0):
        for h_d in (0.5, 1.0, 1.5, 2.0):
            try:
                best = max(best, efficiency_bound(
                    corners(h_b=h_b, h_d=h_d, j=1.0, u="full", v="full")))
            except UndefinedResultError:
                continue
    assert best > 0
    assert best < BETAS.carnot - 1e-6


def test_bound_inputs_require_shared_interaction():
    for build in (ising_composite, ising_diagonal):
        good = build(IsingParams(2, 1.0, 1.0))
        BoundInputs(h_a=good, h_b=build(IsingParams(2, 1.0, 3.0)), h_c=good, h_d=good,
                    betas=BETAS)
        for bad in (build(IsingParams(2, 2.0, 1.0)), build(IsingParams(3, 1.0, 1.0))):
            with pytest.raises(ValueError):
                BoundInputs(h_a=good, h_b=good, h_c=good, h_d=bad, betas=BETAS)


def test_bound_inputs_compare_mixed_corners_by_interaction_energies():
    table = ising_diagonal(IsingParams(2, 1.0, 1.0))
    BoundInputs(h_a=table, h_b=ising_composite(IsingParams(2, 1.0, 3.0)),
                h_c=table, h_d=table, betas=BETAS)
    # the table's interaction energies on the diagonal, plus an XX coupling
    flip = compose([], np.diag(kernels.ising_energies(2, 1.0, 0.0))
                   + np.kron(SIGMA_X, SIGMA_X), n_sites=2)
    for bad in (ising_composite(IsingParams(2, 2.0, 1.0)),
                ising_composite(IsingParams(3, 1.0, 1.0)), flip):
        with pytest.raises(ValueError):
            BoundInputs(h_a=table, h_b=bad, h_c=table, h_d=table, betas=BETAS)
