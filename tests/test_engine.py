"""Protocol stepping, cycle accounting, and Carnot-like bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from spinengine import kernels
from spinengine.engine import (Betas, BoundInputs, Isotherm, Quench, ThermalContact,
                               UndefinedResultError, Unitary, apply_step,
                               bound_terms, carnot_like_cycle, efficiency_bound,
                               run_cycle)
from spinengine.hamiltonians import (SIGMA_X, SIGMA_Z, IsingParams, embed_site_operator,
                                     ising_composite, ising_diagonal)
from spinengine.thermo import (DenseOperator, DensityState, EnergyTable, as_operator,
                               gibbs, relative_entropy, von_neumann_entropy)

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
    assert result.heat == pytest.approx(0.0, abs=1e-14)
    assert result.work == 0.0
    assert result.bath == "hot"


def test_contact_heating_is_positive():
    h = field(1.0)
    cold = gibbs(h, BETAS.beta_c)
    result = apply_step(cold, h, ThermalContact("hot"), BETAS)
    assert result.heat > 0


def test_quench_work_value():
    h = field(1.0)
    state = gibbs(h, 1.0)
    result = apply_step(state, h, Quench(0.5 * h), Betas(1.0, 2.0))
    assert result.work == pytest.approx(-0.5 * math.tanh(1.0), abs=1e-12)
    assert result.heat == 0.0


def test_unitary_work_accounting():
    h = field(1.0)
    state = gibbs(h, 1.0)
    idle = apply_step(state, h, Unitary(np.eye(2), h), BETAS)
    assert idle.work == pytest.approx(0.0, abs=1e-14)
    flip = apply_step(state, h, Unitary(SIGMA_X, h), BETAS)
    assert flip.work == pytest.approx(-2.0 * math.tanh(1.0), abs=1e-12)


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


def test_cycle_without_hot_heat_has_no_efficiency():
    # at zero field every state is maximally mixed and no heat moves: the
    # books stand, but W/Q_hot does not
    steps = [ThermalContact("hot"), Quench(field(0.0)), ThermalContact("cold")]
    report = run_cycle(field(0.0), steps, BETAS)
    assert report.heat_hot == 0.0 and report.total_work == 0.0
    with pytest.raises(UndefinedResultError):
        report.efficiency


def test_non_cyclic_protocol_rejected():
    steps = [Quench(field(2.0)), ThermalContact("hot")]
    with pytest.raises(ValueError):
        run_cycle(field(1.0), steps, BETAS)


@pytest.mark.parametrize("bad_step, reason", [
    (Unitary(np.diag([1.0, 2.0, 1.0, 1.0]), np.diag([-4.0, 0.0, 0.0, 0.0])), "not unitary"),
    (Unitary(np.diag([np.nan, 1.0, 1.0, 1.0]), np.diag([-4.0, 0.0, 0.0, 0.0])), "not unitary"),
    (Quench(np.diag([1.0, 0.0, 0.0, 0.0]) + np.eye(4, k=1)), "not Hermitian"),
    (Quench(np.diag([1.0, np.nan, 0.0, 0.0])), "non-finite"),
    (Quench(np.zeros((8, 8))), "different spaces"),
    (Quench(ising_diagonal(IsingParams(3, 1.0, 1.0))), "different spaces"),
], ids=["non-unitary", "nan-unitary", "non-hermitian", "non-finite", "larger-matrix", "longer-chain"])
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
        assert table.n_passes == dense.n_passes
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
    assert report.total_work > 0
    assert report.efficiency == pytest.approx(BETAS.carnot, abs=5e-3)
    assert report.efficiency < BETAS.carnot
    assert report.energy_closure < 1e-10


def end_states_and_books(h0, steps, n_passes=4):
    """Advance a protocol by hand from the cold Gibbs state of ``h0``: the
    state at the end of each pass and the pass's (work, hot, cold) books."""
    state = gibbs(h0, BETAS.beta_c)
    ends, books = [], []
    for _ in range(n_passes):
        h = h0
        work = heat_hot = heat_cold = 0.0
        for step in steps:
            result = apply_step(state, h, step, BETAS)
            state, h = result.state, result.hamiltonian
            work += result.work
            if result.bath == "hot":
                heat_hot += result.heat
            elif result.bath == "cold":
                heat_cold += result.heat
        ends.append(state)
        books.append((work, heat_hot, heat_cold))
    return ends, books


def test_second_pass_is_the_steady_cycle():
    # a thermal contact discards the incoming state, so every pass ends in
    # the same state, bit for bit, and run_cycle needs at most two passes
    tables = [ising_diagonal(IsingParams(3, 0.7, h)) for h in (4.0, 1.0, 0.5, 2.0)]
    dense = {h: ising_composite(IsingParams(2, 0.5, h)) for h in (1.0, 0.4)}
    rotation = math.cos(0.3) * np.eye(4) - 1j * math.sin(0.3) * embed_site_operator(SIGMA_X, 0, 2)
    protocols = [
        (tables[3], carnot_like_cycle(tables[3], *tables[:3], BETAS, 6)),
        (dense[1.0], [ThermalContact("hot"), Quench(dense[0.4]), ThermalContact("cold"),
                      Unitary(rotation, dense[1.0])]),
        (ising_diagonal(IsingParams(2, 0.5, 1.0)),
         [ThermalContact("hot"), Quench(dense[0.4]), ThermalContact("cold"),
          Quench(dense[1.0])]),
    ]
    stopped_at = []
    for h0, steps in protocols:
        ends, books = end_states_and_books(h0, steps)
        for end in ends[1:]:
            np.testing.assert_array_equal(end.populations, ends[0].populations)
            assert (end.basis is None) == (ends[0].basis is None)
            if end.basis is not None:
                np.testing.assert_array_equal(end.basis, ends[0].basis)
        report = run_cycle(h0, steps, BETAS)
        assert (report.total_work, report.heat_hot, report.heat_cold) \
            == books[report.n_passes - 1]
        stopped_at.append(report.n_passes)
    assert stopped_at == [1, 2, 2]


def test_isotherm_needs_a_step():
    for n_steps in (0, -3, 2.5):
        with pytest.raises(ValueError):
            Isotherm(field(2.0), "hot", n_steps)
    with pytest.raises(ValueError):
        Isotherm(field(2.0), "lukewarm", 5)


def written_out(h0, steps):
    """The protocol with each isotherm written out as its quench/contact
    pairs, one step at a time: the reference for the batched isotherm."""
    out = []
    h = as_operator(h0)
    for step in steps:
        if isinstance(step, Isotherm):
            a, b = h, as_operator(step.hamiltonian_after)
            if isinstance(a, EnergyTable) and isinstance(b, EnergyTable):
                a, b, form = a.energies, b.energies, EnergyTable
            else:
                a, b, form = a.matrix, b.matrix, DenseOperator
            for k in range(1, step.n_steps + 1):
                h = form(a + (k / step.n_steps) * (b - a))
                out += [Quench(h), ThermalContact(step.bath)]
        else:
            out.append(step)
            if not isinstance(step, ThermalContact):
                h = as_operator(step.hamiltonian_after)
    return out


def isotherm_cases():
    ring = [ising_diagonal(IsingParams(3, 0.7, h)) for h in (4.0, 1.0, 0.5, 2.0)]
    pair = [ising_composite(IsingParams(2, -0.4, h)) for h in (4.0, 1.0, 0.5, 2.0)]
    table = [ising_diagonal(IsingParams(2, -0.4, h)) for h in (4.0, 1.0, 0.5, 2.0)]
    long = [ising_diagonal(IsingParams(12, 0.3, h)) for h in (4.0, 1.0, 0.5, 2.0)]
    wide = [ising_composite(IsingParams(6, 0.3, h)) for h in (4.0, 1.0, 0.5, 2.0)]
    rotation = math.cos(0.3) * np.eye(4) - 1j * math.sin(0.3) * embed_site_operator(SIGMA_X, 0, 2)
    return {
        "table-ring": (ring[3], carnot_like_cycle(ring[3], *ring[:3], BETAS, 9)),
        "dense-pair": (pair[3], carnot_like_cycle(pair[3], *pair[:3], BETAS, 7)),
        # hot isotherm from a table to a matrix, then back to tables
        "table-to-dense": (table[3], [Quench(table[0]), Isotherm(pair[1], "hot", 6),
                                      Quench(table[2]), Isotherm(table[3], "cold", 5)]),
        # a rotated state enters an isotherm on tables
        "rotated-into-tables": (table[3], [Unitary(rotation, table[0]),
                                           Isotherm(table[1], "hot", 4), Quench(table[2]),
                                           Isotherm(table[3], "cold", 4)]),
        # each isotherm spans several blocks of steps: tables at d = 4096,
        # matrices at d = 64
        "n12-blocks": (long[3], carnot_like_cycle(long[3], *long[:3], BETAS, 50)),
        "dense-blocks": (wide[3], carnot_like_cycle(wide[3], *wide[:3], BETAS, 20)),
    }


@pytest.mark.parametrize("case", list(isotherm_cases()))
def test_isotherm_matches_its_written_out_staircase(case):
    h0, steps = isotherm_cases()[case]
    reference = written_out(h0, steps)
    got, want = run_cycle(h0, steps, BETAS), run_cycle(h0, reference, BETAS)
    assert got.n_passes == want.n_passes
    for name in ("total_work", "heat_hot", "heat_cold"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-12)
    assert got.energy_closure < 1e-12
    (end,), _ = end_states_and_books(h0, steps, n_passes=1)
    (end_ref,), _ = end_states_and_books(h0, reference, n_passes=1)
    np.testing.assert_allclose(end.populations, end_ref.populations, rtol=0, atol=1e-12)
    assert (end.basis is None) == (end_ref.basis is None)
    if end.basis is not None:
        np.testing.assert_allclose(end.basis, end_ref.basis, rtol=0, atol=1e-12)


def test_isotherm_towards_a_nan_table_is_refused():
    h = ising_diagonal(IsingParams(3, 0.7, 1.0))
    bad = EnergyTable(np.where(np.arange(8) == 5, np.nan, h.energies))
    with pytest.raises(ValueError, match="NaN"):
        apply_step(gibbs(h, BETAS.beta_c), h, Isotherm(bad, "hot", 3), BETAS)


def test_isotherm_memory_does_not_grow_with_its_steps():
    # per-step tables would hold 2 * 1000 * 4096 * 8 B = 65.5 MB
    c_a, c_b, c_c, c_d = (ising_diagonal(IsingParams(12, 0.3, h)) for h in (4.0, 1.0, 0.5, 2.0))
    steps = carnot_like_cycle(c_d, c_a, c_b, c_c, BETAS, 1000)
    tracemalloc.start()
    try:
        report = run_cycle(c_d, steps, BETAS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.energy_closure < 1e-9
    assert peak < 4 << 20


# --------------------------------------------------------------------------
# work/heat bound on the cold-to-hot leg


def leg_bound(h_d, h_a, h_b, rotation="identity"):
    """Largest work and smallest hot heat on the leg that starts at the cold
    Gibbs state of ``h_d``, rotates while moving to ``h_a`` and ends
    hot-thermal at ``h_b``: T_h (D(omega_d||omega_b) - D_V) and
    T_h (dS - D_V), from the bound's terms."""
    terms = bound_terms(BoundInputs(h_a, h_b, h_b, h_d, BETAS, v=rotation))
    d_db = relative_entropy(gibbs(h_d, BETAS.beta_c), gibbs(h_b, BETAS.beta_h))
    return BETAS.t_h * (d_db - terms.d_v), BETAS.t_h * (terms.delta_s - terms.d_v)


def test_work_bound_vanishes_without_field_change():
    h = field(1.5)
    work_max, _ = leg_bound(h, h, h)
    assert work_max == pytest.approx(0.0, abs=1e-14)


def test_work_bound_matched_rotation_corner():
    # beta_c*h_D = beta_h*h_A makes the cold corner penalty vanish exactly
    h_d, h_a, h_b = field(2.0), field(4.0), field(1.0)
    terms = bound_terms(BoundInputs(h_a, h_b, h_b, h_d, BETAS))
    assert terms.d_v == pytest.approx(0.0, abs=1e-12)
    omega_d = gibbs(h_d, BETAS.beta_c)
    omega_b = gibbs(h_b, BETAS.beta_h)
    assert terms.delta_s == pytest.approx(
        von_neumann_entropy(omega_b) - von_neumann_entropy(omega_d), abs=1e-12)
    work_max, _ = leg_bound(h_d, h_a, h_b)
    assert work_max == pytest.approx(
        BETAS.t_h * relative_entropy(omega_d, omega_b), abs=1e-12)


def test_work_bound_rotation_class_ordering():
    # opposite-sign fields misalign the populations, so reordering helps
    h_d, h_a, h_b = field(1.0), field(-3.0), field(1.0)
    full, commuting, identity = (leg_bound(h_d, h_a, h_b, rotation=cls)[0]
                                 for cls in ("full", "commuting", "identity"))
    assert commuting == identity
    assert full > identity + 1e-6


def test_staircase_leg_realizes_the_bound():
    # simulate quench D->A then a fine hot staircase A->B; the heat drawn
    # converges to heat_min from below and the work to work_max plus the
    # boundary energy Tr omega_D (H_D - H_B) that cancels in closed cycles
    h_d, h_a, h_b = field(2.0), field(4.0), field(1.0)
    work_max, heat_min = leg_bound(h_d, h_a, h_b)
    omega_d = gibbs(h_d, BETAS.beta_c)

    state = omega_d
    h = h_d
    work = heat = 0.0
    for step in [Quench(h_a), Isotherm(h_b, "hot", 4000)]:
        result = apply_step(state, h, step, BETAS)
        state, h = result.state, result.hamiltonian
        work += result.work
        heat += result.heat

    assert heat <= heat_min + 1e-12
    assert heat == pytest.approx(heat_min, abs=1e-3)
    boundary = omega_d.energy(h_d) - omega_d.energy(h_b)
    assert work <= work_max + boundary + 1e-12
    assert work == pytest.approx(work_max + boundary, abs=1e-3)


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


def xx_ring(n):
    """An XX bond on every ring bond: a coupling no on-site term can make."""
    return sum(embed_site_operator(SIGMA_X, k, n) @ embed_site_operator(SIGMA_X, (k + 1) % n, n)
               for k in range(n))


def test_bound_inputs_require_shared_interaction():
    for build in (ising_composite, ising_diagonal):
        good = build(IsingParams(2, 1.0, 1.0))
        BoundInputs(h_a=good, h_b=build(IsingParams(2, 1.0, 3.0)), h_c=good, h_d=good,
                    betas=BETAS)
        bads = [build(IsingParams(2, 2.0, 1.0)), build(IsingParams(3, 1.0, 1.0))]
        if build is ising_composite:
            bads.append(good.matrix + xx_ring(2))
        for bad in bads:
            with pytest.raises(ValueError):
                BoundInputs(h_a=good, h_b=good, h_c=good, h_d=bad, betas=BETAS)


def test_bound_inputs_compare_mixed_corners_by_interaction_energies():
    table = ising_diagonal(IsingParams(2, 1.0, 1.0))
    BoundInputs(h_a=table, h_b=ising_composite(IsingParams(2, 1.0, 3.0)),
                h_c=table, h_d=table, betas=BETAS)
    # the table's interaction energies on the diagonal, plus an XX coupling
    flip = np.diag(kernels.ising_energies(2, 1.0, 0.0)) + xx_ring(2)
    for bad in (ising_composite(IsingParams(2, 2.0, 1.0)),
                ising_composite(IsingParams(3, 1.0, 1.0)), flip):
        with pytest.raises(ValueError):
            BoundInputs(h_a=table, h_b=bad, h_c=table, h_d=table, betas=BETAS)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bound_inputs_apply_the_on_site_rule_to_raw_matrices(n):
    ising = ising_composite(IsingParams(n, 0.7, 1.0)).matrix
    # any one-site terms may change between corners, transverse ones too
    on_site = sum((k + 1.0) * embed_site_operator(SIGMA_X, k, n) for k in range(n))
    BoundInputs(h_a=ising + on_site, h_b=ising - 0.5 * on_site, h_c=ising, h_d=ising,
                betas=BETAS)
    zz = embed_site_operator(SIGMA_Z, 0, n) @ embed_site_operator(SIGMA_Z, 1, n)
    for bad, reason in ((ising + 0.3 * zz, "on-site"), (ising + xx_ring(n), "on-site"),
                        (np.eye(2 * (1 << n)), "different spaces")):
        with pytest.raises(ValueError, match=reason):
            BoundInputs(h_a=ising, h_b=bad, h_c=ising, h_d=ising, betas=BETAS)
    # a space that is no chain of spins is one site: every difference is on-site
    rng = np.random.default_rng(n)
    other = rng.normal(size=(3, 3))
    BoundInputs(h_a=other + other.T, h_b=np.eye(3), h_c=np.eye(3), h_d=np.zeros((3, 3)),
                betas=BETAS)
