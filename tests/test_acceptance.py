"""Acceptance suite: one test per primary criterion, with runtime budgets.

Each test prints a single summary line on success; a failed assertion
surfaces as the usual pytest failure line for that criterion.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spinengine import ising, kernels, protocols
from spinengine.control import (COMMUTING, FULL, GeneratorSet,
                                classify_unitary_class, heisenberg_chain_drift,
                                ising_chain_drift, site_controls)
from spinengine.engine import (Betas, BoundInputs, Quench, ThermalContact,
                               UndefinedResultError, carnot_like_cycle,
                               efficiency_bound, run_cycle)
from spinengine.hamiltonians import IsingParams, ising_composite
from spinengine.thermo import DensityState, relative_entropy_down

BETAS = Betas(beta_h=0.5, beta_c=1.0)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} blew its {budget_seconds}s budget: {elapsed:.2f}s")
    print(f"criterion {number} PASS: {description} "
          f"({elapsed:.2f}s < {budget_seconds}s)")


def two_spin(j, h):
    return ising_composite(IsingParams(2, j, float(h)))


def test_criterion_1_carnot_recovery():
    with criterion(1, "zero-coupling bound and staircase cycle hit Carnot", 1.0):
        h_b, h_d = 1.0, 2.0
        h_c = (BETAS.beta_h / BETAS.beta_c) * h_b
        h_a = (BETAS.beta_c / BETAS.beta_h) * h_d
        inputs = BoundInputs(two_spin(0.0, h_a), two_spin(0.0, h_b),
                             two_spin(0.0, h_c), two_spin(0.0, h_d), BETAS)
        assert efficiency_bound(inputs) == pytest.approx(0.5, abs=1e-6)

        steps = carnot_like_cycle(two_spin(0.0, h_d), two_spin(0.0, h_a),
                                  two_spin(0.0, h_b), two_spin(0.0, h_c),
                                  BETAS, n_steps=1000)
        report = run_cycle(two_spin(0.0, h_d), steps, BETAS)
        assert report.efficiency == pytest.approx(0.5, abs=1e-3)


def test_criterion_2_antiferromagnetic_limit():
    with criterion(2, "J=-40 shared-corner protocol nearly saturates Carnot", 1.0):
        floor = (BETAS.t_h - BETAS.t_c) * 0.5 * math.log(2.0) - 1e-3
        for h in (80.0, -80.0):  # field-sign symmetry of the chain
            fields = protocols.ProtocolFields(math.inf, h, h, math.inf)
            w = protocols.work_density(-40.0, fields, BETAS)
            eta = protocols.efficiency_thermo_limit(-40.0, fields, BETAS)
            assert w >= floor
            assert eta >= 0.49
        # the solved optimum tends to the frustrated chain's log(golden
        # ratio) entropy per site at both temperatures, and to Carnot
        limit = (BETAS.t_h - BETAS.t_c) * math.log((1 + math.sqrt(5)) / 2)
        assert limit == pytest.approx(0.4812118, abs=1e-7)
        for point in protocols.sweep_j([-40.0, -1e3], BETAS):
            assert point.work_density == pytest.approx(limit, rel=1e-12)
            assert point.efficiency == pytest.approx(BETAS.carnot, abs=1e-12)


def doublet_efficiency(epsilon, n):
    # the J = 40 ring is a two-level engine: the ground doublet split by
    # x/beta = 2*epsilon*N, so eta = (T_h*L_h - T_c*L_c) / (T_h*S_h) with
    # L = log1p(e^-x) and S_h = L_h + x_h/(1 + e^x_h)
    x_h = 2.0 * BETAS.beta_h * epsilon * n
    x_c = 2.0 * BETAS.beta_c * epsilon * n
    l_h, l_c = math.log1p(math.exp(-x_h)), math.log1p(math.exp(-x_c))
    s_h = l_h + x_h / (1.0 + math.exp(x_h))
    return (BETAS.t_h * l_h - BETAS.t_c * l_c) / (BETAS.t_h * s_h)


def test_criterion_3_ferromagnetic_collapse():
    with criterion(3, "J=+40 work and efficiency collapse; field-floor "
                      "efficiency is the ground-doublet limit and decays", 1.0):
        point = protocols.efficiency_at_max_work(40.0, BETAS)
        assert point.efficiency < 0.05
        assert point.work_density < 1e-3
        # the ferromagnet's optimum is h = 0, where the efficiency is
        # 1/(1 + 2*beta_h*J) once e^{-2 beta_h J} is negligible
        for j, eta in ((40.0, 0.0243902), (150.0, 0.0066225)):
            point = protocols.efficiency_at_max_work(j, BETAS)
            assert point.h_opt == 0.0
            assert point.efficiency == pytest.approx(1.0 / (1.0 + 2.0 * BETAS.beta_h * j),
                                                     rel=1e-12)
            assert point.efficiency == pytest.approx(eta, abs=5e-8)
        values = []
        for n in (6, 12, 24):
            chain = protocols.chain_sweep(n, [40.0], BETAS, [0.1])[0]
            assert chain.efficiency == pytest.approx(doublet_efficiency(0.1, n), rel=1e-11)
            values.append(chain.efficiency)
        assert values[0] > values[1] > values[2]


def test_criterion_4_optimal_field_non_analyticity():
    with criterion(4, "optimal field switches on only above |J| = 1/(2 beta)", 1.0):
        for beta in (1.0, 2.0, 3.0):
            threshold = 1.0 / (2.0 * beta)
            assert ising.optimal_field(beta, -threshold) == 0.0
            assert ising.optimal_field(beta, -0.9 * threshold) == 0.0
            assert ising.optimal_field(beta, 0.9 * threshold) == 0.0
            assert ising.optimal_field(beta, -(threshold + 0.01)) > 0.0
        h = ising.optimal_field(1.0, -1.0)
        assert abs(h - 2.0 * math.tanh(h)) < 1e-9


def test_criterion_5_oracle_equivalence():
    with criterion(5, "sector sums vs enumeration; ordered divergence "
                      "vs permutation search", 30.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for n in range(4, 13):
            levels = kernels.levels(n)
            for _ in range(50):
                j = rng.uniform(-2.0, 2.0)
                h = rng.uniform(-2.0, 2.0)
                betas = Betas(*sorted(rng.uniform(0.2, 2.0, size=2)))
                energies = kernels.ising_energies(n, j, h)
                emin = float(np.min(energies))
                log_z = [math.log(np.sum(np.exp(-beta * (energies - emin)))) - beta * emin
                         for beta in (betas.beta_h, betas.beta_c)]
                brute = betas.t_h * log_z[0] - betas.t_c * log_z[1]
                scale = betas.t_h * abs(log_z[0]) + betas.t_c * abs(log_z[1])
                gap, _ = protocols._chain_gap(levels, protocols._sectors(levels, j, betas),
                                              np.array([h]), betas)
                worst = max(worst, abs(gap[0] - brute) / scale)
        assert worst < 1e-10

        worst_down = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(dim))
            q = rng.dirichlet(np.ones(dim))
            rho = DensityState(populations=p)
            sigma = DensityState(populations=q)
            best = min(
                float(np.sum(p * (np.log(p) - np.log(q[list(perm)]))))
                for perm in itertools.permutations(range(dim)))
            got = relative_entropy_down(rho, sigma)
            worst_down = max(worst_down, abs(got - max(best, 0.0)))
        assert worst_down < 1e-10


def test_criterion_6_bound_dominance():
    with criterion(6, "random two-bath cycles never beat the corner bound", 60.0):
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(200):
            j = rng.uniform(-2.0, 2.0)
            hot = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 4)))
            cold = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 4)))
            steps = []
            for f in hot:
                steps += [Quench(two_spin(j, f)), ThermalContact("hot")]
            for f in cold:
                steps += [Quench(two_spin(j, f)), ThermalContact("cold")]
            report = run_cycle(two_spin(j, cold[-1]), steps, BETAS)
            assert report.energy_closure < 1e-9
            # bound corners: adiabat entry fields and last contact fields
            try:
                bound = efficiency_bound(BoundInputs(
                    two_spin(j, hot[0]), two_spin(j, hot[-1]),
                    two_spin(j, cold[0]), two_spin(j, cold[-1]), BETAS))
            except UndefinedResultError:
                continue
            if report.heat_hot > 1e-12:
                assert report.efficiency <= bound + 1e-9
                checked += 1
        assert checked >= 50  # the dominance claim was actually exercised


def free_energy(beta, j, h):
    # f = ground energy - delta/beta, from the infinite chain's core
    core = ising._core(beta * j, beta * abs(h))
    return float(core.ground_energy(j, abs(h)) - core.delta / beta)


def test_criterion_7_derivative_checks():
    with criterion(7, "closed-form entropy and magnetization match "
                      "finite differences of the free energy", 1.0):
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(20):
            beta = rng.uniform(0.2, 5.0)
            j = rng.uniform(-10.0, 10.0) / beta
            h = rng.uniform(-10.0, 10.0) / beta
            t = 1.0 / beta
            fd_s = -(free_energy(1.0 / (t + step), j, h)
                     - free_energy(1.0 / (t - step), j, h)) / (2.0 * step)
            assert ising.entropy_density(beta, j, h) == pytest.approx(
                fd_s, abs=1e-6)
            core = ising._core(beta * j, beta * abs(h))
            fd_m = -(free_energy(beta, j, h + step)
                     - free_energy(beta, j, h - step)) / (2.0 * step)
            assert np.sign(h) * (core.rb + core.delta_b) == pytest.approx(
                fd_m, abs=1e-6)


def test_criterion_8_degeneracy_counting():
    with criterion(8, "ground-state degeneracies by enumeration", 10.0):
        for n in (4, 6, 8, 10, 12):
            g0, _ = ising.ground_state_degeneracy(n, -1.0, 0.0)
            assert g0 == 2
            g0, _ = ising.ground_state_degeneracy(n, -1.0, 2.0)
            assert g0 >= 2 ** (n // 2)
        for n in (5, 7, 9, 11):
            g0, _ = ising.ground_state_degeneracy(n, -1.0, 0.0)
            assert g0 == 2 * n


def test_criterion_9_controllability():
    with criterion(9, "single-site control closes su(4); z-only controls "
                      "commute", 5.0):
        heisenberg = GeneratorSet(heisenberg_chain_drift(2),
                                  tuple(site_controls(2, 0, ("x", "z"))))
        result = classify_unitary_class(heisenberg)
        assert result.kind == FULL
        assert result.dimension == 15

        z_only = GeneratorSet(ising_chain_drift(2),
                              tuple(site_controls(2, 0, ("z",))
                                    + site_controls(2, 1, ("z",))))
        assert classify_unitary_class(z_only).kind == COMMUTING
