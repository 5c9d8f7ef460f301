"""Dynamical Lie algebra closure and reachable unitary classes."""

import functools
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from spinengine.control import (COMMUTING, FULL, INTERMEDIATE, GeneratorSet,
                                classify_unitary_class, heisenberg_chain_drift,
                                ising_chain_drift, lie_algebra_dimension,
                                site_controls)
from spinengine.hamiltonians import SIGMA_X, SIGMA_Y, SIGMA_Z, embed_site_operator


def random_two_local_drift(rng, n_sites=3):
    dim = 2 ** n_sites
    drift = np.zeros((dim, dim), dtype=complex)
    bonds = [(k, (k + 1) % n_sites) for k in range(n_sites)]
    for (i, k) in bonds:
        for a in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            for b in (SIGMA_X, SIGMA_Y, SIGMA_Z):
                drift += rng.normal() * (embed_site_operator(a, i, n_sites)
                                         @ embed_site_operator(b, k, n_sites))
    return drift


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --------------------------------------------------------------------------
# closure dimension


def test_single_spin_controls_close_su2():
    gens = GeneratorSet(None, (SIGMA_X, SIGMA_Z))
    assert lie_algebra_dimension(gens) == 3
    assert classify_unitary_class(gens).kind == FULL


def test_abelian_diagonal_family():
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    z0 = embed_site_operator(SIGMA_Z, 0, 2)
    z1 = embed_site_operator(SIGMA_Z, 1, 2)
    gens = GeneratorSet(zz, (z0, z1))
    assert lie_algebra_dimension(gens) == 3
    assert classify_unitary_class(gens).kind == COMMUTING


def test_heisenberg_single_site_control_is_full():
    gens = GeneratorSet(heisenberg_chain_drift(2),
                        tuple(site_controls(2, 0, ("x", "z"))))
    result = classify_unitary_class(gens)
    assert result.kind == FULL
    assert result.dimension == 15


def test_ising_drift_with_z_controls_commutes():
    gens = GeneratorSet(ising_chain_drift(2),
                        tuple(site_controls(2, 0, ("z",))
                              + site_controls(2, 1, ("z",))))
    result = classify_unitary_class(gens)
    assert result.kind == COMMUTING
    assert result.dimension == 3


def z_at(site, n):
    """sigma_z on ``site`` as a Kronecker product; site k is bit k, so the
    leftmost factor is site n - 1."""
    return functools.reduce(np.kron, [SIGMA_Z if k == site else np.eye(2)
                                      for k in reversed(range(n))])


def test_ising_drift_is_the_engine_interaction():
    # -J sum_k Z_k Z_k+1 around the ring: the two-site ring has two bonds
    # and the one-site ring the single bond Z_0^2 = 1, as in the engine's medium
    for n in (1, 2, 3, 4):
        ring = sum(z_at(k, n) @ z_at((k + 1) % n, n) for k in range(n))
        np.testing.assert_allclose(ising_chain_drift(n, 0.7), -0.7 * ring, atol=1e-15)
    np.testing.assert_array_equal(np.diag(ising_chain_drift(2, 1.0)).real,
                                  [-2.0, 2.0, 2.0, -2.0])


def test_drift_only_is_intermediate():
    gens = GeneratorSet(heisenberg_chain_drift(2))
    result = classify_unitary_class(gens)
    assert result.kind == INTERMEDIATE
    assert result.dimension == 1


def test_generic_two_local_three_chain_is_full():
    rng = np.random.default_rng(60)
    gens = GeneratorSet(random_two_local_drift(rng),
                        tuple(site_controls(3, 0, ("x", "z"))))
    result = classify_unitary_class(gens)
    assert result.kind == FULL
    assert result.dimension == 63


def test_symmetric_ring_control_stays_intermediate():
    # the isotropic 3-ring with controls on one site keeps the swap
    # symmetry of the other two sites, which caps the closure
    gens = GeneratorSet(heisenberg_chain_drift(3),
                        tuple(site_controls(3, 0, ("x", "z"))))
    result = classify_unitary_class(gens)
    assert result.kind == INTERMEDIATE
    assert 3 < result.dimension < 63


def ring_generators(model, n, specs):
    drift = heisenberg_chain_drift(n) if model == "heisenberg" else ising_chain_drift(n)
    return GeneratorSet(drift, tuple(op for site, axes in specs
                                     for op in site_controls(n, site, axes)))


@pytest.mark.parametrize("model, n, specs, dimension", [
    ("heisenberg", 3, [(0, "xz")], 39),
    ("heisenberg", 4, [(0, "xz"), (1, "x")], 255),
    ("heisenberg", 4, [(0, "z")], 20),
    ("ising", 2, [(0, "xz")], 6),
    ("ising", 3, [(0, "xz")], 10),
    ("ising", 4, [(0, "xz")], 10),
])
def test_ring_dimensions(model, n, specs, dimension):
    assert lie_algebra_dimension(ring_generators(model, n, specs)) == dimension


def test_four_site_intermediate_closure_budget():
    # the Heisenberg ring with site-0 {x, z} control: 146 of 255, the
    # slowest closure the CLI runs at N = 4
    gens = ring_generators("heisenberg", 4, [(0, "xz")])
    start = time.perf_counter()
    assert lie_algebra_dimension(gens) == 146
    elapsed = time.perf_counter() - start
    assert elapsed < 6.0, f"N = 4 closure blew its 6s budget: {elapsed:.2f}s"
    tracemalloc.start()
    try:
        lie_algebra_dimension(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def brute_force_dimension(mats):
    """Closure by rank alone: each round adds every pairwise commutator of
    the current basis and re-derives the basis from an SVD of the real
    coordinates, until the rank stops growing."""
    d = mats[0].shape[0]

    def coords(ms):
        return np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in ms])

    basis = [m - np.trace(m) / d * np.eye(d) for m in mats]
    rank = np.linalg.matrix_rank(coords(basis), rtol=1e-8)
    while True:
        rows = coords(basis + [1j * (a @ b - b @ a)
                               for a, b in itertools.combinations(basis, 2)])
        grown = np.linalg.matrix_rank(rows, rtol=1e-8)
        if grown == rank:
            return rank
        rank = grown
        vt = np.linalg.svd(rows, full_matrices=False)[2]
        basis = [(v[:d * d] + 1j * v[d * d:]).reshape(d, d) for v in vt[:rank]]


def random_sparse_case(rng, n_sites):
    """Ring drift from a random subset of the nine Pauli couplings, with
    random strengths, plus a random subset of Pauli controls on one
    random site."""
    dim = 2 ** n_sites
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    pairs = [(a, b) for a in paulis for b in paulis if rng.random() < 0.3]
    drift = np.zeros((dim, dim), dtype=complex)
    for k in range(n_sites if n_sites > 2 else 1):
        for a, b in pairs or [(SIGMA_Z, SIGMA_Z)]:
            drift += rng.normal() * (embed_site_operator(a, k, n_sites)
                                     @ embed_site_operator(b, (k + 1) % n_sites, n_sites))
    site = int(rng.integers(n_sites))
    axes = [p for p in paulis if rng.random() < 0.5] or [SIGMA_X]
    return drift, tuple(embed_site_operator(p, site, n_sites) for p in axes)


@pytest.mark.parametrize("n_sites, seed", [(n, seed) for n in (2, 3) for seed in range(1, 9)])
def test_closure_matches_brute_force_rank(n_sites, seed):
    drift, controls = random_sparse_case(np.random.default_rng(seed), n_sites)
    assert (lie_algebra_dimension(GeneratorSet(drift, controls))
            == brute_force_dimension([drift, *controls]))


# --------------------------------------------------------------------------
# invariances


def test_dimension_invariant_under_basis_change():
    rng = np.random.default_rng(61)
    drift = heisenberg_chain_drift(2)
    controls = tuple(site_controls(2, 0, ("x", "z")))
    base = lie_algebra_dimension(GeneratorSet(drift, controls))
    u = random_unitary(rng, 4)
    rotated = GeneratorSet(u @ drift @ u.conj().T,
                           tuple(u @ c @ u.conj().T for c in controls))
    assert lie_algebra_dimension(rotated) == base


def test_dimension_invariant_under_recombination():
    z0 = embed_site_operator(SIGMA_Z, 0, 2)
    z1 = embed_site_operator(SIGMA_Z, 1, 2)
    direct = lie_algebra_dimension(GeneratorSet(None, (z0, z1)))
    mixed = lie_algebra_dimension(GeneratorSet(None, (z0 + z1, 2.0 * z0 - z1)))
    assert direct == mixed


def test_more_controls_never_shrink_the_closure():
    drift = ising_chain_drift(2)
    small = GeneratorSet(drift, tuple(site_controls(2, 0, ("z",))))
    large = GeneratorSet(drift, tuple(site_controls(2, 0, ("z", "x"))))
    dim_small = lie_algebra_dimension(small)
    dim_large = lie_algebra_dimension(large)
    assert dim_large >= dim_small
    assert dim_large <= 15


# --------------------------------------------------------------------------
# validation


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(None, ())
    with pytest.raises(ValueError):
        GeneratorSet(SIGMA_Z, (np.eye(4),))
    with pytest.raises(ValueError):
        GeneratorSet(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        GeneratorSet(np.eye(128))


def test_site_controls_validation():
    with pytest.raises(ValueError):
        site_controls(2, 0, ("w",))
    xs = site_controls(3, 1, ("x",))
    assert xs[0].shape == (8, 8)
