"""Fixed-size timings of single layers, run untraced in the traced run.

Inputs do not depend on the workload or the seed, so these numbers
compare across workloads and commits.  Each timing is the median of a
few repeats.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def _median_time(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` of the mean seconds per call of ``fn``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples)


def run(se, tracer_factory) -> dict:
    """Metric name -> (value, unit)."""
    ising, protocols, kernels = se["ising"], se["protocols"], se["kernels"]
    thermo, engine, control = se["thermo"], se["engine"], se["control"]
    ham = se["hamiltonians"]
    betas = engine.Betas(0.5, 1.0)
    out = {}

    def put(name, unit, fn, repeats=5, inner=1, per=1):
        out[name] = (_median_time(fn, repeats, inner) / per * SCALE[unit], unit)

    # closed-form core: 10^6 elements across both branches, and size-1 calls
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-2.0, 2.0, 1_000_000), rng.uniform(0.0, 2.0, 1_000_000)
    put("ising.core.ns_per_elem", "ns", lambda: ising._core(a, b), per=a.size)
    a1, b1 = np.array([0.7]), np.array([0.3])
    put("ising.core.us_per_call", "us", lambda: ising._core(a1, b1), inner=2000)
    pairs = [(beta, -j) for beta in (1.0, 2.0, 3.0) for j in (0.5, 1.0, 2.0, 3.0)]
    put("ising.optimal_field.us", "us",
        lambda: [ising.optimal_field(beta, j) for beta, j in pairs], inner=20, per=len(pairs))

    # one optimizer point of each kind
    put("protocols.point_ms.paper", "ms",
        lambda: protocols.efficiency_at_max_work(1.0, betas, "paper"))
    put("protocols.point_ms.free", "ms",
        lambda: protocols.efficiency_at_max_work(1.0, betas, "free"), repeats=3)
    put("protocols.point_ms.chain", "ms",
        lambda: protocols.chain_efficiency_at_max_work(10, 1.0, betas, epsilon=0.1))
    counter = tracer_factory([t for t in se["targets"] if t[0] == "ising.core"])
    counter.install()
    try:
        protocols.efficiency_at_max_work(1.0, betas, "free")
    finally:
        counter.uninstall()
    out["protocols.core_calls_per_point"] = (counter.calls["ising.core"], "count")

    # enumeration kernels (the timings the old kernel benchmark took)
    put("kernels.ns_per_config.ising_energies.N20", "ns",
        lambda: kernels.ising_energies(20, -1.0, 2.0), per=2 ** 20)
    put("kernels.ns_per_config.ground_state_stats.N22", "ns",
        lambda: kernels.ground_state_stats(22, -1.0, 2.0, 1e-9), repeats=3, per=2 ** 22)

    # dense Hamiltonians, thermo primitives and engine steps at d = 16, 64
    def composite(n, h):
        return ham.ising_composite(ham.IsingParams(n, 0.8, h))

    put("hamiltonians.ising_composite.ms.N6", "ms", lambda: composite(6, 1.0))
    put("hamiltonians.ising_composite.ms.N8", "ms", lambda: composite(8, 1.0), repeats=3)
    for n, d in ((4, 16), (6, 64)):
        h_a, h_b = composite(n, 1.0), composite(n, 2.0)
        state = thermo.gibbs(h_a, betas.beta_h)
        other = thermo.gibbs(h_b, betas.beta_c)
        put(f"thermo.gibbs.us.d{d}", "us", lambda: thermo.gibbs(h_a, betas.beta_h), inner=5)
        put(f"thermo.energy.us.d{d}", "us", lambda: state.energy(h_b), inner=5)
        quench, contact = engine.Quench(h_b.matrix), engine.ThermalContact("hot")
        # one step = mean of a staircase pair (quench, then thermal contact)
        put(f"engine.apply_step.us.d{d}", "us",
            lambda: (engine.apply_step(state, h_a, quench, betas),
                     engine.apply_step(state, h_b, contact, betas)), per=2)
        if d == 64:
            for fn in (thermo.relative_entropy, thermo.relative_entropy_down,
                       thermo.trace_distance):
                put(f"thermo.{fn.__name__}.us.d64", "us", lambda: fn(state, other), inner=5)

    corners = [composite(4, h) for h in (4.0, 1.0, 0.5, 2.0)]  # A, B, C, D
    steps = engine.carnot_like_cycle(corners[3], corners[0], corners[1], corners[2], betas, 200)
    passes = []
    put("engine.run_cycle.s_per_pass", "s",
        lambda: passes.append(engine.run_cycle(corners[3], steps, betas).n_passes), repeats=3)
    out["engine.run_cycle.s_per_pass"] = (out["engine.run_cycle.s_per_pass"][0]
                                          / statistics.median(passes), "s")

    # Lie closure of fixed fully controllable rings, N = 2..4
    for n, specs in ((2, [(0, "xz")]), (3, [(0, "xz"), (1, "x")]), (4, [(0, "xz"), (1, "x")])):
        controls = [op for site, axes in specs for op in control.site_controls(n, site, axes)]
        gens = control.GeneratorSet(drift=control.heisenberg_chain_drift(n, 1.0),
                                    controls=tuple(controls))
        put(f"control.closure_s.N{n}", "s", lambda: control.lie_algebra_dimension(gens),
            repeats=3 if n < 4 else 1)
    return out
