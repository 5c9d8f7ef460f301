"""Per-layer spans and counts around spinengine's public functions.

``Tracer.install`` replaces each traced function with a wrapper on every
``spinengine`` module attribute that refers to it (``protocols`` binds
``ising._core`` under its own name, ``cli`` binds ``run_cycle`` and
``ising_composite``, ``engine`` binds the thermo functions), and on the
class for methods.  ``uninstall`` restores the originals.  Nothing under
``src/`` changes.

Each wrapper records calls and inclusive seconds per span name, plus
work counts observed from arguments and results.  The outermost span on
each thread also records its interval, so the CLI's self time is its
span minus the union of those intervals (the CLI fans sweeps out to a
thread pool, so child spans overlap).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

import numpy as np


def _observe_core(stats, args, kwargs, out):
    stats["ising.core.elems"] += out.delta.size
    combined = out.delta + out.delta_a + out.delta_b + out.one_minus_m
    stats["ising.nonfinite"] += int(np.count_nonzero(~np.isfinite(combined)))


def _observe_energies(stats, args, kwargs, out):
    stats["kernels.configs"] += out.size
    stats["kernels.bytes_computed"] += out.nbytes


def _observe_gs_stats(stats, args, kwargs, out):
    # two sweeps over all 2^N configurations, each materializing one
    # float64 energy per configuration (computed from sizes, not measured)
    visited = 2 << int(args[0])
    stats["kernels.configs"] += visited
    stats["kernels.bytes_computed"] += 8 * visited


def _observe_span_add(stats, args, kwargs, out):
    stats["control.span_add.accepted"] += bool(out)


def _observe_run_cycle(stats, args, kwargs, out):
    stats["engine.run_cycle.passes"] += out.n_passes


def targets(se) -> list:
    """(span name, owner, attribute, observer) for every traced function.

    ``se`` maps module names to the imported spinengine modules."""
    ising, protocols, kernels = se["ising"], se["protocols"], se["kernels"]
    thermo, engine, control = se["thermo"], se["engine"], se["control"]
    return [
        ("ising.core", ising, "_core", _observe_core),
        ("ising.optimal_field", ising, "optimal_field", None),
        ("ising.ground_state_degeneracy", ising, "ground_state_degeneracy", None),
        ("protocols.efficiency_at_max_work", protocols, "efficiency_at_max_work", None),
        ("protocols.chain_efficiency_at_max_work", protocols,
         "chain_efficiency_at_max_work", None),
        ("kernels.ising_energies", kernels, "ising_energies", _observe_energies),
        ("kernels.ground_state_stats", kernels, "ground_state_stats", _observe_gs_stats),
        ("hamiltonians.ising_composite", se["hamiltonians"], "ising_composite", None),
        ("thermo.gibbs", thermo, "gibbs", None),
        ("thermo.von_neumann_entropy", thermo, "von_neumann_entropy", None),
        ("thermo.relative_entropy", thermo, "relative_entropy", None),
        ("thermo.relative_entropy_down", thermo, "relative_entropy_down", None),
        ("thermo.min_relative_entropy", thermo, "min_relative_entropy", None),
        ("thermo.trace_distance", thermo, "trace_distance", None),
        ("thermo.energy", thermo.DensityState, "energy", None),
        ("thermo.density_state", thermo.DensityState, "__post_init__", None),
        ("engine.apply_step", engine, "apply_step", None),
        ("engine.run_cycle", engine, "run_cycle", _observe_run_cycle),
        ("engine.carnot_like_cycle", engine, "carnot_like_cycle", None),
        ("engine.bound_terms", engine, "bound_terms", None),
        ("engine.efficiency_bound", engine, "efficiency_bound", None),
        ("control.classify_unitary_class", control, "classify_unitary_class", None),
        ("control.lie_algebra_dimension", control, "lie_algebra_dimension", None),
        ("control.heisenberg_chain_drift", control, "heisenberg_chain_drift", None),
        ("control.ising_chain_drift", control, "ising_chain_drift", None),
        ("control.site_controls", control, "site_controls", None),
        ("control.span_add", control._Span, "add", _observe_span_add),
    ]


class Tracer:
    def __init__(self, targets_list):
        self._targets = targets_list
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []
        self.calls = Counter()
        self.seconds = Counter()
        self.stats = Counter()
        self.intervals = []  # (start, end) of outermost spans, any thread

    def _wrap(self, name, fn, observe):
        local, lock = self._local, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.depth = depth
                with lock:
                    self.calls[name] += 1
                    self.seconds[name] += end - start
                    if depth == 0:
                        self.intervals.append((start, end))
            if observe is not None:
                with lock:
                    observe(self.stats, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "spinengine" or k.startswith("spinengine."))]
        for name, owner, attr, observe in self._targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observe)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def take_intervals(self) -> list:
        with self._lock:
            out, self.intervals = self.intervals, []
        return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
