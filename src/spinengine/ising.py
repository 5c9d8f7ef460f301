"""Exact thermodynamics of the periodic Ising chain, finite and infinite.

Everything reduces to the two transfer-matrix eigenvalues

    lambda_pm = e^a cosh b  +-  sqrt(e^{2a} sinh^2 b + e^{-2a}),

with a = beta*J and b = beta*h.  Instead of evaluating log(lambda_+)
directly, each quantity is split into an exact ground-part (linear in a
and b) plus a reduced remainder built from bounded exponentials.  The
split keeps entropies, magnetization deficits, and relative-entropy
densities accurate to full relative precision even where they are of
order exp(-beta*gap) ~ 1e-300, which direct evaluation would lose to
cancellation.  Two reductions cover the phase diagram: a polarized
reference (all spins up) where 2a + |b| >= 0 and a staggered reference
elsewhere.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import kernels

_LOG2 = math.log(2.0)
_BISECT_TOL = 1e-13  # bracket width at which _bisect stops


class _Core(NamedTuple):
    """Reduced transfer-matrix data at (a, |b|); see module docstring.

    ``ra``/``rb`` give the reference log-scale r = ra*a + rb*|b| (the
    negative ground energy in units of beta), ``delta = log lambda_+ - r``,
    and ``delta_a``/``delta_b`` its partials with respect to a and |b|.
    ``one_minus_m`` is the exact complement of the magnetization in the
    polarized branch (it equals ``1 - (rb + delta_b)`` there).
    """

    ra: np.ndarray
    rb: np.ndarray
    delta: np.ndarray
    delta_a: np.ndarray
    delta_b: np.ndarray
    one_minus_m: np.ndarray

    def entropy(self, a, babs):
        """Entropy per site at the (a, |b|) this core was built from."""
        return self.delta - a * self.delta_a - babs * self.delta_b

    def ground_energy(self, j, habs):
        """Energy per site of the reference configuration at (J, |h|)."""
        return -(j * self.ra + habs * self.rb)


def _branchwise(a, babs, polarized, staggered):
    """Evaluate ``polarized`` where 2a + |b| >= 0 and ``staggered``
    elsewhere, elementwise over broadcast (a, |b|).  Each branch maps flat
    arrays to a tuple of equally long arrays; the merged tuple comes back
    in the broadcast shape."""
    a, babs = np.broadcast_arrays(np.asarray(a, dtype=np.float64),
                                  np.asarray(babs, dtype=np.float64))
    shape = a.shape
    a, babs = np.ravel(a), np.ravel(babs)
    pol = (2.0 * a + babs) >= 0.0
    if pol.all():
        parts = polarized(a, babs)
    elif not pol.any():
        parts = staggered(a, babs)
    else:
        stag = ~pol
        pol_parts = polarized(a[pol], babs[pol])
        parts = tuple(np.empty_like(a) for _ in pol_parts)
        for out, xp, xs in zip(parts, pol_parts, staggered(a[stag], babs[stag])):
            out[pol] = xp
            out[stag] = xs
    return tuple(x.reshape(shape) for x in parts)


def _polarized(a, babs):
    """delta and the terms (p, root, half) of the polarized reference."""
    p = np.exp(-2.0 * (2.0 * a + babs))
    omq = -np.expm1(-2.0 * babs)
    root = np.sqrt(0.25 * omq * omq + p)
    half = root + 0.5 * omq
    return np.log1p(p / half), p, root, half


def _staggered(a, babs):
    """delta and the terms (g1, g2, hyp) of the staggered reference."""
    q = np.exp(-2.0 * babs)
    g1 = np.exp(2.0 * a + babs + np.log1p(q) - _LOG2)
    with np.errstate(divide="ignore"):
        log_sinh = babs + np.log(-np.expm1(-2.0 * babs)) - _LOG2
    g2 = np.exp(2.0 * a + log_sinh)
    hyp = np.hypot(g2, 1.0)
    return np.log1p(g1 + g2 * g2 / (1.0 + hyp)), g1, g2, hyp


def _core_polarized(a, babs):
    delta, p, root, half = _polarized(a, babs)
    q = np.exp(-2.0 * babs)
    inner = 0.5 * (1.0 + q) + root
    # subtraction-free magnetization complement: equals
    # (q + (p - q*omq/2)/root)/inner but stays exact when p << omq^2
    one_minus_m = p * (q + half) / (root * half * inner)
    return (np.ones_like(a), np.ones_like(a), delta, -2.0 * p / (root * inner),
            -one_minus_m, one_minus_m)


def _core_staggered(a, babs):
    delta, g1, g2, hyp = _staggered(a, babs)
    inner = g1 + hyp
    delta_b = g2 * (1.0 + g1 / hyp) / inner
    return (np.full_like(a, -1.0), np.zeros_like(a), delta,
            (2.0 * g1 + 2.0 * g2 * g2 / hyp) / inner, delta_b, 1.0 - delta_b)


def _core(a, babs) -> _Core:
    return _Core(*_branchwise(a, babs, _core_polarized, _core_staggered))


def _log_excess(a, babs) -> np.ndarray:
    """``_core(a, babs).delta`` alone, bit for bit: the work of the matched
    cycles needs no partials."""
    return _branchwise(a, babs, lambda *ab: _polarized(*ab)[:1],
                       lambda *ab: _staggered(*ab)[:1])[0]


def _check_beta(beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64)
    if np.any(~np.isfinite(beta)) or np.any(beta <= 0):
        raise ValueError("inverse temperature must be positive and finite")
    return beta


def _maybe_float(x, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(x)
    return x


def entropy_density(beta, j, h):
    """Entropy per site, cancellation-free down to ~1e-300."""
    beta = _check_beta(beta)
    a = beta * np.asarray(j, dtype=np.float64)
    babs = beta * np.abs(np.asarray(h, dtype=np.float64))
    out = _core(a, babs).entropy(a, babs)
    return _maybe_float(out, beta, j, h)


def _bisect(below, lo, hi, live) -> np.ndarray:
    """Root of a function that changes sign once on every bracket [lo, hi],
    elementwise: ``below(mid)`` is true where the root lies above ``mid``.

    One loop serves all elements; each element of ``live`` moves until its
    bracket is narrower than ``_BISECT_TOL`` or holds no float strictly
    inside, and the others keep [lo, hi], so a batch follows each element's
    scalar path exactly.  Returns the bracket midpoints.  The midpoint is
    taken as lo/2 + hi/2, which cannot overflow, and it rounds to lo or hi
    exactly when no float lies strictly between them.  Every caller
    brackets its root by 2|J|, so a ``live`` bracket top that overflowed
    raises ``ValueError``: the root is not a float.
    """
    if np.any(live & np.isinf(hi)):
        raise ValueError("optimal field: 2|J| overflows, so the root is not a float")
    lo, hi, live = lo.copy(), hi.copy(), live.copy()
    # floats are 1e-13 or more apart only from 512 on, so below it the
    # width rule always ends an element first, and the float rule is skipped
    floats = np.any(live & (hi >= 512.0))
    mid = 0.5 * lo + 0.5 * hi
    for _ in range(200):
        if not live.any():
            break
        up = below(mid) & live
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=live ^ up)
        mid = 0.5 * lo + 0.5 * hi
        live &= hi - lo >= _BISECT_TOL
        if floats:
            live &= (lo < mid) & (mid < hi)
    return mid


def optimal_field(beta, j):
    """Entropy-maximizing field of the infinite chain at fixed (beta, J),
    elementwise over ``beta`` broadcast against ``j``.

    Zero unless the coupling is antiferromagnetic with ``2|J|beta > 1``;
    then the unique positive solution of ``h = 2|J| tanh(beta h)``, in
    [0, 2|J|], located by one bisection for all elements (:func:`_bisect`).
    Raises ``ValueError`` where the root is not a float: 2|J| overflows.
    """
    beta = _check_beta(beta)
    j = np.asarray(j, dtype=np.float64)
    with np.errstate(over="ignore"):
        jj = 2.0 * np.abs(j)
        # slope at 0 is 1 - 2|J|beta < 0, slope at 2|J| positive: root bracketed
        live = ~((j >= 0) | (jj * beta <= 1.0))
    jj = np.where(live, jj, 0.0)

    def below(h):
        return h - jj * np.tanh(beta * h) < 0.0

    with np.errstate(over="ignore"):  # where beta*h overflows, tanh is 1
        return _maybe_float(_bisect(below, np.zeros(jj.shape), jj, live), beta, j)


def _relative_entropy(bs, br, j, hs, hr, core_s=None):
    """Per-site ``D(omega_state || omega_ref)`` at finite fields of either
    sign, elementwise over broadcast arguments.  The state side is built
    on the broadcast of ``j`` and ``hs`` only, so a block of reference
    fields against one state evaluates that state once; ``core_s`` is
    that state's ``_core`` at (bs*j, bs*|hs|) when the caller holds it."""
    if core_s is None:
        core_s = _core(bs * j, bs * np.abs(hs))
    core_r = _core(br * j, br * np.abs(hr))
    sgn_s = np.copysign(1.0, hs)
    # exact O(1) offset from differing reference phases; zero when they match
    offset = -j * (core_s.ra - core_r.ra) \
        + hr * (core_r.rb * np.copysign(1.0, hr) - core_s.rb * sgn_s)
    u_excess = -j * core_s.delta_a - np.abs(hs) * core_s.delta_b
    dm = core_s.delta_b * sgn_s
    value = br * (offset + u_excess + (hs - hr) * dm + core_r.delta / br) \
        - core_s.entropy(bs * j, bs * np.abs(hs))
    return np.maximum(value, 0.0)


def relative_entropy_density(beta_state, beta_ref, j, h_state, h_ref):
    """Per-site ``D(omega_state || omega_ref)`` between infinite-chain Gibbs states.

    Both states share the coupling ``j``; the reference fixes its own
    inverse temperature and field.  ``math.inf`` fields mark a fully
    polarized (pure product) state: matched markers contribute zero,
    a pure reference against a mixed state gives ``math.inf``.  Finite
    fields go through :func:`_relative_entropy`.
    """
    bs = float(_check_beta(beta_state))
    br = float(_check_beta(beta_ref))
    j = float(j)
    hs = float(h_state)
    hr = float(h_ref)
    if bs == br and hs == hr:
        return 0.0

    state_inf = math.isinf(hs)
    ref_inf = math.isinf(hr)
    if state_inf and ref_inf:
        return 0.0 if hs == hr else math.inf
    if ref_inf:
        return math.inf
    if state_inf:
        # fully polarized product state: energy density -hr*sign(hs) - j,
        # zero entropy, so D/N = beta_ref*(u_pure - f_ref)
        core_r = _core(br * j, br * abs(hr))
        e_pure = -hr * math.copysign(1.0, hs) - j
        return br * (e_pure - float(core_r.ground_energy(j, abs(hr)))) + float(core_r.delta)
    return float(_relative_entropy(bs, br, j, hs, hr))


def ground_state_degeneracy(n_sites: int, j: float, h: float) -> tuple[int, float]:
    """Exact ground-state degeneracy and ground energy of the N-ring (N <= 24).

    Scans the chain's (magnetization, bond) classes with their exact
    degeneracies (``kernels.levels``); energies within
    1e-9 * max(1, |J|, |h|) of the minimum count as degenerate.  The
    tolerance scales with the parameter magnitude so integer-valued
    spectra at integer (J, h) never split under rounding.
    """
    tol = 1e-9 * max(1.0, abs(j), abs(h))
    e0, count = kernels.ground_state_stats(n_sites, j, h, tol)
    return count, e0
