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
_NEWTON_CAP = 100  # iterations; roots within a few floats of their threshold take up to 49


class _Core(NamedTuple):
    """Reduced transfer-matrix data at (a, |b|); see module docstring.

    ``ra``/``rb`` give the reference log-scale r = ra*a + rb*|b| (the
    negative ground energy in units of beta), ``delta = log lambda_+ - r``,
    and ``delta_a``/``delta_b`` its partials with respect to a and |b|.
    ``one_minus_m`` is the exact complement of the magnetization in the
    polarized branch (it equals ``1 - (rb + delta_b)`` there).
    ``delta_ab`` is ``delta_a - 2*delta_b`` (>= 0), written without the
    difference, which cancels near the switch field 2a + |b| = 0.
    """

    ra: np.ndarray
    rb: np.ndarray
    delta: np.ndarray
    delta_a: np.ndarray
    delta_b: np.ndarray
    one_minus_m: np.ndarray
    delta_ab: np.ndarray

    def entropy(self, a, babs):
        """Entropy per site delta - a*delta_a - |b|*delta_b at the (a, |b|)
        this core was built from, as a sum of terms >= 0.  Where a < 0 the
        products are regrouped as -a*delta_ab - (|b| + 2a)*delta_b, since
        near the switch field (h ~ 2|J|) a*delta_a and |b|*delta_b are
        large and nearly equal."""
        pos, neg = np.maximum(a, 0.0), np.minimum(a, 0.0)
        return self.delta - pos * self.delta_a - neg * self.delta_ab \
            - (babs + 2.0 * neg) * self.delta_b

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
    """delta and the terms (g1, g2, hyp, q) of the staggered reference."""
    q = np.exp(-2.0 * babs)
    g1 = np.exp(2.0 * a + babs + np.log1p(q) - _LOG2)
    with np.errstate(divide="ignore"):
        log_sinh = babs + np.log(-np.expm1(-2.0 * babs)) - _LOG2
    g2 = np.exp(2.0 * a + log_sinh)
    hyp = np.hypot(g2, 1.0)
    return np.log1p(g1 + g2 * g2 / (1.0 + hyp)), g1, g2, hyp, q


def _core_polarized(a, babs):
    delta, p, root, half = _polarized(a, babs)
    q = np.exp(-2.0 * babs)
    inner = 0.5 * (1.0 + q) + root
    # subtraction-free magnetization complement: equals
    # (q + (p - q*omq/2)/root)/inner but stays exact when p << omq^2
    scale = root * half * inner
    one_minus_m = p * (q + half) / scale
    return (np.ones_like(a), np.ones_like(a), delta, -2.0 * p / (root * inner),
            -one_minus_m, one_minus_m, 2.0 * p * q / scale)


def _core_staggered(a, babs):
    delta, g1, g2, hyp, q = _staggered(a, babs)
    inner = g1 + hyp
    delta_b = g2 * (1.0 + g1 / hyp) / inner
    one_minus_m = 1.0 - delta_b
    # delta_a - 2 delta_b = 2 (1 - g2/hyp)(g1 - g2)/inner, with
    # 1 - g2/hyp = 1 - delta_b (>= 1/2 here) and g1 - g2 = e^{2a - |b|} = 2 g1 q/(1 + q)
    return (np.full_like(a, -1.0), np.zeros_like(a), delta,
            (2.0 * g1 + 2.0 * g2 * g2 / hyp) / inner, delta_b, one_minus_m,
            4.0 * g1 * q * one_minus_m / ((1.0 + q) * inner))


def _core(a, babs) -> _Core:
    return _Core(*_branchwise(a, babs, _core_polarized, _core_staggered))


def _log_excess(a, babs) -> np.ndarray:
    """``_core(a, babs).delta`` alone, bit for bit: the work of the matched
    cycles needs no partials."""
    return _branchwise(a, babs, lambda *ab: _polarized(*ab)[:1],
                       lambda *ab: _staggered(*ab)[:1])[0]


def _log1mexp(u):
    """log(1 - e^{-u}) for u >= 0, to full relative precision on both sides
    of ln 2 (Maechler's split)."""
    return np.where(u > _LOG2, np.log1p(-np.exp(-u)), np.log(-np.expm1(-u)))


def _ring(n: int, a, babs):
    """(log Z_N/N - r_N, S/N) of the periodic N-site ring, elementwise over
    broadcast (a, |b|), with r_N = -beta E_0/N the ring's ground log-scale.

    Z_N = lambda_+^N + lambda_-^N with rho = lambda_-/lambda_+ of the sign
    of a, and |lambda_-| lambda_+ = |det T| = 2|sinh 2a| gives

        u = -log|rho| = 2(r - |a|) - log(1 - e^{-4|a|}) + 2 delta,

    a sum of terms >= 0, with r and delta those of :class:`_Core`.  Where
    rho^N >= 0, r_N = r and log Z_N/N = r + delta + log1p(e^{-Nu})/N.  For
    odd N and a < 0, rho^N = -e^{-Nu} tends to -1 (the frustrated ring);
    there Z_N = lambda_+^{N-1} tr(T) R with tr T = lambda_+ + lambda_- =
    2 e^a cosh b and R = (1 - e^{-Nu})/(1 - e^{-u}) in [1, N], so

        N (log Z_N/N - r_N) = (N - 1) delta + log(1 + e^{-2|b|}) + log R,

    with r_N = r + (2a + |b|)/N in the staggered branch (the frustrated
    bond's cost, which no float subtraction then has to cancel) and r in
    the polarized one.  Both temperatures of a cycle share r_N up to the
    factor beta, so T_h (log Z_h/N - r_N) - T_c (log Z_c/N - r_N) is the
    work.  Deep in the frustrated phase u is below 1e-300, and R and its
    derivative take their limits N and 0.  No term above cancels, N = 1
    included.  The entropy is
    (1 - a d_a - |b| d_b) log Z_N/N, with

        (a d_a + |b| d_b) log|rho| = 2(|a| - ra a) + 4|a|/(e^{4|a|} - 1)
                                     - 2a delta_a - 2|b| (rb + delta_b),

    none of whose terms cancels in the branch where it is large.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        core = _core(a, babs)
        # _polarized is 0/0 where |b| ~ 0 and a > ~186; there delta -> 0, and
        # the partials enter only as a*delta_a -> 0 and |b|*delta_b -> 0
        core = _Core(*core[:2], *(np.where(np.isnan(x), 0.0, x) for x in core[2:]))
        delta, delta_a, delta_b = core.delta, core.delta_a, core.delta_b
        chain = core.entropy(a, babs)
        abs_a = np.abs(a)
        u = 2.0 * (core.ra * a - abs_a + core.rb * babs) - _log1mexp(4.0 * abs_a) + 2.0 * delta
        slope = 2.0 * (abs_a - core.ra * a - a * delta_a - babs * (core.rb + delta_b)) \
            + np.where(abs_a > 0.0, 4.0 * abs_a / np.expm1(4.0 * abs_a), 1.0)
        v = n * u
        tail = np.log1p(np.exp(-v))
        log_z, s = n * delta + tail, n * chain + tail - n * slope / (1.0 + np.exp(v))
        if n % 2:
            log_r = np.where(u < 1e-300, math.log(n), _log1mexp(v) - _log1mexp(u))
            tilt_r = np.where(u < 1e-300, 0.0, slope * (1.0 / np.expm1(u) - n / np.expm1(v)))
            q = np.exp(-2.0 * babs)
            trace = (n - 1) * delta + np.log1p(q) + log_r
            s_trace = (n - 1) * chain + np.log1p(q) + 2.0 * babs * q / (1.0 + q) + log_r - tilt_r
            log_z, s = np.where(a < 0.0, trace, log_z), np.where(a < 0.0, s_trace, s)
    return log_z / n, s / n


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


def _newton(step, hi, live) -> np.ndarray:
    """Positive root of a function f that is convex on (0, hi] and
    positive at hi, elementwise over the flat array ``hi``, by Newton's
    iteration from hi on the elements of ``live``; the others keep hi.

    ``step(rows, h)`` returns f/f' at the fields ``h`` of the elements
    ``rows`` (flat indices).  On such an f every iterate lies at or above
    the root, and each one is lower than the last, so an element stops at
    its first iterate whose successor is not strictly inside (0, current):
    there rounding has taken over.  Only the elements still falling are
    evaluated, each on its own scalar path, so a batch returns what one
    call per element would.  Every caller brackets its root by 2|J|, so a
    ``live`` top that overflowed raises ``ValueError``: the root is not a
    float.  An element still falling after ``_NEWTON_CAP`` iterations
    raises ``RuntimeError``.
    """
    if np.any(live & np.isinf(hi)):
        raise ValueError("optimal field: 2|J| overflows, so the root is not a float")
    h = hi.copy()
    rows = np.flatnonzero(live)
    cur = h[rows]
    steps = 0
    while rows.size:
        if steps == _NEWTON_CAP:
            raise RuntimeError(f"Newton iteration still falling after {_NEWTON_CAP} steps")
        steps += 1
        nxt = cur - step(rows, cur)
        falls = (nxt < cur) & (nxt > 0.0)
        if not falls.all():
            h[rows[~falls]] = cur[~falls]
            rows, nxt = rows[falls], nxt[falls]
        cur = nxt
    return h


def optimal_field(beta, j):
    """Entropy-maximizing field of the infinite chain at fixed (beta, J),
    elementwise over ``beta`` broadcast against ``j``.

    Zero unless the coupling is antiferromagnetic with ``2|J|beta > 1``;
    then the unique positive solution of f(h) = h - 2|J| tanh(beta h) = 0,
    in (0, 2|J|].  f is convex on h > 0 and positive at 2|J|, so Newton's
    iteration from 2|J| falls onto it (:func:`_newton`), with
    f' = 1 - 2|J| beta (1 - tanh^2), written as
    tanh^2 - (2|J| - 1/beta) * beta (1 - tanh^2): near 2|J|beta = 1 it does
    not cancel, and where 2|J|beta overflows the product is 0, not inf*0.
    Raises ``ValueError`` where the root is not a float: 2|J| overflows.
    """
    beta = _check_beta(beta)
    j = np.asarray(j, dtype=np.float64)
    shape = np.broadcast_shapes(beta.shape, j.shape)
    flat_beta, flat_j = (np.ravel(x) for x in np.broadcast_arrays(beta, j))
    with np.errstate(over="ignore"):
        jj = 2.0 * np.abs(flat_j)
        # slope at 0 is 1 - 2|J|beta < 0, f(2|J|) > 0: one root in (0, 2|J|]
        live = ~((flat_j >= 0) | (jj * flat_beta <= 1.0))
        jj = np.where(live, jj, 0.0)
        excess = jj - 1.0 / flat_beta

    def step(rows, h):
        b = flat_beta[rows]
        t = np.tanh(b * h)
        return (h - jj[rows] * t) / (t * t - excess[rows] * (b * (1.0 - t * t)))

    with np.errstate(over="ignore"):  # where beta*h overflows, tanh is 1
        h = _newton(step, jj, live)
    return _maybe_float(h.reshape(shape), beta, j)


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
