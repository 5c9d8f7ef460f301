"""High-precision reference values for the periodic Ising ring and the
infinite chain.

Built on the standard library's ``decimal`` at 400 significant digits
with an exponent range wide enough that no weight underflows (|J| up to
1e10 and beyond), so it shows relative errors where the float closed
forms are tiny or cancel.  Inputs are floats, converted exactly.  Two
independent routes to log Z_N of the ring with energy
-h*sum(s) - J*sum(s s'):

* :func:`class_log_z`: a sum over the (magnetization, bond) classes with
  exact integer degeneracies, for N <= 24;
* :func:`transfer_log_z`: Z_N = lambda_+^N + lambda_-^N, with
  lambda_- = 2 sinh(2a)/lambda_+ so that it does not cancel, for any N.

The infinite chain is log lambda_+ (:func:`chain_log_lambda`), and its
optimal fields are checked through exact residuals
(:func:`field_residual`, :func:`magnetization`).  Entropies per site come
from a central difference in beta at a relative step of 1e-60, whose
error (~1e-120 of the part of log Z that is not linear in beta) lies far
below the digits the comparisons read.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from math import comb

CONTEXT = decimal.Context(prec=400, Emax=10 ** 15, Emin=-10 ** 15)
_STEP = Decimal("1e-60")


def classes(n: int):
    """(M, B, g) of every class of the N-ring: k down spins in r domains
    give M = N - 2k and B = N - 4r, with (N/r) C(k-1, r-1) C(N-k-1, r-1)
    configurations; the two polarized states are their own classes."""
    out = [(n, n, 1), (-n, n, 1)]
    for k in range(1, n):
        for r in range(1, min(k, n - k) + 1):
            out.append((n - 2 * k, n - 4 * r, n * comb(k - 1, r - 1) * comb(n - k - 1, r - 1) // r))
    return out


def class_log_z(n: int, beta: Decimal, j: float, h: float) -> Decimal:
    bj, bh = beta * Decimal(j), beta * Decimal(h)
    return sum(g * (bj * b + bh * m).exp() for m, b, g in classes(n)).ln()


def _lambdas(beta: Decimal, j: float, h: float) -> tuple[Decimal, Decimal]:
    a, b = beta * Decimal(j), beta * abs(Decimal(h))
    ea, eb = a.exp(), b.exp()
    cosh_b, sinh_b, e2a = (eb + 1 / eb) / 2, (eb - 1 / eb) / 2, ea * ea
    lam_p = ea * cosh_b + (e2a * sinh_b * sinh_b + 1 / e2a).sqrt()
    return lam_p, (e2a - 1 / e2a) / lam_p


def transfer_log_z(n: int, beta: Decimal, j: float, h: float) -> Decimal:
    lam_p, lam_m = _lambdas(beta, j, h)
    return (lam_p ** n + lam_m ** n).ln()


def chain_log_lambda(beta: Decimal, j: float, h: float) -> Decimal:
    """log lambda_+, the infinite chain's log Z per site."""
    return _lambdas(beta, j, h)[0].ln()


def chain_entropy(beta: float, j: float, h: float) -> float:
    """Entropy per site of the infinite chain, rounded to the nearest float."""
    with decimal.localcontext(CONTEXT):
        b = Decimal(beta)
        step = b * _STEP
        slope = (chain_log_lambda(b + step, j, h) - chain_log_lambda(b - step, j, h)) / (2 * step)
        return float(chain_log_lambda(b, j, h) - b * slope)


def magnetization(beta: float, j: float, h: float) -> Decimal:
    """<s> of the infinite chain at h > 0, sinh b / sqrt(sinh^2 b + e^{-4a})
    = (1 + e^{-4a}/sinh^2 b)^{-1/2}, with the ratio taken through its log
    so that no weight overflows at |J| up to 1e300."""
    with decimal.localcontext(CONTEXT):
        a, b = Decimal(beta) * Decimal(j), Decimal(beta) * Decimal(h)
        log_ratio = -4 * a - 2 * (b + ((1 - (-2 * b).exp()) / 2).ln())
        return 1 / (1 + log_ratio.exp()).sqrt()


def field_residual(beta: float, j: float, h: float) -> float:
    """|h - 2|J| tanh(beta h)| at h >= 0, exactly, rounded to a float."""
    with decimal.localcontext(CONTEXT):
        e = (-2 * Decimal(beta) * Decimal(h)).exp()
        return float(abs(Decimal(h) - 2 * abs(Decimal(j)) * (1 - e) / (1 + e)))


def chain_point(n: int, beta_h: float, beta_c: float, j: float, h: float,
                log_z=transfer_log_z) -> tuple[float, float, float]:
    """Work per site T_h log Z_h/N - T_c log Z_c/N of the matched cycle at
    the shared field h, the hot entropy per site, and the efficiency
    w/(T_h s_h), each rounded to the nearest float."""
    with decimal.localcontext(CONTEXT):
        bh, bc = Decimal(beta_h), Decimal(beta_c)
        step = bh * _STEP
        log_zh = log_z(n, bh, j, h)
        slope = (log_z(n, bh + step, j, h) - log_z(n, bh - step, j, h)) / (2 * step)
        work = (log_zh / bh - log_z(n, bc, j, h) / bc) / n
        s_h = (log_zh - bh * slope) / n
        return float(work), float(s_h), float(work * bh / s_h) if s_h else 0.0
