"""Independent checks of every CLI output.

Each checker takes an ``Invocation``, its exit code and its stdout, and
returns one verdict per operation (CSV data row or JSON report):

* ``OK``        the value agrees with its oracle;
* ``KNOWN_NAN`` nan in a strong-ferromagnet ``sweep-j`` row, the known
                ``ising._core`` underflow (see ``known_nan``);
* ``NONFINITE`` the program printed nan/inf anywhere else;
* ``EXIT``      unexpected exit code, or the row is missing;
* ``MISMATCH``  a finite answer contradicts its oracle, or the output
                echoes other inputs than the argv sent.

All but ``OK`` count as failed operations.  All but ``OK`` and
``KNOWN_NAN`` also make a run incorrect.

The oracles share no code path with the subcommand they check, except
where noted: paper-cycle work comes from the closed-form largest
eigenvalue of the 2 x 2 transfer matrix, finite chains are checked
against an exact density of states over (down spins, domain walls),
dense engine Hamiltonians against classical enumeration of the diagonal
Ising spectrum, and Lie closures against a batched SVD closure written
here.
"""

from __future__ import annotations

import functools
import json
import math
from math import comb

import numpy as np

OK, KNOWN_NAN, NONFINITE, EXIT, MISMATCH = "ok", "known-nan", "nonfinite", "exit", "mismatch"
WRONG = (NONFINITE, EXIT, MISMATCH)

# argv flag -> key under which the CLI echoes its value
_ECHOED = {"--beta-h": "beta_h", "--beta-c": "beta_c", "--j-min": "j_min",
           "--j-max": "j_max", "--j-step": "j_step", "--mode": "mode",
           "--grid-step": "grid_step", "--epsilon": "epsilon", "--beta": "beta",
           "-N": "n", "-J": "j", "-h": "h", "--h-a": "h_a", "--h-b": "h_b",
           "--h-c": "h_c", "--h-d": "h_d", "--steps": "steps", "--u-class": "u_class",
           "--v-class": "v_class", "--model": "model", "--controls": "controls"}
_REPEATED = ("--epsilon", "--beta", "--controls")


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _same(sent: str, echoed) -> bool:
    if isinstance(echoed, str):
        return sent == echoed
    return float(sent) == float(echoed)


def echoes_argv(argv, echoed: dict) -> bool:
    """Every input flag in ``argv`` is echoed back with the value sent."""
    sent = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        sent.setdefault(flag, []).append(value)
    for flag, values in sent.items():
        if flag not in _ECHOED:
            continue  # --threads: not an input of the answer
        got = echoed[_ECHOED[flag]]
        if flag in _REPEATED:
            if len(got) != len(values) or not all(map(_same, values, got)):
                return False
        elif len(values) != 1 or not _same(values[0], got):
            return False
    return True


def _on_grid(x: float, lo: float, step: float) -> bool:
    k = round((x - lo) / step)
    return k >= 0 and _close(x, lo + k * step, 1e-9, 1e-9 * step)


def _csv(stdout: str):
    lines = stdout.strip().splitlines()
    params = json.loads(lines[1][len("# params: "):])
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return params, rows


def known_nan(row: dict, params: dict) -> bool:
    """The documented strong-ferromagnet defect: at h = 0 and J > 0,
    ``ising._core`` computes exp(-4 beta J), which underflows to 0 once
    beta_c J passes ~186 and turns the row into 0/0."""
    j, h = float(row["J"]), float(row["h_opt"])
    return (row["mode"] == "paper" and j > 0.0 and (h == 0.0 or math.isnan(h))
            and math.exp(-4.0 * params["beta_c"] * j) == 0.0)


class Checker:
    """Oracle checks bound to one imported ``spinengine`` package."""

    def __init__(self):
        from spinengine import engine, ising, protocols
        self.engine, self.ising, self.protocols = engine, ising, protocols

    def check(self, inv, rc: int, stdout: str) -> list:
        if rc != 0:
            return [EXIT] * inv.ops
        try:
            echoed, verdicts = getattr(self, "_" + inv.cmd.replace("-", "_"))(stdout)
            if not echoes_argv(inv.argv, echoed):
                return [MISMATCH] * inv.ops
        except (ValueError, KeyError, IndexError, TypeError):
            # output that does not parse is a wrong answer, not a missing one
            return [MISMATCH] * inv.ops
        verdicts = verdicts[:inv.ops]
        return verdicts + [EXIT] * (inv.ops - len(verdicts))

    # -- infinite chain ----------------------------------------------------

    def _betas(self, params):
        return self.engine.Betas(params["beta_h"], params["beta_c"])

    def _sweep_j(self, stdout: str):
        """Paper rows: the work equals the closed-form transfer-matrix work
        at h_opt, and no field on a grid does better; work and efficiency
        also agree with work_density / efficiency_thermo_limit, which
        build the ledger from entropy and relative-entropy densities (a
        different formula from the CLI's reduced log-corrections, but on
        the same ising._core)."""
        params, rows = _csv(stdout)
        betas = self._betas(params)
        out = []
        for row in rows:
            j, h, w, eta = (float(row[k]) for k in ("J", "h_opt", "work_density", "efficiency"))
            if not _finite(j, h, w, eta):
                out.append(KNOWN_NAN if known_nan(row, params) else NONFINITE)
                continue
            w_cf = float(paper_work(j, h, betas.beta_h, betas.beta_c))
            w_grid = paper_work_grid_max(j, betas.beta_h, betas.beta_c)
            fields = self.protocols.ProtocolFields(math.inf, h, h, math.inf)
            w_ref = self.protocols.work_density(j, fields, betas)
            try:
                eta_ref = self.protocols.efficiency_thermo_limit(j, fields, betas)
            except self.engine.UndefinedResultError:
                eta_ref = 0.0  # no heat intake: the CLI reports efficiency 0
            good = (row["mode"] == "paper" and _on_grid(j, params["j_min"], params["j_step"])
                    and _close(w, w_cf, 1e-9, 1e-300) and w >= w_grid - 1e-9 * abs(w_grid)
                    and _close(w, w_ref, 1e-9, 1e-300) and _close(eta, eta_ref, 1e-9, 1e-15))
            out.append(OK if good else MISMATCH)
        return params, out

    def _sweep_j_free(self, stdout: str):
        """Free rows do at least as well as the best paper cycle on a field
        grid (the paper cycle is one candidate of the free optimization)
        and at most the penalty-free work (T_h - T_c) S_h; efficiency is
        w beta_h / S_h <= Carnot."""
        params, rows = _csv(stdout)
        betas = self._betas(params)
        out = []
        for row in rows:
            j, h, w, eta = (float(row[k]) for k in ("J", "h_opt", "work_density", "efficiency"))
            if not _finite(j, h, w, eta):
                out.append(NONFINITE)
                continue
            s_h = self.ising.entropy_density(betas.beta_h, j, h)
            w_paper = paper_work_grid_max(j, betas.beta_h, betas.beta_c)
            tol = 1e-9 * max(1.0, abs(w))
            good = (row["mode"] == "free" and _on_grid(j, params["j_min"], params["j_step"])
                    and w >= w_paper - tol
                    and w <= (betas.t_h - betas.t_c) * s_h + tol
                    and eta <= betas.carnot + 1e-9
                    and (s_h <= 0.0 or _close(eta, w * betas.beta_h / s_h, 1e-9, 1e-15)))
            out.append(OK if good else MISMATCH)
        return params, out

    def _optimal_field(self, stdout: str):
        """h = 2|J| tanh(beta h), on the nontrivial root when 2|J| beta > 1."""
        params, rows = _csv(stdout)
        out = []
        for row in rows:
            beta, j, h = float(row["beta"]), float(row["J"]), float(row["h_opt"])
            if not _finite(beta, j, h):
                out.append(NONFINITE)
                continue
            residual = abs(h - 2.0 * abs(j) * math.tanh(beta * h))
            nontrivial = j < 0 and 2.0 * abs(j) * beta > 1.0
            good = (residual <= 1e-9 * max(1.0, 2.0 * abs(j)) and ((h > 0) == nontrivial)
                    and beta in params["beta"]
                    and _on_grid(j, params["j_min"], params["j_step"]))
            out.append(OK if good else MISMATCH)
        return params, out

    # -- finite chains -----------------------------------------------------

    def _precision(self, stdout: str):
        """Efficiency at maximum work of the N-ring, recomputed from its
        exact density of states with an independent grid-and-zoom search."""
        params, rows = _csv(stdout)
        betas = self._betas(params)
        out = []
        for row in rows:
            j, eps, eta = float(row["J"]), float(row["epsilon"]), float(row["efficiency"])
            if not _finite(j, eps, eta):
                out.append(NONFINITE)
                continue
            eta_ref = chain_efficiency_reference(params["n"], j, eps, betas.beta_h,
                                                 betas.beta_c, params["grid_step"])
            good = (_close(eta, eta_ref, 1e-6, 1e-9) and eps in params["epsilon"]
                    and _on_grid(j, params["j_min"], params["j_step"]))
            out.append(OK if good else MISMATCH)
        return params, out

    def _gs_deg(self, stdout: str):
        """Ground energy and degeneracy from the density of states; the
        h = 0 rings also match the known counts (2, or 2N when odd and
        antiferromagnetic)."""
        r = json.loads(stdout)
        n, j, h, e0, g0 = r["n"], r["j"], r["h"], r["e0"], r["g0"]
        if not _finite(e0):
            return r, [NONFINITE]
        e_ref, g_ref = ground_state_reference(n, j, h)
        good = g0 == g_ref and _close(e0, e_ref, 1e-12, 1e-12)
        if h == 0.0 and j != 0.0:
            good = good and g0 == (2 * n if (j < 0 and n % 2) else 2)
        return r, [OK if good else MISMATCH]

    # -- dense engine ------------------------------------------------------

    def _cycle(self, stdout: str):
        """Steady, closed energy books (recomputed from the reported work
        and heats), and efficiency at most the corner bound and Carnot."""
        r = json.loads(stdout)
        w, qh, qc, eta = r["total_work"], r["heat_hot"], r["heat_cold"], r["efficiency"]
        if not _finite(w, qh, qc, eta, r["energy_closure"]):
            return r, [NONFINITE]
        bound = r["eta_bound"]
        good = (r["steady"] is True and r["energy_closure"] < 1e-9
                and abs(w - (qh + qc)) < 1e-9
                and _finite(bound) and eta <= bound + 1e-9 and eta <= r["carnot"] + 1e-9
                and _close(eta, w / abs(qh), 1e-9, 1e-15))
        return r, [OK if good else MISMATCH]

    def _bound(self, stdout: str):
        """Entropy gain and both penalties from classical Gibbs
        distributions of the enumerated spectrum; bound <= Carnot."""
        r = json.loads(stdout)
        eta, ds, d_u, d_v = r["eta_bound"], r["delta_s"], r["d_u"], r["d_v"]
        if not _finite(eta, ds, d_u, d_v):
            return r, [NONFINITE]
        betas = self.engine.Betas(r["beta_h"], r["beta_c"])
        ds_ref, du_ref, dv_ref = bound_terms_reference(r, betas)
        eta_ref = 1.0 - (betas.t_c / betas.t_h) * (ds + d_u) / (ds - d_v)
        good = (eta <= r["carnot"] + 1e-12 and _close(eta, eta_ref, 1e-12, 1e-14)
                and _close(ds, ds_ref, 1e-8, 1e-10) and _close(d_u, du_ref, 1e-7, 1e-10)
                and _close(d_v, dv_ref, 1e-7, 1e-10))
        return r, [OK if good else MISMATCH]

    # -- control -----------------------------------------------------------

    def _control(self, stdout: str):
        """Dimension equals an independent closure of the Heisenberg
        chain; FULL iff d^2 - 1."""
        r = json.loads(stdout)
        n = r["n"]
        dim_ref = reference_dimension(n, r["j"], tuple(r["controls"]))
        full = dim_ref == 4 ** n - 1
        good = (r["model"] == "heisenberg-chain" and r["dim"] == dim_ref
                and r["stabilized"] is True and (r["class"] == "FULL") == full)
        return r, [OK if good else MISMATCH]


# ---------------------------------------------------------------------------
# infinite chain: closed-form 2 x 2 transfer matrix


def _log_lambda_excess(beta: float, j: float, h: np.ndarray) -> np.ndarray:
    """log lambda_max - beta J - beta |h| for the Ising chain, where
    lambda = e^{bJ} cosh bh + sqrt(e^{2bJ} sinh^2 bh + e^{-2bJ}).

    With x = b|h|, s = e^{-x} sinh x and q = e^{-4bJ - 2x}, this is
    log(1 + q / (sqrt(s^2 + q) + s)), free of cancellation; for q > 1 it
    is taken in log form so that q never overflows.
    """
    x = beta * np.abs(h)
    log_q = -4.0 * beta * j - 2.0 * x
    s = -0.5 * np.expm1(-2.0 * x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = np.exp(log_q)
        small = np.log1p(q / (np.sqrt(s * s + q) + s))
        inv_q = np.exp(-log_q)
        log_r = 0.5 * log_q - np.log(np.sqrt(s * s * inv_q + 1.0) + s * np.sqrt(inv_q))
        large = np.logaddexp(0.0, log_r)
    return np.where(log_q < 0.0, small, large)


def paper_work(j: float, h, beta_h: float, beta_c: float):
    """Work density T_h log lambda(beta_h) - T_c log lambda(beta_c) of the
    paper cycle at field h.  The parts J + |h| of T log lambda are the
    same at both temperatures and cancel exactly."""
    h = np.asarray(h, dtype=float)
    return (_log_lambda_excess(beta_h, j, h) / beta_h
            - _log_lambda_excess(beta_c, j, h) / beta_c)


@functools.lru_cache(maxsize=None)
def paper_work_grid_max(j: float, beta_h: float, beta_c: float) -> float:
    """Largest paper-cycle work over 4001 fields in [0, 4 max(1, |J|) + 10]."""
    grid = np.linspace(0.0, 4.0 * max(1.0, abs(j)) + 10.0, 4001)
    return float(paper_work(j, grid, beta_h, beta_c).max())


# ---------------------------------------------------------------------------
# finite periodic Ising ring: exact density of states


def chain_levels(n: int):
    """(magnetization sum, bond sum, degeneracy) of every level class.

    A periodic configuration with k down spins and 2r domain walls has
    sum sigma = n - 2k and sum sigma sigma' = n - 4r; there are
    (n/r) C(k-1, r-1) C(n-k-1, r-1) of them for r >= 1, plus the two
    polarized states.
    """
    m, b, g = [n, -n], [n, n], [1, 1]
    for r in range(1, n // 2 + 1):
        for k in range(r, n - r + 1):
            count = n * comb(k - 1, r - 1) * comb(n - k - 1, r - 1)
            if count:
                m.append(n - 2 * k)
                b.append(n - 4 * r)
                g.append(count // r)
    return np.array(m, float), np.array(b, float), np.array(g, dtype=object)


def ground_state_reference(n: int, j: float, h: float):
    m, b, g = chain_levels(n)
    energies = -h * m - j * b
    e0 = float(energies.min())
    tol = 1e-9 * max(1.0, abs(j), abs(h))
    return e0, int(sum(g[energies <= e0 + tol]))


def _chain_work_eta(levels, j, hs, beta_h, beta_c):
    """Work per cycle T_h log Z_h - T_c log Z_c and efficiency w/(T_h S_h)
    at shared fields ``hs``; energies are shifted by the ground level so
    the extensive parts cancel before any subtraction."""
    m, b, g = levels
    log_g = np.log(np.array([float(x) for x in g]))
    energies = -hs[:, None] * m[None, :] - j * b[None, :]
    shifted = energies - energies.min(axis=1, keepdims=True)

    def stats(beta):
        logw = log_g[None, :] - beta * shifted
        top = logw.max(axis=1, keepdims=True)
        weights = np.exp(logw - top)
        z = weights.sum(axis=1)
        logz = np.log(z) + top[:, 0]
        u = (weights * shifted).sum(axis=1) / z
        return logz, logz + beta * u

    logz_h, s_h = stats(beta_h)
    logz_c, _ = stats(beta_c)
    w = logz_h / beta_h - logz_c / beta_c
    with np.errstate(invalid="ignore", divide="ignore"):
        eta = np.where(s_h > 0.0, w * beta_h / np.where(s_h > 0, s_h, 1.0), 0.0)
    return w, eta


@functools.lru_cache(maxsize=None)
def chain_efficiency_reference(n, j, eps, beta_h, beta_c, grid_step):
    levels = chain_levels(n)
    h_max = 4.0 * max(1.0, abs(j))
    if h_max <= eps:
        h_max = eps + 1.0
    grid = np.arange(eps, h_max + 0.5 * grid_step, grid_step)
    w, _ = _chain_work_eta(levels, j, grid, beta_h, beta_c)
    k = int(np.argmax(w))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    for _ in range(5):  # zoom 100x per round around the best sample
        zoom = np.linspace(lo, hi, 201)
        w, _ = _chain_work_eta(levels, j, zoom, beta_h, beta_c)
        k = int(np.argmax(w))
        lo, hi = zoom[max(k - 1, 0)], zoom[min(k + 1, len(zoom) - 1)]
    return float(_chain_work_eta(levels, j, np.array([zoom[k]]), beta_h, beta_c)[1][0])


# ---------------------------------------------------------------------------
# dense engine: the Ising composite is diagonal in the computational basis


def ising_spectrum(n: int, j: float, h: float) -> np.ndarray:
    """Energies of ``hamiltonians.ising_composite``: -h sum Z - J sum over
    the bond set {(k, k+1 mod n)}, which counts the N = 2 bond twice."""
    c = np.arange(1 << n)
    spins = 1 - 2 * ((c[:, None] >> np.arange(n)[None, :]) & 1)
    if n == 1:
        bond = np.ones(len(c))
    else:
        bonds = sorted({(k, (k + 1) % n) for k in range(n)})
        bond = sum(spins[:, a] * spins[:, b] for a, b in bonds)
    return -h * spins.sum(axis=1) - j * bond


def _gibbs(energies: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def _entropy(p: np.ndarray) -> float:
    live = p > 1e-14
    return float(-np.sum(p[live] * np.log(p[live])))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    live = p > 1e-14
    return max(float(np.sum(p[live] * (np.log(p[live]) - np.log(q[live])))), 0.0)


def bound_terms_reference(report: dict, betas):
    n, j = report["n"], report["j"]
    p_b = _gibbs(ising_spectrum(n, j, report["h_b"]), betas.beta_h)
    p_c = _gibbs(ising_spectrum(n, j, report["h_c"]), betas.beta_c)
    p_d = _gibbs(ising_spectrum(n, j, report["h_d"]), betas.beta_c)
    p_a = _gibbs(ising_spectrum(n, j, report["h_a"]), betas.beta_h)

    def penalty(p, q, cls):
        if cls == "full":  # best unitary pairs both spectra sorted alike
            return _kl(np.sort(p)[::-1], np.sort(q)[::-1])
        return _kl(p, q)

    return (_entropy(p_b) - _entropy(p_d), penalty(p_b, p_c, report["u_class"]),
            penalty(p_d, p_a, report["v_class"]))


# ---------------------------------------------------------------------------
# Lie closure

_PAULI = {"x": np.array([[0, 1], [1, 0]], complex),
          "y": np.array([[0, -1j], [1j, 0]], complex),
          "z": np.array([[1, 0], [0, -1]], complex)}


def _site(op, site: int, n: int) -> np.ndarray:
    # site k is bit k of the basis index, as in spinengine.hamiltonians
    return np.kron(np.kron(np.eye(1 << (n - 1 - site)), op), np.eye(1 << site))


def generators(n: int, j: float, controls) -> list:
    """Heisenberg drift (open bond for N = 2, ring for N >= 3) plus site
    controls."""
    bonds = [(k, k + 1) for k in range(n - 1)] + ([(n - 1, 0)] if n > 2 else [])
    drift = sum(j * _site(_PAULI[a], p, n) @ _site(_PAULI[a], q, n)
                for p, q in bonds for a in "xyz")
    gens = [drift]
    for spec in controls:
        head, _, axes_part = spec.partition(":")
        gens += [_site(_PAULI[a], int(head[4:]), n) for a in axes_part.split(",")]
    return gens


CLOSURE_TOL = 1e-8   # smallest norm of a new direction
CLOSURE_BLOCK = 16   # frontier elements commuted against the basis at once


def _real(mats: np.ndarray) -> np.ndarray:
    return np.concatenate([mats.real.reshape(len(mats), -1),
                           mats.imag.reshape(len(mats), -1)], axis=1)


def closure_dimension(gens) -> int:
    """Dimension of the real Lie algebra spanned by i*gens under commutators.

    Breadth-first like the library, but each round commutes blocks of
    the frontier against the whole basis at once and finds the new
    directions with an SVD of the projected candidates.
    """
    tol, block = CLOSURE_TOL, CLOSURE_BLOCK
    d = gens[0].shape[0]
    basis = np.zeros((0, 2 * d * d))
    mats = np.zeros((0, d, d), complex)

    def extend(cands):
        nonlocal basis, mats
        cands = cands - np.einsum("kii->k", cands)[:, None, None] * np.eye(d) / d
        vecs = _real(cands)
        norms = np.linalg.norm(vecs, axis=1)
        vecs = vecs[norms > tol] / norms[norms > tol, None]
        for _ in range(2):
            vecs = vecs - (vecs @ basis.T) @ basis
        vecs = vecs[np.linalg.norm(vecs, axis=1) > tol]
        if not len(vecs):
            return mats[:0]
        _, s, vt = np.linalg.svd(vecs, full_matrices=False)
        fresh = vt[s > tol]
        basis = np.vstack([basis, fresh])
        half = d * d
        new = (fresh[:, :half] + 1j * fresh[:, half:]).reshape(-1, d, d)
        mats = np.concatenate([mats, new])
        return new

    frontier = extend(np.array(gens))
    while len(frontier) and len(basis) < d * d - 1:
        fresh = []
        for start in range(0, len(frontier), block):
            part = frontier[start:start + block]
            prod = np.einsum("aij,bjk->abik", part, mats)
            comm = 1j * (prod - np.einsum("bij,ajk->abik", mats, part))
            comm = 0.5 * (comm + comm.conj().swapaxes(-1, -2))
            fresh.append(extend(comm.reshape(-1, d, d)))
        frontier = np.concatenate(fresh)
    return len(basis)


@functools.lru_cache(maxsize=None)
def reference_dimension(n: int, j: float, controls: tuple) -> int:
    return closure_dimension(generators(n, j, controls))
