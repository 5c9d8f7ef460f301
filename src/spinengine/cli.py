"""Command-line driver: sweeps to CSV, one-shot queries to JSON lines.

Subcommands
    sweep-j        efficiency at maximum work density vs J  (CSV)
    precision      finite-chain efficiency with a field floor  (CSV)
    optimal-field  optimal corner field vs J per temperature  (CSV)
    bound          four-corner efficiency bound  (JSON)
    cycle          simulate a staircase Carnot-like cycle  (JSON)
    gs-deg         chain ground-state energy and degeneracy  (JSON)
    control        Lie-algebra class of a drift + local controls  (JSON)

Exit codes: 0 success, 2 bad configuration, 3 I/O failure, 4 undefined
result (for example a non-positive bound denominator).

Determinism contract: identical invocations produce byte-identical
output.  Floats are printed as their shortest round-trip decimal, CSV
is UTF-8 with "\n" line endings, the header row comes first, and the
second line echoes the resolved parameters as canonical JSON in a
comment ``# params: {...}``.  Grid points are evaluated in index order
on one thread; ``--threads`` is still accepted and validated but has no
effect.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import control as control_lib
from . import ising, protocols
from .engine import (Betas, BoundInputs, UndefinedResultError, bound_terms,
                     carnot_like_cycle, efficiency_bound, run_cycle)
from .hamiltonians import IsingParams, ising_diagonal

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_UNDEFINED = 4

# largest staircase a ``cycle`` may hold: one 2^N float64 table per step
_STAIRCASE_BYTES_MAX = 2 << 30


class ConfigError(ValueError):
    """Invalid flag or config-file value; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration plumbing


def _load_config(path):
    """Read a JSON object of defaults; flags override its entries."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--config {path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"--config {path}: top level must be a JSON object")
    return data


def _resolve(args, config, name, default=None):
    """Flag value if given, else config-file entry, else the default."""
    value = getattr(args, name)
    if value is None:
        value = config.get(name, default)
    return value


def _resolve_betas(args, config) -> Betas:
    beta_h = float(_resolve(args, config, "beta_h", 0.5))
    beta_c = float(_resolve(args, config, "beta_c", 1.0))
    try:
        return Betas(beta_h, beta_c)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _resolve_grid(args, config, default_min, default_max, default_step):
    j_min = float(_resolve(args, config, "j_min", default_min))
    j_max = float(_resolve(args, config, "j_max", default_max))
    j_step = float(_resolve(args, config, "j_step", default_step))
    if not (j_step > 0):
        raise ConfigError("--j-step must be positive")
    if j_max < j_min:
        raise ConfigError("--j-max must not be below --j-min")
    count = int(math.floor((j_max - j_min) / j_step + 1e-9)) + 1
    return [j_min + k * j_step for k in range(count)], j_min, j_max, j_step


def _check_threads(args, config) -> None:
    """Validate ``--threads``, which is accepted but has no effect."""
    if int(_resolve(args, config, "threads", 1)) < 1:
        raise ConfigError("--threads must be at least 1")


# ---------------------------------------------------------------------------
# output plumbing


def _canonical_json(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _cell(value) -> str:
    # repr(float) is the shortest decimal that round-trips, which is the
    # float formatting the determinism contract pins down.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit_csv(path, header: str, params: dict, rows) -> None:
    lines = [header, "# params: " + _canonical_json(params)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _json_safe(value):
    """Replace non-finite floats so the report stays valid JSON."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit_json(path, report: dict) -> None:
    _write_text(path, json.dumps(_json_safe(report), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep_j(args, config) -> int:
    betas = _resolve_betas(args, config)
    js, j_min, j_max, j_step = _resolve_grid(args, config, -5.0, 5.0, 0.1)
    mode = _resolve(args, config, "mode", protocols.PAPER_PROTOCOL)
    if mode not in (protocols.PAPER_PROTOCOL, protocols.FREE_FIELDS):
        raise ConfigError(f"--mode must be 'paper' or 'free', got {mode!r}")
    grid_step = float(_resolve(args, config, "grid_step", 1e-2))
    if not (grid_step > 0):
        raise ConfigError("--grid-step must be positive")
    params = {"command": "sweep-j", "beta_h": betas.beta_h, "beta_c": betas.beta_c,
              "j_min": j_min, "j_max": j_max, "j_step": j_step,
              "mode": mode, "grid_step": grid_step}

    rows = protocols.sweep_j(js, betas, mode, grid_step=grid_step)
    _emit_csv(args.output, "J,h_opt,work_density,efficiency,mode", params, rows)
    return EXIT_OK


def cmd_precision(args, config) -> int:
    betas = _resolve_betas(args, config)
    n = _resolve_n(args, config, 6)
    epsilons = _resolve(args, config, "epsilon", None)
    if not epsilons:
        raise ConfigError("--epsilon list must not be empty")
    epsilons = [float(e) for e in epsilons]
    if any(e < 0 for e in epsilons):
        raise ConfigError("--epsilon values must be nonnegative")
    js, j_min, j_max, j_step = _resolve_grid(args, config, 0.0, 20.0, 0.5)
    grid_step = float(_resolve(args, config, "grid_step", 1e-2))
    if not (grid_step > 0):
        raise ConfigError("--grid-step must be positive")
    params = {"command": "precision", "beta_h": betas.beta_h, "beta_c": betas.beta_c,
              "n": n, "epsilon": epsilons, "j_min": j_min, "j_max": j_max,
              "j_step": j_step, "grid_step": grid_step}

    points = protocols.chain_sweep(n, js, betas, epsilons, grid_step=grid_step)
    rows = [(p.j, p.epsilon, p.efficiency) for p in points]
    _emit_csv(args.output, "J,epsilon,efficiency", params, rows)
    return EXIT_OK


def cmd_optimal_field(args, config) -> int:
    betas = _resolve(args, config, "beta", None)
    if not betas:
        betas = [1.0, 2.0, 3.0]
    betas = [float(b) for b in betas]
    if any(b <= 0 for b in betas):
        raise ConfigError("--beta values must be positive")
    js, j_min, j_max, j_step = _resolve_grid(args, config, -3.0, 0.0, 0.01)
    params = {"command": "optimal-field", "beta": betas,
              "j_min": j_min, "j_max": j_max, "j_step": j_step}

    rows = [(b, j, float(h)) for b in betas for j, h in zip(js, ising.optimal_field(b, js))]
    _emit_csv(args.output, "beta,J,h_opt", params, rows)
    return EXIT_OK


def _resolve_n(args, config, default):
    """Chain length of the finite Ising ring commands."""
    n = int(_resolve(args, config, "n", default))
    if not (1 <= n <= 24):
        raise ConfigError("-N must be between 1 and 24")
    return n


def _corner_fields(args, config):
    h_b = float(_resolve(args, config, "h_b", 1.0))
    beta_h = float(_resolve(args, config, "beta_h", 0.5))
    beta_c = float(_resolve(args, config, "beta_c", 1.0))
    # default corners follow the Carnot construction: the quenches scale
    # the field by the temperature ratio so no relative entropy is paid,
    # and the cold corner sits at the stronger reduced field beta*h so
    # the hot contact is the entropy-gaining one.
    h_c = _resolve(args, config, "h_c", None)
    h_c = (beta_h / beta_c) * h_b if h_c is None else float(h_c)
    h_d = float(_resolve(args, config, "h_d", 2.0 * h_b))
    h_a = _resolve(args, config, "h_a", None)
    h_a = (beta_c / beta_h) * h_d if h_a is None else float(h_a)
    return h_a, h_b, h_c, h_d


def _corner_tables(n, j, fields):
    return [ising_diagonal(IsingParams(n, j, h)) for h in fields]


def cmd_bound(args, config) -> int:
    betas = _resolve_betas(args, config)
    n = _resolve_n(args, config, 2)
    j = float(_resolve(args, config, "j", 0.0))
    h_a, h_b, h_c, h_d = _corner_fields(args, config)
    u_class = _resolve(args, config, "u_class", "identity")
    v_class = _resolve(args, config, "v_class", "identity")
    for label, cls in (("--u-class", u_class), ("--v-class", v_class)):
        if cls not in ("identity", "commuting", "full"):
            raise ConfigError(f"{label} must be identity, commuting, or full")
    inputs = BoundInputs(*_corner_tables(n, j, (h_a, h_b, h_c, h_d)),
                         betas, u=u_class, v=v_class)
    terms = bound_terms(inputs)
    eta = terms.efficiency(betas)
    report = {"command": "bound", "beta_h": betas.beta_h, "beta_c": betas.beta_c,
              "n": n, "j": j, "h_a": h_a, "h_b": h_b, "h_c": h_c, "h_d": h_d,
              "u_class": u_class, "v_class": v_class,
              "delta_s": terms.delta_s, "d_u": terms.d_u, "d_v": terms.d_v,
              "eta_bound": eta, "carnot": betas.carnot}
    _emit_json(args.output, report)
    return EXIT_OK


def cmd_cycle(args, config) -> int:
    betas = _resolve_betas(args, config)
    n = _resolve_n(args, config, 2)
    j = float(_resolve(args, config, "j", 0.0))
    h_a, h_b, h_c, h_d = _corner_fields(args, config)
    steps = int(_resolve(args, config, "steps", 1000))
    if steps < 1:
        raise ConfigError("--steps must be at least 1")
    staircase_bytes = (2 * steps * 8) << n
    if staircase_bytes > _STAIRCASE_BYTES_MAX:
        raise ConfigError(f"-N {n} --steps {steps} needs {staircase_bytes} bytes of "
                          f"staircase tables, above the {_STAIRCASE_BYTES_MAX}-byte cap; "
                          "lower --steps or -N")
    c_a, c_b, c_c, c_d = _corner_tables(n, j, (h_a, h_b, h_c, h_d))
    protocol = carnot_like_cycle(c_d, c_a, c_b, c_c, betas, steps)
    report_obj = run_cycle(c_d, protocol, betas)
    try:
        eta_bound = efficiency_bound(BoundInputs(c_a, c_b, c_c, c_d, betas))
    except UndefinedResultError:
        # the cycle still ran; report it with the comparison left blank
        eta_bound = None
    report = {"command": "cycle", "beta_h": betas.beta_h, "beta_c": betas.beta_c,
              "n": n, "j": j, "h_a": h_a, "h_b": h_b, "h_c": h_c, "h_d": h_d,
              "steps": steps, "total_work": report_obj.total_work,
              "heat_hot": report_obj.heat_hot, "heat_cold": report_obj.heat_cold,
              "efficiency": report_obj.efficiency, "steady": report_obj.steady,
              "n_passes": report_obj.n_passes,
              "energy_closure": report_obj.energy_closure,
              "eta_bound": eta_bound, "carnot": betas.carnot}
    _emit_json(args.output, report)
    return EXIT_OK


def cmd_gs_deg(args, config) -> int:
    n = _resolve_n(args, config, 8)
    j = float(_resolve(args, config, "j", -1.0))
    h = float(_resolve(args, config, "field", 2.0))
    g0, e0 = ising.ground_state_degeneracy(n, j, h)
    report = {"command": "gs-deg", "n": n, "j": j, "h": h,
              "e0": float(e0), "g0": int(g0)}
    _emit_json(args.output, report)
    return EXIT_OK


def _parse_controls(specs, n: int):
    """Parse repeatable ``site<k>:<axes>`` control specs, e.g. site0:x,z."""
    ops = []
    parsed = []
    for spec in specs:
        head, sep, axes_part = spec.partition(":")
        head = head.strip().lower()
        if not sep or not head.startswith("site"):
            raise ConfigError(f"--controls entry {spec!r} must look like site0:x,z")
        try:
            site = int(head[4:])
        except ValueError:
            raise ConfigError(f"--controls entry {spec!r}: bad site index")
        if not (0 <= site < n):
            raise ConfigError(f"--controls entry {spec!r}: site out of range for N={n}")
        axes = [a for a in (p.strip().lower() for p in axes_part.split(",")) if a]
        if not axes:
            raise ConfigError(f"--controls entry {spec!r}: no axes given")
        try:
            ops.extend(control_lib.site_controls(n, site, axes))
        except ValueError as exc:
            raise ConfigError(str(exc))
        parsed.append(f"site{site}:" + ",".join(axes))
    return ops, parsed


def cmd_control(args, config) -> int:
    model = _resolve(args, config, "model", "heisenberg-chain")
    n = int(_resolve(args, config, "n", 2))
    if not (2 <= n <= 6):
        raise ConfigError("-N must be between 2 and 6 (closure is O(d^4))")
    j = float(_resolve(args, config, "j", 1.0))
    specs = _resolve(args, config, "controls", None) or ["site0:x,z"]
    if model == "heisenberg-chain":
        drift = control_lib.heisenberg_chain_drift(n, j)
    elif model == "ising-chain":
        drift = control_lib.ising_chain_drift(n, j)
    else:
        raise ConfigError("--model must be heisenberg-chain or ising-chain")
    controls, parsed = _parse_controls(specs, n)
    gens = control_lib.GeneratorSet(drift=drift, controls=tuple(controls))
    result = control_lib.classify_unitary_class(gens)
    report = {"command": "control", "model": model, "n": n, "j": j,
              "controls": parsed, "class": result.kind,
              "dim": result.dimension, "stabilized": result.stabilized}
    _emit_json(args.output, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp):
    sp.add_argument("--help", action="help", help="show this help message and exit")
    sp.add_argument("--config", metavar="JSON", default=None,
                    help="JSON file of parameter defaults; flags win")
    sp.add_argument("-o", "--output", metavar="PATH", default=None,
                    help="output file (default: stdout)")
    sp.add_argument("--threads", type=int, default=None,
                    help="accepted for compatibility; has no effect")


def _add_betas(sp):
    sp.add_argument("--beta-h", dest="beta_h", type=float, default=None,
                    help="hot inverse temperature (default 0.5)")
    sp.add_argument("--beta-c", dest="beta_c", type=float, default=None,
                    help="cold inverse temperature (default 1.0)")


def _add_j_grid(sp):
    sp.add_argument("--j-min", dest="j_min", type=float, default=None)
    sp.add_argument("--j-max", dest="j_max", type=float, default=None)
    sp.add_argument("--j-step", dest="j_step", type=float, default=None)


def _add_corners(sp):
    sp.add_argument("-N", dest="n", type=int, default=None, help="chain length")
    sp.add_argument("-J", dest="j", type=float, default=None, help="coupling")
    sp.add_argument("--h-a", dest="h_a", type=float, default=None)
    sp.add_argument("--h-b", dest="h_b", type=float, default=None)
    sp.add_argument("--h-c", dest="h_c", type=float, default=None)
    sp.add_argument("--h-d", dest="h_d", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinengine",
        description="Spin-chain work-extraction engines: sweeps and queries.")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    # every subparser opts out of the automatic -h so that gs-deg can use
    # -h for the magnetic field; --help stays available everywhere.
    sp = sub.add_parser("sweep-j", add_help=False,
                        help="efficiency at maximum work density vs J (CSV)")
    _add_common(sp)
    _add_betas(sp)
    _add_j_grid(sp)
    sp.add_argument("--mode", choices=("paper", "free"), default=None,
                    help="corner-field family: matched quench or free fields")
    sp.add_argument("--grid-step", dest="grid_step", type=float, default=None,
                    help="field grid spacing for the work maximization")
    sp.set_defaults(func=cmd_sweep_j)

    sp = sub.add_parser("precision", add_help=False,
                        help="finite-chain efficiency with a field floor (CSV)")
    _add_common(sp)
    _add_betas(sp)
    _add_j_grid(sp)
    sp.add_argument("-N", dest="n", type=int, default=None,
                    help="chain length (1 to 24)")
    sp.add_argument("--epsilon", action="append", type=float, default=None,
                    help="field floor; repeat for several curves")
    sp.add_argument("--grid-step", dest="grid_step", type=float, default=None,
                    help="field grid spacing for the work maximization")
    sp.set_defaults(func=cmd_precision)

    sp = sub.add_parser("optimal-field", add_help=False,
                        help="optimal corner field vs J per temperature (CSV)")
    _add_common(sp)
    sp.add_argument("--beta", action="append", type=float, default=None,
                    help="inverse temperature; repeat for several curves")
    _add_j_grid(sp)
    sp.set_defaults(func=cmd_optimal_field)

    sp = sub.add_parser("bound", add_help=False,
                        help="four-corner efficiency bound (JSON)")
    _add_common(sp)
    _add_betas(sp)
    _add_corners(sp)
    sp.add_argument("--u-class", dest="u_class", default=None,
                    choices=("identity", "commuting", "full"),
                    help="unitary class on the hot-side adiabat")
    sp.add_argument("--v-class", dest="v_class", default=None,
                    choices=("identity", "commuting", "full"),
                    help="unitary class on the cold-side adiabat")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("cycle", add_help=False,
                        help="simulate a staircase Carnot-like cycle (JSON)")
    _add_common(sp)
    _add_betas(sp)
    _add_corners(sp)
    sp.add_argument("--steps", type=int, default=None,
                    help="micro-steps per isotherm (default 1000)")
    sp.set_defaults(func=cmd_cycle)

    sp = sub.add_parser("gs-deg", add_help=False,
                        help="chain ground-state energy and degeneracy (JSON)")
    _add_common(sp)
    sp.add_argument("-N", dest="n", type=int, default=None, help="chain length")
    sp.add_argument("-J", dest="j", type=float, default=None, help="coupling")
    sp.add_argument("-h", dest="field", type=float, default=None,
                    help="magnetic field")
    sp.set_defaults(func=cmd_gs_deg)

    sp = sub.add_parser("control", add_help=False,
                        help="Lie-algebra class of drift + local controls (JSON)")
    _add_common(sp)
    sp.add_argument("--model", default=None,
                    choices=("heisenberg-chain", "ising-chain"),
                    help="drift Hamiltonian family")
    sp.add_argument("-N", dest="n", type=int, default=None, help="chain length")
    sp.add_argument("-J", dest="j", type=float, default=None,
                    help="drift coupling strength")
    sp.add_argument("--controls", action="append", default=None,
                    metavar="SPEC", help="control spec like site0:x,z; repeatable")
    sp.set_defaults(func=cmd_control)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; pass both through
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        config = _load_config(args.config)
        _check_threads(args, config)
        return args.func(args, config)
    except UndefinedResultError as exc:
        print(f"spinengine: undefined result: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except ValueError as exc:
        print(f"spinengine: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"spinengine: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
