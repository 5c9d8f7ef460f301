"""Command-line driver: sweeps to CSV, one-shot queries to JSON lines.

Subcommands
    sweep-j        efficiency at maximum work density vs J  (CSV)
    precision      finite-chain efficiency with a field floor  (CSV)
    optimal-field  optimal corner field vs J per temperature  (CSV)
    bound          four-corner efficiency bound  (JSON)
    cycle          simulate a staircase Carnot-like cycle  (JSON)
    gs-deg         chain ground-state energy and degeneracy  (JSON)
    control        Lie-algebra class of a drift + local controls  (JSON)

Parameters: each flag is declared once, in ``_COMMANDS``, with its type,
its per-subcommand default and its help text; ``--help`` prints the
defaults.  ``--config file.json`` holds a JSON object of parameters keyed
by the flags' metavars in lower case (``beta_h`` for ``--beta-h``, ``n``
for ``-N``, ``field`` for ``gs-deg -h``).  Each entry is parsed by its
flag's own argparse action, so it is accepted or refused as the flag
would be; a repeatable flag takes a JSON list.  A flag on the command
line replaces its entry, lists included.  A key that no subcommand takes
exits 2, a key that only other subcommands take is ignored (one file can
serve several), and ``config`` and ``output`` are command-line only.

``main`` can be called many times in one process; the parse tree is built
on the first call and reused.

Exit codes: 0 success, 2 bad configuration, 3 I/O failure, 4 undefined
result (for example a non-positive bound denominator).

Determinism contract: identical invocations produce byte-identical
output.  Floats are printed as their shortest round-trip decimal, CSV
is UTF-8 with "\n" line endings, the header row comes first, and the
second line echoes the resolved parameters as canonical JSON in a
comment ``# params: {...}``.  Grid points are evaluated on one thread,
in a fixed order that depends only on the arguments (the field search
visits them level by level, see ``gridsearch``); ``--threads`` is still
accepted and validated but has no effect.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import NamedTuple

from . import control as control_lib
from . import ising, protocols
from .engine import (Betas, BoundInputs, UndefinedResultError, bound_terms,
                     carnot_like_cycle, efficiency_bound, run_cycle)
from .hamiltonians import ising_diagonals

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_UNDEFINED = 4

# most bytes of staircase tables a ``cycle`` may compute, 2 * steps * 2^N
# float64 entries: its isotherms hold only a block of steps at a time, so
# the cap bounds the run time, not the memory
_STAIRCASE_BYTES_MAX = 2 << 30
# most couplings on a --j-min/--j-max/--j-step grid: far above the grids in
# use (3001 values)
_J_VALUES_MAX = 1_000_000


class ConfigError(ValueError):
    """Invalid flag or config-file value; maps to exit code 2."""


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


def _emit_csv(path, header: str, params: dict, lines) -> None:
    """Write the CSV header, the params comment and the data lines, each
    already formatted."""
    _write_text(path, "\n".join([header, "# params: " + _canonical_json(params), *lines]) + "\n")


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
# subcommands; ``args`` holds every parameter of the subcommand, resolved


def _params(args) -> dict:
    """The subcommand's parameters, as every output echoes them."""
    return {"command": args.subcommand,
            **{flag.dest: getattr(args, flag.dest) for flag in _COMMANDS[args.subcommand][2]}}


def _j_values(args) -> list[float]:
    if args.j_max < args.j_min:
        raise ConfigError("--j-max must not be below --j-min")
    span = (args.j_max - args.j_min) / args.j_step
    # refused as a float, before any list exists: the span may even be inf
    if not span < _J_VALUES_MAX:
        raise ConfigError(f"--j-step {args.j_step!r} makes more than {_J_VALUES_MAX} "
                          "couplings from --j-min to --j-max; raise --j-step")
    count = int(math.floor(span + 1e-9)) + 1
    return [args.j_min + k * args.j_step for k in range(count)]


def cmd_sweep_j(args) -> int:
    betas = Betas(args.beta_h, args.beta_c)
    rows = protocols.sweep_j(_j_values(args), betas, args.mode)
    _emit_csv(args.output, "J,h_opt,work_density,efficiency,mode", _params(args),
              (",".join(map(_cell, row)) for row in rows))
    return EXIT_OK


def cmd_precision(args) -> int:
    betas = Betas(args.beta_h, args.beta_c)
    if not args.epsilon:
        raise ConfigError("--epsilon list must not be empty")
    points = protocols.chain_sweep(args.n, _j_values(args), betas, args.epsilon,
                                   grid_step=args.grid_step)
    _emit_csv(args.output, "J,epsilon,efficiency", _params(args),
              (",".join(map(_cell, (p.j, p.epsilon, p.efficiency))) for p in points))
    return EXIT_OK


def cmd_optimal_field(args) -> int:
    js = _j_values(args)
    h_opt = ising.optimal_field([[b] for b in args.beta], js).tolist()
    # each beta and J cell is formatted once, not once per row
    j_cells = [_cell(j) for j in js]
    lines = [f"{b},{j},{h!r}" for b, h_row in zip(map(_cell, args.beta), h_opt)
             for j, h in zip(j_cells, h_row)]
    _emit_csv(args.output, "beta,J,h_opt", _params(args), lines)
    return EXIT_OK


def _corner_tables(args):
    """Energy tables at corners A to D, after filling in the derived fields."""
    # default corners follow the Carnot construction: the quenches scale
    # the field by the temperature ratio so no relative entropy is paid,
    # and the cold corner sits at the stronger reduced field beta*h so
    # the hot contact is the entropy-gaining one.
    if args.h_c is None:
        args.h_c = (args.beta_h / args.beta_c) * args.h_b
    if args.h_d is None:
        args.h_d = 2.0 * args.h_b
    if args.h_a is None:
        args.h_a = (args.beta_c / args.beta_h) * args.h_d
    return ising_diagonals(args.n, args.j, (args.h_a, args.h_b, args.h_c, args.h_d))


def cmd_bound(args) -> int:
    betas = Betas(args.beta_h, args.beta_c)
    terms = bound_terms(BoundInputs(*_corner_tables(args), betas,
                                    u=args.u_class, v=args.v_class))
    report = {**_params(args), "delta_s": terms.delta_s, "d_u": terms.d_u,
              "d_v": terms.d_v, "eta_bound": terms.efficiency(betas),
              "carnot": betas.carnot}
    _emit_json(args.output, report)
    return EXIT_OK


def cmd_cycle(args) -> int:
    betas = Betas(args.beta_h, args.beta_c)
    staircase_bytes = (2 * args.steps * 8) << args.n
    if staircase_bytes > _STAIRCASE_BYTES_MAX:
        raise ConfigError(f"-N {args.n} --steps {args.steps} computes {staircase_bytes} bytes "
                          f"of staircase tables, above the {_STAIRCASE_BYTES_MAX}-byte cap; "
                          "lower --steps or -N")
    c_a, c_b, c_c, c_d = _corner_tables(args)
    protocol = carnot_like_cycle(c_d, c_a, c_b, c_c, betas, args.steps)
    report_obj = run_cycle(c_d, protocol, betas)
    try:
        eta_bound = efficiency_bound(BoundInputs(c_a, c_b, c_c, c_d, betas))
    except UndefinedResultError:
        # the cycle still ran; report it with the comparison left blank
        eta_bound = None
    # "steady" is always true: run_cycle stops at the steady cycle, which the
    # protocol's thermal contacts reach within two passes
    report = {**_params(args), "total_work": report_obj.total_work,
              "heat_hot": report_obj.heat_hot, "heat_cold": report_obj.heat_cold,
              "efficiency": report_obj.efficiency, "steady": True,
              "n_passes": report_obj.n_passes,
              "energy_closure": report_obj.energy_closure,
              "eta_bound": eta_bound, "carnot": betas.carnot}
    _emit_json(args.output, report)
    return EXIT_OK


def cmd_gs_deg(args) -> int:
    g0, e0 = ising.ground_state_degeneracy(args.n, args.j, args.field)
    report = {"command": "gs-deg", "n": args.n, "j": args.j, "h": args.field,
              "e0": float(e0), "g0": int(g0)}
    _emit_json(args.output, report)
    return EXIT_OK


def _parse_controls(specs, n: int):
    """Parse repeatable ``site<k>:<axes>`` control specs, e.g. site0:x,z;
    :func:`control.site_controls` checks the site and the axes."""
    ops, parsed = [], []
    for spec in specs:
        match = re.fullmatch(r"site(\d+):(.*)", spec.strip().lower())
        if match is None:
            raise ConfigError(f"--controls entry {spec!r} must look like site0:x,z")
        site, axes = int(match[1]), [a.strip() for a in match[2].split(",")]
        try:
            ops.extend(control_lib.site_controls(n, site, axes))
        except ValueError as exc:
            raise ConfigError(f"--controls entry {spec!r}: {exc}") from None
        parsed.append(f"site{site}:" + ",".join(axes))
    return ops, parsed


def cmd_control(args) -> int:
    if args.model == "heisenberg-chain":
        drift = control_lib.heisenberg_chain_drift(args.n, args.j)
    else:
        drift = control_lib.ising_chain_drift(args.n, args.j)
    controls, args.controls = _parse_controls(args.controls, args.n)
    gens = control_lib.GeneratorSet(drift=drift, controls=tuple(controls))
    result = control_lib.classify_unitary_class(gens)
    # "stabilized" is always true: the closure runs to its fixed point
    report = {**_params(args), "class": result.kind,
              "dim": result.dimension, "stabilized": True}
    _emit_json(args.output, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parameters: each flag declared once, for the command line and --config


class _Flag(NamedTuple):
    names: tuple      # option strings
    dest: str         # attribute on ``args`` and key in a --config file
    default: object   # None: required, or derived by the subcommand; a tuple
                      # for a repeatable flag, so no call can change it
    help: str
    kwargs: dict      # further argparse keywords: type, choices, action, ...


def _flag(*names, help, default=None, dest=None, **kwargs) -> _Flag:
    return _Flag(names, dest or names[-1].lstrip("-").replace("-", "_"),
                 default, help, kwargs)


def _checked(convert, ok, message):
    """argparse type: ``convert`` the text, then refuse a value failing ``ok``."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _chain_length(default, lo=1, hi=24, why=""):
    return _flag("-N", dest="n", default=default, help=f"chain length ({lo} to {hi})",
                 type=_checked(int, lambda n: lo <= n <= hi,
                               f"-N must be between {lo} and {hi}{why}"))


def _finite(name):
    return _checked(float, math.isfinite, f"{name} must be finite")


def _j_grid(lo, hi, step):
    return (_flag("--j-min", default=lo, type=_finite("--j-min"),
                  help="first coupling of the grid"),
            _flag("--j-max", default=hi, type=_finite("--j-max"),
                  help="last coupling of the grid"),
            _flag("--j-step", default=step, help="coupling grid spacing",
                  type=_checked(float, lambda x: x > 0, "--j-step must be positive")))


def _inverse_temperature(name):
    return _checked(float, lambda b: 0 < b < math.inf, f"{name} must be positive and finite")


_BETAS = (_flag("--beta-h", default=0.5, type=_inverse_temperature("--beta-h"),
                help="hot inverse temperature"),
          _flag("--beta-c", default=1.0, type=_inverse_temperature("--beta-c"),
                help="cold inverse temperature"))
_GRID_STEP = _flag("--grid-step", default=1e-2,
                   type=_checked(float, lambda x: 0 < x < math.inf,
                                 "--grid-step must be positive and finite"),
                   help="field grid spacing of the antiferromagnetic ring search "
                        "(precision); sweep-j solves its optimum and only echoes it")
_CLASSES = ("identity", "commuting", "full")
_CORNERS = (
    _chain_length(2), _flag("-J", dest="j", default=0.0, type=float, help="coupling"),
    _flag("--h-a", type=float, help="field at corner A (default: h_d scaled by beta_c/beta_h)"),
    _flag("--h-b", default=1.0, type=float, help="field at corner B"),
    _flag("--h-c", type=float, help="field at corner C (default: h_b scaled by beta_h/beta_c)"),
    _flag("--h-d", type=float, help="field at corner D (default: 2 h_b)"),
)
# every subcommand takes these three; only --threads may come from a config file
_CLI_ONLY = (_flag("--config", metavar="JSON",
                   help="JSON object of parameters keyed by the other flags' metavars "
                        "in lower case (beta_h, n, ...); a flag replaces its entry"),
             _flag("-o", "--output", metavar="PATH", help="output file (default: stdout)"))
_THREADS = _flag("--threads", default=1,
                 type=_checked(int, lambda t: t >= 1, "--threads must be at least 1"),
                 help="accepted for compatibility; has no effect")

# subcommand -> (handler, summary, the parameters its output echoes)
_COMMANDS = {
    "sweep-j": (cmd_sweep_j, "efficiency at maximum work density vs J (CSV)", (
        *_BETAS, *_j_grid(-5.0, 5.0, 0.1),
        _flag("--mode", default=protocols.PAPER_PROTOCOL,
              choices=(protocols.PAPER_PROTOCOL, protocols.FREE_FIELDS),
              help="corner-field family: matched quench or free fields"),
        _GRID_STEP)),
    "precision": (cmd_precision, "finite-chain efficiency with a field floor (CSV)", (
        *_BETAS, *_j_grid(0.0, 20.0, 0.5), _chain_length(6, hi=10 ** 9),
        _flag("--epsilon", action="append",
              type=_checked(float, lambda e: 0 <= e < math.inf,
                            "--epsilon values must be nonnegative and finite"),
              help="field floor; repeat for several curves (at least one)"),
        _GRID_STEP)),
    "optimal-field": (cmd_optimal_field, "optimal corner field vs J per temperature (CSV)", (
        _flag("--beta", action="append", default=(1.0, 2.0, 3.0),
              type=_inverse_temperature("--beta values"),
              help="inverse temperature; repeat for several curves"),
        *_j_grid(-3.0, 0.0, 0.01))),
    "bound": (cmd_bound, "four-corner efficiency bound (JSON)", (
        *_BETAS, *_CORNERS,
        _flag("--u-class", default="identity", choices=_CLASSES,
              help="unitary class on the hot-side adiabat"),
        _flag("--v-class", default="identity", choices=_CLASSES,
              help="unitary class on the cold-side adiabat"))),
    "cycle": (cmd_cycle, "simulate a staircase Carnot-like cycle (JSON)", (
        *_BETAS, *_CORNERS,
        _flag("--steps", default=1000,
              type=_checked(int, lambda s: s >= 1, "--steps must be at least 1"),
              help="micro-steps per isotherm"))),
    "gs-deg": (cmd_gs_deg, "chain ground-state energy and degeneracy (JSON)", (
        _chain_length(8), _flag("-J", dest="j", default=-1.0, type=float, help="coupling"),
        _flag("-h", dest="field", default=2.0, type=float, help="magnetic field"))),
    "control": (cmd_control, "Lie-algebra class of drift + local controls (JSON)", (
        _flag("--model", default="heisenberg-chain",
              choices=("heisenberg-chain", "ising-chain"), help="drift Hamiltonian family"),
        _chain_length(2, 2, 6, " (closure is O(d^4))"),
        _flag("-J", dest="j", default=1.0, type=float, help="drift coupling strength"),
        _flag("--controls", action="append", default=("site0:x,z",),
              help="control spec like site0:x,z; repeatable"))),
}
_CONFIG_KEYS = {_THREADS.dest, *(flag.dest for _, _, flags in _COMMANDS.values()
                                  for flag in flags)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # raise rather than exit, so a refused config entry can be named
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parse tree, built once per process: argparse keeps no parse state
    on it, and --help reads the terminal width when it prints."""
    parser = _Parser(
        prog="spinengine",
        description="Spin-chain work-extraction engines: sweeps and queries.")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")
    # argparse's own pattern takes a negative number with an exponent
    # (-J -1e-05) for an option; this one adds the exponent
    negative_number = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")
    for name, (_, summary, flags) in _COMMANDS.items():
        # every subparser opts out of the automatic -h so that gs-deg can use
        # -h for the magnetic field; --help stays available everywhere.
        sp = sub.add_parser(name, add_help=False, help=summary)
        sp._negative_number_matcher = negative_number
        sp.add_argument("--help", action="help", help="show this help message and exit")
        for flag in (*_CLI_ONLY, _THREADS, *flags):
            shown = flag.default
            if isinstance(shown, tuple):
                shown = " ".join(map(str, shown))
            text = flag.help if shown is None else f"{flag.help} (default: {shown})"
            sp.add_argument(*flag.names, dest=flag.dest, help=text, **flag.kwargs)
    return parser


def _apply_config(args, flags) -> None:
    """Set each parameter the command line left out from its --config entry,
    parsed by the flag's own argparse action."""
    path = args.config
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--config {path}: invalid JSON ({exc})")
    if not isinstance(config, dict):
        raise ConfigError(f"--config {path}: top level must be a JSON object")
    by_key = {flag.dest: flag for flag in flags}
    for key, value in config.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"--config {path}: unknown key {key!r}")
        flag = by_key.get(key)
        if flag is None or getattr(args, key) is not None:
            continue  # another subcommand's parameter, or given as a flag
        listed = flag.kwargs.get("action") == "append"
        if isinstance(value, list) != listed:
            raise ConfigError(f"--config {path}: {key!r} must be "
                              + ("a JSON list" if listed else "a single value"))
        # "--flag=value" keeps a value such as -1e-05 from reading as a flag
        tokens = [f"{flag.names[-1]}={v if isinstance(v, str) else json.dumps(v)}"
                  for v in (value if listed else [value])]
        try:
            setattr(args, key, getattr(build_parser().parse_args([args.subcommand, *tokens]), key))
        except ConfigError as exc:
            raise ConfigError(f"--config {path}: {key!r}: {exc}") from None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler, _, flags = _COMMANDS[args.subcommand]
        flags = (_THREADS, *flags)
        if args.config is not None:
            _apply_config(args, flags)
        for flag in flags:
            if getattr(args, flag.dest) is None:
                setattr(args, flag.dest, flag.default)
        return handler(args)
    except SystemExit as exc:
        # only --help exits the parser; error() raises ConfigError instead
        return exc.code
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
