"""Seeded CLI invocations for each benchmark workload.

A workload is a list of ``Invocation``s: the argv handed to
``spinengine.cli.main`` plus the number of operations its output should
hold (one per CSV data row, one per JSON report).  Only these argv lists
reach the program; the seed never does.

The traced run also sends one fixed-size *probe* of each subcommand a
workload does not otherwise run, so that every per-subcommand timing
(``cmd.<subcommand>.s``) exists on every workload.  Probes run with
``--threads 1``: a small sweep on the default two-thread pool spends its
time handing the interpreter lock back and forth, and its timing then
varies by a factor of three from one call to the next.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

WORKLOADS = ("limits", "chains", "cycles")

# metric key of every subcommand, in report order
COMMANDS = ("sweep-j", "sweep-j-free", "optimal-field", "precision",
            "gs-deg", "cycle", "bound", "control")

class Invocation(NamedTuple):
    cmd: str          # metric key, one of COMMANDS
    argv: tuple       # arguments for spinengine.cli.main
    ops: int          # operations the output must hold


def _num(x: float) -> str:
    # repr round-trips, so the CLI parses exactly the generated value
    return repr(float(x))


def _grid_count(lo: float, hi: float, step: float) -> int:
    # same count rule as the CLI's --j-min/--j-max/--j-step grid
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def _sweep(lo, hi, step, beta_h, beta_c, mode="paper", extra=()) -> Invocation:
    argv = ["sweep-j", "--j-min", _num(lo), "--j-max", _num(hi),
            "--j-step", _num(step), "--beta-h", _num(beta_h),
            "--beta-c", _num(beta_c), *extra]
    if mode == "free":
        argv += ["--mode", "free"]
    cmd = "sweep-j-free" if mode == "free" else "sweep-j"
    return Invocation(cmd, tuple(argv), _grid_count(lo, hi, step))


def _control(n: int, j: float, specs) -> Invocation:
    argv = ["control", "--model", "heisenberg-chain", "-N", str(n), "-J", _num(j)]
    for spec in specs:
        argv += ["--controls", spec]
    return Invocation("control", tuple(argv), 1)


def probes() -> dict:
    """One fixed-size invocation per subcommand (no seed involved), each
    taking 0.15 to 0.65 s."""
    one = ("--threads", "1")
    return {
        "sweep-j": _sweep(-2.0, 2.0, 0.2, 0.5, 1.0, extra=one),
        "sweep-j-free": _sweep(0.5, 0.5, 1.0, 0.5, 1.0, mode="free", extra=one),
        "optimal-field": Invocation(
            "optimal-field", ("optimal-field", "--j-min", "-6.0", "--j-max", "0.0",
                              "--j-step", "0.002", *one), 3 * _grid_count(-6.0, 0.0, 0.002)),
        "precision": Invocation(
            "precision", ("precision", "-N", "10", "--epsilon", "0.1", "--j-min", "0.0",
                          "--j-max", "6.0", "--j-step", "2.0", *one), 4),
        "gs-deg": Invocation("gs-deg", ("gs-deg", "-N", "22", "-J", "-1.0", "-h", "0.0"), 1),
        "cycle": Invocation("cycle", ("cycle", "-N", "4", "--steps", "300"), 1),
        "bound": Invocation("bound", ("bound", "-N", "8", "--u-class", "full",
                                      "--v-class", "full"), 1),
        "control": _control(3, 1.0, ["site0:x,z"]),
    }


def _limits(rng: random.Random) -> list:
    b_h, b_c = rng.uniform(0.4, 0.6), rng.uniform(0.8, 1.4)
    shift = rng.uniform(0.0, 0.1)
    # strong-coupling window: beta_c*J crosses ~186 between the rows at
    # J ~ 150 and J ~ 200, which is where the h = 0 underflow in
    # ising._core turns rows into nan (seven rows, J >= 200, fail)
    s_h, s_c = rng.uniform(0.4, 0.6), rng.uniform(0.95, 1.05)
    s_shift = rng.uniform(0.0, 5.0)
    f_h, f_c = rng.uniform(0.4, 0.6), rng.uniform(0.8, 1.4)
    f_shift = rng.uniform(0.0, 0.25)
    return [
        _sweep(-5.0 + shift, 5.0 + shift, 0.1, b_h, b_c),
        _sweep(-500.0 + s_shift, 500.0 + s_shift, 50.0, s_h, s_c),
        _sweep(0.0 + f_shift, 2.0 + f_shift, 0.5, f_h, f_c, mode="free"),
        # the default betas and J range on a 5x finer grid: at the default
        # 0.01 step the call takes ~60 ms, and on the two-thread pool its
        # median moved by 40% from one run to the next
        Invocation("optimal-field", ("optimal-field", "--j-step", "0.002"),
                   3 * _grid_count(-3.0, 0.0, 0.002)),
    ]


def _chains(rng: random.Random) -> list:
    # N = 20: h = 0 doublet (ferro or Neel); N = 21: frustrated odd
    # antiferromagnetic ring (2N ground states); N = 22: generic (J, h)
    j20 = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0)
    j21 = -rng.uniform(0.5, 2.0)
    j22, h22 = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0), rng.uniform(0.1, 3.0)
    out = [Invocation("precision", ("precision", "-N", "10", "--epsilon", "0",
                                    "--epsilon", "0.1", "--j-step", "2"),
                      2 * _grid_count(0.0, 20.0, 2.0))]
    for n, j, h in ((20, j20, 0.0), (21, j21, 0.0), (22, j22, h22)):
        out.append(Invocation("gs-deg", ("gs-deg", "-N", str(n), "-J", _num(j),
                                         "-h", _num(h)), 1))
    return out


def _corners(rng: random.Random) -> list:
    # below J ~ -0.55 the default corners can leave dS - D_V <= 0, where
    # the bound is undefined and the CLI rightly exits 4
    return ["-J", _num(rng.uniform(-0.4, 1.0)), "--h-b", _num(rng.uniform(0.5, 2.0))]


def _cycles(rng: random.Random) -> list:
    out = [Invocation("cycle", ("cycle", "-N", "4", "--steps", "1000", *_corners(rng)), 1),
           Invocation("cycle", ("cycle", "-N", "6", "--steps", "100", *_corners(rng)), 1)]
    for n in (2, 4, 6, 8):
        corners = _corners(rng)
        for cls in ("identity", "commuting", "full"):
            out.append(Invocation("bound", ("bound", "-N", str(n), *corners,
                                            "--u-class", cls, "--v-class", cls), 1))
    return out


_BUILDERS = {"limits": _limits, "chains": _chains, "cycles": _cycles}


def build(workload: str, seed: int) -> list:
    """Invocations of one pass of the workload."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def missing_probes(invocations) -> list:
    """Probes of the subcommands that ``invocations`` do not run."""
    covered = {inv.cmd for inv in invocations}
    return [inv for cmd, inv in probes().items() if cmd not in covered]


def smoke(workload: str, seed: int) -> list:
    """Small version of a workload for the self-test: same subcommands,
    tiny grids and chains, and one strong-coupling row that hits the
    known nan."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "limits":
        s_h, s_c = rng.uniform(0.4, 0.6), rng.uniform(0.95, 1.05)
        return [_sweep(-1.0, 1.0, 0.5, 0.5, 1.0),
                _sweep(150.0, 400.0, 250.0, s_h, s_c),
                probes()["sweep-j-free"],
                Invocation("optimal-field", ("optimal-field", "--j-min", "-1.0",
                                             "--j-max", "0.0", "--j-step", "0.1"),
                           3 * _grid_count(-1.0, 0.0, 0.1))]
    if workload == "chains":
        return [Invocation("precision", ("precision", "-N", "6", "--epsilon", "0",
                                         "--epsilon", "0.1", "--j-max", "4", "--j-step", "2"),
                           6),
                Invocation("gs-deg", ("gs-deg", "-N", "9", "-J", "-1.25", "-h", "0"), 1),
                Invocation("gs-deg", ("gs-deg", "-N", "10", "-J", "0.7", "-h", "1.3"), 1)]
    return [Invocation("cycle", ("cycle", "-N", "2", "--steps", "50", *_corners(rng)), 1),
            Invocation("bound", ("bound", "-N", "3", *_corners(rng),
                                 "--u-class", "full", "--v-class", "full"), 1)]
