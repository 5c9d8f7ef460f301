"""spinengine benchmark: CLI workloads end to end, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload limits --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py``) is a list of CLI invocations made
from the seed.  They go one after another to ``spinengine.cli.main`` in
this process: a closed loop with one client, stdout captured, the CLI's
default thread count.  Every invocation runs once in workload order, then
rounds repeat the ones that fit in ``--seconds``; each invocation's time
is the median of its samples and a pass is their sum.  Every output is
then checked by an independent oracle (``oracles.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass (with probes of the subcommands the
workload does not run), then fixed-size layer timings, and reports the
per-layer metrics, per-subcommand times included.  The last stdout line
is the JSON result; the lines before it record the environment, run
notes, every metric with its unit, and any failed operations.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

# One OpenBLAS thread, set before numpy loads.  With two, on a shared
# 2-CPU machine, a 64 x 64 eigh takes 15 ms or 480 ms at random (the
# second thread waits to be scheduled), which drowns every engine timing.
# The CLI's own --threads default is left alone.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import micro as micro_timings  # noqa: E402
import workloads  # noqa: E402
from oracles import OK, WRONG, Checker  # noqa: E402
from tracing import Tracer, targets, union_length  # noqa: E402

MODULES = ("cli", "control", "engine", "hamiltonians", "ising", "kernels",
           "protocols", "thermo")
SETUP_SAMPLES = 24
SHORT_S, SHORT_SAMPLED_S, MIN_SAMPLES, MAX_SAMPLES = 1.0, 1.0, 3, 30
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); from spinengine.cli import main; "
              "sys.exit(main(['gs-deg', '-N', '4']))")
SETUP_INV = workloads.Invocation("gs-deg", ("gs-deg", "-N", "4"), 1)


def import_program(root: Path) -> dict:
    """Import spinengine from ``root/src``, and from nowhere else."""
    src = root / "src"
    if not (src / "spinengine" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {src / 'spinengine'} not found; "
                         "run from the root of a spinengine checkout")
    sys.path.insert(0, str(src))
    se = {name: importlib.import_module(f"spinengine.{name}") for name in MODULES}
    origin = Path(se["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported spinengine from {origin}, not {src}")
    se["targets"] = targets(se)
    return se


class Result(NamedTuple):
    inv: workloads.Invocation
    rc: int
    stdout: str
    seconds: float


def run_pass(main, invocations, tracer=None):
    """Run the invocations back to back; returns (results, wall, cli self time)."""
    results, cli_self = [], 0.0
    begin = time.perf_counter()
    for inv in invocations:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(inv.argv))
        end = time.perf_counter()
        results.append(Result(inv, rc, out.getvalue(), end - start))
        if tracer is not None:
            cli_self += (end - start) - union_length(tracer.take_intervals(), start, end)
    return results, time.perf_counter() - begin, cli_self


def _wants_sample(times, spent: float, seconds: float) -> bool:
    estimate = statistics.median(times)
    if len(times) >= MAX_SAMPLES:
        return False
    if estimate < SHORT_S and (len(times) < MIN_SAMPLES or sum(times) < SHORT_SAMPLED_S):
        return True
    return spent + estimate <= seconds


def sample_invocations(main, invocations, seconds: float, progress):
    """Time every invocation once, in workload order, then repeat rounds
    of the invocations that still fit in ``seconds`` of measured time.

    Invocations shorter than ``SHORT_S`` get at least ``MIN_SAMPLES``
    timings adding up to ``SHORT_SAMPLED_S``, even past the budget: on a
    shared 2-CPU machine one call of 50 ms can take twice as long as the
    next.  ``progress`` is called with the share of the budget spent
    after every timing.  Returns the timings per invocation, the results
    of the first pass and those of the later samples.
    """
    first = run_pass(main, invocations)[0]
    samples = [[r.seconds] for r in first]
    spent = sum(r.seconds for r in first)
    progress(spent / seconds)
    later = []
    while True:
        ran = False
        for inv, times in zip(invocations, samples):
            if _wants_sample(times, spent, seconds):
                result = run_pass(main, [inv])[0][0]
                times.append(result.seconds)
                later.append(result)
                spent += result.seconds
                progress(spent / seconds)
                ran = True
        if not ran:
            return samples, first, later


class Tally:
    """Checks every result, and counts the operations of one pass.

    ``correct`` turns false on any ``WRONG`` verdict in any checked
    result, timing samples included.  ``attempted``, ``failed`` and
    ``ok_frac`` come from the counted pass only, so they do not depend on
    how many samples a run took.  ``ok_frac`` is the mean over
    invocations of each one's share of OK operations: an invocation of 5
    rows weighs as much as one of 4503.
    """

    def __init__(self, checker):
        self.checker = checker
        self.counted = Counter()   # verdict -> operations in the counted pass
        self.ok_shares = []        # per counted invocation
        self.failures = Counter()  # (verdict, argv) -> count
        self.wrong = 0

    def add(self, results, counted: bool = False) -> None:
        for r in results:
            verdicts = self.checker.check(r.inv, r.rc, r.stdout)
            self.wrong += sum(v in WRONG for v in verdicts)
            for v in verdicts:
                if v != OK and (counted or v in WRONG):
                    self.failures[(v, " ".join(r.inv.argv))] += 1
            if counted:
                self.counted.update(verdicts)
                self.ok_shares.append(verdicts.count(OK) / len(verdicts))

    @property
    def attempted(self) -> int:
        return sum(self.counted.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counted[OK]

    @property
    def ok_frac(self) -> float:
        return statistics.fmean(self.ok_shares)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


class Setup:
    """Wall times of fresh interpreters that import the CLI and answer
    ``gs-deg -N 4``, taken a few at a time between the timing samples so
    that they span the whole run.  One unmeasured run first writes the
    bytecode caches, which a user's later runs find warm as well."""

    def __init__(self, root: Path, tally: Tally):
        self.root, self.tally, self.samples = root, tally, []
        self._run()

    def _run(self) -> float:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=self.root,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        self.tally.add([Result(SETUP_INV, proc.returncode, proc.stdout, elapsed)])
        return elapsed

    def keep_up(self, share: float) -> None:
        """Sample until ``share`` of the ``SETUP_SAMPLES`` are taken."""
        while len(self.samples) < SETUP_SAMPLES * min(share, 1.0):
            self.samples.append(self._run())


def _blas_threads():
    """Threads OpenBLAS will use, read from the loaded library when possible."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,  # None when the checkout is not a git repository
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cli_threads": os.cpu_count() or 1,  # the CLI's --threads default
        "seed": seed,
    }


def _warm_up(main) -> None:
    """Run the cheap probes once, unmeasured and unchecked (the passes run
    and check them again), so that lazy imports and first-call set-up
    inside numpy do not land in the untraced pass and shrink the apparent
    tracing overhead."""
    run_pass(main, [inv for inv in workloads.probes().values() if inv.cmd != "sweep-j-free"])


def end_to_end(se, root: Path, workload: str, seed: int, seconds: float):
    main, checker = se["cli"].main, Checker()
    tally = Tally(checker)
    invocations = workloads.build(workload, seed)
    setup = Setup(root, tally)

    samples, first, later = sample_invocations(main, invocations, seconds, setup.keep_up)
    setup.keep_up(1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.add(first, counted=True)  # after the RSS reading: oracles allocate too
    tally.add(later)

    medians = [statistics.median(times) for times in samples]
    metrics = {"setup_s": (statistics.median(setup.samples), "s"),
               "wall_s": (sum(medians), "s"),
               "peak_rss_mb": (peak_rss_mb, "MB"),
               "ok_frac": (tally.ok_frac, "frac")}
    notes = {"cmd_s": _per_command(invocations, medians),
             "samples_s": [[round(t, 4) for t in times] for times in samples],
             "setup_samples_s": [round(t, 4) for t in setup.samples],
             "measured_s": sum(map(sum, samples))}
    return metrics, tally, notes


def _per_command(invocations, seconds) -> dict:
    """Summed time of each subcommand's invocations, by metric name."""
    totals = {}
    for inv, t in zip(invocations, seconds):
        totals[inv.cmd] = totals.get(inv.cmd, 0.0) + t
    return {f"cmd.{cmd}.s": totals[cmd] for cmd in workloads.COMMANDS if cmd in totals}


def per_layer(se, workload: str, seed: int):
    main, checker = se["cli"].main, Checker()
    tally = Tally(checker)
    invocations = workloads.build(workload, seed)
    invocations += workloads.missing_probes(invocations)
    _warm_up(main)

    plain, wall_plain, _ = run_pass(main, invocations)
    tracer = Tracer(se["targets"])
    tracer.install()
    try:
        traced, wall_traced, cli_self = run_pass(main, invocations, tracer)
    finally:
        tracer.uninstall()
    tally.add(plain, counted=True)
    tally.add(traced)
    micro = micro_timings.run(se, Tracer)

    calls, secs, stats = tracer.calls, tracer.seconds, tracer.stats
    passes = stats["engine.run_cycle.passes"]
    metrics = {
        "ising.core.calls": (calls["ising.core"], "count"),
        "ising.core.elems": (stats["ising.core.elems"], "count"),
        "ising.core.s": (secs["ising.core"], "s"),
        "ising.nonfinite": (stats["ising.nonfinite"], "count"),
        "kernels.configs": (stats["kernels.configs"], "count"),
        "kernels.s": (secs["kernels.ising_energies"] + secs["kernels.ground_state_stats"], "s"),
        "kernels.bytes_computed": (stats["kernels.bytes_computed"], "bytes"),
        "thermo.energy.calls": (calls["thermo.energy"], "count"),
        "thermo.energy.s": (secs["thermo.energy"], "s"),
        "thermo.density_state.calls": (calls["thermo.density_state"], "count"),
        "engine.apply_step.calls": (calls["engine.apply_step"], "count"),
        "engine.run_cycle.passes": (passes, "count"),
        "engine.run_cycle.s": (secs["engine.run_cycle"], "s"),
        "control.span_add.calls": (calls["control.span_add"], "count"),
        "control.span_add.s": (secs["control.span_add"], "s"),
        "control.span_add.accept_frac": (
            stats["control.span_add.accepted"] / max(calls["control.span_add"], 1), "frac"),
        **{name: (t, "s") for name, t in
           _per_command(invocations, [r.seconds for r in plain]).items()},
        "cli.self_s": (cli_self, "s"),
        "cli.invocations": (len(invocations), "count"),
        "trace.overhead_s": (wall_traced - wall_plain, "s"),
    }
    metrics.update(micro)
    spans = {name: {"calls": calls[name], "s": round(secs[name], 6)} for name in sorted(calls)}
    notes = {"wall_s_untraced": wall_plain, "wall_s_traced": wall_traced, "spans": spans}
    return metrics, tally, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    se = import_program(root)
    env = environment(root, args.seed)
    if args.trace:
        metrics, tally, notes = per_layer(se, args.workload, args.seed)
    else:
        metrics, tally, notes = end_to_end(se, root, args.workload, args.seed, args.seconds)

    print("# env " + json.dumps(env, sort_keys=True))
    print("# notes " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload:8s} {name:48s} {value:>16.6g} {unit}")
    for (verdict, argv_text), count in sorted(tally.failures.items()):
        print(f"# failed {count:4d} x {verdict:9s} {argv_text}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
