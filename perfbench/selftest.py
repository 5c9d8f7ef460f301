"""Self-test of the benchmark: smoke-size workloads and planted faults.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that the oracles accept every smoke-size workload (the one
expected failure is the strong-ferromagnet nan row of ``limits``), that
they flag a planted nan row, a consistent but suboptimal field, a wrong
degeneracy, a broken energy closure, a wrong Lie dimension, an output
that echoes other inputs than those sent and a failing exit code, that
each of these makes the run incorrect, that the closed-form paper work
and the density-of-states oracle match independent computations, and
that the tracer restores every attribute it replaced.  Exits 1 on any
problem.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

import oracles
import run
import workloads
from oracles import EXIT, KNOWN_NAN, MISMATCH, NONFINITE, OK


def _enumerate_ground_state(n, j, h):
    spins = np.array(list(itertools.product((1, -1), repeat=n)))
    energies = -h * spins.sum(1) - j * (spins * np.roll(spins, -1, axis=1)).sum(1)
    e0 = energies.min()
    return float(e0), int(np.sum(energies <= e0 + 1e-9 * max(1.0, abs(j), abs(h))))


def _paper_work_eig(j, h, beta_h, beta_c):
    def t_log_lambda(beta):
        m = np.array([[np.exp(beta * (j + h)), np.exp(-beta * j)],
                      [np.exp(-beta * j), np.exp(beta * (j - h))]])
        return np.log(np.linalg.eigvalsh(m)[-1]) / beta
    return float(t_log_lambda(beta_h) - t_log_lambda(beta_c))


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def verdicts_of(checker, result):
    return checker.check(result.inv, result.rc, result.stdout)


def main() -> int:
    se = run.import_program(Path.cwd())
    checker = oracles.Checker()
    problems = []

    def expect(label, got, want):
        status = "ok" if got == want else "FAIL"
        print(f"{status:4s} {label}: {got}")
        if got != want:
            problems.append(f"{label}: got {got}, want {want}")

    # the density of states against plain enumeration
    for n in range(1, 15):
        _, _, g = oracles.chain_levels(n)
        expect(f"levels of N={n} count 2^N", int(sum(g)), 2 ** n)
    for n, j, h in ((7, -1.0, 0.0), (8, -1.0, 0.3), (9, 0.7, -1.1), (10, -0.4, 2.5)):
        expect(f"ground state N={n} J={j} h={h}", oracles.ground_state_reference(n, j, h),
               _enumerate_ground_state(n, j, h))
    # the closed-form paper work against the transfer matrix's eigenvalues
    for j, h in ((-2.0, 3.9), (-0.3, 0.2), (0.0, 1.0), (1.5, 0.0), (0.8, 2.5)):
        expect(f"paper work J={j} h={h} matches eigvalsh",
               _close(float(oracles.paper_work(j, h, 0.5, 1.0)), _paper_work_eig(j, h, 0.5, 1.0)),
               True)

    # smoke-size workloads through the real CLI
    main_fn = se["cli"].main
    outputs = {}
    for name in workloads.WORKLOADS:
        tally = run.Tally(checker)
        results, _, _ = run.run_pass(main_fn, workloads.smoke(name, 1))
        tally.add(results, counted=True)
        tally.add(results)  # a second sample is checked, not counted
        for r in results:
            outputs.setdefault(r.inv.cmd, r)  # the first sweep-j, not the strong one
        bad = {verdict for verdict, _ in tally.failures}
        expect(f"smoke {name}: failed kinds", sorted(bad),
               [KNOWN_NAN] if name == "limits" else [])
        expect(f"smoke {name}: failed count", tally.failed, 1 if name == "limits" else 0)
        expect(f"smoke {name}: attempted", tally.attempted, sum(r.inv.ops for r in results))
        expect(f"smoke {name}: correct", tally.correct, True)

    results, _, _ = run.run_pass(main_fn, [workloads.probes()["control"]])
    outputs["control"] = results[0]
    expect("control probe", verdicts_of(checker, results[0]), [OK])

    def verdicts(cmd, stdout, rc=0):
        return checker.check(outputs[cmd].inv, rc, stdout)

    def incorrect(cmd, stdout, rc=0):
        tally = run.Tally(checker)
        tally.add([outputs[cmd]._replace(rc=rc, stdout=stdout)])
        return not tally.correct

    # planted faults
    sweep = outputs["sweep-j"].stdout.splitlines()
    cells = sweep[2].split(",")
    cells[2] = "nan"
    planted = "\n".join(sweep[:2] + [",".join(cells)] + sweep[3:]) + "\n"
    expect("planted nan row", verdicts("sweep-j", planted)[0], NONFINITE)
    expect("planted nan row makes the run incorrect", incorrect("sweep-j", planted), True)
    cells = sweep[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    planted = "\n".join(sweep[:2] + [",".join(cells)] + sweep[3:]) + "\n"
    expect("planted work off by 1e-6", verdicts("sweep-j", planted)[0], MISMATCH)
    # a field 10% off the optimum, reported with its own consistent work
    # and efficiency: only the search over fields can tell
    se_p, params = se["protocols"], json.loads(sweep[1][len("# params: "):])
    betas = se["engine"].Betas(params["beta_h"], params["beta_c"])
    cells = max(sweep[2:], key=lambda line: float(line.split(",")[1])).split(",")
    j, h = float(cells[0]), 0.9 * float(cells[1])
    fields = se_p.ProtocolFields(float("inf"), h, h, float("inf"))
    cells[1:4] = [repr(h), repr(se_p.work_density(j, fields, betas)),
                  repr(se_p.efficiency_thermo_limit(j, fields, betas))]
    planted = "\n".join(sweep[:2] + [",".join(cells)]) + "\n"
    expect("planted suboptimal field", verdicts("sweep-j", planted)[0], MISMATCH)
    expect("crashed free sweep makes the run incorrect", incorrect("sweep-j-free", "", rc=1),
           True)

    report = json.loads(outputs["gs-deg"].stdout)
    expect("unplanted degeneracy", verdicts("gs-deg", outputs["gs-deg"].stdout), [OK])
    report["g0"] += 1
    expect("planted wrong degeneracy", verdicts("gs-deg", json.dumps(report)), [MISMATCH])
    sent = outputs["gs-deg"].inv
    argv = list(sent.argv)
    argv[argv.index("-J") + 1] = "-2.5"
    expect("argv -J not echoed", checker.check(sent._replace(argv=tuple(argv)), 0,
                                               outputs["gs-deg"].stdout), [MISMATCH])

    report = json.loads(outputs["cycle"].stdout)
    report["energy_closure"] = 1e-6
    expect("planted energy closure 1e-6", verdicts("cycle", json.dumps(report)), [MISMATCH])
    report = json.loads(outputs["cycle"].stdout)
    report["heat_cold"] += 1e-6
    expect("planted first-law gap", verdicts("cycle", json.dumps(report)), [MISMATCH])

    report = json.loads(outputs["control"].stdout)
    report["dim"] -= 1
    expect("planted wrong Lie dimension", verdicts("control", json.dumps(report)), [MISMATCH])

    expect("exit code 4", verdicts("bound", "", rc=4), [EXIT])

    # the tracer puts every original back
    before = {(id(owner), attr): getattr(owner, attr) for _, owner, attr, _ in se["targets"]}
    tracer = run.Tracer(se["targets"])
    tracer.install()
    wrapped = getattr(se["protocols"], "_core") is not before[(id(se["ising"]), "_core")]
    tracer.uninstall()
    expect("tracer wraps protocols._core", wrapped, True)
    restored = all(getattr(owner, attr) is before[(id(owner), attr)]
                   for _, owner, attr, _ in se["targets"])
    expect("tracer restores originals", restored, True)
    expect("protocols._core restored", se["protocols"]._core is se["ising"]._core, True)

    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
