"""Command-line interface: output format, determinism, exit codes."""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import spinengine
from spinengine import cli, ising, kernels
from spinengine.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_UNDEFINED, main


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[-1] == ""  # trailing newline
    header, params_line, *rows = lines[:-1]
    assert params_line.startswith("# params: ")
    params = json.loads(params_line[len("# params: "):])
    return header, params, [r.split(",") for r in rows]


def read_json(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


# --------------------------------------------------------------------------
# CSV commands


def test_sweep_csv_structure(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-j", "-o", str(out), "--j-min", "-1", "--j-max", "1",
                 "--j-step", "0.5", "--threads", "2"])
    assert code == EXIT_OK
    header, params, rows = read_csv(out)
    assert header == "J,h_opt,work_density,efficiency,mode"
    assert params["command"] == "sweep-j"
    assert params["j_step"] == 0.5
    assert len(rows) == 5
    assert all(row[4] == "paper" for row in rows)
    center = rows[2]
    assert float(center[0]) == 0.0
    assert float(center[3]) == 0.5


def test_sweep_params_line_is_canonical(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep-j", "-o", str(out), "--j-min", "0", "--j-max", "0",
          "--j-step", "1"])
    params_line = out.read_text(encoding="utf-8").split("\n")[1]
    payload = params_line[len("# params: "):]
    parsed = json.loads(payload)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == payload


def test_sweep_is_thread_count_invariant(tmp_path):
    args = ["sweep-j", "--j-min", "-2", "--j-max", "2", "--j-step", "0.5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(a), "--threads", "1"]) == EXIT_OK
    assert main(args + ["-o", str(b), "--threads", "8"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rerun_is_byte_identical(tmp_path):
    args = ["sweep-j", "--j-min", "-1", "--j-max", "0", "--j-step", "0.5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["-o", str(a)])
    main(args + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_precision_csv(tmp_path):
    out = tmp_path / "prec.csv"
    code = main(["precision", "-o", str(out), "-N", "4", "--epsilon", "0",
                 "--epsilon", "0.5", "--j-min", "0", "--j-max", "2",
                 "--j-step", "1"])
    assert code == EXIT_OK
    header, params, rows = read_csv(out)
    assert header == "J,epsilon,efficiency"
    assert params["epsilon"] == [0.0, 0.5]
    assert len(rows) == 6
    # field floor can only hurt the efficiency, J point by J point
    for k in range(3):
        assert float(rows[k + 3][2]) <= float(rows[k][2]) + 1e-12


def test_optimal_field_csv(tmp_path):
    out = tmp_path / "h.csv"
    code = main(["optimal-field", "-o", str(out), "--beta", "1",
                 "--j-min", "-1", "--j-max", "-1", "--j-step", "1"])
    assert code == EXIT_OK
    header, params, rows = read_csv(out)
    assert header == "beta,J,h_opt"
    assert len(rows) == 1
    assert rows[0][2] == repr(ising.optimal_field(1.0, -1.0))


def test_csv_goes_to_stdout_by_default(capsys):
    code = main(["optimal-field", "--beta", "2", "--j-min", "0",
                 "--j-max", "0", "--j-step", "1"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "beta,J,h_opt"
    assert lines[2] == "2.0,0.0,0.0"


# --------------------------------------------------------------------------
# JSON commands


def test_bound_json_defaults(tmp_path):
    out = tmp_path / "bound.json"
    assert main(["bound", "-o", str(out)]) == EXIT_OK
    report = read_json(out)
    assert report["command"] == "bound"
    assert report["eta_bound"] == 0.5
    assert report["carnot"] == 0.5
    assert report["d_u"] == pytest.approx(0.0, abs=1e-14)
    assert report["d_v"] == pytest.approx(0.0, abs=1e-14)
    assert report["delta_s"] > 0
    # matched-quench defaults: h_c = (beta_h/beta_c) h_b, h_a scaled from h_d
    assert report["h_c"] == pytest.approx(0.5)
    assert report["h_a"] == pytest.approx(4.0)


def test_bound_json_sorted_keys(tmp_path):
    out = tmp_path / "bound.json"
    main(["bound", "-o", str(out)])
    text = out.read_text(encoding="utf-8").rstrip("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True)


def test_cycle_json_respects_bound(tmp_path):
    out = tmp_path / "cycle.json"
    assert main(["cycle", "-o", str(out), "--steps", "200"]) == EXIT_OK
    report = read_json(out)
    assert report["steady"] is True
    assert report["energy_closure"] < 1e-9
    assert report["total_work"] > 0
    assert 0.4 < report["efficiency"] < 0.5
    assert report["efficiency"] <= report["eta_bound"] + 1e-9
    assert report["n_passes"] >= 1


def test_cycle_and_bound_run_on_tables_at_n16(tmp_path):
    # 2**16 levels: a dense operator would take 64 GiB, the tables 512 KiB
    out = tmp_path / "cycle.json"
    assert main(["cycle", "-N", "16", "--steps", "20", "-o", str(out)]) == EXIT_OK
    cycle = read_json(out)
    assert cycle["steady"] is True
    assert cycle["energy_closure"] < 1e-9
    assert cycle["efficiency"] <= cycle["eta_bound"] <= cycle["carnot"]
    assert main(["bound", "-N", "16", "--u-class", "full", "--v-class", "full",
                 "-o", str(out)]) == EXIT_OK
    bound = read_json(out)
    assert bound["n"] == 16 and bound["eta_bound"] <= bound["carnot"]


@pytest.mark.parametrize("j, h_b", [
    (0.6758858317695918, 1.0070509389481337), (-0.3623227141006672, 1.420573876514643),
    (-0.36585528742730117, 1.3774364966890704), (-0.37109089361812353, 1.452717255971364),
    (-0.3598805456830678, 1.6529716754824693), (-0.20934268624938024, 1.7156770805837507),
])
def test_full_class_bound_on_tiny_populations(tmp_path, j, h_b):
    # the smallest Gibbs populations at corner A are 1e-14 down to 1e-24,
    # and the sorted pairing puts larger corner-D populations on them
    out = tmp_path / "bound.json"
    assert main(["bound", "-N", "8", "-J", repr(j), "--h-b", repr(h_b),
                 "--u-class", "full", "--v-class", "full", "-o", str(out)]) == EXIT_OK
    report = read_json(out)

    def log_gibbs(h, beta):
        x = -beta * kernels.ising_energies(8, j, h)
        return np.sort(x - np.logaddexp.reduce(x))

    lp = log_gibbs(report["h_d"], report["beta_c"])
    lq = log_gibbs(report["h_a"], report["beta_h"])
    assert report["d_v"] == pytest.approx(float(np.sum(np.exp(lp) * (lp - lq))), abs=1e-10)


@pytest.mark.parametrize("command", ["cycle", "bound", "gs-deg", "precision"])
def test_chain_length_range(command, capsys):
    for n in ("0", "25"):
        assert main([command, "-N", n]) == EXIT_CONFIG
        assert "-N must be between 1 and 24" in capsys.readouterr().err


def test_gs_deg_json_field_flag(tmp_path):
    out = tmp_path / "gs.json"
    assert main(["gs-deg", "-o", str(out), "-N", "8", "-J", "-1", "-h", "2"]) == EXIT_OK
    report = read_json(out)
    assert report["g0"] == 47
    assert report["e0"] == -8.0


def test_control_json(tmp_path):
    out = tmp_path / "ctl.json"
    assert main(["control", "-o", str(out), "--model", "heisenberg-chain",
                 "-N", "2", "--controls", "site0:x,z"]) == EXIT_OK
    report = read_json(out)
    assert report["class"] == "FULL"
    assert report["dim"] == 15
    assert report["stabilized"] is True

    out2 = tmp_path / "ctl2.json"
    assert main(["control", "-o", str(out2), "--model", "ising-chain",
                 "-N", "3", "--controls", "site0:z", "--controls",
                 "site1:z", "--controls", "site2:z"]) == EXIT_OK
    assert read_json(out2)["class"] == "COMMUTING"


def test_nonfinite_json_encoding():
    safe = cli._json_safe({"a": math.nan, "b": math.inf, "c": -math.inf,
                           "d": [1.0, math.nan]})
    assert safe == {"a": None, "b": "inf", "c": "-inf", "d": [1.0, None]}


# --------------------------------------------------------------------------
# configuration file


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j_min": -1.0, "j_max": 1.0, "j_step": 1.0,
                               "beta_h": 0.25}), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code = main(["sweep-j", "--config", str(cfg), "-o", str(out),
                 "--j-step", "0.5"])
    assert code == EXIT_OK
    _, params, rows = read_csv(out)
    assert params["beta_h"] == 0.25  # from the file
    assert params["j_step"] == 0.5  # flag beats file
    assert len(rows) == 5


def test_config_file_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert main(["sweep-j", "--config", str(cfg)]) == EXIT_CONFIG


def test_config_file_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope", encoding="utf-8")
    assert main(["sweep-j", "--config", str(cfg)]) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_cycle_rejects_oversized_staircase(capsys):
    # 2 * 1000 steps * 2**24 levels * 8 bytes: refused before any table exists
    assert main(["cycle", "-N", "24"]) == EXIT_CONFIG
    assert str(2 * 1000 * 8 << 24) in capsys.readouterr().err


def test_config_file_missing_is_io_error(tmp_path):
    assert main(["sweep-j", "--config", str(tmp_path / "none.json")]) == EXIT_IO


@pytest.mark.parametrize("command, entries, key", [
    ("sweep-j", {"beta_h": None}, "beta_h"),
    ("precision", {"beta_h": None, "epsilon": [0]}, "beta_h"),
    ("bound", {"beta_h": None}, "beta_h"),
    ("cycle", {"beta_h": None}, "beta_h"),
    ("precision", {"epsilon": 0.1}, "epsilon"),
    ("optimal-field", {"beta": 2}, "beta"),
    ("control", {"controls": "site0:x"}, "controls"),
    # refused as the flag would refuse it: -N 6.7, --steps 2.5, -N true
    ("control", {"n": 6.7}, "n"),
    ("cycle", {"steps": 2.5}, "steps"),
    ("gs-deg", {"n": True}, "n"),
    ("gs-deg", {"n": 25}, "n"),
    ("precision", {"epsilon": [0.1, -1]}, "epsilon"),
    ("sweep-j", {"mode": "bogus"}, "mode"),
    ("sweep-j", {"threads": 0}, "threads"),
    ("sweep-j", {"j_min": [0]}, "j_min"),
    # keys that no subcommand takes, and the command-line-only ones
    ("sweep-j", {"beta-h": 0.2}, "beta-h"),
    ("gs-deg", {"output": "x.csv"}, "output"),
    ("gs-deg", {"config": "other.json"}, "config"),
    # non-finite grid values, refused as their flags are
    ("sweep-j", {"j_max": math.inf}, "j_max"),  # written as Infinity
    ("optimal-field", {"j_min": "-inf"}, "j_min"),
    ("precision", {"epsilon": [0.1, math.nan]}, "epsilon"),
    ("sweep-j", {"grid_step": "inf"}, "grid_step"),
])
def test_bad_config_entry_names_the_key(tmp_path, capsys, command, entries, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(key) in captured.err


def test_config_serves_several_subcommands_and_flags_replace_lists(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "steps": 20, "u_class": "full", "j_step": 10,
                               "epsilon": [0.0, 0.1], "threads": 2}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["bound", "--config", str(cfg), "-o", str(out)]) == EXIT_OK
    assert read_json(out)["u_class"] == "full"
    assert main(["cycle", "--config", str(cfg), "-o", str(out)]) == EXIT_OK
    assert read_json(out)["steps"] == 20
    assert main(["precision", "--config", str(cfg), "-o", str(out),
                 "--epsilon", "0.5"]) == EXIT_OK
    _, params, rows = read_csv(out)
    assert params["epsilon"] == [0.5] and params["n"] == 3 and len(rows) == 3


@pytest.mark.parametrize("command, flags, entries", [
    ("sweep-j", ["--beta-h", "0.25", "--beta-c", "2", "--j-min=-1e-05", "--j-max", "1",
                 "--j-step", "0.5", "--mode", "free", "--grid-step", "0.05"],
     {"beta_h": 0.25, "beta_c": 2, "j_min": -1e-05, "j_max": 1, "j_step": 0.5,
      "mode": "free", "grid_step": 0.05}),
    ("bound", ["-N", "3", "-J", "-0.25", "--h-a", "3.5", "--h-b", "1.5", "--h-c", "0.75",
               "--h-d", "2.5", "--beta-h", "0.4", "--u-class", "full", "--v-class",
               "commuting", "--threads", "2"],
     {"n": 3, "j": -0.25, "h_a": 3.5, "h_b": 1.5, "h_c": 0.75, "h_d": 2.5, "beta_h": 0.4,
      "u_class": "full", "v_class": "commuting", "threads": 2}),
])
def test_config_entries_equal_flags(tmp_path, capsys, command, flags, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries), encoding="utf-8")
    assert main([command, *flags]) == EXIT_OK
    by_flags = capsys.readouterr().out
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == by_flags


@pytest.mark.parametrize("argv, echo", [
    (["sweep-j"], '# params: {"beta_c":1.0,"beta_h":0.5,"command":"sweep-j","grid_step":0.01,'
                  '"j_max":5.0,"j_min":-5.0,"j_step":0.1,"mode":"paper"}'),
    (["precision", "--epsilon", "0"],
     '# params: {"beta_c":1.0,"beta_h":0.5,"command":"precision","epsilon":[0.0],'
     '"grid_step":0.01,"j_max":20.0,"j_min":0.0,"j_step":0.5,"n":6}'),
    (["optimal-field"], '# params: {"beta":[1.0,2.0,3.0],"command":"optimal-field",'
                        '"j_max":0.0,"j_min":-3.0,"j_step":0.01}'),
    (["bound"], '{"beta_c": 1.0, "beta_h": 0.5, "command": "bound", "h_a": 4.0, "h_b": 1.0, '
                '"h_c": 0.5, "h_d": 2.0, "j": 0.0, "n": 2, "u_class": "identity", '
                '"v_class": "identity"}'),
    (["cycle"], '{"beta_c": 1.0, "beta_h": 0.5, "command": "cycle", "h_a": 4.0, "h_b": 1.0, '
                '"h_c": 0.5, "h_d": 2.0, "j": 0.0, "n": 2, "steps": 1000}'),
    (["gs-deg"], '{"command": "gs-deg", "h": 2.0, "j": -1.0, "n": 8}'),
    (["control"], '{"command": "control", "controls": ["site0:x,z"], "j": 1.0, '
                  '"model": "heisenberg-chain", "n": 2}'),
])
def test_default_parameter_echo(capsys, argv, echo):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    if echo.startswith("# params: "):
        assert out.split("\n")[1] == echo
    else:
        report = json.loads(out)
        params = {k: report[k] for k in json.loads(echo)}
        assert json.dumps(params, sort_keys=True) == echo


@pytest.mark.parametrize("lone, attached", [
    ("gs-deg -J -1e-05", "gs-deg -J=-1e-05"),
    ("gs-deg -N 4 -h -2.5E+1", "gs-deg -N 4 -h=-2.5E+1"),
    ("sweep-j --j-min -1e-05 --j-max 0 --j-step 1",
     "sweep-j --j-min=-1e-05 --j-max 0 --j-step 1"),
    ("optimal-field --j-min -1.5e-3 --j-max 0 --j-step 1",
     "optimal-field --j-min=-1.5e-3 --j-max 0 --j-step 1"),
])
def test_negative_number_with_exponent_is_a_value(capsys, lone, attached):
    # a lone negative number with an exponent is its flag's value, as it
    # is when attached with "="
    assert main(attached.split()) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(lone.split()) == EXIT_OK
    assert capsys.readouterr().out == expected


# --------------------------------------------------------------------------
# exit codes


def test_bad_grid_step_names_the_flag(capsys):
    assert main(["sweep-j", "--j-step", "0"]) == EXIT_CONFIG
    assert "--j-step" in capsys.readouterr().err


@pytest.mark.parametrize("argv, names", [
    (["optimal-field", "--j-min", "0", "--j-max", "1e12", "--j-step", "1e-3"], "--j-step"),
    # a span that overflows to inf, refused before it meets int()
    (["sweep-j", "--j-min=-1e308", "--j-max=1e308"], "--j-step"),
    # sweep-j builds no field grid; precision does, for antiferromagnetic rows
    (["precision", "--epsilon", "0", "--j-min=-1", "--j-max=-1", "--grid-step", "1e-10"],
     "grid step"),
])
def test_oversized_grid_is_refused(capsys, argv, names):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert names in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["sweep-j", "--j-max", "inf"], "--j-max"),
    (["optimal-field", "--j-min=-inf"], "--j-min"),
    (["precision", "--j-max", "inf", "--epsilon", "0"], "--j-max"),
    (["sweep-j", "--j-min", "nan"], "--j-min"),
    (["precision", "--epsilon", "nan"], "--epsilon"),
    (["precision", "--epsilon", "inf"], "--epsilon"),
    (["sweep-j", "--grid-step", "inf"], "--grid-step"),
    (["precision", "--epsilon", "0", "--grid-step", "inf"], "--grid-step"),
])
def test_nonfinite_grid_flag_names_the_flag(capsys, argv, flag):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err and "finite" in captured.err



@pytest.mark.parametrize("argv, flag", [
    (["optimal-field", "--beta", "nan"], "--beta"),
    (["optimal-field", "--beta", "1", "--beta", "inf"], "--beta"),
    (["optimal-field", "--beta", "0"], "--beta"),
    (["sweep-j", "--beta-h", "nan"], "--beta-h"),
    (["sweep-j", "--beta-c", "inf"], "--beta-c"),
    (["precision", "--epsilon", "0", "--beta-c", "nan"], "--beta-c"),
    (["bound", "--beta-h", "inf"], "--beta-h"),
    (["cycle", "--beta-h", "-1"], "--beta-h"),
])
def test_bad_inverse_temperature_names_the_flag(capsys, argv, flag):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"argument {flag}:" in captured.err and "positive and finite" in captured.err


@pytest.mark.parametrize("spec", ["bogus", "site9:x", "site0:", "site0:q", "sitex:z",
                                  "site0:x,", "site-1:x"])
def test_bad_control_spec_names_the_entry(capsys, spec):
    assert main(["control", "-N", "2", "--controls", spec]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"--controls entry {spec!r}" in captured.err


def test_control_specs_echo_normalized(capsys):
    assert main(["control", "-N", "3", "--controls", " SITE2:Z, x", "--controls",
                 "site00:y"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["controls"] == ["site2:z,x", "site0:y"]


@pytest.mark.parametrize("command, entries, key, flag", [
    ("optimal-field", {"beta": [1.0, math.nan]}, "beta", "--beta"),  # written as NaN
    ("sweep-j", {"beta_h": "nan"}, "beta_h", "--beta-h"),
    ("bound", {"beta_c": math.inf}, "beta_c", "--beta-c"),
])
def test_bad_inverse_temperature_in_config_names_key_and_flag(tmp_path, capsys, command,
                                                              entries, key, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert repr(key) in captured.err and f"argument {flag}:" in captured.err

def test_config_exit_codes(tmp_path):
    assert main(["precision", "-N", "25", "--epsilon", "0"]) == EXIT_CONFIG
    assert main(["precision"]) == EXIT_CONFIG  # no epsilon given
    assert main(["precision", "-N", "4", "--epsilon", "-1"]) == EXIT_CONFIG
    assert main(["optimal-field", "--beta", "-1"]) == EXIT_CONFIG
    assert main(["bound", "--beta-h", "2", "--beta-c", "1"]) == EXIT_CONFIG
    assert main(["cycle", "--steps", "0"]) == EXIT_CONFIG
    assert main(["gs-deg", "-N", "0"]) == EXIT_CONFIG
    assert main(["control", "-N", "7"]) == EXIT_CONFIG
    assert main(["control", "--controls", "bogus"]) == EXIT_CONFIG
    assert main(["control", "--controls", "site9:x"]) == EXIT_CONFIG
    assert main(["sweep-j", "--mode", "bogus"]) == EXIT_CONFIG  # argparse choice
    assert main(["gs-deg", "-h", "nan"]) == EXIT_CONFIG
    assert main(["gs-deg", "-J", "nan"]) == EXIT_CONFIG
    assert main(["gs-deg", "-J", "inf"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["sweep-j", "precision", "optimal-field", "bound",
                                     "cycle", "gs-deg", "control"])
def test_every_command_validates_threads(command):
    assert main([command, "--threads", "0"]) == EXIT_CONFIG


def test_io_exit_code(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir.csv"
    assert main(["optimal-field", "--beta", "1", "--j-min", "0", "--j-max", "0",
                 "--j-step", "1", "-o", str(missing_dir)]) == EXIT_IO


def test_undefined_exit_code(capsys):
    # hot corner far more polarized than the cold one: entropy gain <= 0
    assert main(["bound", "--h-b", "8", "--h-d", "0.1"]) == EXIT_UNDEFINED
    # zero field and coupling: the cycle draws no hot heat, so W/Q_hot is undefined
    assert main(["cycle", "-J", "0", "--h-b", "0", "--steps", "10"]) == EXIT_UNDEFINED
    assert capsys.readouterr().out == ""


def test_overflowing_field_is_one_config_error_line():
    # finite fields whose energies overflow: refused without a numpy warning
    env = {**os.environ, "PYTHONPATH": str(Path(spinengine.__file__).parents[1]),
           "PYTHONWARNINGS": "default"}
    proc = subprocess.run([sys.executable, "-m", "spinengine.cli", "bound", "-N", "2",
                           "--h-b", "1e308", "--h-d", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert proc.stderr == "spinengine: config error: energy table has non-finite entries\n"


@pytest.mark.parametrize("argv, message", [
    # energies of -inf would count as ground states
    (["gs-deg", "-N", "4", "-h", "1e308"], "class energies have non-finite entries"),
    (["gs-deg", "-N", "8", "-J", "1e308", "-h", "-1e4"], "class energies have non-finite entries"),
    # the root sits near 2|J|, which overflows
    (["optimal-field", "--j-min", "-1e308", "--j-max", "-1e308"],
     "optimal field: 2|J| overflows, so the root is not a float"),
])
def test_overflowing_result_is_one_config_error_line(capsys, argv, message):
    # pytest turns a numpy RuntimeWarning into an error, so none escapes here
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"spinengine: config error: {message}\n"


def test_help_and_usage_exit_codes(capsys):
    for command, shown in [
        ("sweep-j", "(default: -5.0)"), ("precision", "(default: 6)"),
        ("optimal-field", "(default: 1.0 2.0 3.0)"), ("bound", "(default: identity)"),
        ("cycle", "(default: 1000)"), ("gs-deg", "(default: 2.0)"),
        ("control", "(default: site0:x,z)"),
    ]:
        assert main([command, "--help"]) == 0
        assert shown in " ".join(capsys.readouterr().out.split())  # undo line wrapping
    assert main(["--help"]) == 0
    assert main([]) == EXIT_CONFIG  # subcommand required
    capsys.readouterr()


# --------------------------------------------------------------------------
# one process, many calls


def _one_process_argv(tmp_path):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps({"n": 6.7}), encoding="utf-8")
    good.write_text(json.dumps({"n": 5, "j": 0.5}), encoding="utf-8")
    return [
        # the shape of the cycles workload: cycles and bounds on small chains
        ["cycle", "-N", "4", "-J", "-0.3", "--h-b", "1.2", "--steps", "200"],
        ["bound", "-N", "2", "-J", "0.5", "--h-b", "0.7", "--u-class", "full",
         "--v-class", "full"],
        ["bound", "-N", "3", "-J", "-0.4", "--h-b", "1.1", "--v-class", "commuting"],
        ["sweep-j", "--j-min", "-1", "--j-max", "1", "--j-step", "0.5"],
        ["precision", "-N", "4", "--epsilon", "0", "--epsilon", "0.1", "--j-min", "0",
         "--j-max", "1", "--j-step", "0.5"],
        # the declared defaults of the repeatable flags flow into args
        ["optimal-field", "--j-min", "-1", "--j-max", "0", "--j-step", "0.5"],
        ["control", "-N", "2"],
        *([command, "--help"] for command in cli._COMMANDS),
        ["--help"],
        ["bound", "-N", "0"],
        ["gs-deg", "--config", str(bad)],
        ["gs-deg", "--config", str(good)],
        ["gs-deg", "-J", "-1e-05"],
        ["cycle", "-J", "0", "--h-b", "0"],
        ["frobnicate"],
        [],
    ]


def test_one_process_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width

    def declared():
        return {(name, flag.dest): flag.default
                for name, (_, _, flags) in cli._COMMANDS.items() for flag in flags}

    defaults = copy.deepcopy(declared())  # a list default would change in place
    argvs = _one_process_argv(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(spinengine.__file__).parents[1])}

    def fresh_process(argv):
        proc = subprocess.run([sys.executable, "-m", "spinengine.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        return proc.stdout, proc.stderr, proc.returncode

    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = list(pool.map(fresh_process, argvs))
    assert {code for _, _, code in fresh} == {EXIT_OK, EXIT_CONFIG, EXIT_UNDEFINED}
    cli.build_parser.cache_clear()
    order = [*range(len(argvs)), *reversed(range(len(argvs)))]
    for i in order:
        code = main(list(argvs[i]))
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == fresh[i], argvs[i]
    assert declared() == defaults


def test_parse_tree_is_built_once(tmp_path, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    argvs = _one_process_argv(tmp_path)
    assert main(argvs[0]) == EXIT_OK
    assert len(built) == 1 + len(cli._COMMANDS)  # the top parser and one per subcommand
    built.clear()
    for argv in argvs[1:]:
        main(list(argv))
    assert built == []


def test_console_script_round_trip():
    exe = shutil.which("spinengine")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "gs-deg", "-N", "6", "-J", "-1", "-h", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["g0"] == 18


def test_every_public_name_resolves():
    missing = [name for name in spinengine.__all__ if not hasattr(spinengine, name)]
    assert missing == []
    assert len(spinengine.__all__) == len(set(spinengine.__all__))
    namespace = {}
    exec("from spinengine import *", namespace)
    assert set(spinengine.__all__) <= namespace.keys()
