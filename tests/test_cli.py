import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwbench import algebra, cli, spin_dynamics, wavepacket, zitter
from fwbench.cli import main
from fwbench.zitter import dominant_frequency


def run(argv):
    return main(argv)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-algebra", "--set", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify-algebra", "--samples", "0"])
    assert exc.value.code == 2
    # pce prints json or a pretty table; verdict thresholds are not options
    for argv in (["pce", "--format", "csv"], ["verify-algebra", "--tol", "1e3"],
                 ["verify-algebra", "--classical-tol", "1e3"],
                 ["verify-algebra", "--floor", "0"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    for v0 in ("0.1,0.1", "0.01", "0,0.01,0.1", "-0.01,0.1", "nan,0.1", "inf,0.1", "a,b"):
        with pytest.raises(SystemExit) as exc:
            run(["eriksen", "--n", "16", "--v0", v0])
        assert exc.value.code == 2, v0
    # grid and mass flags follow Grid1D's and the mass rule at parse time
    for argv in (["eriksen", "--n", "100"], ["eriksen", "--n", "2"],
                 ["eriksen", "--mass", "-1"], ["eriksen", "--box", "-1"],
                 ["packet", "--n", "100"], ["pce", "--n", "100"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    # every command needs a positive, finite mass (the grids hold p = 0, the
    # precession frequencies and the center-of-mass set divide by m), and
    # the time series need enough steps; no row is printed
    for argv in (["packet", "--mass", "0"], ["pce", "--mass", "0"],
                 ["precess", "--mass", "0"], ["precess", "--mass", "-1"],
                 ["packet", "--mass", "-1"], ["pce", "--mass", "-1"],
                 ["packet", "--mass", "inf"],
                 ["eriksen", "--mass", "0"], ["eriksen", "--mass", "nan"],
                 ["eriksen", "--mass", "inf"],
                 ["verify-algebra", "--mass", "-1"], ["verify-algebra", "--mass", "nan"],
                 ["verify-algebra", "--mass", "0"],
                 ["verify-algebra", "--set", "conventional", "--mass", "0"],
                 ["verify-algebra", "--mass", "inf"],
                 ["zitter", "--steps", "1"], ["zitter", "--steps", "0"],
                 ["zitter", "--particle", "fw", "--steps", "1"],
                 ["precess", "--steps", "-1"],
                 # the box, the packet momentum and time must be finite, the
                 # packet width positive and finite
                 ["eriksen", "--box", "inf"], ["eriksen", "--box", "nan"],
                 ["packet", "--p0", "nan"], ["packet", "--p0", "inf"],
                 ["packet", "--t", "nan"], ["packet", "--t", "-inf"],
                 ["packet", "--sigma", "0"], ["packet", "--sigma", "-0.5"],
                 ["packet", "--sigma", "nan"], ["packet", "--sigma", "inf"],
                 ["pce", "--p0", "nan"], ["pce", "--p0", "-inf"],
                 ["pce", "--sigma", "0"], ["pce", "--sigma", "nan"],
                 # the trembling series needs a finite momentum, a positive
                 # mass (at m = 0 alpha_z commutes with H for p along z) and
                 # a positive, finite end time; precess a finite end time
                 ["zitter", "--p", "nan"], ["zitter", "--p", "inf"],
                 ["zitter", "--m", "0"], ["zitter", "--m", "-1"],
                 ["zitter", "--m", "nan"], ["zitter", "--particle", "fw", "--m", "0"],
                 ["zitter", "--t-max", "-1"], ["zitter", "--t-max", "0"],
                 ["zitter", "--t-max", "inf"], ["zitter", "--t-max", "nan"],
                 ["precess", "--t-max", "inf"], ["precess", "--t-max", "nan"],
                 # the charge, the moments and every 3-vector must be finite,
                 # the spin direction nonzero, the suite seed non-negative
                 ["precess", "--b-field", "0,0,1", "--steps", "0", "--charge", "nan"],
                 ["precess", "--charge", "inf"], ["precess", "--a", "nan"],
                 ["precess", "--steps", "2", "--eta", "nan"], ["precess", "--eta", "inf"],
                 ["precess", "--steps", "2", "--s0", "nan,0,0"], ["precess", "--s0", "0,0,0"],
                 ["precess", "--p", "nan,0,0"], ["precess", "--e-field", "0,inf,0"],
                 ["precess", "--b-field", "0,0,nan"], ["precess", "--accel", "inf,0,0"],
                 ["precess", "--omega", "0,nan,0"], ["precess", "--p", "1,0"],
                 ["verify-algebra", "--seed", "-1"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {argv[-2]}" in captured.err, argv


def _fresh_stdout(code: str) -> str:
    """What code prints in a fresh interpreter that imports fwbench from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_product_imports_numpy_only():
    # the package and its CLI run on numpy alone; scipy is a test dependency
    assert _fresh_stdout("import sys, fwbench, fwbench.cli; print(sorted(m for m in "
                         "sys.modules if m.split('.')[0] == 'scipy'))") == "[]"


def test_package_import_loads_no_submodule():
    # the modules are the package's surface: each name has one import path,
    # and `import fwbench` binds no name and loads no fwbench module
    assert _fresh_stdout("import sys, fwbench; print(sorted(m for m in sys.modules "
                         "if m.startswith('fwbench.')), [n for n in vars(fwbench) "
                         "if not n.startswith('__')])") == "[] []"


def test_wavepacket_loads_no_spin_dynamics():
    # the packet is spin-up along z by construction; the packet layer needs
    # no spin-direction code
    assert _fresh_stdout("import sys, fwbench.wavepacket; "
                         "print('fwbench.spin_dynamics' in sys.modules)") == "False"


def test_help_available_for_each_subcommand(capsys):
    for cmd in ("verify-algebra", "eriksen", "precess", "zitter", "packet", "pce"):
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out and "usage" in out.lower()


def test_verify_algebra_conventional_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify-algebra", "--set", "conventional", "--samples", "10",
                "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    ids = {row["identity_id"] for row in data}
    assert "[K_i,K_j] = -i e_ijk j_k" in ids
    for row in data:
        assert row["verdict"] == "pass"
        for key in ("max_residual", "expected", "set_name", "samples"):
            assert key in row


def test_verify_algebra_all_sets(tmp_path):
    out = tmp_path / "all.json"
    code = run(["verify-algebra", "--set", "all", "--samples", "6",
                "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    sets = {row["set_name"] for row in data}
    assert sets == {"conventional", "naive_dirac", "center_of_mass",
                    "projected", "classical"}
    # the 1/m coefficients at low mass: exact gradients keep [q_i,j_j] exact
    assert run(["verify-algebra", "--set", "center_of_mass", "--mass", "0.001",
                "--samples", "20", "--out", str(tmp_path / "low_mass.json")]) == 0
    # at high mass: exact Poisson brackets keep {K_i,K_j} = -e_ijk J_k exact
    assert run(["verify-algebra", "--set", "classical", "--mass", "100",
                "--samples", "20", "--out", str(tmp_path / "high_mass.json")]) == 0


def test_unexpected_outcomes_name_their_set(capsys):
    # at m = 100 the center_of_mass and projected sets fail the same two
    # identities; each entry carries its set, so no entry repeats, and reads
    # "<set>: <identity> <max_residual> (bound <= tol or >= floor)"
    assert run(["verify-algebra", "--set", "all", "--mass", "100", "--samples", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("failed checks: ") and err.count("\n") == 1
    items = err[len("failed checks: "):-1].split("; ")
    entries = [re.fullmatch(r"(.+) \S+ \(bound [<>]= \S+\)", item)[1] for item in items]
    assert entries and len(set(entries)) == len(entries)
    sets = {"conventional", "naive_dirac", "center_of_mass", "projected", "classical"}
    assert all(entry.split(": ", 1)[0] in sets for entry in entries)
    assert "center_of_mass: [q_i,s_j] = 0" in entries and "projected: [q_i,s_j] = 0" in entries


def test_verify_algebra_strict_floor_fails(tmp_path, capsys, monkeypatch):
    # an absurd failure floor makes expected-fail identities unreachable
    monkeypatch.setattr(algebra, "FAILURE_FLOOR", 1e6)
    code = run(["verify-algebra", "--set", "naive_dirac", "--samples", "5",
                "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["verify-algebra", "--set", "conventional", "--samples", "8",
                    "--seed", "7", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run(["verify-algebra", "--set", "conventional", "--samples", "8",
                "--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def _outcome(argv, capsys) -> tuple:
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_each_call_runs_the_command_bound_on_the_module(monkeypatch, capsys):
    # a tracer wraps a command by rebinding cli.cmd_*; the parser that every
    # call shares must not keep the function it saw when it was built
    assert run(["eriksen", "--n", "16"]) == 0
    calls = []
    original = cli.cmd_eriksen

    def counting(args):
        calls.append(args.n)
        return original(args)
    monkeypatch.setattr(cli, "cmd_eriksen", counting)
    assert run(["eriksen", "--n", "16"]) == 0
    assert calls == [16]
    assert cli.build_parser() is cli.build_parser()


def test_parser_defaults_are_immutable():
    # every call parses with the same parser, so a default changed in place
    # would change every later call
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    changeable = [(name, action.dest, action.default)
                  for name, command in [("fwbench", parser), *sub.choices.items()]
                  for action in command._actions
                  if not (action.default is None
                          or isinstance(action.default, (str, int, float, bool, tuple))
                          or (isinstance(action.default, np.ndarray)
                              and not action.default.flags.writeable))]
    assert not changeable


@pytest.mark.parametrize("defaults, other, bad", [
    (["precess", "--steps", "5"], ["--p", "1,0,0", "--b-field", "0,0,1", "--a", "0.1"],
     ["--p", "1,0"]),
    (["eriksen", "--n", "16"], ["--v0", "0.02,0.2"], ["--v0", "0.1,0.1"]),
], ids=["precess", "eriksen"])
def test_reused_parser_keeps_no_state(defaults, other, bad, capsys):
    first = _outcome(defaults, capsys)
    assert first[0] == 0
    assert _outcome(defaults + other, capsys)[1:] != first[1:]
    with pytest.raises(SystemExit) as exc:
        run(defaults + bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert _outcome(defaults, capsys) == first


def test_verify_algebra_formats(tmp_path):
    csv_path = tmp_path / "r.csv"
    assert run(["verify-algebra", "--set", "classical", "--samples", "4",
                "--format", "csv", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("identity_id,")
    assert len(lines) > 10
    table_path = tmp_path / "r.txt"
    assert run(["verify-algebra", "--set", "conventional", "--samples", "4",
                "--format", "pretty-table", "--out", str(table_path)]) == 0
    assert "verdict" in table_path.read_text()


def test_eriksen_command(tmp_path):
    out = tmp_path / "eriksen.json"
    code = run(["eriksen", "--n", "32", "--box", "16", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "pass"
    assert abs(data["scaling_exponent"] - 2.0) <= 0.3
    assert max(data["free_conditions"].values()) <= 1e-9
    assert sorted(data["free_conditions"]) == ["bl_lb_commute", "lambda_squared",
                                               "odd_exponent", "offblock", "unitarity"]


def test_zitter_command_frequency(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code = run(["zitter", "--p", "1", "--m", "1", "--t-max", "10",
                "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "extracted frequency" in err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    t, re_v = rows[:, 0], rows[:, 1]
    freq = dominant_frequency(t, re_v)
    assert abs(freq - 2 * np.sqrt(2.0)) / (2 * np.sqrt(2.0)) <= 1e-6


def test_zitter_fw_constant(tmp_path, capsys):
    code = run(["zitter", "--p", "1", "--m", "1", "--particle", "fw",
                "--steps", "200", "--out", str(tmp_path / "fw.csv")])
    assert code == 0
    assert "constant" in capsys.readouterr().err


def test_zitter_fw_prints_the_standard_series(tmp_path, capsys):
    # the FW velocity commutes with H: element (0, 0) is p / eps at every
    # time and the position drifts as t p / eps, at the defaults and over
    # masses and momenta far on both sides of |p| ~ m
    out = tmp_path / "fw.csv"
    assert run(["zitter", "--particle", "fw", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "velocity constant; no trembling to extract a frequency from\n"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (4000, 5)
    assert np.all(rows[:, 1] == rows[0, 1]) and rows[0, 1] == pytest.approx(2 ** -0.5, rel=1e-15)
    assert not np.any(rows[:, [2, 4]])
    np.testing.assert_allclose(rows[:, 3], rows[:, 0] * rows[0, 1], rtol=1e-15, atol=0)
    for m in ("1e-3", "0.3", "1", "1e3"):
        for p in ("1e-3", "0.1", "2.7", "1e4"):
            assert run(["zitter", "--particle", "fw", "--m", m, "--p", p, "--steps", "50"]) == 0
            assert capsys.readouterr().err.startswith("velocity constant; no trembling"), (m, p)


def test_zitter_fv_at_rest_has_no_trembling(tmp_path, capsys):
    # the scalar-sector velocity at rest is exactly zero: there is no
    # frequency to extract, and that is no failure
    out = tmp_path / "fv.csv"
    assert run(["zitter", "--particle", "fv", "--p", "0", "--out", str(out)]) == 0
    assert "no trembling" in capsys.readouterr().err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (4000, 5)
    assert not np.any(rows[:, 1:])


def test_precess_command(tmp_path, capsys):
    out = tmp_path / "prec.csv"
    code = run(["precess", "--p", "1,0,0", "--b-field", "0,0,1", "--a", "0.1",
                "--t-max", "5", "--steps", "40", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "omega" in err and "deviation" in err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    classical = rows[:, 1:4]
    quantum = rows[:, 4:7]
    assert np.max(np.abs(classical - quantum)) <= 1e-12
    # a negative end time evolves backward
    back = tmp_path / "back.csv"
    assert run(["precess", "--t-max", "-5", "--steps", "40", "--out", str(back)]) == 0
    np.testing.assert_array_equal(np.loadtxt(back, delimiter=",", skiprows=1)[:, 0],
                                  -rows[:, 0])
    # zero steps is a valid, empty series: the header line alone, also for a
    # finite angular velocity whose square overflows
    for extra in ([], ["--omega", "0,1e200,1e200"]):
        empty = tmp_path / "empty.csv"
        assert run(["precess", "--steps", "0", *extra, "--out", str(empty)]) == 0
        assert empty.read_text() == (
            "t,Sx_classical,Sy_classical,Sz_classical,Sx_quantum,Sy_quantum,Sz_quantum\n")


# a direction is scale-free: components whose norm would overflow or
# underflow give the series of the axis they point along
@pytest.mark.parametrize("s0, axis", [("0,0,1e200", "0,0,1"), ("1e-320,0,0", "1,0,0")])
def test_precess_direction_scale_free(s0, axis, capsys):
    assert run(["precess", "--steps", "2", "--s0", s0]) == 0
    scaled = capsys.readouterr()
    assert run(["precess", "--steps", "2", "--s0", axis]) == 0
    assert scaled == capsys.readouterr()


# the propagators take |omega| after scaling by its largest component, so
# a finite angular velocity whose square would overflow still rotates
def test_precess_propagates_omega_whose_square_overflows(capsys):
    assert run(["precess", "--omega", "0,0,1e200"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 201
    assert float(err.rpartition("deviation = ")[2]) <= 1e-12


# every input must be finite at parse time; fields or a frame rotation
# large enough to overflow the precession frequency still make a
# non-finite series, which prints nothing
@pytest.mark.parametrize("argv", [["--omega", "0,0,1e308"], ["--b-field", "0,0,1e308"],
                                  ["--e-field", "1e308,0,0", "--p", "0,1,0"]])
def test_precess_rejects_non_finite_series(argv, capsys):
    assert run(["precess", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_precess_series_check_catches_silent_nan(monkeypatch, capsys):
    # 2 m overflows to inf in Python float arithmetic, which raises nothing,
    # and so does charge * eta: the electric-dipole prefactor is inf / inf,
    # a quiet NaN that no floating-point trap sees, and the angular-velocity
    # check stops it before anything is propagated
    assert run(["precess", "--mass", "1.7e308", "--charge", "1e10", "--eta", "1e300"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: precession angular velocity is not finite; "
                   "check --mass, --charge and the fields\n")
    # a propagator that returns a quiet NaN from a finite angular velocity
    # reaches the series check
    monkeypatch.setattr(spin_dynamics, "propagate_classical",
                        lambda s0, omega, times: np.full((len(times), 3), np.nan))
    assert run(["precess", "--steps", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: precession series is not finite; "
                   "check --t-max, --p and the fields\n")


def test_precess_rejects_non_finite_omega_with_no_steps(capsys):
    # e / m overflows to inf in Python float arithmetic, which raises nothing,
    # and with no steps no propagation reads the infinite angular velocity
    argv = ["precess", "--steps", "0", "--charge", "1e308", "--mass", "1e-10",
            "--b-field", "1,1,1"]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: precession angular velocity is not finite; "
                   "check --mass, --charge and the fields\n")


def _joined_csv(header, rows):
    """The series CSV joined value by value with _fmt, the writer's oracle;
    with no rows, the header line alone."""
    return "".join(line + "\n" for line in
                   [header, *(",".join(cli._fmt(v) for v in row) for row in rows)])


@pytest.mark.parametrize("n_rows", [0, 1, 7])
def test_series_writer_formats_each_value_as_fmt(n_rows):
    values = np.array([-0.0, 5e-324, 1e-310, 0.1, 1 / 3, -2.5e-16, 1e308])
    rows = np.array([np.roll(values, k) for k in range(n_rows)]).reshape(-1, 7)
    text = cli._series_csv("a,b,c,d,e,f,g", rows)
    assert text == _joined_csv("a,b,c,d,e,f,g", rows)
    assert text.count("\n") == 1 + n_rows


@pytest.mark.parametrize("argv", [
    ["zitter", "--particle", "dirac"], ["zitter", "--particle", "fv"],
    ["zitter", "--particle", "fw"], ["packet", "--t", "3.7"],
    ["precess", "--p", "1,0,0", "--b-field", "0,0,1", "--a", "0.1"]],
    ids=["zitter-dirac", "zitter-fv", "zitter-fw", "packet", "precess"])
def test_series_commands_write_what_the_joined_csv_writes(argv, monkeypatch, capsys):
    assert run(argv) == 0
    written = capsys.readouterr()
    monkeypatch.setattr(cli, "_series_csv", _joined_csv)
    assert run(argv) == 0
    joined = capsys.readouterr()
    # the first differing line, so that a failure does not diff whole series
    assert [pair for pair in zip(written.out.splitlines(), joined.out.splitlines())
            if pair[0] != pair[1]][:1] == []
    assert written == joined


def test_packet_command(tmp_path, capsys):
    out = tmp_path / "rho.csv"
    code = run(["packet", "--p0", "2", "--sigma", "0.5", "--mass", "1",
                "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "normalization fw = 1.0000000000" in err
    assert "dirac = 1.0000000000" in err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    dx = rows[1, 0] - rows[0, 0]
    assert rows[:, 1].sum() * dx == pytest.approx(1.0, abs=1e-10)
    assert rows[:, 2].sum() * dx == pytest.approx(1.0, abs=1e-10)


def test_pce_command(capsys):
    code = run(["pce", "--p0", "2", "--sigma", "0.5", "--mass", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "normalization fw picture    = 1.0000000000" in out
    assert "normalization dirac picture = 1.0000000000" in out
    pce_line = [l for l in out.splitlines() if l.startswith("PCE(x^2)")][0]
    assert float(pce_line.split("=")[1]) != 0.0


def test_pce_json_output(tmp_path):
    out = tmp_path / "pce.json"
    assert run(["pce", "--p0", "2", "--sigma", "0.5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pce_momentum"] == 0.0
    assert abs(data["pce_x_sq"]) > 1e-4 * data["x_sq_fw_picture"]


@pytest.mark.parametrize("fmt", ["pretty-table", "json"])
def test_pce_names_its_failed_check_on_stderr(capsys, fmt):
    # PCE(x^2) falls as 1/(4 m^2), below the verdict's 1e-4 <x^2> at m = 100
    assert run(["pce", "--mass", "100", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out
    assert err.count("\n") == 1 and err.startswith("failed checks: pce_x_sq 2.4")
    assert "normalization" not in err and "pce_momentum" not in err
    assert run(["pce", "--format", fmt]) == 0
    assert capsys.readouterr().err == ""


def test_pce_momentum_bound_scales_with_the_packet_momenta(capsys):
    # PCE(p) is zero in theory and rounds at the scale |p0| + 6 sigma: at
    # sigma = 1e8 it reads 5.6e-9, far above an absolute 1e-12
    assert run(["pce", "--sigma", "1e8", "--mass", "1", "--p0", "0", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    pce_p = json.loads(out)["pce_momentum"]
    assert 1e-12 < abs(pce_p) <= 100 * np.finfo(float).eps * 6e8


def _shifted(function, factor):
    """function with its result scaled by factor."""
    return lambda *args: function(*args) * factor


def _rescaled_picture(to_picture):
    """to_picture with the amplitude of the packet it returns scaled by 1.1."""
    def rescaled(packet, picture):
        moved = to_picture(packet, picture)
        return dataclasses.replace(moved, psi=1.1 * moved.psi)
    return rescaled


@pytest.mark.parametrize("argv, module, name, wrap, check, info", [
    (["precess", "--p", "1,0,0", "--b-field", "0,0,1", "--steps", "5"], spin_dynamics,
     "propagate_classical", lambda f: _shifted(f, 1 + 1e-6), "quantum_classical_deviation",
     "omega = ("),
    (["zitter"], zitter, "dominant_frequency", lambda f: _shifted(f, 1 + 1e-3),
     "frequency_relative_error", "extracted frequency "),
    (["zitter", "--particle", "fv"], zitter, "dominant_frequency",
     lambda f: _shifted(f, 1 + 1e-3), "frequency_relative_error", "extracted frequency "),
    (["packet"], wavepacket, "to_picture", _rescaled_picture, "normalization_dirac",
     "normalization fw = "),
], ids=["precess", "zitter-dirac", "zitter-fv", "packet"])
def test_failed_check_is_named_on_stderr(argv, module, name, wrap, check, info,
                                         monkeypatch, capsys):
    # a passing run writes its one informational line; a failing run keeps it
    # first and adds one line naming the failed check, its value and its bound
    assert run(argv) == 0
    err = capsys.readouterr().err
    assert err.startswith(info) and err.count("\n") == 1
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out
    info_line, failed = err.splitlines()
    assert info_line.startswith(info)
    assert failed.startswith(f"failed checks: {check} ") and "(bound " in failed


@pytest.mark.parametrize("argv, stdout_argv", [
    (["verify-algebra", "--samples", "3"], None),
    (["verify-algebra", "--samples", "3", "--format", "csv"], None),
    (["verify-algebra", "--samples", "3", "--format", "pretty-table"], None),
    (["eriksen", "--n", "16"], None),
    (["precess", "--steps", "5"], None),
    (["zitter", "--steps", "400"], None),
    (["packet"], None),
    # pce --out writes JSON by design
    (["pce"], ["pce", "--format", "json"]),
], ids=["verify-algebra-json", "verify-algebra-csv", "verify-algebra-table", "eriksen",
        "precess", "zitter", "packet", "pce"])
def test_out_file_holds_the_bytes_of_stdout(argv, stdout_argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 0
    on_file = capsys.readouterr()
    assert on_file.out == ""
    assert run(stdout_argv or argv) == 0
    on_stdout = capsys.readouterr()
    assert out.read_bytes() == on_stdout.out.encode()
    assert on_file.err == on_stdout.err


def test_eriksen_huge_box_exits_1_without_traceback(capsys):
    # the default profile exp(-(x/width)^2 / 2) stays finite where width^2
    # overflows.  The grid momenta are of order 1e-299 here, so the odd part
    # vanishes, the approximate transform is exact to rounding and no
    # quadratic scaling is left to measure: the verdict is fail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eriksen", "--n", "16", "--box", "1e300"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"] == "fail"
    assert "Traceback" not in err
    # one stderr line names the failed check, its value and its bound
    assert err.count("\n") == 1 and err.startswith("failed checks: scaling_exponent ")
    assert "free_conditions" not in err and "bound 2 +- 0.3" in err


def test_numerical_error_exits_1(capsys):
    code = run(["packet", "--p0", "500", "--sigma", "0.1", "--n", "64"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_late_error_writes_no_out_file(tmp_path, capsys):
    # two steps hold no two zero crossings: the frequency check fails
    # after the series is computed, and nothing is written
    out = tmp_path / "z.csv"
    assert run(["zitter", "--steps", "2", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


# --- the CLI contract over the whole float range ----------------------------

# any float, 1e+-300, subnormals, +-0, nan and inf included, and ordinary ones
_FLOAT = st.one_of(st.floats(), st.floats(-10.0, 10.0)).map(repr)
_VEC3 = st.tuples(_FLOAT, _FLOAT, _FLOAT).map(",".join)


def _command(name: str, sizes: dict, values: dict):
    """argv for one subcommand: the capped sizes always given, each physical
    value given or left at its default, every option as --name=value so
    that a negative number is never read as a flag."""
    return st.fixed_dictionaries(sizes, optional=values).map(
        lambda d: [name] + [f"--{k}={v}" for k, v in sorted(d.items())])


_ARGV = st.one_of(
    _command("verify-algebra",
             {"set": st.sampled_from(list(algebra.QUANTUM_SET_NAMES) + ["classical"]),
              "samples": st.integers(1, 2)},
             {"mass": _FLOAT, "seed": st.integers(-2, 2**40)}),
    _command("eriksen", {"n": st.sampled_from([4, 8, 16])},
             {"box": _FLOAT, "mass": _FLOAT,
              "v0": st.lists(_FLOAT, min_size=1, max_size=3).map(",".join)}),
    _command("precess", {"steps": st.integers(0, 5)},
             {"p": _VEC3, "mass": _FLOAT, "e-field": _VEC3, "b-field": _VEC3,
              "charge": _FLOAT, "a": _FLOAT, "eta": _FLOAT, "accel": _VEC3,
              "omega": _VEC3, "s0": _VEC3,
              "t-max": _FLOAT}),
    _command("zitter", {"steps": st.integers(2, 32)},
             {"p": _FLOAT, "m": _FLOAT, "t-max": _FLOAT,
              "particle": st.sampled_from(["dirac", "fv", "fw"])}),
    _command("packet", {"n": st.sampled_from([4, 16, 64])},
             {"p0": _FLOAT, "sigma": _FLOAT, "mass": _FLOAT, "t": _FLOAT}),
    _command("pce", {"n": st.sampled_from([4, 16, 64])},
             {"p0": _FLOAT, "sigma": _FLOAT, "mass": _FLOAT,
              "format": st.sampled_from(["json", "pretty-table"])}),
)

_NON_FINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@given(_ARGV)
@settings(max_examples=150, deadline=None, derandomize=True)
@example(["pce", "--sigma=1e300"])
@example(["zitter", "--p=1e300"])
@example(["zitter", "--m=1e300"])
@example(["packet", "--mass=1e300"])
@example(["pce", "--mass=1e-300"])
@example(["verify-algebra", "--samples=2", "--set=classical", "--mass=1e200"])
@example(["verify-algebra", "--samples=2", "--set=center_of_mass", "--mass=1e-300"])
@example(["precess", "--b-field=0,0,1e308"])
@example(["precess", "--e-field=1e308,0,0", "--p=0,1,0"])
@example(["precess", "--omega=0,0,1e308"])
@example(["precess", "--accel=1e308,0,0", "--p=0,1,0"])
@example(["eriksen", "--n=16", "--mass=1e300"])
@example(["precess", "--p=1e300,0,0"])
@example(["zitter", "--steps=2"])
@example(["precess", "--charge=nan", "--b-field=0,0,1", "--steps=0"])
def test_cli_contract(argv):
    # exit 0, 1 or 2; a usage error or an error line leaves stdout empty; a
    # numeric failure is one error line, never a traceback, a
    # RuntimeWarning or a nan or inf on stdout, nor on stderr at exit 0
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2 or re.search(r"^error: ", err, re.MULTILINE):
        assert out == "", (argv, err, out[:300])
    if code == 0:
        assert not _NON_FINITE_TOKEN.search(err), (argv, err)
    assert "Traceback" not in err, argv
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        (argv, [str(w.message) for w in caught])
    assert not _NON_FINITE_TOKEN.search(out), (argv, out[:300])
