import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fwbench import algebra
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
    # a packet, the eriksen study and precess need a positive, finite mass
    # (the grids hold p = 0, the precession frequencies divide by m),
    # verify-algebra a finite, non-negative one, and the time series need
    # enough steps; no row is printed
    for argv in (["packet", "--mass", "0"], ["pce", "--mass", "0"],
                 ["precess", "--mass", "0"], ["precess", "--mass", "-1"],
                 ["packet", "--mass", "-1"], ["pce", "--mass", "-1"],
                 ["packet", "--mass", "inf"],
                 ["eriksen", "--mass", "0"], ["eriksen", "--mass", "nan"],
                 ["eriksen", "--mass", "inf"],
                 ["verify-algebra", "--mass", "-1"], ["verify-algebra", "--mass", "nan"],
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
                 ["pce", "--sigma", "0"], ["pce", "--sigma", "nan"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {argv[-2]}" in captured.err, argv


def test_product_imports_numpy_only():
    # the package and its CLI run on numpy alone; scipy is a test dependency
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, fwbench, fwbench.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
    # zero steps is a valid, empty series
    empty = tmp_path / "empty.csv"
    assert run(["precess", "--steps", "0", "--out", str(empty)]) == 0
    assert empty.read_text().splitlines()[0].startswith("t,")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [["--s0", "0,0,0"], ["--t-max", "inf"],
                                  ["--t-max", "inf", "--b-field", "0,0,1"]])
def test_precess_rejects_non_finite_series(argv, capsys):
    assert run(["precess", *argv]) == 1
    out, err = capsys.readouterr()
    assert "nan" not in out.lower()
    assert "error" in err


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


def test_numerical_error_exits_1(capsys):
    code = run(["packet", "--p0", "500", "--sigma", "0.1", "--n", "64"])
    assert code == 1
    assert "error" in capsys.readouterr().err
