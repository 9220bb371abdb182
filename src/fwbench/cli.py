"""Command-line front end: run verification suites and scenario sweeps.

Subcommands
    verify-algebra  commutator / Poisson-bracket identity suites
    eriksen         exact vs approximate block-diagonalization on a 1D grid
    precess         spin precession, quantum vs classical propagation
    zitter          trembling-motion time series and frequency extraction
    packet          momentum-space packet densities in both pictures
    pce             picture-change-error report for one packet

Every command is deterministic for a fixed seed and flag set (no
timestamps, fixed float formatting), so identical invocations produce
byte-identical output.  Each cmd_* computes and checks everything first,
then returns its output text, its stderr note ("" for none) and whether
every check passed; only main() writes.  Exit status: 0 when all
expected-pass checks pass and expected-fail checks fail as expected, 1 on
a numerical miss or a numeric failure (a floating-point overflow, invalid
operation or division by zero, reported as one error line with stdout and
the --out file left untouched), 2 on usage errors.

main can be called repeatedly in one process.  Every call shares one
parser, built on the first call; its defaults are immutable (tuples and
read-only arrays), so no call changes what the next one parses.  main looks
each command up as the module's cmd_<command> at every call, so a cmd_*
rebound on the module, by a tracer or a test, is the one that runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import algebra
from . import eriksen as erk
from . import spin_dynamics as sd
from . import wavepacket as wp
from . import zitter as zt
from .dirac import check_count, check_finite, check_positive, check_vec3, energy
from .grids import Grid1D, check_size

_FLOAT = "%.17g"   # every float written in full: 17 digits round-trip float64


def _fmt(v: float) -> str:
    return _FLOAT % v


def _series_csv(header: str, rows: np.ndarray) -> str:
    """A CSV of the header line and one line per row of the (N, k) array,
    each value written as _fmt writes it; the header alone when N is 0."""
    template = ",".join([_FLOAT] * rows.shape[1]) + "\n"
    return header + "\n" + "".join([template % tuple(row) for row in rows.tolist()])


def _emit(text: str, out) -> None:
    """Write text, ended by one newline, to the --out file or to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _checked(convert, check):
    """An argparse type: convert the text, then apply check, which returns
    the value or raises ValueError (a usage error, exit status 2)."""
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _check_direction(v: list) -> np.ndarray:
    """v as an array, or ValueError unless it is a direction unit_direction takes."""
    s = check_vec3(v, "value")
    sd.unit_direction(s)
    return s


def _floats(text: str) -> list:
    return [float(t) for t in text.split(",")]


_finite = _checked(float, lambda x: check_finite(x, "value"))
_positive = _checked(float, lambda x: check_positive(x, "value"))
_vec3 = _checked(_floats, lambda v: check_vec3(v, "value"))
_direction = _checked(_floats, _check_direction)
_strengths = _checked(_floats, lambda v0: erk.check_strengths(v0).tolist())
_grid_size = _checked(int, check_size)
_box = _checked(float, lambda x: check_positive(x, "box length"))
# every --mass is positive: the eriksen and packet grids hold p = 0, where
# the massless Hamiltonian has a zero mode (the sign function is undefined
# there, and the free unitary depends on the direction of p and so has no
# value); the precession frequencies divide by m, and so do the
# center-of-mass operators of the identity suites
_positive_mass = _checked(float, lambda m: check_positive(m, "mass"))


def _int_at_least(lowest: int):
    """An argparse type: an integer of at least lowest."""
    return _checked(int, lambda n: check_count(n, lowest, "value"))


def _csv_value(column: str, value) -> str:
    """One CSV field: a float as _fmt writes it, the identity and the note quoted."""
    if isinstance(value, float):
        return _fmt(value)
    return f'"{value}"' if column in ("identity_id", "note") else str(value)


def _reports_csv(reports) -> str:
    cols = [f.name for f in dataclasses.fields(algebra.AlgebraReport)]
    rows = [",".join(_csv_value(c, getattr(r, c)) for c in cols) for r in reports]
    return "\n".join([",".join(cols), *rows]) + "\n"


def _reports_table(reports) -> str:
    head = f"{'identity':48s} {'set':14s} {'expected':8s} {'max_resid':>10s} {'frac':>5s} verdict"
    lines = [head, "-" * len(head)]
    for r in reports:
        lines.append(f"{r.identity_id:48s} {r.set_name:14s} {r.expected:8s} "
                     f"{r.max_residual:10.2e} {r.frac_above_floor:5.2f} {r.verdict}")
    return "\n".join(lines) + "\n"


def _reports_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


_RENDER = {"json": _reports_json, "csv": _reports_csv, "pretty-table": _reports_table}


def _verdict(checks) -> tuple:
    """(stderr line naming each failed check with its value and bound, or "";
    whether all passed) for rows (name, value, bound, ok)."""
    failed = [f"{name} {value:.6g} (bound {bound})" for name, value, bound, ok in checks
              if not ok]
    return (f"failed checks: {'; '.join(failed)}\n" if failed else ""), not failed


def _normalization_checks(n_fw: float, n_dirac: float) -> list:
    """The check rows that a packet's norm is 1 in each picture."""
    return [(f"normalization_{pic}", n, "|x - 1| <= 1e-10", abs(n - 1) <= 1e-10)
            for pic, n in (("fw", n_fw), ("dirac", n_dirac))]


def cmd_verify_algebra(args) -> tuple:
    sets = ([args.set] if args.set != "all"
            else list(algebra.QUANTUM_SET_NAMES) + ["classical"])
    reports = []
    for name in sets:
        if name == "classical":
            reports.extend(algebra.run_classical_suite(
                args.samples, m=args.mass, seed=args.seed))
        else:
            reports.extend(algebra.run_quantum_suite(
                name, args.mass, args.samples, seed=args.seed))
    stderr, ok = _verdict([(f"{r.set_name}: {r.identity_id}", r.max_residual,
                            f"<= {r.tol:g}" if r.expected == "hold" else f">= {r.floor:g}",
                            r.verdict == "pass") for r in reports])
    return _RENDER[args.format](reports), stderr, ok


def cmd_eriksen(args) -> tuple:
    grid = Grid1D(n=args.n, length=args.box)
    conds, spec_err = erk.free_checks(grid, args.mass)
    conds = {k: float(erk.four_component_norm(v)) for k, v in conds.items()}
    study = erk.potential_scaling_study(grid, args.mass, args.v0)
    result = {
        "n": args.n,
        "box": args.box,
        "mass": args.mass,
        "free_conditions": conds,
        "free_positive_spectrum_error": spec_err,
        "v0": [float(v) for v in study.v0],
        "even_block_spectral_diff": [float(v) for v in study.even_block_diff],
        "approx_offblock": [float(v) for v in erk.four_component_norm(study.approx_offblock)],
        "exact_offblock": [float(v) for v in erk.four_component_norm(study.exact_offblock)],
        "scaling_exponent": study.exponent,
    }
    worst = max(conds.values())
    stderr, ok = _verdict((
        ("free_conditions", worst, "max <= 1e-9", worst <= 1e-9),
        ("free_positive_spectrum_error", spec_err, "<= 1e-10", spec_err <= 1e-10),
        ("scaling_exponent", study.exponent, "2 +- 0.3", abs(study.exponent - 2.0) <= 0.3),
    ))
    result["verdict"] = "pass" if ok else "fail"
    return json.dumps(result, indent=2, sort_keys=True), stderr, ok


def cmd_precess(args) -> tuple:
    cfg = sd.FieldConfig(e_field=args.e_field, b_field=args.b_field,
                         charge=args.charge, a_mm=args.a, eta=args.eta,
                         frame_accel=args.accel, frame_omega=args.omega)
    omega = sd.angular_velocity(args.p, args.mass, cfg)
    if not np.all(np.isfinite(omega)):
        # e / m and the other prefactors are Python floats, which overflow to
        # inf without raising
        raise ValueError("precession angular velocity is not finite; "
                         "check --mass, --charge and the fields")
    times = np.linspace(0.0, args.t_max, args.steps)
    s_classical = sd.propagate_classical(sd.unit_direction(args.s0), omega, times)
    chi = sd.propagate_quantum(sd.spinor_from_direction(args.s0), omega, times)
    series = np.column_stack((times, s_classical, sd.sigma_expectation(chi)))
    if not np.all(np.isfinite(series)):
        raise ValueError("precession series is not finite; check --t-max, --p and the fields")
    worst = float(np.max(np.abs(series[:, 1:4] - series[:, 4:]), initial=0.0))
    header = "t,Sx_classical,Sy_classical,Sz_classical,Sx_quantum,Sy_quantum,Sz_quantum"
    failed, ok = _verdict([("quantum_classical_deviation", worst, "<= 1e-12", worst <= 1e-12)])
    return (_series_csv(header, series),
            f"omega = ({_fmt(omega[0])}, {_fmt(omega[1])}, {_fmt(omega[2])}), "
            f"max quantum-classical deviation = {worst:.3e}\n" + failed, ok)


def cmd_zitter(args) -> tuple:
    p = np.array([0.0, 0.0, args.p])
    eps = energy(p, args.mass)
    times = np.linspace(0.0, args.t_max, args.steps)
    rec = zt.record_evolution(p, args.mass, times, 2, args.particle).entry(
        0, {"dirac": 2, "fv": 1, "fw": 0}[args.particle])
    v, r = rec.velocity, rec.position
    series = _series_csv("t,re_v,im_v,re_r,im_r",
                         np.column_stack((times, v.real, v.imag, r.real, r.imag)))
    if not np.any(rec.velocity_coeffs[1:3]):
        # no cos or sin term: the FW velocity commutes with H, and the
        # scalar-sector velocity at rest is exactly 0
        return series, "velocity constant; no trembling to extract a frequency from\n", True
    freq = zt.dominant_frequency(times, v)
    rel = abs(freq - 2 * eps) / (2 * eps)
    failed, ok = _verdict([("frequency_relative_error", rel, "<= 1e-6", rel <= 1e-6)])
    return (series,
            f"extracted frequency {_fmt(freq)} vs 2*energy {_fmt(2 * eps)}"
            f" (relative error {rel:.3e})\n" + failed, ok)


def cmd_packet(args) -> tuple:
    pk = wp.make_gaussian_packet(args.p0, args.sigma, args.mass, n=args.n)
    pk = wp.evolve_free(pk, args.t)
    x, rho_fw = wp.density(pk)
    _, rho_d = wp.density(wp.to_picture(pk, "dirac"))
    n_fw = float(np.sum(rho_fw) * pk.grid.dx)
    n_d = float(np.sum(rho_d) * pk.grid.dx)
    disc = float(np.max(np.abs(rho_d - rho_fw)) / rho_fw.max())
    failed, ok = _verdict(_normalization_checks(n_fw, n_d))
    return (_series_csv("x,rho_fw,rho_dirac", np.column_stack((x, rho_fw, rho_d))),
            f"normalization fw = {n_fw:.10f}, dirac = {n_d:.10f}; "
            f"max density discrepancy / peak = {disc:.6f}\n" + failed, ok)


def cmd_pce(args) -> tuple:
    pk = wp.make_gaussian_packet(args.p0, args.sigma, args.mass, n=args.n)
    pk_d = wp.to_picture(pk, "dirac")
    x_sq, mom = wp.Observable("position_sq"), wp.Observable("momentum")
    x2_fw, x2_d = wp.expectation(pk, x_sq), wp.expectation(pk_d, x_sq)
    p_fw, p_d = wp.expectation(pk, mom), wp.expectation(pk_d, mom)
    norm_fw, norm_d = pk.norm, pk_d.norm
    pce_x2, pce_p, pce_id = x2_d - x2_fw, p_d - p_fw, norm_d - norm_fw
    result = {
        "p0": args.p0,
        "sigma": args.sigma,
        "mass": args.mass,
        "x_sq_fw_picture": x2_fw,
        "x_sq_dirac_picture": x2_d,
        "pce_x_sq": pce_x2,
        "pce_momentum": pce_p,
        "pce_identity": pce_id,
        "normalization_fw": norm_fw,
        "normalization_dirac": norm_d,
    }
    # PCE(p) is zero in theory: both momentum moments round at the scale of
    # the packet's momenta, the band p0 +- 6 sigma that the grid covers
    p_bound = 100 * np.finfo(float).eps * (abs(args.p0) + 6 * args.sigma)
    stderr, ok = _verdict((
        *_normalization_checks(norm_fw, norm_d),
        ("pce_momentum", pce_p, f"|x| <= 100 u (|p0| + 6 sigma) = {p_bound:.6g}",
         abs(pce_p) <= p_bound),
        ("pce_x_sq", pce_x2, f"|x| > 1e-4 <x^2>_fw = {1e-4 * abs(x2_fw):.6g}",
         abs(pce_x2) > 1e-4 * abs(x2_fw)),
    ))
    if args.format == "json" or args.out:
        return json.dumps(result, indent=2, sort_keys=True), stderr, ok
    return "\n".join([
        f"normalization fw picture    = {norm_fw:.10f}",
        f"normalization dirac picture = {norm_d:.10f}",
        f"<x^2> fw picture            = {_fmt(x2_fw)}",
        f"<x^2> dirac picture         = {_fmt(x2_d)}",
        f"PCE(x^2)                    = {_fmt(pce_x2)}",
        f"PCE(p)                      = {_fmt(pce_p)}",
        f"PCE(identity)               = {_fmt(pce_id)}",
    ]), stderr, ok


# every call of the one parser hands out the same default objects, so none
# of them can be changed in place
_ZERO3, _X_AXIS = np.zeros(3), np.array([1.0, 0.0, 0.0])
_ZERO3.flags.writeable = _X_AXIS.flags.writeable = False


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fwbench parser, built on the first call and shared by every later
    one.  It holds no command functions: main looks each one up by name."""
    parser = argparse.ArgumentParser(
        prog="fwbench",
        description="Relativistic position/spin operator workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    va = sub.add_parser("verify-algebra", formatter_class=fmt,
                        help="run commutator / Poisson-bracket suites")
    va.add_argument("--set", default="conventional",
                    choices=list(algebra.QUANTUM_SET_NAMES) + ["classical", "all"])
    va.add_argument("--mass", type=_positive_mass, default=1.0)
    va.add_argument("--samples", type=_int_at_least(1), default=100)
    va.add_argument("--seed", type=_int_at_least(0), default=algebra.DEFAULT_SEED)
    va.add_argument("--format", default="json", choices=list(_RENDER))

    er = sub.add_parser("eriksen", formatter_class=fmt,
                        help="exact/approximate block-diagonalization study")
    er.add_argument("--n", type=_grid_size, default=64)
    er.add_argument("--box", type=_box, default=32.0)
    er.add_argument("--mass", type=_positive_mass, default=1.0)
    er.add_argument("--v0", type=_strengths, default=(1e-3, 1e-2, 1e-1),
                    help="comma-separated potential strengths")

    pr = sub.add_parser("precess", formatter_class=fmt, help="uniform-field spin precession")
    pr.add_argument("--p", type=_vec3, default=_ZERO3,
                    help="momentum px,py,pz")
    pr.add_argument("--mass", type=_positive_mass, default=1.0)
    pr.add_argument("--e-field", type=_vec3, default=_ZERO3)
    pr.add_argument("--b-field", type=_vec3, default=_ZERO3)
    pr.add_argument("--charge", type=_finite, default=1.0)
    pr.add_argument("--a", type=_finite, default=0.0,
                    help="anomalous moment (g-2)/2")
    pr.add_argument("--eta", type=_finite, default=0.0,
                    help="electric-dipole factor")
    pr.add_argument("--accel", type=_vec3, default=_ZERO3,
                    help="frame acceleration")
    pr.add_argument("--omega", type=_vec3, default=_ZERO3,
                    help="frame rotation")
    pr.add_argument("--s0", type=_direction, default=_X_AXIS,
                    help="initial spin direction")
    pr.add_argument("--t-max", type=_finite, default=10.0,
                    help="end time; a negative value evolves backward")
    pr.add_argument("--steps", type=_int_at_least(0), default=200)

    zi = sub.add_parser("zitter", formatter_class=fmt, help="trembling-motion time series")
    zi.add_argument("--p", type=_finite, default=1.0, help="momentum along z")
    # at m = 0, alpha_z commutes with H for p along z: there is no trembling
    zi.add_argument("--m", dest="mass", type=_positive_mass, default=1.0)
    zi.add_argument("--t-max", type=_positive, default=10.0)
    zi.add_argument("--steps", type=_int_at_least(2), default=4000)
    zi.add_argument("--particle", default="dirac", choices=tuple(zt.HAMILTONIANS))

    pa = sub.add_parser("packet", formatter_class=fmt, help="packet densities in both pictures")
    pc = sub.add_parser("pce", formatter_class=fmt, help="picture-change-error report")
    for command in (pa, pc):    # the packet options the two commands share
        command.add_argument("--p0", type=_finite, default=2.0)
        command.add_argument("--sigma", type=_positive, default=0.5)
        command.add_argument("--mass", type=_positive_mass, default=1.0)
        command.add_argument("--n", type=_grid_size, default=256)
    pa.add_argument("--t", type=_finite, default=0.0)
    pc.add_argument("--format", default="pretty-table", choices=("json", "pretty-table"))

    for command in sub.choices.values():
        command.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and write what it returned.  Overflow, invalid
    operations and division by zero raise (underflow stays silent: Gaussian
    tails underflow by design), so a numeric failure ends as one error line
    and exit status 1, with nothing written to stdout or the --out file."""
    args = build_parser().parse_args(argv)
    # looked up at each call, so that a cmd_* rebound on the module runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            text, note, ok = command(args)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(text, args.out)
    sys.stderr.write(note)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
