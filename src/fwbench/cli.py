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
byte-identical output.  Exit status: 0 when all expected-pass checks pass
and expected-fail checks fail as expected, 1 on a numerical miss, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import algebra
from . import eriksen as erk
from . import spin_dynamics as sd
from . import wavepacket as wp
from . import zitter as zt
from .dirac import (check_mass, check_positive_mass, energy, free_propagator,
                    fw_hamiltonian)
from .grids import Grid1D, check_length, check_size

DEFAULT_SEED = 42
FORMATS = ("json", "csv", "pretty-table")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _vec3(text: str) -> np.ndarray:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 comma-separated floats, got {text!r}")
    return np.array(parts)


def _checked(convert, check):
    """An argparse type: convert the text, then apply check, which returns
    the value or raises ValueError (a usage error, exit status 2)."""
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _check_finite(x: float) -> float:
    """x, or ValueError unless it is finite."""
    if not np.isfinite(x):
        raise ValueError(f"expected a finite number, got {x}")
    return x


def _check_positive(x: float) -> float:
    """x, or ValueError unless it is positive and finite."""
    if not 0 < x < np.inf:
        raise ValueError(f"expected a positive, finite number, got {x}")
    return x


_finite = _checked(float, _check_finite)
_positive = _checked(float, _check_positive)
_strengths = _checked(lambda text: [float(t) for t in text.split(",")],
                      lambda v0: erk.check_strengths(v0).tolist())
_grid_size = _checked(int, check_size)
_mass = _checked(float, check_mass)
_positive_mass = _checked(float, check_positive_mass)


def _int_at_least(lowest: int):
    """An argparse type: an integer of at least lowest."""
    def check(n: int) -> int:
        if n < lowest:
            raise ValueError(f"expected an integer of at least {lowest}, got {n}")
        return n
    return _checked(int, check)


def _reports_csv(reports) -> str:
    cols = ["identity_id", "set_name", "samples", "max_residual", "min_residual",
            "frac_above_floor", "tol", "floor", "expected", "verdict", "note"]
    lines = [",".join(cols)]
    for r in reports:
        d = r.to_dict()
        row = []
        for c in cols:
            v = d[c]
            if isinstance(v, float):
                row.append(_fmt(v))
            else:
                row.append(f'"{v}"' if c in ("identity_id", "note") else str(v))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _reports_table(reports) -> str:
    head = f"{'identity':48s} {'set':14s} {'expected':8s} {'max_resid':>10s} {'frac':>5s} verdict"
    lines = [head, "-" * len(head)]
    for r in reports:
        lines.append(f"{r.identity_id:48s} {r.set_name:14s} {r.expected:8s} "
                     f"{r.max_residual:10.2e} {r.frac_above_floor:5.2f} {r.verdict}")
    return "\n".join(lines) + "\n"


def cmd_verify_algebra(args) -> int:
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
    if args.format == "json":
        _emit(algebra.reports_to_json(reports), args.out)
    elif args.format == "csv":
        _emit(_reports_csv(reports), args.out)
    else:
        _emit(_reports_table(reports), args.out)
    ok = algebra.all_as_expected(reports)
    if not ok:
        bad = [r.identity_id for r in reports if r.verdict != "pass"]
        sys.stderr.write(f"unexpected outcomes: {bad}\n")
    return 0 if ok else 1


def _free_eriksen_checks(grid: Grid1D, mass: float) -> tuple:
    """(conditions, positive-spectrum error) of the exact transform on the
    free grid.  Its matrices are released on return, before the scaling
    study builds its own."""
    bh = erk.discretize_dirac_1d(grid, mass, lambda x: np.zeros_like(x))
    U, lam = erk.eriksen_unitary(bh)
    # Frobenius norms are reported over the 4n x 4n Dirac operator; the
    # spectra and the exponent are the same for the spin block.
    conds = {k: float(erk.four_component_norm(v))
             for k, v in erk.eriksen_conditions(U, lam, bh).items()}
    nu = bh.n_upper
    upper = (U[:nu] @ bh.H) @ U[:nu].conj().T           # upper-left quadrant of U H U^dag
    spec_err = float(np.max(np.abs(
        erk.upper_block_spectrum(upper, nu) - erk.free_spectrum_1d(grid, mass)[nu:])))
    return conds, spec_err


def cmd_eriksen(args) -> int:
    grid = Grid1D(n=args.n, length=args.box)
    conds, spec_err = _free_eriksen_checks(grid, args.mass)
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
    checks = (
        max(conds.values()) <= 1e-9
        and spec_err <= 1e-10
        and abs(study.exponent - 2.0) <= 0.3
    )
    result["verdict"] = "pass" if checks else "fail"
    _emit(json.dumps(result, indent=2, sort_keys=True), args.out)
    return 0 if checks else 1


def cmd_precess(args) -> int:
    cfg = sd.FieldConfig(e_field=args.e_field, b_field=args.b_field,
                         charge=args.charge, a_mm=args.a, eta=args.eta,
                         frame_accel=args.accel, frame_omega=args.omega)
    omega = sd.omega_total(args.p, args.mass, cfg, spin=args.spin)
    omega = omega + sd.omega_noninertial(args.p, args.mass, cfg)
    chi0 = sd.spinor_from_direction(args.s0)
    s0 = args.s0 / np.linalg.norm(args.s0)
    times = np.linspace(0.0, args.t_max, args.steps)
    rows = []
    for t in times:
        s_cl = sd.propagate_classical(s0, omega, t)
        s_q = sd.sigma_expectation(sd.propagate_quantum(chi0, omega, t))
        rows.append([t, *s_cl, *s_q])
    series = np.array(rows).reshape(-1, 7)   # (0, 7) when --steps is 0
    if not np.all(np.isfinite(series)):
        raise ValueError("precession series is not finite; check --t-max, --p and the fields")
    worst = float(np.max(np.abs(series[:, 1:4] - series[:, 4:]), initial=0.0))
    header = "t,Sx_classical,Sy_classical,Sz_classical,Sx_quantum,Sy_quantum,Sz_quantum"
    body = "\n".join(",".join(_fmt(v) for v in row) for row in rows)
    _emit(header + "\n" + body + "\n", args.out)
    sys.stderr.write(f"omega = ({_fmt(omega[0])}, {_fmt(omega[1])}, {_fmt(omega[2])}), "
                     f"max quantum-classical deviation = {worst:.3e}\n")
    return 0 if worst <= 1e-12 else 1


def cmd_zitter(args) -> int:
    p = np.array([0.0, 0.0, args.p])
    eps = energy(p, args.mass)
    times = np.linspace(0.0, args.t_max, args.steps)
    if args.particle == "fw":
        v = zt.fw_velocity(p, args.mass, 2)
        H, ts = fw_hamiltonian(p, args.mass), times[1:][:50, None, None]
        # exp(iHt) v exp(-iHt) over the time stack
        evolved = free_propagator(H, eps, -ts) @ v @ free_propagator(H, eps, ts)
        drift = float(np.max(np.linalg.norm(evolved - v, axis=(-2, -1))))
        _emit("t,velocity_variation\n" + "\n".join(
            f"{_fmt(t)},{_fmt(0.0)}" for t in times) + "\n", args.out)
        sys.stderr.write(f"velocity constant; max numeric variation {drift:.3e}\n")
        return 0 if drift <= 1e-12 else 1
    component = 2
    rec = zt.record_evolution(p, args.mass, times, component, args.particle)
    elem = (0, 2) if args.particle == "dirac" else (0, 1)
    rows = []
    for t, v, r in zip(times, rec.velocity, rec.position):
        ve, re_ = v[elem], r[elem]
        rows.append([t, ve.real, ve.imag, re_.real, re_.imag])
    header = "t,re_v,im_v,re_r,im_r"
    body = "\n".join(",".join(_fmt(x) for x in row) for row in rows)
    _emit(header + "\n" + body + "\n", args.out)
    freq = zt.dominant_frequency(times, [v[elem] for v in rec.velocity])
    rel = abs(freq - 2 * eps) / (2 * eps)
    sys.stderr.write(f"extracted frequency {_fmt(freq)} vs 2*energy {_fmt(2 * eps)}"
                     f" (relative error {rel:.3e})\n")
    return 0 if rel <= 1e-6 else 1


def cmd_packet(args) -> int:
    pk = wp.make_gaussian_packet(args.p0, args.sigma, args.mass, n=args.n)
    if args.t != 0.0:
        pk = wp.evolve_free(pk, args.t)
    x, rho_fw = wp.density(pk)
    _, rho_d = wp.density(wp.to_picture(pk, "dirac"))
    header = "x,rho_fw,rho_dirac"
    body = "\n".join(f"{_fmt(xi)},{_fmt(a)},{_fmt(b)}"
                     for xi, a, b in zip(x, rho_fw, rho_d))
    _emit(header + "\n" + body + "\n", args.out)
    n_fw = float(np.sum(rho_fw) * pk.grid.dx)
    n_d = float(np.sum(rho_d) * pk.grid.dx)
    disc = float(np.max(np.abs(rho_d - rho_fw)) / rho_fw.max())
    sys.stderr.write(f"normalization fw = {n_fw:.10f}, dirac = {n_d:.10f}; "
                     f"max density discrepancy / peak = {disc:.6f}\n")
    ok = abs(n_fw - 1) <= 1e-10 and abs(n_d - 1) <= 1e-10
    return 0 if ok else 1


def cmd_pce(args) -> int:
    pk = wp.make_gaussian_packet(args.p0, args.sigma, args.mass, n=args.n)
    x2_fw = wp.expectation(pk, wp.Observable("position_sq"), "fw_picture")
    x2_d = wp.expectation(pk, wp.Observable("position_sq"), "dirac_picture")
    pce_x2 = x2_d - x2_fw
    pce_p = wp.picture_change_error(pk, wp.Observable("momentum"))
    pce_id = wp.picture_change_error(pk, wp.Observable("identity"))
    norm_fw = wp.to_picture(pk, "fw").norm
    norm_d = wp.to_picture(pk, "dirac").norm
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
    lines = [
        f"normalization fw picture    = {norm_fw:.10f}",
        f"normalization dirac picture = {norm_d:.10f}",
        f"<x^2> fw picture            = {_fmt(x2_fw)}",
        f"<x^2> dirac picture         = {_fmt(x2_d)}",
        f"PCE(x^2)                    = {_fmt(pce_x2)}",
        f"PCE(p)                      = {_fmt(pce_p)}",
        f"PCE(identity)               = {_fmt(pce_id)}",
    ]
    if args.format == "json" or args.out:
        _emit(json.dumps(result, indent=2, sort_keys=True), args.out)
    else:
        _emit("\n".join(lines), None)
    ok = (abs(norm_fw - 1) <= 1e-10 and abs(norm_d - 1) <= 1e-10
          and abs(pce_p) <= 1e-12 and abs(pce_x2) > 1e-4 * abs(x2_fw))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwbench",
        description="Relativistic position/spin operator workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    va = sub.add_parser("verify-algebra", formatter_class=fmt,
                        help="run commutator / Poisson-bracket suites")
    va.add_argument("--set", default="conventional",
                    choices=list(algebra.QUANTUM_SET_NAMES) + ["classical", "all"])
    va.add_argument("--mass", type=_mass, default=1.0)
    va.add_argument("--samples", type=_int_at_least(1), default=100)
    va.add_argument("--seed", type=int, default=DEFAULT_SEED)
    va.add_argument("--format", default="json", choices=FORMATS)
    va.add_argument("--out", default=None)
    va.set_defaults(func=cmd_verify_algebra)

    er = sub.add_parser("eriksen", formatter_class=fmt,
                        help="exact/approximate block-diagonalization study")
    er.add_argument("--n", type=_grid_size, default=64)
    er.add_argument("--box", type=_checked(float, check_length), default=32.0)
    er.add_argument("--mass", type=_positive_mass, default=1.0)
    er.add_argument("--v0", type=_strengths, default=[1e-3, 1e-2, 1e-1],
                    help="comma-separated potential strengths")
    er.add_argument("--out", default=None)
    er.set_defaults(func=cmd_eriksen)

    pr = sub.add_parser("precess", formatter_class=fmt, help="uniform-field spin precession")
    pr.add_argument("--p", type=_vec3, default=np.zeros(3),
                    help="momentum px,py,pz")
    pr.add_argument("--mass", type=_positive_mass, default=1.0)
    pr.add_argument("--e-field", type=_vec3, default=np.zeros(3))
    pr.add_argument("--b-field", type=_vec3, default=np.zeros(3))
    pr.add_argument("--charge", type=float, default=1.0)
    pr.add_argument("--a", type=float, default=0.0,
                    help="anomalous moment (g-2)/2")
    pr.add_argument("--eta", type=float, default=0.0,
                    help="electric-dipole factor")
    pr.add_argument("--accel", type=_vec3, default=np.zeros(3),
                    help="frame acceleration")
    pr.add_argument("--omega", type=_vec3, default=np.zeros(3),
                    help="frame rotation")
    pr.add_argument("--spin", type=float, default=0.5, choices=(0.0, 0.5, 1.0))
    pr.add_argument("--s0", type=_vec3, default=np.array([1.0, 0.0, 0.0]),
                    help="initial spin direction")
    pr.add_argument("--t-max", type=float, default=10.0)
    pr.add_argument("--steps", type=_int_at_least(0), default=200)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_precess)

    zi = sub.add_parser("zitter", formatter_class=fmt, help="trembling-motion time series")
    zi.add_argument("--p", type=float, default=1.0, help="momentum along z")
    zi.add_argument("--m", dest="mass", type=float, default=1.0)
    zi.add_argument("--t-max", type=float, default=10.0)
    zi.add_argument("--steps", type=_int_at_least(2), default=4000)
    zi.add_argument("--particle", default="dirac", choices=("dirac", "fv", "fw"))
    zi.add_argument("--out", default=None)
    zi.set_defaults(func=cmd_zitter)

    pa = sub.add_parser("packet", formatter_class=fmt, help="packet densities in both pictures")
    pa.add_argument("--p0", type=_finite, default=2.0)
    pa.add_argument("--sigma", type=_positive, default=0.5)
    pa.add_argument("--mass", type=_positive_mass, default=1.0)
    pa.add_argument("--n", type=_grid_size, default=256)
    pa.add_argument("--t", type=_finite, default=0.0)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_packet)

    pc = sub.add_parser("pce", formatter_class=fmt, help="picture-change-error report")
    pc.add_argument("--p0", type=_finite, default=2.0)
    pc.add_argument("--sigma", type=_positive, default=0.5)
    pc.add_argument("--mass", type=_positive_mass, default=1.0)
    pc.add_argument("--n", type=_grid_size, default=256)
    pc.add_argument("--format", default="pretty-table", choices=("json", "pretty-table"))
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_pce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
