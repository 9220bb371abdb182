"""Workload inputs, unit execution and the correctness gate.

A workload is a list of units.  A unit is one CLI invocation, run in
process through ``fwbench.cli.main(argv)`` with stdout and stderr
captured, or one library call of the kind the sweep scripts make.  Every
unit is a plain JSON-able dict, so a fresh interpreter can generate the
inputs for the set-up measurement without running anything.

Inputs come only from the benchmark seed.  Units whose inputs do not
depend on the seed (the CLI defaults and the packet grid) are checked
against stored reference numbers on every seed; seeded units are checked
against them on ``DEFAULT_SEED``, where the reference was recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import fwbench.algebra as algebra
import fwbench.cli
import fwbench.wavepacket as wp
import fwbench.zitter as zitter

DEFAULT_SEED = 0
WORKLOADS = ("verify", "spectral", "sweep")
QUANTUM_SETS = ("conventional", "naive_dirac", "center_of_mass", "projected")
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# The host-speed probe (hostspeed.KERNELS) whose instruction mix resembles each workload's.
PROBE_KIND = {"verify": "interp", "spectral": "blas", "sweep": "interp"}

# verify: the full identity traffic of ``verify-algebra --set all``, one unit per set.
VERIFY_SAMPLES = 100
# spectral: dense 4n x 4n Dirac Hamiltonians; n = 256 would take about a minute.
SPECTRAL_N = (32, 64, 128)
SPECTRAL_MASS_RANGE = (0.5, 2.0)
# sweep: the scripts/ parameter ladders, shortened where noted.
LADDER_MASSES = (0.5, 1.0, 10.0)
LADDER_SAMPLES = 10
ZITTER_MOMENTA = 8          # zitter_sweep.py uses 25 on a fixed linspace
ZITTER_P_RANGE = (0.1, 5.0)
ZITTER_STEPS = 3000
PCE_P0 = (0.0, 0.5, 1.0, 2.0, 3.0)
PCE_SIGMA = (0.1, 0.25, 0.5, 1.0)
CLI_DEFAULTS = ("precess", "zitter", "packet", "pce")

# Gate tolerances, |value - ref| <= REL * |ref| + ABS.  The eriksen and
# zitter ones are about 10-100x the largest change seen between 1 and 2 BLAS
# threads at the default and one other seed (RATIONALE.md has the figures);
# none is looser than the program's own exit check.
EXPECTED_FAIL_REL = 1e-8        # ROADMAP item 2's gate on expected-fail residuals
ERIKSEN_OFFBLOCK_REL = 1e-9     # approx_offblock; seen 6.8e-12
ERIKSEN_SPECTRAL_REL = 1e-4     # even_block_spectral_diff; seen 3.6e-6
ERIKSEN_EXPONENT_ABS = 1e-5     # scaling exponent; seen 7.9e-7, program allows 0.3
ERIKSEN_ROUNDOFF_MAX = 1e-11    # free conditions, exact off-block; seen 4.2e-13, program 1e-9
ERIKSEN_SPECTRUM_MAX = 1e-11    # free positive spectrum; seen 6.4e-14, program 1e-10
ZITTER_FREQ_REL = 1e-6          # the gate cmd_zitter applies against 2 * energy
ZITTER_REF_REL = 1e-12          # closed forms, no BLAS: the series is bit-reproducible
PCE_REL = 1e-9                  # FFT packet layer, bit-reproducible here
PCE_ABS = 1e-15
CLI_REF_REL = 1e-9


def _seed_ints(rng, k: int) -> list:
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=k)]


def make_units(workload: str, seed: int) -> list:
    """The units of one workload pass; identical for identical seeds."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify":
        (s,) = _seed_ints(rng, 1)
        return [_cli_unit(["verify-algebra", "--set", name, "--mass", "1",
                           "--samples", str(VERIFY_SAMPLES), "--seed", str(s)],
                          check="algebra", seeded=True)
                for name in QUANTUM_SETS + ("classical",)]
    if workload == "spectral":
        mass = round(float(rng.uniform(*SPECTRAL_MASS_RANGE)), 6)
        return [_cli_unit(["eriksen", "--n", str(n), "--mass", repr(mass)],
                          check="eriksen", seeded=True)
                for n in SPECTRAL_N]
    if workload == "sweep":
        (s,) = _seed_ints(rng, 1)
        units = [{"id": f"suite {name} m={m!r} samples={LADDER_SAMPLES} seed={s}",
                  "kind": "suite", "set": name, "mass": m,
                  "samples": LADDER_SAMPLES, "seed": s, "check": "algebra",
                  "seeded": True}
                 for name in QUANTUM_SETS for m in LADDER_MASSES]
        units.append({"id": f"suite classical m=1.0 samples={LADDER_SAMPLES} seed={s}",
                      "kind": "suite", "set": "classical", "mass": 1.0,
                      "samples": LADDER_SAMPLES, "seed": s, "check": "algebra",
                      "seeded": True})
        momenta = np.sort(rng.uniform(*ZITTER_P_RANGE, size=ZITTER_MOMENTA))
        for pz in momenta:
            for particle in ("dirac", "fv"):
                pz = round(float(pz), 9)
                units.append({"id": f"zitter_sweep {particle} pz={pz!r}",
                              "kind": "zitter_sweep", "particle": particle,
                              "pz": pz, "mass": 1.0, "steps": ZITTER_STEPS,
                              "check": "zitter_sweep", "seeded": True})
        for p0 in PCE_P0:
            for sigma in PCE_SIGMA:
                units.append({"id": f"pce_sweep p0={p0!r} sigma={sigma!r}",
                              "kind": "pce_sweep", "p0": p0, "sigma": sigma,
                              "mass": 1.0, "check": "pce_sweep", "seeded": False})
        units.extend(_cli_unit([name], check=name, seeded=False)
                     for name in CLI_DEFAULTS)
        return units
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _cli_unit(argv: list, check: str, seeded: bool) -> dict:
    return {"id": "fwbench " + " ".join(argv), "kind": "cli", "argv": argv,
            "check": check, "seeded": seeded}


# --- execution ----------------------------------------------------------------

def run_unit(unit: dict) -> dict:
    """Run one unit through the program's public entry points.

    Returns ``{"rc": int, "stdout": str, "stderr": str}`` for CLI units and
    ``{"rc": 0, "value": ...}`` for library calls.  Exceptions propagate to
    the caller, which counts the unit as failed.
    """
    kind = unit["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = fwbench.cli.main(list(unit["argv"]))
            except SystemExit as exc:     # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if kind == "suite":
        if unit["set"] == "classical":
            reports = algebra.run_classical_suite(unit["samples"], m=unit["mass"],
                                                  seed=unit["seed"])
        else:
            reports = algebra.run_quantum_suite(unit["set"], unit["mass"],
                                                unit["samples"], seed=unit["seed"])
        return {"rc": 0, "value": [r.to_dict() for r in reports]}
    if kind == "zitter_sweep":
        pz, m = unit["pz"], unit["mass"]
        eps = math.sqrt(m * m + pz * pz)
        times = np.linspace(0.0, 30 * np.pi / eps, unit["steps"])
        elem = (0, 2) if unit["particle"] == "dirac" else (0, 1)
        rec = zitter.record_evolution(np.array([0.0, 0.0, pz]), m, times, 2,
                                      unit["particle"])
        freq = zitter.dominant_frequency(times, [v[elem] for v in rec.velocity])
        return {"rc": 0, "value": {"freq": float(freq), "two_energy": 2 * eps}}
    if kind == "pce_sweep":
        m = unit["mass"]
        pk = wp.make_gaussian_packet(unit["p0"] * m, unit["sigma"] * m, m)
        x2 = wp.expectation(pk, wp.Observable("position_sq"))
        pce = wp.picture_change_error(pk, wp.Observable("position_sq"))
        _, rho_fw = wp.density(pk)
        _, rho_d = wp.density(wp.to_picture(pk, "dirac"))
        disc = float(np.max(np.abs(rho_d - rho_fw)) / rho_fw.max())
        return {"rc": 0, "value": {"pce_x2_relative": float(pce / x2),
                                   "density_discrepancy": disc}}
    raise ValueError(f"unknown unit kind {kind!r}")


# --- the correctness gate -------------------------------------------------------

def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def observe(unit: dict, out: dict) -> dict:
    """The numbers of a unit's output that the gate compares and stores."""
    check = unit["check"]
    if check == "algebra":
        reports = out["value"] if "value" in out else json.loads(out["stdout"])
        return {"reports": [[r["identity_id"], r["expected"], r["verdict"],
                             r["max_residual"], r["tol"]] for r in reports]}
    if check == "eriksen":
        return json.loads(out["stdout"])
    if check in ("zitter_sweep", "pce_sweep"):
        return dict(out["value"])
    if check == "precess":
        last = out["stdout"].strip().splitlines()[-1]
        dev = _grab(r"max quantum-classical deviation = (\S+)", out["stderr"])
        return {"last_row": [float(v) for v in last.split(",")], "deviation": dev}
    if check == "zitter":
        m = re.search(r"extracted frequency (\S+) vs 2\*energy (\S+)", out["stderr"])
        return {"freq": float(m.group(1)), "two_energy": float(m.group(2))}
    if check == "packet":
        m = re.search(r"normalization fw = (\S+), dirac = (\S+);", out["stderr"])
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out["stdout"].strip().splitlines()[1:]])
        disc = np.max(np.abs(rows[:, 2] - rows[:, 1])) / rows[:, 1].max()
        return {"norm_fw": float(m.group(1)), "norm_dirac": float(m.group(2)),
                "discrepancy": float(disc)}
    if check == "pce":
        vals = {}
        for line in out["stdout"].splitlines():
            key, _, val = line.partition("=")
            vals[key.strip()] = float(val)
        return vals
    raise ValueError(f"unknown check {check!r}")


def _grab(pattern: str, text: str) -> float:
    return float(re.search(pattern, text).group(1))


def _close(value: float, ref: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(value - ref) <= rel * abs(ref) + abs_


def check_unit(unit: dict, out: dict, reference: dict, seed: int) -> list:
    """Problems found in one unit's output; an empty list means it passed.

    ``reference`` is the stored reference document.  The unit's own numbers
    are compared with ``reference["units"][unit id]`` when the unit's inputs
    are the stored ones (every seed for unseeded units, ``DEFAULT_SEED`` for
    seeded units).
    """
    if out.get("rc") != 0:
        return [f"exit status {out.get('rc')}"]
    try:
        obs = observe(unit, out)
    except (ValueError, KeyError, AttributeError, IndexError) as exc:
        return [f"unparsable output: {exc!r}"]
    ref = None
    if not unit["seeded"] or seed == DEFAULT_SEED:
        ref = reference["units"].get(unit["id"])
        if ref is None:
            return ["no stored reference for this unit"]
    return _CHECKS[unit["check"]](unit, obs, ref, reference)


def set_name(unit: dict) -> str:
    """The operator set of a suite or verify-algebra unit."""
    return unit["set"] if "set" in unit else unit["argv"][unit["argv"].index("--set") + 1]


def _check_algebra(unit, obs, ref, reference) -> list:
    problems = []
    name = set_name(unit)
    table = [tuple(row) for row in reference["tables"][name]]
    got = [(row[0], row[1]) for row in obs["reports"]]
    if got != table:
        problems.append(f"identity table differs from the stored {name} table")
    for ident, expected, verdict, resid, tol in obs["reports"]:
        if verdict != "pass":
            problems.append(f"{ident}: verdict {verdict}")
        if expected == "hold" and not resid <= tol:
            problems.append(f"{ident}: expected-hold residual {resid:.3e} > {tol:.0e}")
    if ref is not None:
        for row, ref_row in zip(obs["reports"], ref["reports"]):
            if row[1] == "fail" and not _close(row[3], ref_row[3], EXPECTED_FAIL_REL):
                problems.append(f"{row[0]}: expected-fail residual {row[3]!r} "
                                f"moved from {ref_row[3]!r}")
    return problems


def _check_eriksen(unit, obs, ref, reference) -> list:
    problems = []
    if obs["verdict"] != "pass":
        problems.append("verdict fail")
    worst = max(max(obs["free_conditions"].values()), max(obs["exact_offblock"]))
    if not worst <= ERIKSEN_ROUNDOFF_MAX:
        problems.append(f"exact-transform residual {worst:.3e} > {ERIKSEN_ROUNDOFF_MAX:.0e}")
    if not obs["free_positive_spectrum_error"] <= ERIKSEN_SPECTRUM_MAX:
        problems.append(f"free spectrum error {obs['free_positive_spectrum_error']:.3e}")
    if not abs(obs["scaling_exponent"] - 2.0) <= 0.3:
        problems.append(f"scaling exponent {obs['scaling_exponent']:.4f}")
    if ref is not None:
        for key, rel in (("approx_offblock", ERIKSEN_OFFBLOCK_REL),
                         ("even_block_spectral_diff", ERIKSEN_SPECTRAL_REL)):
            for v, r in zip(obs[key], ref[key]):
                if not _close(v, r, rel):
                    problems.append(f"{key} {v!r} moved from {r!r}")
        if not _close(obs["scaling_exponent"], ref["scaling_exponent"], 0.0,
                      ERIKSEN_EXPONENT_ABS):
            problems.append(f"scaling exponent {obs['scaling_exponent']!r} moved "
                            f"from {ref['scaling_exponent']!r}")
    return problems


def _check_zitter(unit, obs, ref, reference) -> list:
    problems = []
    rel = abs(obs["freq"] - obs["two_energy"]) / obs["two_energy"]
    if not rel <= ZITTER_FREQ_REL:
        problems.append(f"frequency off 2*energy by {rel:.3e}")
    if ref is not None and not _close(obs["freq"], ref["freq"], ZITTER_REF_REL):
        problems.append(f"frequency {obs['freq']!r} moved from {ref['freq']!r}")
    return problems


def _check_pce_sweep(unit, obs, ref, reference) -> list:
    return [f"{k} {obs[k]!r} moved from {ref[k]!r}" for k in ref
            if not _close(obs[k], ref[k], PCE_REL, PCE_ABS)]


def _check_precess(unit, obs, ref, reference) -> list:
    problems = [] if obs["deviation"] <= 1e-12 else [f"deviation {obs['deviation']:.3e}"]
    if not all(_close(v, r, CLI_REF_REL, 1e-15)
               for v, r in zip(obs["last_row"], ref["last_row"])):
        problems.append(f"last row {obs['last_row']} moved from {ref['last_row']}")
    return problems


def _check_packet(unit, obs, ref, reference) -> list:
    problems = [f"{k} = {obs[k]!r}" for k in ("norm_fw", "norm_dirac")
                if not abs(obs[k] - 1) <= 1e-10]
    if not _close(obs["discrepancy"], ref["discrepancy"], CLI_REF_REL):
        problems.append(f"discrepancy {obs['discrepancy']!r} moved from "
                        f"{ref['discrepancy']!r}")
    return problems


def _check_pce(unit, obs, ref, reference) -> list:
    problems = [f"{k} {obs.get(k)!r} moved from {ref[k]!r}" for k in ref
                if k not in obs or not _close(obs[k], ref[k], CLI_REF_REL, PCE_ABS)]
    if not abs(obs.get("PCE(p)", 1.0)) <= 1e-12:
        problems.append("PCE(p) is not zero")
    return problems


_CHECKS = {
    "algebra": _check_algebra,
    "eriksen": _check_eriksen,
    "zitter_sweep": _check_zitter,
    "pce_sweep": _check_pce_sweep,
    "precess": _check_precess,
    "zitter": _check_zitter,
    "packet": _check_packet,
    "pce": _check_pce,
}
