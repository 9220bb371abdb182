#!/usr/bin/env python3
"""The fwbench benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 fwperf/run.py --workload verify|spectral|sweep --seed N \
        --seconds S --trace 0|1

The load is a closed loop with one caller: each unit starts when the
previous one returns, in this process.  ``--trace 0`` reports the
end-to-end metrics (set-up time, wall time per pass rescaled to a reference
host speed by ``hostspeed.ScaledClock``, peak resident set);
``--trace 1`` adds one traced pass and reports the per-layer metrics.
Every unit's output goes through the correctness gate in ``workloads.py``.
The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
OUT_DIR = ".fwperf"

# Per-layer metrics of a traced run, with their units; BENCHMARK.json lists
# the same names.  Each layer's line in RATIONALE.md names the end-to-end
# metric and workload it should move.
EIGH_DIMS = (64, 128, 256, 512)
CLI_SUBCOMMANDS = ("verify-algebra", "eriksen", "precess", "zitter", "packet", "pce")
PER_LAYER = (
    [("phase_ops.snapshot.calls", "count"), ("phase_ops.snapshot.busy_s", "s"),
     ("phase_ops.commutator_snapshot.calls", "count"),
     ("phase_ops.commutator_snapshot.busy_s", "s"),
     ("phase_ops.coeff_derivative.calls", "count"),
     ("phase_ops.fd_per_snapshot", "ratio"),
     ("phase_ops.build_operator.calls", "count"), ("phase_ops.build_operator.busy_s", "s"),
     ("algebra.run_quantum_suite.calls", "count"),
     ("algebra.run_quantum_suite.busy_s", "s"), ("algebra.run_quantum_suite.self_s", "s"),
     ("algebra.run_classical_suite.calls", "count"),
     ("algebra.run_classical_suite.busy_s", "s"),
     ("algebra.residuals", "count"),
     ("eriksen.discretize_dirac_1d.busy_s", "s"), ("eriksen.eriksen_unitary.busy_s", "s"),
     ("eriksen.eriksen_conditions.busy_s", "s"),
     ("eriksen.sign_function.calls", "count"), ("eriksen.sign_function.busy_s", "s"),
     ("eriksen.approx_fw.calls", "count"), ("eriksen.approx_fw.busy_s", "s"),
     ("eriksen.potential_scaling_study.busy_s", "s"),
     ("linalg.mat_inv_sqrt_psd.calls", "count"), ("linalg.mat_inv_sqrt_psd.busy_s", "s"),
     ("linalg.eigh.calls", "count"), ("linalg.eigh.busy_s", "s")]
    + [(f"linalg.eigh.d{d}.{k}", u) for d in (*EIGH_DIMS, "other")
       for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("linalg.eigh.flop_computed", "flop"), ("linalg.blas_threads", "count"),
       ("linalg.eigh.thread_speedup", "ratio"),
       ("zitter.record_evolution.calls", "count"), ("zitter.record_evolution.busy_s", "s"),
       ("zitter.record_evolution.us_per_step", "us"),
       ("zitter.dominant_frequency.busy_s", "s"),
       ("wavepacket.make_gaussian_packet.busy_s", "s"),
       ("wavepacket.to_picture.calls", "count"), ("wavepacket.to_picture.busy_s", "s"),
       ("wavepacket.density.busy_s", "s"),
       ("wavepacket.expectation.calls", "count"), ("wavepacket.expectation.busy_s", "s"),
       ("spin_dynamics.propagate_quantum.calls", "count"),
       ("spin_dynamics.propagate_quantum.busy_s", "s"),
       ("spin_dynamics.propagate_classical.busy_s", "s"),
       ("cli.main.self_s", "s")]
    + [(f"cli.{sub}.busy_s", "s") for sub in CLI_SUBCOMMANDS]
    + [("trace.overhead_frac", "ratio")]
)


class Blas:
    """Thread control of the OpenBLAS that numpy wheels bundle, via ctypes.

    When the library or its symbols are not found, ``threads`` is None and
    ``set_threads`` does nothing; the thread speed-up is then reported absent.
    """

    def __init__(self):
        import numpy
        self._get = self._set = None
        self.config = _blas_name(numpy)
        libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            handle = ctypes.CDLL(str(lib))
            for suffix in ("64_", ""):
                get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
                conf = getattr(handle, f"scipy_openblas_get_config{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    self._get, self._set = get, set_
                    if conf is not None:
                        conf.argtypes, conf.restype = [], ctypes.c_char_p
                        self.config = conf().decode(errors="replace")
                    return

    @property
    def threads(self):
        return self._get() if self._get else None

    def set_threads(self, n: int) -> None:
        if self._set:
            self._set(n)


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _git_sha(root: Path) -> str:
    """HEAD of a git checkout read from its files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root: Path, blas: Blas, nproc: int) -> dict:
    import numpy
    import scipy
    return {"git_sha": _git_sha(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.config, "blas_threads": blas.threads, "nproc": nproc,
            "cpu_model": _cpu_model()}


def measure_setup(root: Path, workload: str, seed: int) -> list:
    """Seconds for fresh interpreters to import fwbench.cli and make the inputs."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import fwbench.cli, workloads; "
            "workloads.make_units(sys.argv[3], int(sys.argv[4]))")
    cmd = [sys.executable, "-c", code, str(root / "src"), str(BENCH_DIR),
           workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return times


def run_pass(units, tracer=None, clock=None):
    """Run every unit once, in order.

    Returns ``(seconds, rescaled seconds, outputs)``.  With a
    ``hostspeed.ScaledClock`` the pass runs under it and both times are the
    clock's; without one, the seconds come from ``perf_counter`` and the
    rescaled seconds are None.
    """
    import workloads
    outputs = []
    t0 = perf_counter()
    with clock or contextlib.nullcontext():
        for unit in units:
            try:
                if tracer is None:
                    out = workloads.run_unit(unit)
                else:
                    out = tracer.unit_span(unit["id"], workloads.run_unit, unit)
            except Exception:   # a raising library call is a failed unit, not a crash
                out = {"rc": None, "error": traceback.format_exc()}
            outputs.append(out)
    if clock is None:
        return perf_counter() - t0, None, outputs
    return clock.seconds, clock.rescaled, outputs


def traced_pass(units):
    """One pass with every traced name wrapped; returns (tracer, wall, outputs)."""
    import spans as sp
    tracer = sp.Tracer()
    uninstall = tracer.install()
    try:
        wall, _, outputs = run_pass(units, tracer)
    finally:
        uninstall()
    return tracer, wall, outputs


def tail(values) -> dict:
    """Median, and the highest percentile with at least ten runs beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "runs": n, "percentile": None,
           "value": None}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out["percentile"] = pct
        out["value"] = sorted(values)[max(0, math.ceil(pct / 100 * n) - 1)]
    return out


def layer_metrics(tracer, blas_threads, speedup, overhead) -> tuple:
    """The PER_LAYER values from one traced pass; names not traced are absent."""
    import spans as sp
    agg = sp.aggregate(tracer.spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    values = {}
    for name in ("phase_ops.snapshot", "phase_ops.commutator_snapshot",
                 "phase_ops.coeff_derivative", "phase_ops.build_operator",
                 "algebra.run_quantum_suite", "algebra.run_classical_suite",
                 "eriksen.discretize_dirac_1d", "eriksen.eriksen_unitary",
                 "eriksen.eriksen_conditions", "eriksen.sign_function",
                 "eriksen.approx_fw", "eriksen.potential_scaling_study",
                 "linalg.mat_inv_sqrt_psd", "linalg.eigh",
                 "zitter.record_evolution", "zitter.dominant_frequency",
                 "wavepacket.make_gaussian_packet", "wavepacket.to_picture",
                 "wavepacket.density", "wavepacket.expectation",
                 "spin_dynamics.propagate_quantum", "spin_dynamics.propagate_classical"):
        if name in tracer.present:
            for key in ("calls", "busy_s", "self_s"):
                values[f"{name}.{key}"] = get(name, key)
    if {"phase_ops.snapshot", "phase_ops.coeff_derivative"} <= tracer.present:
        snaps = get("phase_ops.snapshot", "calls")
        values["phase_ops.fd_per_snapshot"] = (
            get("phase_ops.coeff_derivative", "calls") / snaps if snaps else 0.0)
    residuals = _residual_count(tracer.spans)
    if residuals is not None:
        values["algebra.residuals"] = residuals
    if "linalg.eigh" in tracer.present:
        flop = 0.0
        for d in (*EIGH_DIMS, "other"):
            values[f"linalg.eigh.d{d}.calls"] = 0
            values[f"linalg.eigh.d{d}.busy_s"] = 0.0
        for s in tracer.spans:
            if s[0] == "linalg.eigh":
                kind, dim, is_complex = s[5]
                key = f"linalg.eigh.d{dim if dim in EIGH_DIMS else 'other'}"
                values[key + ".calls"] += 1
                values[key + ".busy_s"] += s[2] - s[1]
                flop += _eigh_flop(kind, dim, is_complex)
        values["linalg.eigh.flop_computed"] = flop
        if speedup is not None:
            values["linalg.eigh.thread_speedup"] = speedup
    if blas_threads is not None:
        values["linalg.blas_threads"] = blas_threads
    if "zitter.record_evolution" in tracer.present:
        steps = sum(s[5] for s in tracer.spans if s[0] == "zitter.record_evolution")
        values["zitter.record_evolution.us_per_step"] = (
            1e6 * get("zitter.record_evolution", "busy_s") / steps if steps else 0.0)
    cli_names = ["cli.main"] + [f"cli.{sub}" for sub in CLI_SUBCOMMANDS]
    if "cli.main" in tracer.present:
        # CLI-layer self time: parsing in main plus formatting in the subcommands
        values["cli.main.self_s"] = sum(get(n, "self_s") for n in cli_names)
    for name in cli_names[1:]:
        if name in tracer.present:
            values[f"{name}.busy_s"] = get(name, "busy_s")
    values["trace.overhead_frac"] = overhead
    units = dict(PER_LAYER)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    absent = [k for k in units if k not in values]
    return metrics, absent


def _eigh_flop(kind: str, n: int, is_complex: bool) -> float:
    """Textbook estimate: 9 n^3 with vectors, 4/3 n^3 without; complex costs 4x."""
    return (9.0 if kind == "eigh" else 4.0 / 3.0) * n**3 * (4 if is_complex else 1)


def _residual_count(spans):
    """Identity x pair x sample evaluations made by the traced suites."""
    try:
        import fwbench.algebra as algebra
        pairs = {name: sum(len(i.pairs) for i in algebra.identities_for_set(name))
                 for name in algebra.QUANTUM_SET_NAMES}
        pairs["classical"] = sum(len(i.pairs) for i in algebra.classical_identities())
    except AttributeError:
        return None
    return sum(pairs[s[5][0]] * s[5][1] for s in spans
               if s[0] in ("algebra.run_quantum_suite", "algebra.run_classical_suite"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "spectral", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fwbench" / "cli.py").is_file():
        sys.stderr.write(f"fwperf: no fwbench sources under {src}; run from the "
                         "root of a checkout\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() else nproc)
    sys.path[:0] = [str(src), str(BENCH_DIR)]

    import fwbench
    import hostspeed as hs
    import spans as sp
    import workloads
    if Path(fwbench.__file__).resolve().parent != (src / "fwbench").resolve():
        sys.stderr.write(f"fwperf: imported fwbench from {fwbench.__file__}, "
                         f"not from {src}\n")
        return 2

    blas = Blas()
    env = fingerprint(root, blas, nproc)
    reference = workloads.load_reference()
    units = workloads.make_units(args.workload, args.seed)

    clock = hs.ScaledClock(hs.Probe(workloads.PROBE_KIND[args.workload]))
    outputs = []
    _, _, out = run_pass(units)                    # untimed warm-up pass
    outputs.extend(out)
    walls, rescaled = [], []
    t_start = perf_counter()
    while not walls or perf_counter() - t_start < args.seconds:
        wall, wall_rescaled, out = run_pass(units, clock=clock)
        walls.append(wall)
        rescaled.append(wall_rescaled)
        outputs.extend(out)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": env, "load": "closed loop, 1 caller",
              "units_per_pass": len(units), "wall_s": tail(rescaled),
              "wall_s_runs": rescaled, "raw_wall_s": tail(walls), "raw_wall_s_runs": walls,
              "probe": {"kind": clock.probe.kind, "reference_s": clock.probe.reference_s,
                        "median_s": statistics.median(clock.probe.samples),
                        "samples": len(clock.probe.samples)}}
    if args.trace == 0:
        setup = measure_setup(root, args.workload, args.seed)
        detail["setup_s_runs"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(rescaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
        }
    else:
        tracer, traced_wall, out = traced_pass(units)
        outputs.extend(out)
        speedup = None
        if blas.threads is not None:
            speedup = 0.0
            eigh_busy = sp.aggregate(tracer.spans).get("linalg.eigh", {}).get("busy_s", 0)
            if eigh_busy > 0:
                # the same traced pass at one BLAS thread, as a serial baseline
                threads = blas.threads
                blas.set_threads(1)
                try:
                    single, _, out = traced_pass(units)
                finally:
                    blas.set_threads(threads)
                outputs.extend(out)
                speedup = sp.aggregate(single.spans)["linalg.eigh"]["busy_s"] / eigh_busy
        overhead = traced_wall / statistics.median(walls) - 1.0
        metrics, absent = layer_metrics(tracer, blas.threads, speedup, overhead)
        detail.update(traced_wall_s=traced_wall, absent=absent,
                      closure_error_s=sp.closure_error(tracer.spans),
                      spans=len(tracer.spans))
        out_dir = root / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    failed = 0
    passes = len(outputs) // len(units)
    problems = {}
    for i, out in enumerate(outputs):
        unit = units[i % len(units)]
        found = workloads.check_unit(unit, out, reference, args.seed)
        if found:
            failed += 1
            problems.setdefault(unit["id"], found + ([out["error"]] if "error" in out else []))
    detail["failed_frac"] = failed / len(outputs)
    detail["problems"] = problems

    result = {"correct": failed == 0, "attempted": len(outputs), "failed": failed,
              "metrics": metrics}
    for unit_id, found in problems.items():
        sys.stderr.write(f"FAILED {unit_id}: {found}\n")
    print(f"fwperf {args.workload} seed={args.seed} trace={args.trace}: "
          f"{passes} passes x {len(units)} units")
    for name in ("setup_s", "wall_s", "peak_rss_mb"):
        if name in metrics:
            print(f"  {name:12s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  {'failed_frac':12s} {detail['failed_frac']:.6g} fraction "
          f"({failed}/{len(outputs)} units)")
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
