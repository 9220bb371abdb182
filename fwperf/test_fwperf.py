"""Tests of the benchmark itself: inputs, span arithmetic and the gate.

Run from the root of a checkout:  python3 -m pytest fwperf -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    a = workloads.make_units(workload, 5)
    assert a == workloads.make_units(workload, 5)
    assert a != workloads.make_units(workload, 6)
    assert json.loads(json.dumps(a)) == a


def _span(name, start, end, parent, unit="u"):
    return [name, start, end, parent, unit, None]


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span(spans.UNIT, 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("a", 6.0, 9.0, 0),
        _span("a", 6.5, 7.0, 3),      # nested under a same-named span
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 0.5])
    assert spans.closure_error(tree) == pytest.approx(0.0, abs=1e-12)
    agg = spans.aggregate(tree)
    assert agg["a"]["calls"] == 3
    assert agg["a"]["busy_s"] == pytest.approx(6.0)   # the nested call counts once
    assert agg["a"]["self_s"] == pytest.approx(5.0)


def test_self_times_clip_overlapping_children():
    tree = [_span("p", 0.0, 4.0, -1), _span("c", 1.0, 3.0, 0), _span("c", 2.0, 5.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_a_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("phase_ops.batched", ["fwbench.phase_ops:no_such_function"], None)])
    tracer = spans.Tracer()
    uninstall = tracer.install()
    uninstall()
    assert "phase_ops.batched" not in tracer.present
    assert "phase_ops.snapshot" in tracer.present
    monkeypatch.setattr(run, "PER_LAYER", run.PER_LAYER + [("phase_ops.batched.calls", "count")])
    metrics, absent = run.layer_metrics(tracer, 2, 1.0, 0.0)
    assert absent == ["phase_ops.batched.calls"]
    assert metrics["phase_ops.snapshot.calls"]["value"] == 0


def test_install_restores_the_originals():
    import fwbench.algebra
    import numpy
    before = (fwbench.algebra.snapshot, numpy.linalg.eigh)
    tracer = spans.Tracer()
    uninstall = tracer.install()
    assert fwbench.algebra.snapshot is not before[0]
    numpy.linalg.eigh(numpy.eye(3))
    uninstall()
    assert (fwbench.algebra.snapshot, numpy.linalg.eigh) == before
    assert [s[0] for s in tracer.spans] == ["linalg.eigh"]
    assert tracer.spans[0][5] == ["eigh", 3, False]


def _verify_unit_and_output():
    unit = workloads.make_units("verify", workloads.DEFAULT_SEED)[0]
    rows = REFERENCE["units"][unit["id"]]["reports"]
    reports = [{"identity_id": i, "expected": e, "verdict": v, "max_residual": r, "tol": t}
               for i, e, v, r, t in rows]
    return unit, {"rc": 0, "stdout": json.dumps(reports), "stderr": ""}


def test_gate_passes_the_stored_reference():
    unit, out = _verify_unit_and_output()
    assert workloads.check_unit(unit, out, REFERENCE, workloads.DEFAULT_SEED) == []


def test_gate_trips_on_a_perturbed_expected_fail_residual():
    unit, out = _verify_unit_and_output()
    reports = json.loads(out["stdout"])
    bad = next(r for r in reports if r["expected"] == "fail")
    bad["max_residual"] *= 1 + 1e-7
    out["stdout"] = json.dumps(reports)
    problems = workloads.check_unit(unit, out, REFERENCE, workloads.DEFAULT_SEED)
    assert problems and bad["identity_id"] in problems[0]
    # away from the default seed there is no stored number to move
    assert workloads.check_unit(unit, out, REFERENCE, workloads.DEFAULT_SEED + 1) == []


def test_gate_trips_on_a_nonzero_exit_or_a_raising_call(monkeypatch):
    unit, out = _verify_unit_and_output()
    assert workloads.check_unit(unit, dict(out, rc=1), REFERENCE, 0) == ["exit status 1"]

    def boom(unit):
        raise FloatingPointError("library call raised")
    monkeypatch.setattr(workloads, "run_unit", boom)
    _, _, outs = run.run_pass([unit])
    assert outs[0]["rc"] is None and "FloatingPointError" in outs[0]["error"]
    assert workloads.check_unit(unit, outs[0], REFERENCE, 0)


def test_gate_trips_on_a_moved_eriksen_number():
    unit = workloads.make_units("spectral", workloads.DEFAULT_SEED)[0]
    doc = copy.deepcopy(REFERENCE["units"][unit["id"]])
    out = {"rc": 0, "stdout": json.dumps(doc), "stderr": ""}
    assert workloads.check_unit(unit, out, REFERENCE, workloads.DEFAULT_SEED) == []
    doc["approx_offblock"][1] *= 1 + 1e-6
    out["stdout"] = json.dumps(doc)
    assert workloads.check_unit(unit, out, REFERENCE, workloads.DEFAULT_SEED)


def test_a_real_unit_passes_the_gate():
    unit = next(u for u in workloads.make_units("sweep", 3) if u["id"] == "fwbench pce")
    out = workloads.run_unit(unit)
    assert workloads.check_unit(unit, out, REFERENCE, 3) == []


def test_benchmark_json_matches_the_metrics_the_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in doc["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


class _FakeProbe:
    """Reads 2 s per kernel call, against a reference of 1 s: a host at half speed."""
    kind, reference_s = "fake", 1.0
    scale = hostspeed.Probe.scale

    def __init__(self):
        self.samples = []

    def __call__(self):
        self.samples.append(2.0)
        return 2.0


def test_scaled_clock_rescales_and_restores_the_signal_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.ScaledClock(_FakeProbe(), interval=0.01) as clock:
        time.sleep(0.1)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.probe.samples) >= 3       # probes ran while the code did
    assert clock.seconds == pytest.approx(0.1, abs=0.05)
    assert clock.rescaled == pytest.approx(clock.seconds / 2)


def test_a_probe_scale_is_one_at_the_reference_speed():
    probe = hostspeed.Probe("interp")
    assert probe.scale(probe.reference_s, probe.reference_s) == 1.0
    assert probe() > 0 and len(probe.samples) == 1


def test_tail_percentile_has_ten_runs_beyond_it():
    assert run.tail([1.0] * 10)["percentile"] is None
    t = run.tail([float(i) for i in range(1, 41)])
    assert t["runs"] == 40 and t["percentile"] == 75
    assert sum(v > t["value"] for v in range(1, 41)) >= 10
