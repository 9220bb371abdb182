"""The benchmark's correctness gate, run on one pass of each workload.

fwperf/workloads.py is imported from its file and only read: this runs
every unit of each workload at its DEFAULT_SEED through run_unit and checks
it with check_unit against fwperf/reference.json, as the benchmark does, so
a change that makes an output incorrect fails here.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("fwperf_workloads",
                                               ROOT / "fwperf" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_of_each_workload_passes_the_gate(workload):
    reference = workloads.load_reference()
    seed = workloads.DEFAULT_SEED
    units = workloads.make_units(workload, seed)
    assert units
    problems = {unit["id"]: workloads.check_unit(unit, workloads.run_unit(unit), reference, seed)
                for unit in units}
    assert {uid: p for uid, p in problems.items() if p} == {}
