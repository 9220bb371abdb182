#!/usr/bin/env python3
"""Record the correctness gate's reference numbers.

Runs every unit of every workload at ``workloads.DEFAULT_SEED`` once and
writes the numbers the gate compares to ``reference.json``, next to this
file.  Run from the root of a checkout, and only when a change to the
program is meant to move a verdict number:

    python3 fwperf/make_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    units, tables = {}, {}
    for workload in workloads.WORKLOADS:
        for unit in workloads.make_units(workload, workloads.DEFAULT_SEED):
            out = workloads.run_unit(unit)
            if out["rc"] != 0:
                sys.stderr.write(f"{unit['id']}: exit status {out['rc']}\n")
                return 1
            obs = workloads.observe(unit, out)
            units[unit["id"]] = obs
            if unit["check"] == "algebra":
                tables[workloads.set_name(unit)] = [row[:2] for row in obs["reports"]]
    doc = {"seed": workloads.DEFAULT_SEED, "tables": tables, "units": units}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH} ({len(units)} units)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
