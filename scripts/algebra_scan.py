#!/usr/bin/env python3
"""Scan every identity suite over a ladder of masses and print a summary.

Usage: python scripts/algebra_scan.py [--samples N] [--json out.json]
"""

import argparse
import json

from fwbench.algebra import (
    QUANTUM_SET_NAMES,
    run_classical_suite,
    run_quantum_suite,
)

MASSES = (0.5, 1.0, 10.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    rows = []
    for set_name in QUANTUM_SET_NAMES:
        for m in MASSES:
            for r in run_quantum_suite(set_name, m, args.samples):
                rows.append((set_name, m, r))
    for m in MASSES:
        for r in run_classical_suite(args.samples, m=m):
            rows.append(("classical", m, r))

    print(f"{'set':14s} {'m':>5s} {'identity':48s} {'expected':8s} "
          f"{'max_resid':>10s} verdict")
    n_bad = 0
    for set_name, m, r in rows:
        mark = "" if r.verdict == "pass" else "  <-- unexpected"
        n_bad += r.verdict != "pass"
        print(f"{set_name:14s} {m:5.1f} {r.identity_id:48s} {r.expected:8s} "
              f"{r.max_residual:10.2e} {r.verdict}{mark}")
    print(f"\n{len(rows)} identity x mass combinations, "
          f"{n_bad} unexpected outcomes")

    if args.json:
        payload = [dict(set=s, mass=m, **r.to_dict()) for s, m, r in rows]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
