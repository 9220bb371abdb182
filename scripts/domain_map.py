#!/usr/bin/env python3
"""Whole-domain verdict map: each command's exit status over a mass ladder.

Every cell is one row of COMMANDS at one mass of MASSES: an fwbench
command at its other defaults, or on a second axis (zitter's particle, each
key of zitter.HAMILTONIANS, and its momentum, pce's packet width at rest,
precess in a magnetic field, and at two edges of its domain: a spin
direction within 1e-9 of the z axis and a frame rotation whose square
overflows), run in this
process through fwbench.cli.main with stdout discarded.  The CSV has one
row per cell: the command, its arguments, the exit status, and the failed
checks read from stderr, joined by "; ": the names on the `failed checks:`
line (`set: identity` for verify-algebra), or the text of an `error:`
line.  The ledger
scripts/domain_ledger.csv lists the cells that exit 1 on correct physics,
each with the ROADMAP item that owns it.

Usage: python scripts/domain_map.py [--out domain_map.csv]
"""

import argparse
import contextlib
import csv
import io
import sys

from fwbench.cli import main as fwbench_main
from fwbench.zitter import HAMILTONIANS

MASSES = ("1e-3", "1e-2", "0.1", "1", "10", "100", "1e3", "1e4")
# (command, arguments besides the mass, the command's mass flag); the
# suites run 10 samples, not 100, so that they take about a third of the
# map's time (at 20 samples every cell exits and fails as it does at 10)
COMMANDS = (
    ("verify-algebra", ("--set", "all", "--samples", "10"), "--mass"),
    ("eriksen", (), "--mass"),
    ("precess", (), "--mass"),
    *(("zitter", ("--particle", particle), "--m") for particle in HAMILTONIANS),
    ("packet", (), "--mass"),
    ("pce", (), "--mass"),
    *(("zitter", ("--particle", particle, "--p", p), "--m")
      for particle in HAMILTONIANS for p in ("0", "0.1", "2", "3")),
    *(("pce", ("--p0", "0", "--sigma", sigma), "--mass") for sigma in ("0.5", "8", "1e8")),
    ("precess", ("--p", "1,0,0", "--b-field", "0,0,1", "--a", "0.1"), "--mass"),
    ("precess", ("--s0", "1e-9,0,1"), "--mass"),
    ("precess", ("--omega", "0,0,1e200"), "--mass"),
)
COLUMNS = ("command", "arguments", "exit_status", "failed_checks")


def failed_checks(stderr: str) -> str:
    """The failed checks a command names on stderr, joined by "; "."""
    names = []
    for line in stderr.splitlines():
        if line.startswith("failed checks: "):
            # each item is "<name> <value> (bound <bound>)"
            names += [item.partition(" (bound ")[0].rsplit(" ", 1)[0]
                      for item in line[15:].split("; ")]
        elif line.startswith("error: "):
            names.append(line)
    return "; ".join(names)


def run_cell(command: str, arguments: list) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = fwbench_main([command, *arguments])
    return {"command": command, "arguments": " ".join(arguments),
            "exit_status": status, "failed_checks": failed_checks(err.getvalue())}


def domain_map() -> list:
    return [run_cell(command, [*arguments, flag, m])
            for command, arguments, flag in COMMANDS for m in MASSES]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="domain_map.csv")
    args = ap.parse_args()
    rows = domain_map()
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    failing = sum(row["exit_status"] != 0 for row in rows)
    print(f"wrote {args.out} ({len(rows)} cells, {failing} exit non-zero)", file=sys.stderr)


if __name__ == "__main__":
    main()
