#!/usr/bin/env python3
"""Trembling amplitude and frequency across a momentum sweep.

The oscillatory position amplitude shrinks with energy while the frequency
grows as twice the energy; the sweep writes one CSV row per momentum for
both the Dirac and the two-component scalar case.

Usage: python scripts/zitter_sweep.py [--mass M] [--out sweep.csv]
"""

import argparse

import numpy as np

from fwbench.dirac import energy
from fwbench.zitter import dominant_frequency, record_evolution


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--out", default="zitter_sweep.csv")
    args = ap.parse_args()

    m = args.mass
    lines = ["pz,energy,freq_dirac,amp_dirac,freq_fv,amp_fv"]
    for pz in np.linspace(0.1, 5.0, 25):
        p = np.array([0.0, 0.0, pz])
        eps = energy(p, m)
        times = np.linspace(0.0, 30 * np.pi / eps, 3000)
        row = [pz, eps]
        for particle, elem in (("dirac", (0, 2)), ("fv", (0, 1))):
            rec = record_evolution(p, m, times, 2, particle)
            row.append(dominant_frequency(times, rec.entry(*elem).velocity))
            # trembling amplitude: the norm of the position's cos(2 eps t) coefficient
            row.append(np.linalg.norm(rec.position_coeffs[1], 2))
        lines.append(",".join(f"{v:.12g}" for v in row))

    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(lines) - 1} rows); "
          f"frequencies track 2*energy, amplitudes fall off with energy")


if __name__ == "__main__":
    main()
