#!/usr/bin/env python3
"""Run every bundled configuration and collect the CSV tables in one place.

Usage: python scripts/reproduce_figures.py [OUTPUT_DIR]

Produces, under OUTPUT_DIR (default ./figures_out):
  fig2.csv        n_ss vs mode frequency for the three model variants
  fig3.csv        n_ss of the 1.62 MHz mode vs AC Stark shift
  fig4.csv        cooling dynamics n_bar(t) from n0 = 16
  multimode.csv   simultaneous cooling report for the 1.62 / 3.32 MHz modes
  thermometry.csv blue-sideband flops at n_bar = 16 plus the thermal fit
"""

import sys
import time

from eitcool.cli import main

BUNDLED = ("fig2.cfg", "fig3.cfg", "fig4.cfg", "multimode.cfg", "thermometry.cfg")


def run_all(out_dir: str) -> int:
    for name in BUNDLED:
        start = time.perf_counter()
        status = main(["run", name, "--out", out_dir, "--verbose"])
        if status != 0:
            print(f"{name}: FAILED (exit {status})", file=sys.stderr)
            return status
        print(f"{name}: done in {1e3 * (time.perf_counter() - start):.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_all(sys.argv[1] if len(sys.argv) > 1 else "figures_out"))
