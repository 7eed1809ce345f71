#!/usr/bin/env python3
"""Regenerate the sweep figures (CSV + SVG) from scratch.

    python scripts/make_figures.py [--out out/figures] [--grid 2000]

Produces:
  lower_bound_sweep.{csv,svg}   bound vs deployment angle on [0, 0.52]
  feasibility_sweep.csv + sweep_{xi,tau_min,theta}.svg
  cost_sweep.{csv,svg} over the certified window, plus two refinements
"""

import argparse
import sys
from pathlib import Path

from diskinspect.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/figures")
    ap.add_argument("--grid", type=int, default=2000)
    args = ap.parse_args()
    out = Path(args.out)

    grid = str(args.grid)
    steps = [
        ["--out", str(out / "bound"), "--format", "csv,svg",
         "lower-bound", "--theta", "0.52", "--k", "1000", "--grid", "105"],
        ["--out", str(out / "window"), "--format", "csv,svg",
         "sweep-feasibility", "--grid", grid],
        ["--out", str(out / "cost"), "--format", "csv,svg",
         "sweep-cost", "--grid", grid],
        ["--out", str(out / "cost_zoom"), "--format", "csv,svg",
         "sweep-cost", "--grid", grid,
         "--tau0-lo", "1.64697", "--tau0-hi", "1.6472"],
        ["--out", str(out / "cost_zoom2"), "--format", "csv,svg",
         "sweep-cost", "--grid", grid,
         "--tau0-lo", "1.6469764", "--tau0-hi", "1.6469774"],
    ]
    for step in steps:
        rc = cli_main(step)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
