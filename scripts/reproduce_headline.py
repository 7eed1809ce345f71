#!/usr/bin/env python3
"""Reproduce the headline numbers end to end and print a compact report.

Runs the window sweep + refinement, the clearance certificate, the
angle-window bounds, and the brute-force oracle cross-check.  Writes JSON
artifacts under out/headline/.

    python scripts/reproduce_headline.py [--grid 2000] [--samples 100000]
"""

import argparse
import sys
import time
from pathlib import Path

from diskinspect.artifacts import write_csv, write_json
from diskinspect.bounds import theta_window
from diskinspect.continuum import integrate
from diskinspect.feasibility import WINDOW_HI, WINDOW_LO, deployment_parameter
from diskinspect.optimizer import refine_minimum
from diskinspect.oracle import assemble_trajectory, average_cost_full


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=int, default=2000)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--out", default="out/headline")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    result = refine_minimum(WINDOW_LO, WINDOW_HI, grid=args.grid)
    write_json(result, out / "optimum.json")
    print(f"[{time.time()-t0:6.1f}s] tau0* = {result.tau0_star!r}")
    print(f"         cost*  = {result.cost_star!r}")
    print(f"         xi*    = {result.xi_star!r}")
    print(f"         theta* = {result.theta_star!r}")
    print(f"         min tau = {result.certificate.tau_min!r} "
          f"(clearance {result.clearance_star!r})")

    window = theta_window()
    print(f"[{time.time()-t0:6.1f}s] angle window {window['theta_lo']}..{window['theta_hi']} "
          f"margins lo={window['margins']['at_lo']:.2e} hi={window['margins']['at_hi']:.2e}")

    sol = integrate(result.tau0_star)
    xi, _ = deployment_parameter(sol)
    traj = assemble_trajectory(sol, xi)
    write_csv(out / "optimal_trajectory.csv", ("x", "y"), traj.vertices.tolist())
    res = average_cost_full(traj, args.samples)
    write_json(res, out / "oracle.json")
    print(f"[{time.time()-t0:6.1f}s] oracle mean = {res.mean_cost!r} "
          f"(analytic {result.cost_star!r}, gap {abs(res.mean_cost-result.cost_star):.2e})")
    print(f"         never_count = {res.never_count}, artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
