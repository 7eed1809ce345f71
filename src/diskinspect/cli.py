"""Command-line surface: reproduce the headline optimum and sweep figures.

Subcommands:
  optimize          sweep + refine over the certified window, JSON report
  trace             single start value: solution CSV, feasibility, cost
  sweep-feasibility window sweep of (xi, theta, tau_min, clearance)
  sweep-cost        window sweep of the total cost
  lower-bound       convex-program bound at one angle, or an angle sweep
  angle-bounds      deployment-angle window with both margins
  verify            brute-force oracle cross-checks against analytic values
  converge          chain-vs-ODE convergence-rate table

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 verification-check failure.  Identical configuration produces
byte-identical JSON/CSV/SVG output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import cost as cost_mod
from . import feasibility as feas_mod
from . import optimizer as opt_mod
from . import oracle as oracle_mod
from .artifacts import write_csv, write_json
from .continuum import ODE_TOL, TOL_FLOOR, X0_MAX, X0_REF, integrate, self_check_init
from .errors import DiskInspectError, EmptySweep
from .refraction import discrete_cost, forward_recursion, shoot_theta
from .svgplot import line_chart

HEADLINE_TAU0 = 1.6469768608776936
#: Abscissae [lo, hi] at which converge compares the chain with the ODE.
CONVERGE_SPAN = (0.1, 0.8)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ranged(convert, ok, domain: str):
    """argparse type: convert the text, then reject values outside domain."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is outside {domain}")
        return value

    check.__name__ = convert.__name__  # argparse names the type in messages
    return check


_POSITIVE = _ranged(float, lambda x: 0.0 < x < math.inf, "(0, inf)")


def _write_json(obj, path: Path) -> None:
    write_json(obj, path)
    print(f"wrote {path}")


def _write_csv(path: Path, header, rows) -> None:
    write_csv(path, header, rows)
    print(f"wrote {path}")


def _add_window_args(sp) -> None:
    """--grid/--tau0-lo/--tau0-hi of the window sweeps; main checks lo < hi."""
    sp.add_argument("--grid", default=2000,
                    type=_ranged(int, lambda n: n >= 2, "[2, inf)"))
    sp.add_argument("--tau0-lo", type=_POSITIVE, default=feas_mod.WINDOW_LO)
    sp.add_argument("--tau0-hi", type=_POSITIVE, default=feas_mod.WINDOW_HI)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    p = _Parser(prog="diskinspect", description=__doc__.split("\n")[0])
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--format", default="json,csv",
                   help="comma subset of json,csv,svg")
    p.add_argument("--seed", default=0,
                   type=_ranged(int, lambda n: n >= 0, "[0, inf)"),
                   help="seed for randomized verification draws")
    p.add_argument("--tol-ode", default=ODE_TOL,
                   type=_ranged(float, lambda x: TOL_FLOOR <= x < math.inf,
                                f"[{TOL_FLOOR:.3g}, inf)"))
    p.add_argument("--x0", default=X0_REF,
                   type=_ranged(float, lambda x: sys.float_info.min <= x <= X0_MAX,
                                f"[{sys.float_info.min:g}, {X0_MAX:g}]"))
    p.add_argument("--jobs", type=int, default=1,
                   help="no effect: each sweep is one in-process pencil solve; "
                   "accepted so existing command lines still parse")
    sub = p.add_subparsers(dest="command", required=True)

    _add_window_args(sub.add_parser("optimize", help="reproduce the optimal trajectory"))

    sp = sub.add_parser("trace", help="solution + certificates at one tau0")
    sp.add_argument("--tau0", type=_POSITIVE, required=True)
    sp.add_argument("--grid", default=1000,
                    type=_ranged(int, lambda n: n >= 1, "[1, inf)"),
                    help="CSV resolution of the solution dump")

    _add_window_args(sub.add_parser("sweep-feasibility", help="window feasibility sweep"))
    _add_window_args(sub.add_parser("sweep-cost", help="window cost sweep"))

    sp = sub.add_parser("lower-bound", help="convex-program lower bound")
    sp.add_argument("--theta", default=bounds_mod.THETA_LO,
                    type=_ranged(float, lambda t: 0.0 <= t < math.pi / 2.0,
                                 "[0, pi/2)"))
    sp.add_argument("--k", default=1000,
                    type=_ranged(int, lambda k: k >= bounds_mod.MIN_K,
                                 f"[{bounds_mod.MIN_K}, inf)"))
    sp.add_argument("--grid", default=None,
                    type=_ranged(int, lambda n: n >= 1, "[1, inf)"),
                    help="sweep theta over [0, --theta] with this many points")

    sub.add_parser("angle-bounds", help="deployment-angle window report")

    sp = sub.add_parser("verify", help="oracle cross-checks")
    sp.add_argument("--tau0", type=_POSITIVE, default=HEADLINE_TAU0)
    sp.add_argument("--samples", default=100_000,
                    type=_ranged(int, lambda n: n >= 100, "[100, inf)"))
    # one segment would leave the trajectory no curve sample past the anchor
    sp.add_argument("--segments", default=10_000,
                    type=_ranged(int, lambda n: n >= 2, "[2, inf)"))

    sp = sub.add_parser("converge", help="chain-vs-ODE convergence rates")
    sp.add_argument("--tau0", type=_POSITIVE, default=HEADLINE_TAU0)
    # below 16 the chain's angle pass, which never reads tau0, reaches an
    # incidence angle <= 0 (AngleDomain) whatever tau0 is
    sp.add_argument("--grid", default=1000,
                    type=_ranged(int, lambda n: n >= 16, "[16, inf)"),
                    help="base chain resolution; the table doubles it")
    return p


def cmd_optimize(args, out: Path, formats) -> int:
    result = opt_mod.refine_minimum(args.tau0_lo, args.tau0_hi, grid=args.grid,
                                    x0=args.x0, tol=args.tol_ode)
    if "json" in formats:
        _write_json(result, out / "optimum.json")
    print(
        f"tau0*={result.tau0_star!r} cost*={result.cost_star!r} "
        f"xi*={result.xi_star!r} theta*={result.theta_star!r}"
    )
    return 0


def cmd_trace(args, out: Path, formats) -> int:
    sol = integrate(args.tau0, x0=args.x0, tol=args.tol_ode)
    report = feas_mod.assess(sol)
    if "csv" in formats:
        xs = np.linspace(sol.x0, sol.x_end, args.grid)
        psi, tau = sol.values(xs)
        _write_csv(out / "solution.csv", ("x", "psi", "tau"),
                   zip(xs.tolist(), psi.tolist(), tau.tolist()))
    if "json" in formats:
        _write_json(sol.metadata(), out / "solution_meta.json")
        _write_json(report, out / "feasibility.json")
    if not report.feasible:
        print(f"tau0={args.tau0!r} infeasible: clearance={report.clearance!r}")
        return 2
    breakdown = cost_mod.total_cost(sol, report.xi)
    if "json" in formats:
        _write_json({**asdict(breakdown), "tau0": args.tau0}, out / "cost.json")
    print(f"tau0={args.tau0!r} xi={report.xi!r} total={breakdown.total!r}")
    return 0


def cmd_sweep_feasibility(args, out: Path, formats) -> int:
    reports = feas_mod.feasibility_sweep(args.tau0_lo, args.tau0_hi, args.grid,
                                         x0=args.x0, tol=args.tol_ode)
    if "csv" in formats:
        _write_csv(out / "feasibility_sweep.csv",
                   ("tau0", "xi", "theta", "tau_min", "clearance", "feasible",
                    "selfcheck_gap"),
                   ((r.tau0, r.xi, r.theta, r.tau_min, r.clearance, r.feasible,
                     r.xi_selfcheck_gap) for r in reports))
    good = [r for r in reports if r.error is None]  # as in sweep-cost's chart
    if "svg" in formats and good:
        taus = [r.tau0 for r in good]
        line_chart(taus, {"xi": [r.xi for r in good]},
                   out / "sweep_xi.svg", title="deployment parameter")
        line_chart(taus, {"tau_min": [r.tau_min for r in good]},
                   out / "sweep_tau_min.svg", title="min tau", ref_lines=(0.2,))
        line_chart(taus, {"theta": [r.theta for r in good]},
                   out / "sweep_theta.svg", title="deployment angle",
                   ref_lines=(bounds_mod.THETA_LO, bounds_mod.THETA_HI))
        print(f"wrote {out / 'sweep_xi.svg'} and companions")
    bad = [r for r in reports if not r.feasible]
    print(f"{len(reports) - len(bad)}/{len(reports)} feasible")
    return 0 if not bad else 2


def cmd_sweep_cost(args, out: Path, formats) -> int:
    rows = opt_mod.sweep_cost(args.tau0_lo, args.tau0_hi, args.grid,
                              x0=args.x0, tol=args.tol_ode)
    if "csv" in formats:
        _write_csv(out / "cost_sweep.csv", ("tau0", "cost", "error"), rows)
    good = [(t, c) for t, c, e in rows if e is None]
    if not good:
        kinds = ", ".join(sorted({e for _, _, e in rows}))
        raise EmptySweep(f"all {len(rows)} sweep rows are error rows ({kinds})")
    if "svg" in formats:
        line_chart([t for t, _ in good], {"cost": [c for _, c in good]},
                   out / "sweep_cost.svg", title="average cost vs tau0")
        print(f"wrote {out / 'sweep_cost.svg'}")
    print(f"min cost over sweep: {min(c for _, c in good)!r}")
    return 0


def cmd_lower_bound(args, out: Path, formats) -> int:
    if args.grid is None:
        sol = bounds_mod.nlp_lower_bound(args.theta, args.k)
        if "json" in formats:
            record = asdict(sol)
            del record["t"]
            _write_json(record, out / "lower_bound.json")
        print(f"theta={args.theta!r} k={args.k}: bound={sol.composed_bound!r} "
              f"pg={sol.kkt_residual:.2e}")
        return 0
    sols = bounds_mod.nlp_sweep(0.0, args.theta, args.grid, args.k)
    if "csv" in formats:
        _write_csv(out / "lower_bound_sweep.csv",
                   ("theta", "k", "objective", "composed_bound", "kkt_residual"),
                   ((s.theta, s.k, s.objective, s.composed_bound, s.kkt_residual)
                    for s in sols))
    if "svg" in formats:
        line_chart([s.theta for s in sols],
                   {"composed_bound": [s.composed_bound for s in sols]},
                   out / "lower_bound_sweep.svg",
                   title="lower bound vs deployment angle", ref_lines=(3.551,))
        print(f"wrote {out / 'lower_bound_sweep.svg'}")
    print(f"min bound {min(s.composed_bound for s in sols)!r}")
    return 0


def cmd_angle_bounds(args, out: Path, formats) -> int:
    report = bounds_mod.theta_window()
    if "json" in formats:
        _write_json(report, out / "angle_bounds.json")
    print(f"theta window [{report['theta_lo']}, {report['theta_hi']}], "
          f"margins {report['margins']}")
    return 0


def cmd_verify(args, out: Path, formats) -> int:
    """Oracle cross-checks of the trajectory labeled --tau0, to verify.json.

    The solve stops at its crossing (``feasibility.crossed``): the
    feasibility report, the cost and the oracle's polyline read nothing past
    xi.  The 20 (theta, k) chains of the exact-angle check are drawn by
    ``random.Random(--seed)``; the two-start gap is ``self_check_init``'s.
    """
    checks = {}
    sol = integrate(args.tau0, x0=args.x0, tol=args.tol_ode, stop=feas_mod.crossed)
    report = feas_mod.assess(sol)
    breakdown = cost_mod.total_cost(sol, report.xi)
    traj = oracle_mod.assemble_trajectory(sol, report.xi, segments=args.segments)
    res = oracle_mod.average_cost_full(traj, args.samples)
    checks["oracle_vs_analytic"] = {
        "oracle_mean": res.mean_cost,
        "analytic_total": breakdown.total,
        "difference": abs(res.mean_cost - breakdown.total),
        "pass": abs(res.mean_cost - breakdown.total) <= 2e-3,
    }
    checks["never_count_zero"] = {
        "never_count": res.never_count,
        "pass": res.never_count == 0,
    }
    checks["inspective"] = {"pass": oracle_mod.is_inspective(traj, 10_000)}
    checks["worst_case_reference"] = {
        "max_cost": res.max_cost,
        "reference": oracle_mod.WORST_CASE_COST,
        "pass": res.max_cost >= oracle_mod.WORST_CASE_COST - 1e-6,
    }
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0.45, 1.1)
        k = rng.randrange(60, 400)
        chain = shoot_theta(theta, k)
        mean, _ = oracle_mod.chain_upper_cost(chain)
        worst = max(worst, abs(mean - discrete_cost(chain, "UPPER")))
    checks["exact_angle_vs_formula"] = {"worst_difference": worst, "pass": worst <= 1e-9}
    two_start = self_check_init(args.tau0)
    checks["two_start_gap"] = {"gap": two_start, "pass": two_start <= 1e-9}
    checks["feasible"] = {"tau_min": report.tau_min, "pass": report.feasible}
    ok = all(c["pass"] for c in checks.values())
    checks["all_pass"] = ok
    if "json" in formats:
        _write_json(checks, out / "verify.json")
    for name, c in checks.items():
        if isinstance(c, dict):
            print(f"{'PASS' if c['pass'] else 'FAIL'} {name}")
    return 0 if ok else 3


def cmd_converge(args, out: Path, formats) -> int:
    lo, hi = CONVERGE_SPAN
    # the table reads nothing past hi: the solve stops at its first node there
    sol = integrate(args.tau0, x0=args.x0, tol=args.tol_ode, stop=lambda x, _: x >= hi)
    rows = []
    for n in (args.grid, 2 * args.grid):
        chain = forward_recursion(args.tau0, n, m=int(0.85 * n))
        grid = np.arange(chain.m + 1) / n
        mask = (grid >= lo) & (grid <= hi)
        vals = sol.values(grid[mask])
        rows.append(
            {
                "n": n,
                "sup_err_psi": float(np.max(np.abs(chain.y[mask] - vals[0]))),
                "sup_err_tau": float(np.max(np.abs(chain.t[mask] - vals[1]))),
            }
        )
    table = {
        "rows": rows,
        "ratio_psi": rows[0]["sup_err_psi"] / rows[1]["sup_err_psi"],
        "ratio_tau": rows[0]["sup_err_tau"] / rows[1]["sup_err_tau"],
    }
    if "json" in formats:
        _write_json(table, out / "convergence.json")
    print(f"ratios: psi {table['ratio_psi']:.3f}, tau {table['ratio_tau']:.3f}")
    return 0


COMMANDS = {
    "optimize": cmd_optimize,
    "trace": cmd_trace,
    "sweep-feasibility": cmd_sweep_feasibility,
    "sweep-cost": cmd_sweep_cost,
    "lower-bound": cmd_lower_bound,
    "angle-bounds": cmd_angle_bounds,
    "verify": cmd_verify,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "tau0_lo") and not args.tau0_lo < args.tau0_hi:
        parser.error(f"--tau0-lo {args.tau0_lo!r} must be below --tau0-hi {args.tau0_hi!r}")
    if args.command == "lower-bound" and args.grid is not None and args.k < bounds_mod.SWEEP_MIN_K:
        parser.error(f"--grid needs --k >= {bounds_mod.SWEEP_MIN_K}: the sweep starts at theta = 0")
    formats = {f.strip() for f in args.format.split(",") if f.strip()}
    if not formats <= {"json", "csv", "svg"}:
        print(f"error: unknown format in {sorted(formats)}", file=sys.stderr)
        return 1
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out {args.out}: cannot create directory ({exc.strerror})")
    try:
        return COMMANDS[args.command](args, out, formats)
    except DiskInspectError as exc:
        print(json.dumps({"error": exc.payload()}, indent=2, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
