"""Benchmark workloads: the argv each one runs, and how its outputs are checked.

A workload is a list of ``diskinspect`` command lines run one after another.
Each command counts as one or more *operations* (a sweep row, a trace, a
verification check, a bound angle); an operation fails when its command
exits non-zero or its output misses a reference value.  The workload seed
only chooses inputs: the trace start values and the ``verify --seed``.

Sizes are keyword arguments so the harness tests can run every workload in
seconds; the defaults are the benchmark's sizes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: Trace start values are drawn uniformly from this grid over the certified
#: window [1.64697, 1.6525]; reference.json holds the total cost that the
#: baseline commit computes at each grid point.
TRACE_POOL_LO = 1.64697
TRACE_POOL_HI = 1.6525
TRACE_POOL_SIZE = 1001

#: Acceptance tolerances (criteria 1, 2 and 9 of the acceptance gate).
HEADLINE_TOL = 1e-6
CLEARANCE_TOL = 1e-4
SELFCHECK_GAP_MAX = 2e-8
TRACE_TOTAL_TOL = 1e-6
KKT_RESIDUAL_MAX = 1e-8


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def trace_pool() -> np.ndarray:
    return np.linspace(TRACE_POOL_LO, TRACE_POOL_HI, TRACE_POOL_SIZE)


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without ``--out``) and the operations it performs.

    ``check(out_dir, reference)`` returns how many of the ``ops`` operations
    failed their output check; it is only called after exit code 0.
    """

    argv: tuple[str, ...]
    ops: int
    check: Callable[[Path, dict], int]


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# --- window -----------------------------------------------------------------


def _check_feasibility_sweep(grid: int):
    def check(out: Path, ref: dict) -> int:
        rows = _read_csv(out / "feasibility_sweep.csv")
        bad = sum(
            1 for r in rows
            if r["feasible"] != "true"
            or not float(r["selfcheck_gap"]) <= SELFCHECK_GAP_MAX
        )
        return bad + max(0, grid - len(rows))
    return check


def _check_optimum(out: Path, ref: dict) -> int:
    opt = _read_json(out / "optimum.json")
    pub = ref["published"]
    ok = (
        abs(opt["cost_star"] - pub["cost"]) <= HEADLINE_TOL
        and abs(opt["tau0_star"] - pub["tau0"]) <= HEADLINE_TOL
        and abs(opt["xi_star"] - pub["xi"]) <= HEADLINE_TOL
        and abs(opt["clearance_star"] - pub["clearance"]) <= CLEARANCE_TOL
    )
    return 0 if ok else 1


def window(seed: int, grid: int = 50) -> list[Command]:
    g = str(grid)
    return [
        Command(("--jobs", "1", "--format", "csv", "sweep-feasibility",
                 "--grid", g), grid, _check_feasibility_sweep(grid)),
        Command(("--jobs", "1", "--format", "json", "optimize", "--grid", g),
                1, _check_optimum),
    ]


# --- trace ------------------------------------------------------------------


def _check_trace(index: int):
    def check(out: Path, ref: dict) -> int:
        feas = _read_json(out / "feasibility.json")
        total = _read_json(out / "cost.json")["total"]
        ok = (
            feas["feasible"] is True
            and total >= ref["published"]["cost_7_digits"] - TRACE_TOTAL_TOL
            and abs(total - ref["trace_total"][index]) <= TRACE_TOTAL_TOL
        )
        return 0 if ok else 1
    return check


def trace(seed: int, count: int = 200) -> list[Command]:
    pool = trace_pool()
    picks = np.random.default_rng(seed).integers(0, len(pool), size=count)
    return [
        Command(("trace", "--tau0", repr(float(pool[i]))), 1,
                _check_trace(int(i)))
        for i in picks
    ]


# --- verify -----------------------------------------------------------------

#: Checks the baseline commit's ``verify`` writes to verify.json.
VERIFY_CHECKS = 6


def _check_verify(out: Path, ref: dict) -> int:
    report = _read_json(out / "verify.json")
    checks = [v for v in report.values() if isinstance(v, dict)]
    bad = sum(1 for c in checks if c["pass"] is not True)
    if report["all_pass"] is not True:
        bad = max(bad, 1)
    return bad + max(0, VERIFY_CHECKS - len(checks))


def verify(seed: int, samples: int = 100_000,
           segments: int = 10_000) -> list[Command]:
    return [
        Command(("--seed", str(seed), "verify", "--samples", str(samples),
                 "--segments", str(segments)), VERIFY_CHECKS, _check_verify),
    ]


# --- bounds -----------------------------------------------------------------


def _check_bound_sweep(grid: int):
    def check(out: Path, ref: dict) -> int:
        rows = _read_csv(out / "lower_bound_sweep.csv")
        bad = sum(1 for r in rows
                  if not float(r["kkt_residual"]) <= KKT_RESIDUAL_MAX)
        return bad + max(0, grid - len(rows))
    return check


def _check_angle_bounds(out: Path, ref: dict) -> int:
    margins = _read_json(out / "angle_bounds.json")["margins"]
    return 0 if margins["at_lo"] > 0.0 and margins["at_hi"] > 0.0 else 1


def bounds(seed: int, k: int = 1000, grid: int = 11) -> list[Command]:
    return [
        Command(("--format", "csv", "lower-bound", "--theta", "0.52",
                 "--k", str(k), "--grid", str(grid)), grid,
                _check_bound_sweep(grid)),
        Command(("--format", "json", "angle-bounds"), 1, _check_angle_bounds),
    ]


#: Command-list builders by workload name: ``WORKLOADS[name](seed, **sizes)``.
WORKLOADS = {"window": window, "trace": trace, "verify": verify,
             "bounds": bounds}
