#!/usr/bin/env python3
"""Closed-loop benchmark of the diskinspect command line.

    python3 perfbench/run.py --workload window --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One client runs a workload's commands one after another through
``diskinspect.cli.main`` in this process (no worker pool).  A *pass* is one
run of the whole command list; passes repeat until ``--seconds`` is used
up.  ``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones and the tracing overhead.

Every output is checked against reference values; the last line of
standard output is the JSON result, and a fuller record with the run's
provenance is written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import CLI, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 3
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import diskinspect.cli, workloads; "
    "workloads.load_reference(); "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))"
)

#: Small sizes run once, untimed, so lazy initialisation is done before
#: the first measured pass.
WARMUP = {
    "window": {"grid": 4},
    "trace": {"count": 3},
    "verify": {"samples": 1000, "segments": 500},
    "bounds": {"k": 200, "grid": 3},
}


def _failed_ops(cmd, rc: int, out: Path, reference: dict) -> int:
    if rc != 0:
        return cmd.ops
    try:
        return min(cmd.ops, cmd.check(out, reference))
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return cmd.ops


def run_command(cli, argv, out: Path) -> int:
    """Exit code of one CLI command; a crash counts as exit code -1."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["--out", str(out), *argv])
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed operation
        print(f"command {list(argv)} crashed:\n{traceback.format_exc()}",
              file=sys.stderr)
        return -1


class Pass:
    """Timings and check results of one run of a workload's commands."""

    def __init__(self, cli, commands, out: Path, reference: dict, tracer=None):
        shutil.rmtree(out, ignore_errors=True)
        dirs = [out / f"{i:03d}" for i in range(len(commands))]
        self.traced = tracer is not None
        self.latencies = []
        codes = []
        start = time.perf_counter()
        for cmd, d in zip(commands, dirs):
            t0 = time.perf_counter()
            if tracer is None:
                codes.append(run_command(cli, cmd.argv, d))
            else:
                with tracer.span(CLI):
                    codes.append(run_command(cli, cmd.argv, d))
            self.latencies.append(time.perf_counter() - t0)
        self.wall = time.perf_counter() - start
        self.attempted = sum(cmd.ops for cmd in commands)
        self.failed = sum(_failed_ops(cmd, rc, d, reference)
                          for cmd, rc, d in zip(commands, codes, dirs))
        self.layers = None
        if tracer is not None:
            tracer.counts["cli.bytes_written"] = sum(
                f.stat().st_size for f in out.rglob("*") if f.is_file())
            self.layers = tracer.metrics()


def measure(cli, commands, reference: dict, seconds: float, traced: bool,
            out: Path) -> list[Pass]:
    """Closed loop: start another pass while the median pass still fits."""
    passes = []
    start = time.perf_counter()
    while True:
        if traced and len(passes) % 2 == 1:
            tracer = Tracer()
            with tracer.installed():
                passes.append(Pass(cli, commands, out, reference, tracer))
        else:
            passes.append(Pass(cli, commands, out, reference))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > seconds:
            if not traced or len(passes) >= 2:
                return passes


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import diskinspect and build inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name,
             str(seed)],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    plain = [p for p in passes if not p.traced]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in plain), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {}
    for key in traced[0].layers:
        unit = "ms" if key.endswith(".ms") else (
            "bytes" if key.endswith("bytes_written") else "count")
        # counts repeat exactly between passes; median_low keeps them integers
        middle = statistics.median if unit == "ms" else statistics.median_low
        out[key] = (middle(p.layers[key] for p in traced), unit)
    out["tracing.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in plain), "s")
    return out


def informational(commands, passes: list[Pass]) -> dict:
    """Ungated figures: error rate, command latency, window per-command times."""
    attempted = sum(p.attempted for p in passes)
    plain = [p for p in passes if not p.traced]
    latencies = [t for p in plain for t in p.latencies]
    out = {
        "error_rate": (sum(p.failed for p in passes) / attempted, "1"),
        "latency_samples": (len(latencies), "count"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000.0 * _percentile(latencies, 90), "ms"),
    }
    for i, cmd in enumerate(commands):
        if "optimize" in cmd.argv:
            t = statistics.median(p.latencies[i] for p in plain)
            out["time_to_optimum_s"] = (t, "s")
        if "sweep-feasibility" in cmd.argv:
            t = statistics.median(p.latencies[i] for p in plain)
            out["sweep_points_per_s"] = (cmd.ops / t, "1/s")
    return out


def provenance(commands) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in sorted((SRC / "diskinspect").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_lines": src_lines,
        "argv": [["diskinspect", "--out", "DIR", *c.argv] for c in commands],
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from diskinspect import cli

    reference = workloads.load_reference()
    out = OUT / name
    Pass(cli, workloads.WORKLOADS[name](seed, **WARMUP[name]), out, reference)
    setup = [] if trace else time_setup(name, seed)
    commands = workloads.WORKLOADS[name](seed)
    passes = measure(cli, commands, reference, seconds, trace, out)
    metrics = per_layer(passes) if trace else end_to_end(passes, setup)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extras = informational(commands, passes)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "commands_per_pass": len(commands),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "informational": {k: {"value": v, "unit": u}
                          for k, (v, u) in extras.items()},
        "setup_probes_s": setup,
        "pass_wall_s": [p.wall for p in passes],
        "pass_traced": [p.traced for p in passes],
        "command_latency_s": [p.latencies for p in passes],
        "provenance": provenance(commands),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {name}  seed {seed}  passes {len(passes)} "
          f"({record['traced_passes']} traced)  commands/pass {len(commands)}")
    for key, entry in {**record["metrics"], **record["informational"]}.items():
        print(f"  {key:40s} {entry['value']:.6g} {entry['unit']}")
    prov = {k: v for k, v in record["provenance"].items() if k != "argv"}
    print(f"  provenance {json.dumps(prov)}; record in {path}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def run_all(args) -> dict:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = entry
    return merged


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "diskinspect" / "__init__.py").is_file():
        print(f"perfbench: no diskinspect sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
