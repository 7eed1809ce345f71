"""Per-layer spans around diskinspect's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function at every module-level
name it is reachable by (``integrate`` is looked up as
``continuum.integrate``, ``feasibility.integrate``, ``optimizer.integrate``
and ``cli.integrate``), and puts the originals back on exit.  Every call
becomes a span; a layer's self time is its spans' duration minus the time
covered by the spans it called.  Spans are aggregated in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Traced public functions, by module of definition.
LAYERS = {
    "continuum": ("integrate",),
    "feasibility": ("deployment_parameter", "clearance_certificate",
                    "feasibility_sweep"),
    "cost": ("total_cost",),
    "optimizer": ("cost_at", "sweep_cost", "refine_minimum"),
    "bounds": ("nlp_lower_bound",),
    "refraction": ("shoot_theta",),
    "geometry": ("first_inspection_arclengths",),
    "oracle": ("assemble_trajectory", "average_cost_full"),
}

#: Name of the span around one CLI command.
CLI = "cli"


def _count_integrate(counts, args, result):
    counts["continuum.ode_steps"] += result.n_steps


def _count_nlp(counts, args, result):
    counts["bounds.newton_iterations"] += result.iterations
    counts["bounds.newton_iterations_max"] = max(
        counts["bounds.newton_iterations_max"], result.iterations)


def _count_visibility(counts, args, result):
    traj, phis = args[0], args[1]
    counts["geometry.vertex_target_pairs_computed"] += (
        len(traj.vertices) * len(phis))


#: Work counters read off a traced call's arguments and result.
COUNTERS = {
    "continuum.integrate": _count_integrate,
    "bounds.nlp_lower_bound": _count_nlp,
    "geometry.first_inspection_arclengths": _count_visibility,
}


class Tracer:
    """Span aggregates and work counters for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.inclusive_s = Counter()
        self.nested_s = Counter()  # (parent, child) -> child inclusive time
        self.counts = Counter()
        self._stack = []  # open spans: [name, start, time in child spans]

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self.calls[name] += 1
            self.inclusive_s[name] += duration
            self.self_s[name] += duration - frame[2]
            if self._stack:
                parent = self._stack[-1]
                parent[2] += duration
                self.nested_s[(parent[0], name)] += duration

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every lookup of a traced function through a span."""
        package = [m for k, m in list(sys.modules.items())
                   if k == "diskinspect" or k.startswith("diskinspect.")]
        patched = []
        try:
            for module, names in LAYERS.items():
                home = importlib.import_module(f"diskinspect.{module}")
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{module}.{fname}", original)
                    for mod in package:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times (ms) of everything traced so far."""
        def ms(seconds):
            return 1000.0 * seconds

        out = {}
        for name in ("continuum.integrate", "feasibility.deployment_parameter",
                     "feasibility.clearance_certificate", "cost.total_cost",
                     "bounds.nlp_lower_bound", "refraction.shoot_theta",
                     "geometry.first_inspection_arclengths"):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.ms"] = ms(self.self_s[name])
        out["optimizer.cost_at.calls"] = self.calls["optimizer.cost_at"]
        refine, sweep = "optimizer.refine_minimum", "optimizer.sweep_cost"
        out["optimizer.refine.ms"] = ms(
            self.inclusive_s[refine] - self.nested_s[(refine, sweep)])
        out["optimizer.sweep_cost.ms"] = ms(self.inclusive_s[sweep])
        out["feasibility.feasibility_sweep.ms"] = ms(
            self.inclusive_s["feasibility.feasibility_sweep"])
        for name in ("oracle.assemble_trajectory", "oracle.average_cost_full"):
            out[f"{name}.ms"] = ms(self.self_s[name])
        out["cli.other.ms"] = ms(self.self_s[CLI])
        for name in ("continuum.ode_steps", "bounds.newton_iterations",
                     "bounds.newton_iterations_max",
                     "geometry.vertex_target_pairs_computed",
                     "cli.bytes_written"):
            out[name] = self.counts[name]
        return out
