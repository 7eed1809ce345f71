"""Harness tests at tiny sizes: every metric is emitted and wrong outputs count.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

from diskinspect import cli  # noqa: E402

TINY = {
    "window": {"grid": 8},
    "trace": {"count": 5},
    "verify": {"samples": 1000, "segments": 500},
    "bounds": {"k": 200, "grid": 5},
}


def _declared(kind: str) -> set[str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _measure(name, reference, out, traced):
    commands = workloads.WORKLOADS[name](3, **TINY[name])
    return commands, run.measure(cli, commands, reference, 0.0, traced, out)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_emitted_and_correct(name, reference, tmp_path):
    commands, passes = _measure(name, reference, tmp_path, traced=False)
    assert len(passes) == 1 and passes[0].failed == 0
    assert passes[0].attempted == sum(c.ops for c in commands)
    metrics = run.end_to_end(passes, setup=[0.5, 0.7, 0.6])
    assert set(metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    extras = run.informational(commands, passes)
    assert extras["error_rate"][0] == 0
    if name == "window":
        assert {"time_to_optimum_s", "sweep_points_per_s"} <= set(extras)

    _, passes = _measure(name, reference, tmp_path, traced=True)
    assert [p.traced for p in passes] == [False, True]
    assert sum(p.failed for p in passes) == 0
    layers = run.per_layer(passes)
    assert set(layers) == _declared("per_layer")
    assert layers["cli.other.ms"][0] > 0 and layers["cli.bytes_written"][0] > 0


def test_layers_attributed(reference, tmp_path):
    _, passes = _measure("window", reference, tmp_path, traced=True)
    layers = passes[1].layers
    grid = TINY["window"]["grid"]
    assert layers["continuum.integrate.calls"] > 2 * grid
    assert layers["continuum.ode_steps"] > layers["continuum.integrate.calls"]
    assert layers["optimizer.cost_at.calls"] > grid
    assert layers["optimizer.refine.ms"] > 0
    assert layers["feasibility.feasibility_sweep.ms"] > 0
    assert layers["bounds.nlp_lower_bound.calls"] == 0

    _, passes = _measure("bounds", reference, tmp_path, traced=True)
    layers = passes[1].layers
    # five sweep angles plus the one angle-bounds solves at theta = 0.52
    assert layers["bounds.nlp_lower_bound.calls"] == TINY["bounds"]["grid"] + 1
    assert (layers["bounds.newton_iterations"]
            >= layers["bounds.newton_iterations_max"] > 0)


def test_tracing_restores_functions():
    from diskinspect import continuum, feasibility

    original = continuum.integrate
    tracer = run.Tracer()
    with tracer.installed():
        assert feasibility.integrate is not original
        assert cli.integrate is feasibility.integrate
    assert feasibility.integrate is original and cli.integrate is original


@pytest.mark.parametrize("name, corrupt", [
    ("window", lambda ref: ref["published"].update(xi=0.8)),
    ("trace", lambda ref: ref["trace_total"].__setitem__(
        slice(None), [t + 1e-3 for t in ref["trace_total"]])),
    ("trace", lambda ref: ref["published"].update(cost_7_digits=4.0)),
])
def test_wrong_reference_raises_error_rate(name, corrupt, reference, tmp_path):
    wrong = copy.deepcopy(reference)
    corrupt(wrong)
    _, passes = _measure(name, wrong, tmp_path, traced=False)
    assert passes[0].failed > 0


@pytest.mark.parametrize("name, limit, value", [
    ("bounds", "KKT_RESIDUAL_MAX", 0.0),
    ("window", "SELFCHECK_GAP_MAX", -1.0),
])
def test_wrong_tolerance_raises_error_rate(name, limit, value, reference,
                                          tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, limit, value)
    _, passes = _measure(name, reference, tmp_path, traced=False)
    assert passes[0].failed >= TINY[name]["grid"]


def test_failed_verify_check_counts(tmp_path):
    report = {"a": {"pass": True}, "b": {"pass": False}, "all_pass": False}
    (tmp_path / "verify.json").write_text(json.dumps(report))
    (cmd,) = workloads.verify(seed=0)
    # one check failed, four of the six expected checks are missing
    assert cmd.check(tmp_path, {}) == 5


def test_nonzero_exit_fails_every_operation(reference, tmp_path):
    (cmd,) = workloads.verify(seed=0)
    assert run._failed_ops(cmd, 3, tmp_path, reference) == cmd.ops


def test_seed_drives_inputs():
    def taus(seed):
        return [c.argv for c in workloads.trace(seed, count=20)]
    assert taus(1) == taus(1) and taus(1) != taus(2)
    assert workloads.verify(4)[0].argv[:2] == ("--seed", "4")


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    rc = run.main(["--workload", "trace", "--seed", "1", "--seconds", "1"])
    assert rc != 0 and capsys.readouterr().out == ""
