import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diskinspect import cli, continuum, dop853, feasibility
from diskinspect.cli import main
from diskinspect.refraction import forward_recursion

from conftest import PUBLISHED_TAU0


def read(path):
    return path.read_text()


class TestTrace:
    def test_feasible_trace(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "trace", "--tau0", "1.647", "--grid", "50"])
        assert rc == 0
        assert (out / "solution.csv").exists()
        meta = json.loads(read(out / "solution_meta.json"))
        assert meta["tau0"] == 1.647
        feas = json.loads(read(out / "feasibility.json"))
        assert feas["feasible"] is True
        cost = json.loads(read(out / "cost.json"))
        assert cost["total"] == pytest.approx(
            cost["log_term"] + cost["deployment_term"] + cost["integral"]
        )

    def test_tol_ode_is_both_solver_tolerances(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--tol-ode", "1e-11", "trace", "--tau0", "1.6475"])
        assert rc == 0
        meta = json.loads(read(out / "solution_meta.json"))
        assert meta["rtol"] == meta["atol"] == 1e-11

    def test_no_crossing_emits_error_json(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "o"), "trace", "--tau0", "1.64"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "NoCrossing"

    def test_step_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # a field that turns NaN past x = 0.5 drives the step size below
        # the spacing of floats: a structured numerical failure, exit 2
        monkeypatch.setattr(continuum, "rhs", dop853.Field(
            ("psi", "tau"), "return (1.0 if x < 0.5 else math.nan, psi)"))
        rc = main(["--out", str(tmp_path / "o"), "trace", "--tau0", "1.648"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {"kind": "StepFailure",
                                    "message": continuum.TOO_SMALL_STEP}

    def test_negative_clearance_exits_2(self, tmp_path):
        # curve dives through the disk yet recrosses x=1: reported, not raised
        out = tmp_path / "o"
        rc = main(["--out", str(out), "trace", "--tau0", "1.0"])
        assert rc == 2
        feas = json.loads(read(out / "feasibility.json"))
        assert feas["feasible"] is False
        assert feas["tau_min"] < 0
        assert feas["clearance"] == 0.0


class TestSweeps:
    def test_sweep_feasibility_small(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "--out", str(out), "--format", "json,csv,svg",
            "sweep-feasibility", "--grid", "5",
        ])
        assert rc == 0
        lines = read(out / "feasibility_sweep.csv").splitlines()
        assert lines[0] == "tau0,xi,theta,tau_min,clearance,feasible,selfcheck_gap"
        assert len(lines) == 6
        assert (out / "sweep_xi.svg").exists()
        assert read(out / "sweep_xi.svg").startswith("<svg")

    def test_sweep_feasibility_charts_skip_error_rows(self, tmp_path):
        # the first 3 of 7 rows are NoCrossing error rows with NaN values
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--format", "csv,svg", "sweep-feasibility",
                   "--tau0-lo", "1.6", "--tau0-hi", "1.7", "--grid", "7"])
        assert rc == 2
        for name in ("sweep_xi.svg", "sweep_tau_min.svg", "sweep_theta.svg"):
            svg = read(out / name)
            assert "nan" not in svg
            points = svg.split('<polyline points="')[1].split('"')[0]
            assert len(points.split()) == 4

    def test_single_good_row_charts(self, tmp_path):
        # at the cliff only the last of 8 rows crosses: each chart has one
        # point, and its flat x and y ranges are widened to 1
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--format", "svg", "sweep-feasibility",
                   "--tau0-lo", "1.6469", "--tau0-hi", "1.64697", "--grid", "8"])
        assert rc == 2
        svg = read(out / "sweep_xi.svg")
        assert "nan" not in svg and "inf" not in svg
        assert len(svg.split('<polyline points="')[1].split('"')[0].split()) == 1

    def test_sweep_cost_small(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "sweep-cost", "--grid", "4"])
        assert rc == 0
        assert len(read(out / "cost_sweep.csv").splitlines()) == 5

    def test_sweep_cost_chart_reruns_byte_identical(self, tmp_path):
        charts = []
        for name in ("a", "b"):
            rc = main(["--out", str(tmp_path / name), "--format", "svg",
                       "sweep-cost", "--grid", "4"])
            assert rc == 0
            assert not (tmp_path / name / "cost_sweep.csv").exists()
            charts.append((tmp_path / name / "sweep_cost.svg").read_bytes())
        assert charts[0].startswith(b"<svg") and charts[0] == charts[1]

    def test_jobs_flag_still_parses(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--jobs", "4", "sweep-cost", "--grid", "2"])
        assert rc == 0
        assert len(read(out / "cost_sweep.csv").splitlines()) == 3

    def test_sweep_cost_all_error_rows_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "sweep-cost",
                   "--tau0-lo", "1.640", "--tau0-hi", "1.6465", "--grid", "3"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert payload["error"]["kind"] == "EmptySweep"
        assert len(read(out / "cost_sweep.csv").splitlines()) == 4

    def test_sweep_cost_xi_out_of_range_rows_exit_2(self, tmp_path, capsys):
        # these curves recross x = 1 before xi = 1/2, where the cost is
        # undefined; tau0 = 1e-12 does so just past the start
        for lo, hi, grid in (("0.05", "1.0", 5), ("1e-12", "1e-3", 4)):
            out = tmp_path / lo
            rc = main(["--out", str(out), "sweep-cost",
                       "--tau0-lo", lo, "--tau0-hi", hi, "--grid", str(grid)])
            assert rc == 2
            payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
            assert payload["error"]["kind"] == "EmptySweep"
            rows = read(out / "cost_sweep.csv").splitlines()[1:]
            assert len(rows) == grid
            assert all(r.endswith(",nan,XiOutOfRange") for r in rows)


class TestLowerBound:
    def test_single_instance(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "lower-bound", "--theta", "0.52", "--k", "500"])
        assert rc == 0
        data = json.loads(read(out / "lower_bound.json"))
        assert data["kkt_residual"] <= 1e-12
        assert data["composed_bound"] > 3.5509015

    def test_theta_sweep(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "--out", str(out), "--format", "csv,svg",
            "lower-bound", "--theta", "0.52", "--k", "100", "--grid", "6",
        ])
        assert rc == 0
        lines = read(out / "lower_bound_sweep.csv").splitlines()
        assert len(lines) == 7
        assert (out / "lower_bound_sweep.svg").exists()

    def test_coarsest_sweep_exits_0(self, tmp_path):
        # the sweep starts at theta = 0, where k = 19 is the coarsest chain
        # whose angle pass completes (k = 18 is a usage error)
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--format", "csv",
                   "lower-bound", "--k", "19", "--grid", "2"])
        assert rc == 0
        assert len(read(out / "lower_bound_sweep.csv").splitlines()) == 3

    def test_too_coarse_chain_exits_2(self, tmp_path, capsys):
        # k = 6 at theta = 0.6 cannot complete the angle recursion
        argv = ["lower-bound", "--theta", "0.6", "--k", "6"]
        assert failure_kind(argv, tmp_path, capsys) == (2, "AngleDomain", "")

    @pytest.mark.parametrize("extra", [[], ["--grid", "3"]], ids=["single", "sweep"])
    def test_theta_next_to_half_pi_exits_2(self, extra, tmp_path, capsys):
        # below pi/2, as --theta demands, but sin(theta) rounds to 1
        argv = ["lower-bound", "--theta", "1.5707963267948", "--k", "100", *extra]
        assert failure_kind(argv, tmp_path, capsys) == (2, "CostDiverges", "")


class TestAngleBounds:
    def test_report(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "angle-bounds"])
        assert rc == 0
        data = json.loads(read(out / "angle_bounds.json"))
        assert data["theta_lo"] == 0.52
        assert data["theta_hi"] == 1.148
        assert data["margins"]["at_lo"] > 0
        assert data["margins"]["at_hi"] > 0


class TestVerify:
    def test_verify_passes(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "--out", str(out), "verify",
            "--samples", "2000", "--segments", "2000",
        ])
        assert rc == 0
        data = json.loads(read(out / "verify.json"))
        assert data["all_pass"] is True
        assert data["feasible"]["pass"] is True

    def test_infeasible_trajectory_exits_3(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        args = ["--out", str(out), "verify", "--samples", "2000", "--segments", "2000"]
        assert main(args) == 0
        tau_min = json.loads(read(out / "verify.json"))["feasible"]["tau_min"]
        monkeypatch.setattr(feasibility, "FEASIBLE_TAU_MIN", tau_min + 1e-3)
        assert main(args) == 3
        data = json.loads(read(out / "verify.json"))
        assert data["feasible"] == {"tau_min": tau_min, "pass": False}
        assert data["all_pass"] is False
        assert "FAIL feasible" in capsys.readouterr().out.splitlines()


class TestOptimize:
    @pytest.mark.slow
    def test_coarse_grid_still_converges(self, tmp_path):
        # the optimum sits 6.9e-6 right of the window edge; even a coarse
        # grid brackets it in its first cell and refinement does the rest
        out = tmp_path / "o"
        rc = main(["--out", str(out), "optimize", "--grid", "40"])
        assert rc == 0
        data = json.loads(read(out / "optimum.json"))
        assert data["tau0_star"] == pytest.approx(PUBLISHED_TAU0, abs=1e-6)
        assert data["cost_star"] == pytest.approx(3.5492595860809693, abs=1e-6)
        assert data["certificate"]["feasible"] is True

    def test_default_window_grid_50(self, tmp_path):
        # the sweep minimum is row 0, the window's left edge; the optimum
        # lies inside that row's bracket, so the window checks must pass
        out = tmp_path / "o"
        rc = main(["--out", str(out), "optimize", "--grid", "50"])
        assert rc == 0
        data = json.loads(read(out / "optimum.json"))
        assert data["bracket"][0] == 1.64697
        assert data["tau0_star"] == pytest.approx(PUBLISHED_TAU0, abs=1e-6)

    def test_minimum_on_window_edge_exits_2(self, tmp_path, capsys):
        # the cost still falls left of 1.7: refinement runs into the edge,
        # where theta* = 1.37 also lies outside the angle window
        out = tmp_path / "o"
        rc = main(["--out", str(out), "optimize", "--grid", "20",
                   "--tau0-lo", "1.7", "--tau0-hi", "2.5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out)
        assert payload["error"]["kind"] == "WindowViolated"
        assert "edge" in payload["error"]["message"]
        assert not (out / "optimum.json").exists()

    def test_label_next_to_a_scan_abscissa_exits_0(self, tmp_path):
        # the middle label's root lies 1.5e-11 right of a scan abscissa; as
        # an error row between valid rows it would read NotUnimodal
        rc = main(["--out", str(tmp_path / "o"), "optimize", "--grid", "3",
                   "--tau0-lo", "1.64697", "--tau0-hi", "1.6490313295000128"])
        assert rc == 0

    def test_all_error_rows_exits_2(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "o"), "optimize", "--grid", "3",
                   "--tau0-lo", "1.62", "--tau0-hi", "1.64"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "NotUnimodal"


class TestConverge:
    def test_rate_table(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "converge", "--grid", "500"])
        assert rc == 0
        data = json.loads(read(out / "convergence.json"))
        assert 1.6 <= data["ratio_psi"] <= 2.4
        assert 1.6 <= data["ratio_tau"] <= 2.4

    def test_smallest_grid_runs(self, tmp_path):
        # 16 is the smallest base grid whose chain's angle pass completes
        assert main(["--out", str(tmp_path), "converge", "--grid", "16"]) == 0

    def test_stopped_solve_gives_the_full_table(self, tmp_path):
        # the solve stops at its first node past x = 0.8; the table, read on
        # [0.1, 0.8], is the one a solve to x = 1 gives
        assert main(["--out", str(tmp_path), "converge", "--grid", "1000"]) == 0
        sol, rows = continuum.integrate(PUBLISHED_TAU0), []
        for n in (1000, 2000):
            chain = forward_recursion(PUBLISHED_TAU0, n, m=int(0.85 * n))
            grid = np.arange(chain.m + 1) / n
            mask = (grid >= 0.1) & (grid <= 0.8)
            psi, tau = sol.values(grid[mask])
            rows.append({"n": n,
                         "sup_err_psi": float(np.max(np.abs(chain.y[mask] - psi))),
                         "sup_err_tau": float(np.max(np.abs(chain.t[mask] - tau)))})
        assert json.loads(read(tmp_path / "convergence.json")) == {
            "rows": rows,
            "ratio_psi": rows[0]["sup_err_psi"] / rows[1]["sup_err_psi"],
            "ratio_tau": rows[0]["sup_err_tau"] / rows[1]["sup_err_tau"],
        }


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["lower-bound", "--theta", "0.37", "--k", "150"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out_a), "--seed", "5"] + args) == 0
        assert main(["--out", str(out_b), "--seed", "5"] + args) == 0
        assert read(out_a / "lower_bound.json") == read(out_b / "lower_bound.json")

    def test_trace_reruns_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "--out", str(out), "trace", "--tau0", str(PUBLISHED_TAU0), "--grid", "40",
            ]) == 0
        assert read(out_a / "solution.csv") == read(out_b / "solution.csv")
        assert read(out_a / "cost.json") == read(out_b / "cost.json")


class TestUsage:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--k", "3"), ("--theta", "1.6"), ("--theta", "-0.1"), ("--grid", "0"),
    ])
    def test_lower_bound_bad_input_exits_1(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["--out", str(tmp_path), "lower-bound", flag, value])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1].startswith(f"error: argument {flag}: {value}")

    @pytest.mark.parametrize("argv", [
        ["sweep-cost", "--grid", "1"],
        ["optimize", "--grid", "1"],
        ["sweep-feasibility", "--tau0-lo", "1.65", "--tau0-hi", "1.649"],
        ["sweep-cost", "--tau0-lo", "-1", "--tau0-hi", "1"],
        ["trace", "--tau0", "1.647", "--grid", "0"],
        ["verify", "--samples", "0"],
        ["--x0", "1", "trace", "--tau0", "1.647"],
        ["--x0", "0", "trace", "--tau0", "1.647"],
        ["--x0", "5e-324", "trace", "--tau0", "1.648"],
        ["--tol-ode", "-1", "trace", "--tau0", "1.647"],
        ["--tol-ode", "1e-30", "trace", "--tau0", "1.647"],
        ["trace", "--tau0", "-1"],
        ["trace", "--tau0", "inf"],
        ["verify", "--tau0", "0"],
        ["verify", "--samples", "200", "--segments", "1"],
        ["converge", "--tau0", "-1"],
        ["converge", "--grid", "4"],
        ["converge", "--grid", "15"],
        ["--seed", "-1", "verify"],
        ["lower-bound", "--k", "18", "--grid", "3"],
        ["lower-bound", "--k", "5", "--grid", "1", "--theta", "1.5"],
    ], ids=["sweep-cost", "optimize", "sweep-feasibility", "tau0-lo", "trace",
            "verify", "x0-above", "x0-zero", "x0-subnormal", "tol-ode",
            "tol-ode-below-floor", "trace-tau0", "trace-tau0-inf", "verify-tau0",
            "verify-segments", "converge-tau0", "converge-grid", "converge-grid-15",
            "seed", "lower-bound-sweep-k", "lower-bound-sweep-k-5"])
    def test_bad_numeric_flag_exits_1(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["--out", str(tmp_path), *argv])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert stderr.startswith("usage: diskinspect")
        assert stderr.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "below-a-file"])
    def test_out_not_creatable_exits_1(self, tmp_path, capsys, sub):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as err:
            main(["--out", str(blocker / sub), "angle-bounds"])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1].startswith("error: --out ")

    def test_bad_format_exits_1(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--format", "yaml", "angle-bounds"])
        assert rc == 1


class TestParserReuse:
    """main parses every call with one cached parser."""

    ARGVS = [
        ["--seed", "7", "--format", "json", "verify", "--samples", "500", "--segments", "3"],
        ["verify"],
        ["--x0", "1e-7", "optimize", "--grid", "7", "--tau0-lo", "1.6"],
        ["optimize"],
        ["lower-bound", "--grid", "3", "--theta", "0.2"],
        ["lower-bound"],
        ["trace", "--tau0", "1.7"],
        ["--tol-ode", "1e-9", "converge"],
    ]

    def test_consecutive_calls_keep_no_state(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "COMMANDS", {
            name: lambda args, out, formats: seen.append(vars(args)) or 0
            for name in cli.COMMANDS})
        for argv in self.ARGVS:
            assert main(["--out", str(tmp_path), *argv]) == 0
        assert cli.build_parser() is cli.build_parser()
        fresh = [vars(cli.build_parser.__wrapped__().parse_args(["--out", str(tmp_path), *a]))
                 for a in self.ARGVS]
        assert seen == fresh
        assert seen[1]["seed"] == 0 and seen[1]["samples"] == 100_000
        assert seen[3]["grid"] == 2000 and seen[3]["x0"] == continuum.X0_REF
        assert seen[5]["grid"] is None
        assert "samples" not in seen[3] and "tau0_lo" not in seen[7]

    @pytest.mark.parametrize("bad", [["trace"], ["optimize", "--grid", "1"], ["frobnicate"]])
    def test_usage_error_after_a_good_call_exits_1(self, tmp_path, capsys, bad):
        assert main(["--out", str(tmp_path), "--format", "json", "angle-bounds"]) == 0
        with pytest.raises(SystemExit) as err:
            main(["--out", str(tmp_path), *bad])
        assert err.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


#: Edge minimum: the cost still falls left of 1.7 (see TestOptimize).
EDGE_MINIMUM = ["optimize", "--tau0-lo", "1.7", "--tau0-hi", "2.5", "--grid", "20"]


def exit_code(argv):
    """Exit code of one in-process command; only argparse's SystemExit may escape."""
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            return main(["--out", out, *argv])
        except SystemExit as exc:
            return exc.code


class TestExitCodeContract:
    """0 ok, 1 usage, 2 numerical, 3 check, and never a traceback."""

    @given(st.one_of(
        (st.floats(1.6, 1.7) | st.floats(-1.0, 4.0)).map(
            lambda tau0: ["trace", "--tau0", repr(tau0)]),
        st.just(EDGE_MINIMUM),
    ))
    @example(["trace", "--tau0", "1.64"])
    @example(["trace", "--tau0", "1.6469"])
    @example(["trace", "--tau0", "1.64697"])
    @example(["trace", "--tau0", "1.6525"])
    @example(["trace", "--tau0", "1.66"])
    @example(EDGE_MINIMUM)
    def test_exit_code_in_contract(self, argv):
        assert exit_code(argv) in {0, 1, 2, 3}

    @settings(max_examples=40)
    @given(
        st.floats(-1.0, 4.0) | st.floats(1.64697, 1.6525),
        st.floats(-12.0, -5.0).map(lambda e: 10.0**e)
        | st.floats(0.0, continuum.X0_MAX, exclude_min=True),
        st.floats(-14.0, 1.0).map(lambda e: 10.0**e),
        st.sampled_from([["verify", "--samples", "100", "--segments", "2"],
                         ["converge", "--grid", "50"]]),
    )
    @example(1.648, 1e-5, 1.0, ["verify", "--samples", "100", "--segments", "2"])
    @example(1.648, 1e-5, 1.0, ["converge", "--grid", "50"])
    @example(1.6469, 1e-6, 1e-12, ["verify", "--samples", "100", "--segments", "2"])
    def test_verify_and_converge_exit_codes_in_contract(self, tau0, x0, tol, command):
        argv = ["--x0", repr(x0), "--tol-ode", repr(tol), command[0], "--tau0", repr(tau0),
                *command[1:]]
        assert exit_code(argv) in {0, 1, 2, 3}

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["optimize", "sweep-feasibility", "sweep-cost"]),
        st.floats(-1.0, 4.0) | st.floats(1.64, 1.66),
        st.floats(-1.0, 4.0) | st.floats(1.64, 1.66),
        st.integers(1, 6),
    )
    @example("optimize", 0.05, 4.0, 3)
    @example("sweep-feasibility", 1.6469, 1.64697, 4)
    @example("sweep-cost", 1e-12, 1e-3, 4)
    def test_window_commands_exit_codes_in_contract(self, command, lo, hi, grid):
        argv = [command, "--tau0-lo", repr(lo), "--tau0-hi", repr(hi), "--grid", str(grid)]
        assert exit_code(argv) in {0, 1, 2, 3}

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-0.1, 1.6), st.integers(4, 300), st.integers(0, 6))
    @example(0.6, 6, 3)
    @example(1.5707963267948, 100, 2)
    def test_lower_bound_sweep_exit_codes_in_contract(self, theta, k, grid):
        argv = ["lower-bound", "--theta", repr(theta), "--k", str(k), "--grid", str(grid)]
        assert exit_code(argv) in {0, 1, 2, 3}

    @pytest.mark.parametrize("tau0, code", [
        ("1.6469", 2), ("1.64697", 0), ("1.6480006647500065", 0),
    ])
    def test_window_cliff_codes(self, tau0, code):
        # NoCrossing just left of the window's lower edge, feasible on it and
        # inside it; the last label's scan sample left of its root reads
        # g = -5.9e-10, and that sample starts the crossing
        assert exit_code(["trace", "--tau0", tau0]) == code


def failure_kind(argv, tmp_path, capsys):
    """Exit code, error kind and stderr of one in-process command."""
    rc = main(["--out", str(tmp_path / "o"), *argv])
    captured = capsys.readouterr()
    return rc, json.loads(captured.out)["error"]["kind"], captured.err


#: Commands that must run with every ``import scipy`` and ``import
#: numpy.random`` failing, by test id.
NO_SCIPY_COMMANDS = {
    "trace": ["trace", "--tau0", "1.6475"],
    "optimize": ["optimize", "--grid", "50"],
    "verify": ["verify", "--samples", "20000", "--segments", "2000"],
    "angle-bounds": ["angle-bounds"],
    "lower-bound": ["lower-bound", "--k", "200"],
    "verify-small": ["verify", "--samples", "2000", "--segments", "500"],
    "converge": ["converge"],
    "sweep-feasibility": ["sweep-feasibility", "--grid", "50"],
    "sweep-cost": ["sweep-cost", "--grid", "50"],
    "lower-bound-sweep": ["lower-bound", "--k", "200", "--grid", "5"],
    "sweep-feasibility-svg": ["--format", "svg", "sweep-feasibility", "--grid", "50"],
}


class TestNoScipy:
    """scipy is a test dependency only, and verify draws its chains with
    the standard library's random: every command runs in a fresh
    interpreter where importing scipy or numpy.random fails."""

    @pytest.mark.parametrize("argv", NO_SCIPY_COMMANDS.values(), ids=NO_SCIPY_COMMANDS)
    def test_command_runs_without_scipy(self, argv, tmp_path):
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = ('import sys; sys.modules["scipy"] = sys.modules["numpy.random"] = None; '
                "from diskinspect.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "--out", str(tmp_path / "o"), *argv],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestStructuredFailures:
    """A solve that cannot reach x = 1 cleanly exits 2 with StepFailure."""

    @pytest.mark.parametrize("argv", [
        ["trace", "--tau0", "1.648"],
        ["sweep-feasibility", "--grid", "5"],
        ["optimize", "--grid", "5"],
    ], ids=["trace", "sweep-feasibility", "optimize"])
    def test_tightened_guard_exits_2(self, argv, tmp_path, capsys, monkeypatch):
        # psi dips to ~0.16 inside the window, below a band edge of 0.3
        monkeypatch.setattr(continuum, "PSI_GUARD", 0.3)
        assert failure_kind(argv, tmp_path, capsys)[:2] == (2, "StepFailure")

    def test_coarse_tolerance_exits_2(self, tmp_path, capsys):
        # at tol 1 a step ends near x = 0.89 with psi = -0.72, far outside
        # the band; this command must not certify a trajectory
        argv = ["--x0", "1e-5", "--tol-ode", "1", "trace", "--tau0", "1.648"]
        assert failure_kind(argv, tmp_path, capsys)[:2] == (2, "StepFailure")

    def test_coarse_tolerance_optimize_exits_2(self, tmp_path, capsys):
        # at tol 1e-10 the certificate solve and the pencil step differently,
        # and their xi at tau0* differ by 2.5e-8, more than PROBE_XI_TOL
        argv = ["--tol-ode", "1e-10", "optimize", "--grid", "50"]
        rc = main(["--out", str(tmp_path / "o"), *argv])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (2, "")
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "OutOfRange"
        gap = re.search(r"by (\S+), more than PROBE_XI_TOL=1e-08", error["message"])
        assert 2e-8 < float(gap[1]) < 3e-8
        assert "a root other than the first" in error["message"]
        assert "take steps different enough" in error["message"]

    def test_psi_band_between_nodes_exits_2(self, tmp_path, capsys):
        # at tol 0.3 the window pencil's dense psi falls below the band
        # between nodes whose psi all lie inside it; a check at the nodes
        # alone lets the sweep exit 0 with 4 of its 5 rows OutOfRange
        rc = main(["--out", str(tmp_path / "o"), "--x0", "3e-6", "--tol-ode", "0.3",
                   "sweep-cost", "--grid", "5"])
        assert rc == 2
        assert '"kind": "StepFailure"' in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_smallest_x0_warns_nothing(self, tmp_path, capsys):
        # cot(psi)/x overflows the solver's norms at the smallest normal x0;
        # the failure is structured and nothing reaches stderr
        argv = ["--x0", repr(sys.float_info.min), "trace", "--tau0", "1.648"]
        assert failure_kind(argv, tmp_path, capsys) == (2, "StepFailure", "")
