import argparse
import csv
import json
import math
import os
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from mkvflow import cli, experiments, solver
from mkvflow.cli import main as cli_main
from mkvflow.experiments import (
    AdmissibilityError,
    ExperimentConfig,
    emit_report,
    fit_exponent,
    parse_config,
    parse_report_csv,
    run_experiment,
    RunReport,
    ReportRow,
)
from mkvflow.flowio import flow_density_table, read_flow, write_flow
from mkvflow.grids import GridSpec, gaussian_density, grid_delta
from mkvflow.kernels import NemytskiiSpec, TimeModulation, make_kernel
from mkvflow.norms import SobolevIndex, measure_dual_norm
from mkvflow.solver import (FlowParams, phi_apply, picard_solve, picard_solve_many,
                            time_shift_solve)
from oracles import sequential_picard

REPO = Path(__file__).resolve().parents[1]
# a small Riesz solve that stops at picard_solve's defaults, 1e-8 or 25 iterations
SMALL_SOLVE = ("experiment = solve\ngrid_n = 256\nkernel = riesz\nkernel.c = 0.2\n"
               "kernel.kappa = 0.75\nkappa = 0.75\nT = 0.1\nsteps = 50\n"
               "max_iter = 25\ntol = 1e-8\n")


def membership_1024(tmp_path: Path) -> Path:
    """The shipped Dirac membership config on 1024 points, for speed."""
    path = tmp_path / "membership_1024.cfg"
    path.write_text((REPO / "configs/membership_dirac.cfg").read_text()
                    .replace("grid_n = 2048\n", "grid_n = 1024\n"))
    return path


class TestFitExponent:
    def test_exact_power_law(self):
        t = np.geomspace(0.1, 1.0, 8)
        slope = fit_exponent(list(zip(t, t**-0.75)))
        assert slope == pytest.approx(-0.75, abs=1e-12)

    def test_noisy_power_law(self):
        # [DERIVED synthetic-noise oracle] 1% multiplicative noise keeps the
        # fitted slope within 0.03 of the truth
        rng = np.random.default_rng(0)
        t = np.geomspace(0.05, 2.0, 20)
        worst = 0.0
        for _ in range(20):
            v = 3.0 * t**-1.0 * (1.0 + 0.01 * rng.standard_normal(t.size))
            slope = fit_exponent(list(zip(t, v)))
            worst = max(worst, abs(slope + 1.0))
        assert worst < 0.03

    def test_constant_values(self):
        t = np.geomspace(0.1, 1.0, 6)
        slope = fit_exponent(list(zip(t, np.full(6, 2.5))))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_exponent([(0.1, 1.0), (0.2, -1.0), (0.4, 1.0), (0.8, 1.0)])
        with pytest.raises(ValueError):
            fit_exponent([(0.1, 1.0), (0.2, 1.0)])


class TestConfig:
    def test_round_trip(self):
        text = ("experiment = stability\nseed = 3\nkernel = riesz\n"
                "kernel.c = 0.2\ndelta = 1.0\nh_list = 0.02, 0.05, 0.1\n")
        cfg = parse_config(text)
        assert cfg.experiment == "stability"
        assert cfg.seed == 3
        assert cfg.opt("kernel.c") == 0.2
        assert cfg.opt("h_list") == (0.02, 0.05, 0.1)
        assert parse_config(text).digest == cfg.digest

    def test_comments_and_blanks(self):
        cfg = parse_config("# hi\n\nexperiment = decay  # trailing\n")
        assert cfg.experiment == "decay"

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            parse_config("experiment = nope\n")

    def test_missing_experiment(self):
        with pytest.raises(ValueError, match="missing"):
            parse_config("seed = 1\n")

    @pytest.mark.parametrize("text, key", [
        ("experiment = decay\nseed = 1\nseed = 2\n", "seed"),
        ("experiment = decay\nseed = 1\nexperiment = heat_exponent\n", "experiment"),
    ], ids=["seed", "experiment"])
    def test_fixed_field_set_twice(self, text, key):
        # the last line won: the second text built a heat_exponent config
        with pytest.raises(ValueError, match=f"^{key} is set more than once \\(line 3\\)"):
            parse_config(text)

    def test_inf_parsing(self):
        cfg = parse_config("experiment = decay\nk = inf\n")
        assert cfg.opt("k") == math.inf

    def test_hash_sensitivity(self):
        a = parse_config("experiment = decay\nseed = 1\n")
        b = parse_config("experiment = decay\nseed = 2\n")
        assert a.digest != b.digest

    def test_digest_keeps_every_float_digit(self):
        # the digest hashed floats rounded to 12 digits, so the second run
        # overwrote the first one's report
        a = parse_config("experiment = decay\nT = 0.5\n")
        b = parse_config("experiment = decay\nT = 0.5000000000001\n")
        assert a.digest != b.digest


@pytest.mark.parametrize("path", sorted(REPO.glob("configs/*.cfg"))
                         + sorted(REPO.glob("perfbench/*.cfg")), ids=lambda p: p.name)
def test_shipped_config_constructs(path):
    # parse_config builds the ExperimentConfig, envelope-exponent rule included;
    # the zero-kernel configs set kappa without kernel.kappa
    assert isinstance(parse_config(path.read_text()), ExperimentConfig)


class TestKernelEnvelope:
    # the shipped contraction config with its drift envelope t^kappa dropped
    @pytest.mark.parametrize("replacement", ["kernel.kappa = 0.0", ""],
                             ids=["zero", "missing"])
    def test_envelope_must_match_kappa(self, replacement):
        text = (REPO / "configs/contraction.cfg").read_text()
        assert "kernel.kappa = 0.75" in text
        with pytest.raises(ValueError, match="kernel.kappa = 0 differs from kappa = 0.75"):
            parse_config(text.replace("kernel.kappa = 0.75", replacement))

    def test_cli_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        text = (REPO / "configs/contraction.cfg").read_text()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace("kernel.kappa = 0.75", "kernel.kappa = 0.0"))
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mkvflow experiment: error: kernel.kappa = 0 differs")
        assert err.count("\n") == 1
        assert not out.exists()


class TestOptionTable:
    # each case was run silently, or ended in a traceback, before every
    # experiment checked its options against the keys it reads
    @pytest.mark.parametrize("command, config, lines, message", [
        ("experiment", "contraction", "gama_var = 0.5", "solve does not read gama_var"),
        ("experiment", "contraction", "tol.residual = 1e-8", "solve does not read tol.residual"),
        ("experiment", "particles_zero", "tol = 1e-10", "particles does not read tol"),
        ("experiment", "heat_exponent", "dim = 2", "heat_exponent does not read dim"),
        ("experiment", "heat_exponent", "kernel = riesz", "heat_exponent does not read kernel"),
        ("experiment", "heat_exponent", "kernel.c = 0.2", "heat_exponent does not read kernel.c"),
        ("experiment", "contraction", "lambda_list = 1.0", "solve does not read lambda_list"),
        ("experiment", "membership_dirac", "eps_list = 0.01",
         "kernel_membership does not read eps_list"),
        ("experiment", "heat_exponent", "t_lo = 0.02", "heat_exponent does not read t_lo"),
        ("experiment", "heat_exponent", "tol.heat_slope = 1",
         "heat_exponent does not read tol.heat_slope"),
        ("experiment", "contraction", "eps = 0.5\np = 4", "solve does not read eps, p"),
        ("experiment", "membership_riesz_steep", "ks = 2.0, 2.0",
         "deltas (1.0,) and ks (2.0, 2.0) differ in length"),
        ("experiment", "membership_dirac", "deltas = 1.5, 0.5\nks = inf, inf, 2.0",
         "deltas (1.5, 0.5) and ks (inf, inf, 2.0) differ in length"),
        ("experiment", "contraction", "T = 0.5", "T is set more than once"),
        ("experiment", "contraction", "seed = 1", "seed is set more than once"),
        ("experiment", "contraction", "experiment = decay", "experiment is set more than once"),
        ("experiment", "contraction", "grid_extent = 8, 16", "grid_extent must be a number"),
        ("experiment", "contraction", "gamma_var = abc", "gamma_var must be a number, got 'abc'"),
        ("experiment", "decay", "r_list = 0.02, x", "each r_list entry must be a number"),
        ("experiment", "contraction", "n_times = 2.5", "n_times must be a positive int"),
    ], ids=["typo", "solve-tol", "particles-tol", "heat-dim", "heat-kernel", "heat-kernel-param",
            "lambda_list", "eps_list", "t_lo", "tol-name", "eps-p", "ks-longer", "ks-after-deltas",
            "twice", "seed-twice", "experiment-twice", "sequence", "word", "entry", "int"])
    def test_config_key_is_an_error_line(self, tmp_path, monkeypatch, capsys, command,
                                         config, lines, message):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        text = (REPO / f"configs/{config}.cfg").read_text()
        if "more than once" not in message:  # the case's keys replace the config's
            keys = [line.split("=")[0] for line in lines.splitlines()]
            text = "".join(line for line in text.splitlines(True)
                           if line.split("=")[0] not in keys)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + lines + "\n")
        out = tmp_path / "out"
        rc = cli_main([command, "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"mkvflow {command}: error: {message}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("config, key", [("decay", "tol"), ("contraction", "tol")])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, monkeypatch, capsys, config,
                                             key, value):
        # 0, -1 and nan used to run all max_iter iterations, inf to stop after one
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text((REPO / f"configs/{config}.cfg").read_text() + f"{key} = {value}\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(
            f"mkvflow experiment: error: {key} must be a number in (0, inf), got ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_deltas_without_ks_is_an_error(self):
        # ks defaults to the two entries of deltas' default
        with pytest.raises(ValueError, match=r"deltas \(1.5,\) and ks \(inf, inf\) differ"):
            parse_config("experiment = kernel_membership\nkernel = dirac\ndeltas = 1.5\n")

    def test_cases_is_not_an_option(self):
        with pytest.raises(ValueError, match="heat_exponent does not read cases"):
            ExperimentConfig("heat_exponent", options=(
                ("cases", ((1, 0.0, 0.0, math.inf, math.inf),)),))

    @pytest.mark.parametrize("experiment, lines, figures", [
        ("decay", "kernel = riesz\nkernel.c = 0.2\nkernel.kappa = 0.75\nkappa = 0.75\n"
                  "T = 0.1\nsteps = 50\nr_list = 0.02\n", ["decay_r=0.02"]),
        ("stability", "kernel = zero\nkappa = 1.25\nT = 0.2\ngamma_var = 0.01\n"
                      "n_times = 4\nsteps = 40\nh_list = 0.1\n", ["stability_h=0.1"]),
    ], ids=["r_list", "h_list"])
    def test_one_value_list_runs_as_a_list(self, experiment, lines, figures):
        # one value used to end in "'float' object is not iterable"
        cfg = parse_config(f"experiment = {experiment}\ngrid_n = 256\n{lines}")
        report = run_experiment(cfg)
        assert [f for f in report.figures if f in figures] == figures
        assert len(report.figures) == 1
        if experiment == "decay":
            assert [r.quantity for r in report.rows] == [
                "fixed_point_residual", "decay_sup(r=0.02)", "decay_spread"]

    def test_tolerance_rows_cite_the_table(self):
        # no row passes unbounded
        cfg = parse_config("experiment = decay\ngrid_n = 256\nkernel = zero\nkappa = 0.75\n"
                           "T = 0.1\nsteps = 50\nr_list = 0.02, 0.01\n")
        report = run_experiment(cfg)
        assert [(r.quantity, r.tol) for r in report.rows] == [
            ("fixed_point_residual", 1e-8), ("decay_sup(r=0.02)", 0.05),
            ("decay_sup(r=0.01)", 0.05), ("decay_spread", 0.2)]
        assert experiments.DEFAULT_TOLERANCES["stability_slope_upper_bracket"] == 0.15


class TestAdmissibilityGate:
    def test_solve_refuses_inadmissible(self):
        cfg = ExperimentConfig("solve", options=(
            ("grid_n", 1024), ("delta", 1.0), ("k", 2.0), ("kappa", 0.0)))
        with pytest.raises(AdmissibilityError, match="smoothing-gap"):
            run_experiment(cfg)

    def test_stability_refuses_without_window(self):
        cfg = ExperimentConfig("stability", options=(
            ("grid_n", 1024), ("delta", 1.0), ("k", 2.0), ("kappa", 0.75)))
        with pytest.raises(AdmissibilityError, match="stability window"):
            run_experiment(cfg)

    def test_refusal_names_values(self):
        cfg = ExperimentConfig("decay", options=(
            ("grid_n", 1024), ("delta", 1.5), ("k", 2.0), ("kappa", 0.0)))
        with pytest.raises(AdmissibilityError, match="eta=2.000"):
            run_experiment(cfg)

    def test_smoothing_gap(self):
        # eta = 1.5 against 1 + 2 kappa
        with pytest.raises(AdmissibilityError, match="smoothing-gap"):
            experiments._gate(FlowParams(delta=1.0, k=2.0, kappa=0.0))
        experiments._gate(FlowParams(delta=1.0, k=2.0, kappa=0.5))

    # (dim, k, kappa, delta on the boundary): eta = delta + dim/k meets
    # max(1, 1/2 + kappa); in the cap cases delta also meets the delta cap
    # min(1, 2 - dim/k) + max(2 kappa - eta, 0) = 1, which the window implies
    @pytest.mark.parametrize("dim, k, kappa, edge", [
        (1, 2.0, 1.0, 1.0), (2, 4.0, 1.0, 1.0), (1, 1.25, 0.25, 0.2), (2, 8.0, 0.25, 0.75),
        (1, math.inf, 0.25, 1.0), (2, math.inf, 0.25, 1.0),
    ], ids=["d1-kappa", "d2-kappa", "d1-one", "d2-one", "d1-cap", "d2-cap"])
    def test_stability_window_boundary(self, dim, k, kappa, edge):
        below = FlowParams(delta=edge - 1e-9, k=k, kappa=kappa, dim=dim)
        experiments._gate(below, window=True)
        for delta in (edge, edge + 1e-9):
            above = FlowParams(delta=delta, k=k, kappa=kappa, dim=dim)
            experiments._gate(above)  # inside the smoothing gap
            with pytest.raises(AdmissibilityError, match="stability window"):
                experiments._gate(above, window=True)

    def test_window_refusal_message(self):
        # eta = 1.5 against max(1, 1/2 + kappa) = 1.25
        with pytest.raises(AdmissibilityError) as refusal:
            experiments._gate(FlowParams(delta=1.0, k=2.0, kappa=0.75), window=True)
        assert str(refusal.value) == ("stability window eta < max(1, 1/2 + kappa) "
                                      "violated: eta=1.500, kappa=0.750")


class TestSolveRows:
    def test_decay_trajectory_and_report(self):
        grid = GridSpec(1, 256, 16.0)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.1,
                            time_grid=tuple(np.linspace(0.01, 0.1, 10)))
        flow, _ = picard_solve(gaussian_density(grid, 0.0, 0.04),
                               make_kernel("riesz", grid, c=0.2, kappa=0.75), params, steps=50)
        trajectory, blowup = experiments._decay(flow, params)
        norms = [measure_dual_norm(rho, SobolevIndex(1.0, 2.0), "amalgam")
                 for rho in flow.densities]
        assert np.array_equal(trajectory, flow.times**0.75 * np.array(norms))
        assert np.all(np.isfinite(trajectory))
        assert not blowup

    @pytest.mark.parametrize("line", ["max_iter = 2", "tol = 1e-12\nmax_iter = 3"])
    def test_unconverged_solve_fails(self, line):
        # every row used to pass: only the solve experiment judged its residual
        cfg = parse_config((REPO / "configs/decay.cfg").read_text() + line + "\n")
        report = run_experiment(cfg)
        (row,) = [r for r in report.rows if r.quantity == "fixed_point_residual"]
        assert not row.passed and row.measured >= row.tol
        assert not report.all_passed

    def test_worst_residual_is_reported(self, monkeypatch):
        # one row per experiment: the worst of its solves, failing if any fails
        residuals = iter([1e-9, 3e-8, 2e-9])
        real = experiments.picard_solve_many

        def solve(*args, **kwargs):
            solved = real(*args, **kwargs)
            for _, rep in solved:
                rep.residual = next(residuals)
            return solved
        monkeypatch.setattr(experiments, "picard_solve_many", solve)
        cfg = parse_config("experiment = decay\ngrid_n = 256\nkernel = zero\nkappa = 0.75\n"
                           "T = 0.1\nsteps = 50\nr_list = 0.02, 0.01, 0.005\n")
        rows = [r for r in run_experiment(cfg).rows if r.quantity == "fixed_point_residual"]
        assert [(r.measured, r.tol, r.passed) for r in rows] == [(3e-8, 1e-8, False)]

    DECAY_ZERO = ("experiment = decay\ngrid_n = 256\nkernel = zero\nkappa = 0.75\n"
                  "T = 0.1\nsteps = 50\n")

    def test_shift_limit_rate_follows_three_widths(self):
        # with no drift the flow from N(0, r) is N(0, r + T) at T, so the
        # rate is the slope of the L1 distances between those Gaussians
        r_list = (0.02, 0.01, 0.005)
        report = run_experiment(parse_config(self.DECAY_ZERO + "r_list = 0.02, 0.01, 0.005\n"))
        assert [(r.quantity, r.tol) for r in report.rows] == [
            ("fixed_point_residual", 1e-8), ("decay_sup(r=0.02)", 0.05),
            ("decay_sup(r=0.01)", 0.05), ("decay_sup(r=0.005)", 0.05), ("decay_spread", 0.2),
            ("shift_limit_rate", 0.0)]
        grid = GridSpec(1, 256, 16.0)
        finals = [gaussian_density(grid, 0.0, r + 0.1).values for r in r_list]
        dists = [np.abs(a - b).sum() * grid.cell_volume for a, b in zip(finals, finals[1:])]
        want = np.polyfit(np.log(r_list[:-1]), np.log(dists), 1)[0]
        row = report.rows[-1]
        assert row.theory == 0.5 and row.passed
        assert abs(row.measured - want) < 1e-6

    def test_shift_limit_rate_fails_without_distance(self):
        # every datum has one law, so the flows coincide and no rate exists
        report = run_experiment(parse_config(self.DECAY_ZERO + "r_list = 0.01, 0.01, 0.01\n"))
        row = report.rows[-1]
        assert row.quantity == "shift_limit_rate"
        assert math.isnan(row.measured) and not row.passed
        assert not report.all_passed


class TestStackedSolves:
    """Experiments with several initial data solve them as one stack."""

    # reduced Riesz-drift configs: 3, 2 and 2 initial data
    CONFIGS = {
        "stability": ("experiment = stability\ngrid_n = 256\nkernel = riesz\n"
                      "kernel.c = 0.2\nkernel.kappa = 1.25\nkappa = 1.25\nT = 0.2\n"
                      "gamma_var = 0.01\nh_list = 0.05, 0.1\nn_times = 4\nsteps = 40\n"),
        "entropy_cost": ("experiment = entropy_cost\ngrid_n = 256\nkernel = riesz\n"
                         "kernel.c = 0.2\nkernel.kappa = 1.25\nkappa = 1.25\nT = 0.5\n"
                         "gamma_var = 0.04\ngamma_shift = 0.1\nsteps = 50\n"),
        "decay": ("experiment = decay\ngrid_n = 256\nkernel = riesz\nkernel.c = 0.2\n"
                  "kernel.kappa = 0.75\nkappa = 0.75\nT = 0.1\nsteps = 50\n"
                  "r_list = 0.02, 0.01\n"),
    }

    def capture(self, monkeypatch) -> list:
        """The ``(flow, report)`` pairs of every stacked solve from here on."""
        solved = []

        def capturing(*args, **kwargs):
            result = picard_solve_many(*args, **kwargs)
            solved.extend(result)
            return result

        monkeypatch.setattr(experiments, "picard_solve_many", capturing)
        return solved

    @pytest.mark.parametrize("name, members", [("stability", 3), ("entropy_cost", 2),
                                               ("decay", 2)])
    def test_stacked_flows_keep_unit_mass(self, monkeypatch, name, members):
        solved = self.capture(monkeypatch)
        run_experiment(parse_config(self.CONFIGS[name]))
        assert len(solved) == members
        for flow, _ in solved:
            masses = [rho.mass() for rho in flow.densities]
            assert len(masses) == flow.times.size
            assert all(abs(m - 1.0) <= 1e-9 for m in masses), masses

    def test_stability_marches_each_iterate_once_and_pipelines(self, monkeypatch):
        # each iterate marches its stack once, over the members that still
        # need it: one march per member and iteration would make the sum of
        # their counts, and a march per member of iterate k fails the row
        # count.  The pipelined iterates then make fewer transform calls than
        # the loop that marches one iterate after the other
        marches = []
        real = solver._march_steps

        def counting(march, *args, **kwargs):
            marches.append(len(march.gammas))
            return real(march, *args, **kwargs)

        monkeypatch.setattr(solver, "_march_steps", counting)
        solved = self.capture(monkeypatch)
        calls = []
        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, self.counted(getattr(np.fft, name), calls))
        cfg = parse_config(self.CONFIGS["stability"])
        run_experiment(cfg)
        iterations = [rep.iterations for _, rep in solved]
        assert len(iterations) == 3
        assert marches == [3] + [sum(n >= k for n in iterations)
                                 for k in range(1, max(iterations) + 1)]
        pipelined = len(calls)
        calls.clear()
        monkeypatch.setattr(experiments, "picard_solve_many", sequential_picard)
        run_experiment(cfg)
        assert pipelined < len(calls)

    @staticmethod
    def counted(fn, calls: list):
        def counting(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return counting


class TestEmitReport:
    def make_report(self):
        rep = RunReport(rows=[], provenance={"config_hash": "abc", "seed": 0,
                                             "grid": "dim=1 n=64 extent=8",
                                             "version": 1, "timestamp": "T"})
        rep.add("alpha", -0.75, -0.70, 0.08)
        rep.add("beta", 0.0, 0.3, 0.1, False)
        rep.figures["curve"] = [(0.1, 1.0), (0.2, 0.5)]
        return rep

    def test_round_trip_csv(self, tmp_path):
        rep = self.make_report()
        emit_report(rep, tmp_path, name="r")
        back = parse_report_csv(tmp_path / "r.csv")
        assert len(back.rows) == 2
        assert back.rows[0].quantity == "alpha"
        assert back.rows[0].theory == -0.75
        assert back.rows[0].passed is True
        assert back.rows[1].passed is False

    def test_empty_report_header_only(self, tmp_path):
        rep = RunReport(rows=[], provenance={})
        emit_report(rep, tmp_path, name="empty")
        text = (tmp_path / "empty.csv").read_text()
        assert text == "quantity,theory,measured,tol,pass\n"

    def test_json_mirror(self, tmp_path):
        rep = self.make_report()
        written = emit_report(rep, tmp_path, name="r")
        assert written == [os.path.join(tmp_path, "r.csv"), os.path.join(tmp_path, "r.json")]
        assert sorted(os.listdir(tmp_path)) == ["r.csv", "r.json"]
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["rows"][0]["quantity"] == "alpha"
        assert payload["provenance"]["config_hash"] == "abc"

    def test_json_figures_and_tables_round_trip(self, tmp_path):
        rep = self.make_report()
        rep.figures["w1_vs_N"] = [(250, 0.25), (1000, 1 / 3)]
        rep.tables["errors"] = (("N", "seed", "W1"), [(250, 0, 0.1), (1000, 1000, 2 / 3)])
        emit_report(rep, tmp_path, name="r")
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["figures"] == {"curve": [[0.1, 1.0], [0.2, 0.5]],
                                      "w1_vs_N": [[250, 0.25], [1000, 1 / 3]]}
        assert payload["tables"] == {"errors": {"header": ["N", "seed", "W1"],
                                                "rows": [[250, 0, 0.1], [1000, 1000, 2 / 3]]}}

    def test_json_figure_refit_consistency(self, tmp_path, monkeypatch):
        # the JSON figure carries exactly the pairs the exponent fit
        # consumed: re-fitting from disk reproduces the reported slope
        monkeypatch.setattr(experiments, "_HEAT_CASES", ((1, 0.0, 0.0, math.inf, math.inf),))
        cfg = ExperimentConfig("heat_exponent", options=(("grid_n", 1024),))
        report = run_experiment(cfg)
        emit_report(report, tmp_path, name="h")
        (fig_name, pairs), = report.figures.items()
        figures = json.loads((tmp_path / "h.json").read_text())["figures"]
        assert list(figures) == [fig_name]
        assert figures[fig_name] == [[t, v] for t, v in pairs]
        refit = fit_exponent(figures[fig_name])
        assert refit == report.rows[0].measured

    def test_deterministic_bytes_modulo_timestamp(self, tmp_path):
        cfg = ExperimentConfig("kernel_membership", options=(
            ("grid_n", 1024), ("kernel", "dirac"),
            ("deltas", (1.5, 0.5)), ("ks", (math.inf, math.inf))))
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        emit_report(r1, tmp_path, name="a")
        emit_report(r2, tmp_path, name="b")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestMembershipRows:
    def test_steep_riesz_growth_exponent_is_checked(self):
        # |x|^-(d+m) with m = 2 n0 + eps0 - 1 = 1.5 grows like eps^-q,
        # q = (d + m - delta - d/k)/2 = 0.5 at delta = 1, k = 2
        cfg = parse_config((REPO / "configs/membership_riesz_steep.cfg").read_text())
        report = run_experiment(cfg)
        (row,) = [r for r in report.rows if r.quantity.endswith(".growth_exponent")]
        assert row.quantity == "membership(delta=1,k=2).growth_exponent"
        assert (row.theory, row.tol) == (0.5, 0.1)
        assert row.passed

    @pytest.mark.parametrize("order, delta", [(0, 0.9), (1, 1.9)])
    def test_dirac_expectation_reads_k(self, order, delta):
        # q* = (d + m - delta - d/k)/2 = -0.2 at k = 2: the derivative of
        # order m is bounded there although delta <= d + m
        cfg = ExperimentConfig("kernel_membership", options=(
            ("grid_n", 2048), ("kernel", "dirac"), ("kernel.order", order),
            ("deltas", delta), ("ks", 2.0)))
        report = run_experiment(cfg)
        assert [r.quantity for r in report.rows] == [f"membership(delta={delta:g},k=2).verdict"]
        assert report.all_passed


    @pytest.mark.parametrize("kernel, deltas, ks", [
        ("kernel.eps0 = 0.25", "0, 0, 0.5", "2, 3, inf"),
        ("kernel.eps0 = 0.5", "0, 0.25", "1.5, 2"),
        ("kernel.n0 = 1\nkernel.eps0 = 0.5", "2.25", "2"),
    ], ids=["eps0=0.25", "eps0=0.5", "n0=1"])
    def test_riesz_core_below_zero_growth_is_bounded(self, kernel, deltas, ks):
        # q* = (d + m - delta - d/k)/2 < 0 at each index with delta < 1 + 2 n0:
        # the study reads bounded there, where the rule delta >= 1 + 2 n0
        # alone expected unbounded
        cfg = parse_config(f"experiment = kernel_membership\ngrid_n = 2048\nkernel = riesz\n"
                           f"{kernel}\ndeltas = {deltas}\nks = {ks}\n")
        report = run_experiment(cfg)
        assert all(r.quantity.endswith(".verdict") for r in report.rows)
        assert report.all_passed


class TestProbeReportRows:
    def test_csv_layout(self):
        from mkvflow.norms import SobolevIndex, operator_exponent_probe
        idx = SobolevIndex(1.0, 2.0)
        grid = GridSpec(1, 256, 16.0)
        t_grid = np.geomspace(0.05, 1.6, 6)
        (fit,) = operator_exponent_probe([(0, idx, idx)], t_grid, grid=grid)
        assert len(fit.t_values) == len(fit.estimates) == 6
        assert fit.t_values[0] == pytest.approx(0.05)
        assert fit.estimates[0] > 0

    def test_matched_packets_built_once_per_time(self, monkeypatch):
        # the three cases share one sweep of the 12 times: packets are built
        # once per time, not once per (case, time), which is 36 builds
        from mkvflow import norms
        calls = []
        build = norms._matched_packets
        monkeypatch.setattr(norms, "_matched_packets",
                            lambda grid, t: calls.append(t) or build(grid, t))
        report = run_experiment(ExperimentConfig("heat_exponent", options=(("grid_n", 256),)))
        assert len(report.rows) == len(experiments._HEAT_CASES) == 3
        assert len(calls) == len(set(calls)) == 12


class TestSeedIndependence:
    # the seed drives the particles only: the dual-norm bound and the
    # heat-exponent fit draw nothing
    @pytest.mark.parametrize("experiment, options", [
        ("heat_exponent", (("grid_n", 1024),)),
        ("stability", (("grid_n", 1024), ("kernel", "zero"), ("kappa", 1.25),
                       ("h_list", (0.05, 0.1)), ("n_times", 6), ("steps", 300))),
    ], ids=["heat_exponent", "stability"])
    def test_rows_equal_across_seeds(self, experiment, options):
        rows = [repr(run_experiment(ExperimentConfig(experiment, seed, options=options)).rows)
                for seed in (0, 5)]
        assert rows[0] == rows[1]


class TestFlowBinary:
    def test_round_trip(self, tmp_path):
        grid = GridSpec(1, 64, 8.0)
        gamma = gaussian_density(grid, 0.0, 0.09)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5,
                            time_grid=(0.25, 0.5))
        (flow,) = phi_apply([gamma], None, None, params, steps=50)
        path = tmp_path / "flow.bin"
        write_flow(flow, path)
        back = read_flow(path)
        assert np.allclose(back.times, flow.times)
        for a, b in zip(back.densities, flow.densities):
            assert np.array_equal(a.values, b.values)

    def test_time_shift_flow_keeps_its_initial_datum(self, tmp_path):
        # the initial datum is the r-smoothed law, not the density at the first
        # stored time, which the reader used to reattach in its place; a
        # read-back flow frozen as a drift source took [0, times[0]] from it
        grid = GridSpec(1, 64, 8.0)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5, time_grid=(0.25, 0.5))
        spec = NemytskiiSpec(2, "linear", (("weights", (0.1, 0.1)),), TimeModulation(0.75))
        flow = time_shift_solve(grid_delta(grid), 0.1, spec, params, steps=50)
        path = tmp_path / "flow.bin"
        write_flow(flow, path)
        back = read_flow(path)
        assert np.array_equal(back.initial.values, flow.initial.values)
        assert not np.array_equal(back.initial.values, flow.densities[0].values)
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(back.densities, flow.densities, strict=True))

    def test_version_1_is_refused(self, tmp_path):
        grid = GridSpec(1, 64, 8.0)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5, time_grid=(0.25, 0.5))
        (flow,) = phi_apply([gaussian_density(grid, 0.0, 0.09)], None, None, params, steps=50)
        path = tmp_path / "flow.bin"
        write_flow(flow, path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
        with pytest.raises(ValueError, match="unsupported flow binary version 1"):
            read_flow(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="not a flow binary"):
            read_flow(path)

    # stored time count written into the header, and the error it must raise
    BAD_TIME_COUNTS = {"zero_times": (0, "stores no times"),
                       "trailing_bytes": (1, "trailing bytes")}

    @pytest.mark.parametrize("cut", [10, 24, 36, 50, 1067, 1579, *BAD_TIME_COUNTS])
    def test_rejects_truncated(self, tmp_path, cut):
        # header is 28 bytes, the two times end at 44, the initial datum and
        # the two densities run to 1580; a named cut keeps all bytes and
        # rewrites the header's time count: a count of one leaves the last
        # 520 bytes unread
        grid = GridSpec(1, 64, 8.0)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5, time_grid=(0.25, 0.5))
        (flow,) = phi_apply([gaussian_density(grid, 0.0, 0.09)], None, None, params, steps=50)
        path = tmp_path / "flow.bin"
        write_flow(flow, path)
        data = path.read_bytes()
        assert len(data) == 44 + 3 * 64 * 8
        if cut in self.BAD_TIME_COUNTS:
            m, message = self.BAD_TIME_COUNTS[cut]
            path.write_bytes(data[:24] + struct.pack("<I", m) + data[28:])
        else:
            path.write_bytes(data[:cut])
            message = "truncated flow binary"
        with pytest.raises(ValueError, match=message):
            read_flow(path)


class TestFlowDensityTable:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_hold_the_flow(self, tmp_path, dim):
        grid = GridSpec(dim, 16, 4.0)
        params = FlowParams(delta=1.0, k=2.0, T=0.5, time_grid=(0.25, 0.5), dim=dim)
        (flow,) = phi_apply([gaussian_density(grid, 0.0, 0.09)], None, None, params, steps=10)
        path = tmp_path / "table.csv"
        flow_density_table(flow, path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == {1: ["t", "x", "density"], 2: ["t", "x", "y", "density"]}[dim]
        assert len(rows) == flow.times.size * grid.num_points
        for row in rows:
            t, *xs, value = map(float, row)
            (j,) = np.flatnonzero(np.abs(flow.times - t) < 1e-9)
            idx = tuple(round((x + 0.5 * grid.extent) / grid.spacing) for x in xs)
            assert value == flow.densities[j].values[idx]


class TestCli:
    @pytest.mark.parametrize("name, grid_n", [("heat_exponent", 2048), ("decay", 1024)])
    def test_named_experiment_keeps_its_grid(self, name, grid_n):
        # every named experiment used to run on 1024 points, heat_exponent too
        args = cli.build_parser().parse_args(["experiment", name])
        assert experiments._options(cli._experiment_config(args))["grid_n"] == grid_n

    def test_experiment_flags(self):
        # the config file is the run's one description: no flag sets a
        # seed, a grid or an extent
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        actions = sub.choices["experiment"]._actions
        assert [a.dest for a in actions if not isinstance(a, argparse._HelpAction)] == [
            "name", "config", "out", "dump_flow", "dump_csv"]

    def test_norm_command(self, capsys):
        rc = cli_main(["norm", "--grid", "1024", "--delta", "1.0", "--k", "2.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "local_neg_norm" in out
        assert "dual bracket" in out

    def test_experiment_creates_missing_out_dir(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        rc = cli_main(["experiment", "--config", str(membership_1024(tmp_path)),
                       "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert len(list(out.glob("kernel_membership_*.csv"))) == 1

    def test_solve_dumps_into_missing_dirs(self, tmp_path, capsys):
        flow_path = tmp_path / "missing" / "flow.bin"
        csv_path = tmp_path / "tables" / "flow.csv"
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(SMALL_SOLVE)
        cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "report"),
                  "--dump-flow", str(flow_path), "--dump-csv", str(csv_path)])
        capsys.readouterr()
        assert read_flow(flow_path).times.size == 10
        assert csv_path.read_text().startswith("t,x,density")

    def test_solve_command_runs_the_solve_experiment(self, tmp_path, capsys):
        flow_path = tmp_path / "flow.bin"
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(SMALL_SOLVE)
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path),
                       "--dump-flow", str(flow_path)])
        capsys.readouterr()
        assert rc == 0
        (report_csv,) = tmp_path.glob("solve_*.csv")
        assert [r.quantity for r in parse_report_csv(report_csv).rows] == [
            "fixed_point_residual", "contraction_ratio", "iterations", "blowup",
            "lambda_monotone"]
        prov = json.loads(report_csv.with_suffix(".json").read_text())["provenance"]
        assert prov["solver"] == {"tol": 1e-8, "max_iter": 25, "steps": 50}
        assert set(prov["versions"]) == {"mkvflow", "numpy"}
        grid = GridSpec(1, 256, 16.0)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.1,
                            time_grid=tuple(np.linspace(0.01, 0.1, 10)))
        want, _ = picard_solve(gaussian_density(grid, 0.0, 0.04),
                               make_kernel("riesz", grid, c=0.2, kappa=0.75), params,
                               tol=1e-8, max_iter=25, steps=50)
        got = read_flow(flow_path)
        assert np.array_equal(got.times, want.times)
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(got.densities, want.densities))

    @pytest.mark.parametrize("line", ["steps = 0", "steps = -5", "steps = 2.5",
                                      "max_iter = 0", "max_iter = 2.5"])
    def test_config_rejects_bad_step_counts(self, tmp_path, monkeypatch, capsys, line):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = solve\ngrid_n = 256\n{line}\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "must be a positive int" in err
        assert not out.exists()

    def test_config_rejects_bad_grid(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = solve\ngrid_n = 100\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mkvflow experiment: error: ")
        assert err.count("\n") == 1 and "power of two" in err
        assert not out.exists()

    @pytest.mark.parametrize("lines", ["kernel = riesz\nkernel.cc = 5.0",
                                       "kernel = riesz\nkernel.K_table = 0, 1, 0.5, 2",
                                       "kernel = nope",
                                       # read by riesz, not by dirac: was a unit Dirac
                                       "kernel = dirac\nkernel.c = 0.2"])
    def test_config_rejects_unknown_kernel_keys(self, tmp_path, monkeypatch, capsys, lines):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = solve\ngrid_n = 256\n{lines}\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mkvflow experiment: error: unknown kernel")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [("experiment", "particles_zero"),
                                                 ("experiment", "heat_exponent")])
    def test_negative_seed_is_an_error_line(self, tmp_path, monkeypatch, capsys,
                                            command, config):
        # particles used to count Philox's refusal as seed failures and exit 1;
        # heat_exponent ended in a numpy traceback
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text((REPO / f"configs/{config}.cfg").read_text()
                       .replace("seed = 0\n", "seed = -1\n"))
        out = tmp_path / "out"
        rc = cli_main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"mkvflow {command}: error: seed must be a non-negative int")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("seed = 1.5", "seed must be a non-negative int"),
        ("seed = true", "seed must be a non-negative int"),
        ("kernel.c = true", "c must be a number, got 'true'"),
        ("kernel.n0 = true", "n0 must be a non-negative int"),
        ("kernel.n0 = 1.5", "n0 must be a non-negative int"),
        ("output_dir = out", "solve does not read output_dir"),
    ], ids=["seed-float", "seed-bool", "c-bool", "n0-bool", "n0-float", "output-dir"])
    def test_config_values_are_not_coerced(self, tmp_path, monkeypatch, capsys, line,
                                            message):
        # seed = 1.5 and seed = true ran as seed 1, kernel.c = true as c = 1,
        # kernel.n0 = true or 1.5 as n0 = 1, and output_dir was a fixed field;
        # later kernel.c = true failed in float() without naming the key
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = solve\ngrid_n = 256\nkernel = riesz\n{line}\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mkvflow experiment: error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("repeats = 0", "repeats must be a positive int"),
        ("repeats = -2", "repeats must be a positive int"),
        ("N_list = 250, 250", "N_list must be a list of distinct ints >= 2"),
        ("N_list = 1, 250", "N_list must be a list of distinct ints >= 2"),
        ("N_list = 250", "N_list must be a list of distinct ints >= 2"),
    ], ids=["repeats-0", "repeats-negative", "N-repeated", "N-one", "N-scalar"])
    def test_bad_study_sizes_are_an_error_line(self, tmp_path, monkeypatch, capsys,
                                                line, message):
        # repeats <= 0 ended in a polyfit traceback, a repeated N in a
        # meaningless slope, and N = 1 in ten seed failures
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text((REPO / "configs/particles_zero.cfg").read_text() + f"{line}\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"mkvflow experiment: error: {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["norm"])
    def test_bad_grid_is_an_error_line(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        rc = cli_main([command, "--grid", "100"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"mkvflow {command}: error: ")
        assert captured.err.count("\n") == 1 and "power of two" in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["norm", "--k", "0.5"],
        ["experiment", "--config", "k05.cfg"],
        ["experiment", "--config", "Tneg.cfg"],
        ["experiment", "--config", "var0.cfg"],
        ["experiment", "--config", "T0.cfg"],
        ["experiment", "--config", "rinf.cfg"],
        ["experiment"],
    ], ids=["norm-k", "solve-k", "solve-T", "solve-gamma-var", "config-T", "decay-r-inf",
            "no-experiment"])
    def test_bad_study_input_is_an_error_line(self, tmp_path, monkeypatch, capsys, argv):
        # settings rejected inside the run print nothing first and write nothing;
        # an infinite r used to print numpy warnings before a march error, and
        # no experiment at all a bare line with exit code 1
        for name, line in (("k05", "k = 0.5"), ("Tneg", "T = -1"), ("var0", "gamma_var = 0")):
            (tmp_path / f"{name}.cfg").write_text(f"experiment = solve\nkappa = 0.75\n{line}\n")
        (tmp_path / "T0.cfg").write_text("experiment = solve\nT = 0\n")
        (tmp_path / "rinf.cfg").write_text(
            "experiment = decay\ngrid_extent = 8\nkernel = riesz\nkernel.kappa = 0.5\n"
            "kappa = 0.5\nT = 0.1\nsteps = 40\nr_list = 0.02, inf\n")
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"mkvflow {argv[0]}: error: ")
        assert captured.err.count("\n") == 1
        assert not any(run.iterdir())

    @pytest.mark.parametrize("lines, message", [
        ("kernel = riesz\nkernel.c = 1, 2", "c must be a number"),
        ("kernel = dirac\nkernel.order = 1, 2", "order must be a non-negative int"),
    ], ids=["riesz-c", "dirac-order"])
    def test_config_rejects_sequence_for_a_number(self, tmp_path, monkeypatch, capsys,
                                                  lines, message):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = solve\ngrid_n = 256\n{lines}\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"mkvflow experiment: error: {message}, got (1, 2)\n"
        assert not out.exists()

    def test_constant_kernel_keeps_its_vector(self):
        spec = make_kernel("constant", GridSpec(2, 16, 4.0), c=(1.0, 2.0))
        assert spec.variant.c == (1.0, 2.0)

    def test_no_contraction_is_an_error_line(self, tmp_path, capsys):
        # the shipped contraction config with a 100 times stronger kernel
        text = (REPO / "configs/contraction.cfg").read_text()
        cfg = tmp_path / "strong.cfg"
        cfg.write_text(text.replace("kernel.c = 0.2", "kernel.c = 20"))
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("mkvflow experiment: error: no contraction after ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_name_beside_another_config_is_an_error_line(self, tmp_path, monkeypatch, capsys):
        # the name was ignored: this ran the solve experiment with no word
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        config = str(REPO / "configs/contraction.cfg")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "decay", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("mkvflow experiment: error: experiment 'decay' "
                                       "differs from ")
        assert captured.err.count("\n") == 1
        assert not out.exists()
        args = cli.build_parser().parse_args(["experiment", "solve", "--config", config])
        assert cli._experiment_config(args) == parse_config(Path(config).read_text())

    def test_missing_config_is_an_error_line(self, tmp_path, capsys):
        rc = cli_main(["experiment", "--config", str(tmp_path / "missing.cfg"),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mkvflow experiment: error: ")
        assert err.count("\n") == 1 and "missing.cfg" in err
        assert not any(tmp_path.iterdir())

    def test_stability_solves_pass_through_the_module_global(self, monkeypatch):
        # a caller sees stability's solves by this substitution: one stack
        # holding the base datum and one datum per shift
        calls = []

        def counting(gammas, *args, **kwargs):
            calls.append((len(gammas), kwargs))
            return picard_solve_many(gammas, *args, **kwargs)

        monkeypatch.setattr(experiments, "picard_solve_many", counting)
        # stability reads tol, max_iter and steps
        cfg = parse_config("experiment = stability\ngrid_n = 256\nkernel = zero\n"
                           "kappa = 1.25\nT = 0.2\ngamma_var = 0.01\n"
                           "h_list = 0.05, 0.1\nn_times = 4\nsteps = 40\n"
                           "tol = 1e-9\nmax_iter = 7\n")
        run_experiment(cfg)
        assert [members for members, _ in calls] == [1 + 2]
        assert all(kw == {"tol": 1e-9, "max_iter": 7, "steps": 40} for _, kw in calls)

    def test_decay_solves_read_max_iter_from_the_config(self, monkeypatch):
        iterations = []

        def counting(*args, **kwargs):
            solved = picard_solve_many(*args, **kwargs)
            iterations.extend(rep.iterations for _, rep in solved)
            return solved

        monkeypatch.setattr(experiments, "picard_solve_many", counting)
        cfg = parse_config("experiment = decay\ngrid_n = 256\nkernel = riesz\n"
                           "kernel.c = 0.2\nkernel.kappa = 0.75\nkappa = 0.75\n"
                           "T = 0.1\nsteps = 50\nr_list = 0.02, 0.01\nmax_iter = 2\n")
        report = run_experiment(cfg)
        assert report.provenance["solver"] == {"tol": 1e-8, "max_iter": 2, "steps": 50}
        assert iterations == [2, 2]

    def test_solve_stops_at_tol(self):
        # the solve experiment read its tolerance from tol.residual, every
        # other solving experiment from tol
        text = ("experiment = solve\ngrid_n = 256\nkernel = riesz\n"
                "kernel.c = 0.2\nkernel.kappa = 0.75\nkappa = 0.75\n"
                "T = 0.1\nsteps = 50\n")
        with pytest.raises(ValueError, match="^solve does not read tol.residual; it reads "):
            parse_config(text + "tol.residual = 1e-8\n")
        report = run_experiment(parse_config(text + "tol = 1e-8\n"))
        assert report.provenance["solver"] == {"tol": 1e-8, "max_iter": 20, "steps": 50}
        (row,) = [r for r in report.rows if r.quantity == "fixed_point_residual"]
        assert row.tol == 1e-8

    @pytest.mark.parametrize("argv", [
        ["norm", "--threads", "2"],
        ["norm", "--out", "x"],
        ["kernel-study", "--threads", "2"],
        ["kernel-study", "--seed", "1"],
        ["norm", "--seed", "-1"],
        ["particles", "--config", "configs/particles_zero.cfg"],
        ["solve"],
        ["kernel-study"],
        ["experiment", "decay", "--seed", "1"],
        ["experiment", "decay", "--grid", "512"],
        ["experiment", "decay", "--extent", "8"],
    ])
    def test_unread_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        capsys.readouterr()
        assert exc.value.code == 2

    def test_lambda_sweep_agrees_with_report_ratios(self, monkeypatch):
        solves = []

        def capture(*args, **kwargs):
            solves.append(picard_solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(experiments, "picard_solve", capture)
        cfg = parse_config("experiment = solve\ngrid_n = 256\nkernel = riesz\n"
                           "kernel.c = 0.2\nkernel.kappa = 0.75\nkappa = 0.75\n"
                           "T = 0.1\nsteps = 50\ntol = 1e-12\n")
        report = run_experiment(cfg)
        ((_, rep),) = solves
        assert rep.lam_used == 0.0 and len(rep.contraction_ratios) >= 2
        sweep = dict(report.figures["contraction_ratio_vs_lambda"])
        assert sweep[0.0] == max(rep.contraction_ratios[:4])

    def test_readme_names_every_subcommand_and_option(self):
        text = (REPO / "README.md").read_text()
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        for name, parser in sub.choices.items():
            assert f"mkvflow {name}" in text, name
            for action in parser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                for opt in action.option_strings:
                    assert re.search(re.escape(opt) + r"(?![\w-])", text), f"{name} {opt}"

    def test_readme_cli_lines(self, tmp_path, monkeypatch, capsys):
        self.run_readme_block(tmp_path, monkeypatch, capsys)

    def test_readme_cli_csvs_end_lines_in_newline(self, tmp_path, monkeypatch, capsys):
        self.run_readme_block(tmp_path, monkeypatch, capsys)
        paths = sorted((tmp_path / "out").glob("*.csv"))
        # the membership report, the contraction report and its density
        # table, and the particles report
        assert len(paths) == 4
        for path in paths:
            assert b"\r" not in path.read_bytes(), path.name

    @staticmethod
    def run_readme_block(tmp_path, monkeypatch, capsys):
        # every command of the sh block under README's "## CLI" heading, with
        # out/ in a temporary directory and <hash> resolved from what exists;
        # each creates exactly the files it prints as written
        text = (REPO / "README.md").read_text()
        block = re.search(r"^## CLI\n.*?```sh\n(.*?)```", text, re.S | re.M).group(1)
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        lines = [argv for argv in lines if argv]
        assert lines and all(argv[0] == "mkvflow" for argv in lines)
        monkeypatch.chdir(tmp_path)
        for argv in lines:
            args = []
            for tok in argv[1:]:
                if tok.startswith("configs/"):
                    tok = str(REPO / tok)
                elif tok.startswith("out/"):
                    tok = str(tmp_path / "out" / tok[4:])
                if "<hash>" in tok:
                    (tok,) = (str(p) for p in Path(tok).parent.glob(
                        Path(tok).name.replace("<hash>", "*")))
                args.append(tok)
            before = set(tmp_path.rglob("*"))
            capsys.readouterr()
            assert cli_main(args) == 0, " ".join(argv)
            wrote = [line[len("wrote "):] for line in capsys.readouterr().out.splitlines()
                     if line.startswith("wrote ")]
            created = {p for p in set(tmp_path.rglob("*")) - before if p.is_file()}
            assert sorted(map(Path, wrote)) == sorted(created), " ".join(argv)

    def test_experiment_command_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = kernel_membership\ngrid_n = 1024\n"
                       "kernel = dirac\ndeltas = 1.5, 0.5\nks = inf, inf\n")
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out

    def test_experiment_refusal_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = solve\ngrid_n = 1024\n"
                       "delta = 1.0\nk = 2.0\nkappa = 0.0\n")
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mkvflow experiment: error: smoothing-gap bound")
        assert "violated" in err and err.count("\n") == 1

    def test_experiment_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["experiment", "--config", str(membership_1024(tmp_path))])
        capsys.readouterr()
        assert rc == 0
        assert sorted(p.suffix for p in tmp_path.glob("kernel_membership_*")) == [".csv",
                                                                                 ".json"]

    def test_report_name_does_not_depend_on_out(self, tmp_path, capsys):
        # the digest hashed the output directory, so one config got one name
        # and one config_hash per --out
        cfg = membership_1024(tmp_path)
        names, hashes = set(), set()
        for out in (tmp_path / "a", tmp_path / "b"):
            assert cli_main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
            (path,) = out.glob("*.json")
            names.add(path.name)
            hashes.add(json.loads(path.read_text())["provenance"]["config_hash"])
        capsys.readouterr()
        assert len(names) == len(hashes) == 1
        assert not (tmp_path / "None").exists()

    def test_dump_flags_need_the_solve_experiment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["experiment", "--config", str(REPO / "configs/membership_dirac.cfg"),
                       "--dump-flow", "x"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("mkvflow experiment: error: --dump-flow and "
                                       "--dump-csv need the solve experiment")
        assert captured.err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_report_command_comma_labels(self, tmp_path, capsys):
        rep = RunReport(rows=[ReportRow("norm(delta=1, k=2)", 1.0, 1.25, 0.5, True),
                              ReportRow("plain", 0.0, 0.5, 0.1, False)], provenance={})
        emit_report(rep, tmp_path, name="r")
        text = (tmp_path / "r.csv").read_text()
        assert text.splitlines()[2] == "plain,0,0.5,0.10000000000000001,false"
        rc = cli_main(["report", str(tmp_path / "r.csv")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[PASS] norm(delta=1, k=2): measured 1.25" in out
        back = parse_report_csv(tmp_path / "r.csv")
        assert [r.quantity for r in back.rows] == ["norm(delta=1, k=2)", "plain"]
        assert back.rows[0].measured == 1.25

    @pytest.mark.parametrize("text", [None, "quantity,theory,measured,tol,pass\nx,0,0.5\n",
                                      "quantity,theory,measured,tol,pass\nx,0,abc,0.1,true\n",
                                      "quantity,theory,measured,tol,pass\nx,0,0.5,0.1,yes\n",
                                      "quantity,theory,measured,tol,pass\n\"" + "x" * 200_000],
                             ids=["missing", "short-row", "number", "pass-flag", "huge-field"])
    def test_report_command_bad_csv_is_an_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "r.csv"
        if text is not None:
            path.write_text(text)
        rc = cli_main(["report", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("mkvflow report: error: ")
        assert captured.err.count("\n") == 1

    def test_report_command(self, tmp_path, capsys):
        rep = RunReport(rows=[ReportRow("x", 0.0, 0.5, 0.1, False)], provenance={})
        emit_report(rep, tmp_path, name="r")
        rc = cli_main(["report", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out
