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

from mkvflow import experiments
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
from mkvflow.grids import GridSpec, gaussian_density
from mkvflow.kernels import make_kernel
from mkvflow.solver import FlowParams, phi_apply, picard_solve

REPO = Path(__file__).resolve().parents[1]


class TestFitExponent:
    def test_exact_power_law(self):
        t = np.geomspace(0.1, 1.0, 8)
        slope, intercept, r2 = fit_exponent(list(zip(t, t**-0.75)))
        assert slope == pytest.approx(-0.75, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_power_law(self):
        # [DERIVED synthetic-noise oracle] 1% multiplicative noise keeps the
        # fitted slope within 0.03 of the truth
        rng = np.random.default_rng(0)
        t = np.geomspace(0.05, 2.0, 20)
        worst = 0.0
        for _ in range(20):
            v = 3.0 * t**-1.0 * (1.0 + 0.01 * rng.standard_normal(t.size))
            slope, _, _ = fit_exponent(list(zip(t, v)))
            worst = max(worst, abs(slope + 1.0))
        assert worst < 0.03

    def test_constant_values(self):
        t = np.geomspace(0.1, 1.0, 6)
        slope, _, _ = fit_exponent(list(zip(t, np.full(6, 2.5))))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_exponent([(0.1, 1.0), (0.2, -1.0), (0.4, 1.0), (0.8, 1.0)])
        with pytest.raises(ValueError):
            fit_exponent([(0.1, 1.0), (0.2, 1.0)])


class TestConfig:
    def test_round_trip(self):
        text = ("experiment = solve\nseed = 3\nkernel = riesz\n"
                "kernel.c = 0.2\ndelta = 1.0\nh_list = 0.02, 0.05, 0.1\n")
        cfg = parse_config(text)
        assert cfg.experiment == "solve"
        assert cfg.seed == 3
        assert cfg.opt("kernel.c") == 0.2
        assert cfg.opt("h_list") == (0.02, 0.05, 0.1)
        again = parse_config(cfg.text)
        assert again.digest == cfg.digest

    def test_comments_and_blanks(self):
        cfg = parse_config("# hi\n\nexperiment = decay  # trailing\n")
        assert cfg.experiment == "decay"

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            parse_config("experiment = nope\n")

    def test_missing_experiment(self):
        with pytest.raises(ValueError, match="missing"):
            parse_config("seed = 1\n")

    def test_inf_parsing(self):
        cfg = parse_config("experiment = decay\nks = inf\n")
        assert cfg.opt("ks") == math.inf

    def test_hash_sensitivity(self):
        a = parse_config("experiment = decay\nseed = 1\n")
        b = parse_config("experiment = decay\nseed = 2\n")
        assert a.digest != b.digest


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
        emit_report(rep, tmp_path, name="r", formats=("csv",))
        back = parse_report_csv(tmp_path / "r.csv")
        assert len(back.rows) == 2
        assert back.rows[0].quantity == "alpha"
        assert back.rows[0].theory == -0.75
        assert back.rows[0].passed is True
        assert back.rows[1].passed is False

    def test_empty_report_header_only(self, tmp_path):
        rep = RunReport(rows=[], provenance={})
        emit_report(rep, tmp_path, name="empty", formats=("csv",))
        text = (tmp_path / "empty.csv").read_text()
        assert text == "quantity,theory,measured,tol,pass\n"

    def test_json_mirror(self, tmp_path):
        rep = self.make_report()
        emit_report(rep, tmp_path, name="r", formats=("json",))
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["rows"][0]["quantity"] == "alpha"
        assert payload["provenance"]["config_hash"] == "abc"

    def test_plotdata_matches_figures(self, tmp_path):
        rep = self.make_report()
        emit_report(rep, tmp_path, name="r", formats=("plotdata",))
        lines = (tmp_path / "r.curve.dat").read_text().strip().splitlines()
        pairs = [tuple(float(x) for x in ln.split()) for ln in lines]
        assert pairs == [(0.1, 1.0), (0.2, 0.5)]

    def test_plotdata_refit_consistency(self, tmp_path):
        # the emitted two-column files carry exactly the pairs the exponent
        # fit consumed: re-fitting from disk reproduces the reported slope
        cfg = ExperimentConfig("heat_exponent", options=(
            ("grid_n", 1024), ("cases", ((1, 0.0, 0.0, math.inf, math.inf),)),
            ("probes", 8)))
        report = run_experiment(cfg)
        emit_report(report, tmp_path, name="h", formats=("plotdata",))
        (fig_name, pairs), = report.figures.items()
        dat = [f for f in os.listdir(tmp_path) if f.endswith(".dat")]
        assert len(dat) == 1
        lines = (tmp_path / dat[0]).read_text().strip().splitlines()
        disk_pairs = [tuple(float(x) for x in ln.split()) for ln in lines]
        refit, _, _ = fit_exponent(disk_pairs)
        assert refit == pytest.approx(report.rows[0].measured, abs=1e-12)

    def test_deterministic_bytes_modulo_timestamp(self, tmp_path):
        cfg = ExperimentConfig("kernel_membership", options=(
            ("grid_n", 1024), ("kernel", "dirac"),
            ("deltas", (1.5, 0.5)), ("ks", (math.inf, math.inf))))
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        emit_report(r1, tmp_path, name="a", formats=("csv",))
        emit_report(r2, tmp_path, name="b", formats=("csv",))
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


class TestProbeReportRows:
    def test_csv_layout(self):
        from mkvflow.norms import SobolevIndex, operator_exponent_probe
        idx = SobolevIndex(1.0, 2.0)
        grid = GridSpec(1, 256, 16.0)
        t_grid = np.geomspace(0.05, 1.6, 6)
        fit = operator_exponent_probe(0, idx, idx, t_grid, probes=4, seed=1,
                                      grid=grid)
        rows = fit.csv_rows()
        assert len(rows) == 6
        t, est, used, seed = rows[0]
        assert t == pytest.approx(0.05)
        assert est > 0 and used > 0 and seed == 1


class TestSnapshotFlow:
    def test_particle_checkpoints_share_binary_layout(self, tmp_path):
        from mkvflow.metrics import GaussianSpec
        from mkvflow.particles import SimConfig, simulate_particles, snapshots_to_flow
        grid = GridSpec(1, 256, 16.0)
        cfg = SimConfig(grid=grid, dt=0.1, T=0.4, seed=2, kernel=None,
                        initial=GaussianSpec((0.0,), 0.09),
                        checkpoints=(0.2, 0.4))
        snaps = simulate_particles(cfg, 2000)
        flow = snapshots_to_flow(snaps, grid, bandwidth=0.2)
        path = tmp_path / "traj.bin"
        write_flow(flow, path)
        back = read_flow(path)
        assert np.allclose(back.times, [0.2, 0.4])
        assert back.densities[0].mass() == pytest.approx(1.0, abs=1e-12)


class TestFlowBinary:
    def test_round_trip(self, tmp_path):
        grid = GridSpec(1, 64, 8.0)
        gamma = gaussian_density(grid, 0.0, 0.09)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5,
                            time_grid=(0.25, 0.5))
        flow = phi_apply(gamma, None, None, params, steps=50)
        path = tmp_path / "flow.bin"
        write_flow(flow, path)
        back = read_flow(path)
        assert np.allclose(back.times, flow.times)
        for a, b in zip(back.densities, flow.densities):
            assert np.array_equal(a.values, b.values)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="not a flow binary"):
            read_flow(path)

    # stored time count written into the header, and the error it must raise
    BAD_TIME_COUNTS = {"zero_times": (0, "stores no times"),
                       "trailing_bytes": (1, "trailing bytes")}

    @pytest.mark.parametrize("cut", [10, 24, 36, 50, 1067, *BAD_TIME_COUNTS])
    def test_rejects_truncated(self, tmp_path, cut):
        # header is 28 bytes, the two times end at 44, the data runs to 1068;
        # a named cut keeps all bytes and rewrites the header's time count: a
        # count of one leaves the last 520 bytes unread
        grid = GridSpec(1, 64, 8.0)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5, time_grid=(0.25, 0.5))
        flow = phi_apply(gaussian_density(grid, 0.0, 0.09), None, None, params, steps=50)
        path = tmp_path / "flow.bin"
        write_flow(flow, path)
        data = path.read_bytes()
        assert len(data) == 44 + 2 * 64 * 8
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
        flow = phi_apply(gaussian_density(grid, 0.0, 0.09), None, None, params, steps=10)
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
    def test_norm_command(self, capsys):
        rc = cli_main(["norm", "--grid", "1024", "--delta", "1.0", "--k", "2.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "local_neg_norm" in out
        assert "dual bracket" in out

    def test_kernel_study_command(self, tmp_path, capsys):
        rc = cli_main(["kernel-study", "--grid", "1024", "--kernel", "dirac",
                       "--delta", "1.5", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: bounded" in out
        assert (tmp_path / "kernel_study.csv").exists()

    def test_kernel_study_creates_missing_out_dir(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        rc = cli_main(["kernel-study", "--grid", "1024", "--kernel", "dirac",
                       "--delta", "1.5", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert (out / "kernel_study.csv").exists()

    def test_solve_dumps_into_missing_dirs(self, tmp_path, capsys):
        flow_path = tmp_path / "missing" / "flow.bin"
        csv_path = tmp_path / "tables" / "flow.csv"
        cli_main(["solve", "--grid", "256", "--T", "0.1", "--steps", "50",
                  "--out", str(tmp_path / "report"),
                  "--dump-flow", str(flow_path), "--dump-csv", str(csv_path)])
        capsys.readouterr()
        assert read_flow(flow_path).times.size == 10
        assert csv_path.read_text().startswith("t,x,density")

    def test_solve_command_runs_the_solve_experiment(self, tmp_path, capsys):
        flow_path = tmp_path / "flow.bin"
        rc = cli_main(["solve", "--grid", "256", "--T", "0.1", "--steps", "50",
                       "--out", str(tmp_path), "--dump-flow", str(flow_path)])
        capsys.readouterr()
        assert rc == 0
        (report_csv,) = tmp_path.glob("solve_*.csv")
        assert [r.quantity for r in parse_report_csv(report_csv).rows] == [
            "contraction_ratio", "fixed_point_residual", "iterations", "blowup",
            "lambda_monotone"]
        prov = json.loads(report_csv.with_suffix(".json").read_text())["provenance"]
        assert prov["solver"] == {"tol": 1e-8, "max_iter": 25, "steps": 50}
        assert set(prov["versions"]) == {"mkvflow", "numpy", "scipy"}
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

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_solve_rejects_steps_below_one(self, tmp_path, monkeypatch, capsys, steps):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", "--grid", "256", "--steps", steps, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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
                                       "kernel = nope"])
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

    @pytest.mark.parametrize("command", ["norm", "kernel-study"])
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
        ["kernel-study", "--kernel", "nope"],
        ["kernel-study", "--eps-list", "0.02,abc"],
        ["kernel-study", "--eps-list", "0.01,0.02,0.03"],
        ["kernel-study", "--eps-list", "0.02,0.01"],
        ["norm", "--k", "0.5"],
    ], ids=["kernel", "number", "increasing", "too-few", "norm-k"])
    def test_bad_study_input_is_an_error_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        rc = cli_main(argv[:1] + ["--grid", "1024"] + argv[1:])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"mkvflow {argv[0]}: error: ")
        assert captured.err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("lines", ["kernel = riesz\nkernel.c = 1, 2",
                                       "kernel = dirac\nkernel.order = 1, 2"],
                             ids=["riesz-c", "dirac-order"])
    def test_config_rejects_sequence_for_a_number(self, tmp_path, monkeypatch, capsys,
                                                  lines):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = solve\ngrid_n = 256\n{lines}\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mkvflow experiment: error: kernel ")
        assert err.count("\n") == 1 and "sequence" in err
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

    def test_missing_config_is_an_error_line(self, tmp_path, capsys):
        rc = cli_main(["experiment", "--config", str(tmp_path / "missing.cfg"),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("mkvflow experiment: error: ")
        assert err.count("\n") == 1 and "missing.cfg" in err
        assert not any(tmp_path.iterdir())

    def test_stability_solves_pass_through_the_module_global(self, monkeypatch):
        # the benchmark captures every experiment solve by this substitution
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return picard_solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "picard_solve", counting)
        # stability reads tol, max_iter and steps
        cfg = parse_config("experiment = stability\ngrid_n = 256\nkernel = zero\n"
                           "kappa = 1.25\nT = 0.2\ngamma_var = 0.01\n"
                           "h_list = 0.05, 0.1\nn_times = 4\nsteps = 40\n"
                           "tol = 1e-9\nmax_iter = 7\n")
        run_experiment(cfg)
        assert len(calls) == 1 + 2
        assert all(kw == {"tol": 1e-9, "max_iter": 7, "steps": 40} for kw in calls)

    def test_decay_solves_read_max_iter_from_the_config(self, monkeypatch):
        iterations = []

        def counting(*args, **kwargs):
            flow, rep = picard_solve(*args, **kwargs)
            iterations.append(rep.iterations)
            return flow, rep

        monkeypatch.setattr(experiments, "picard_solve", counting)
        cfg = parse_config("experiment = decay\ngrid_n = 256\nkernel = riesz\n"
                           "kernel.c = 0.2\nkernel.kappa = 0.75\nkappa = 0.75\n"
                           "T = 0.1\nsteps = 50\nr_list = 0.02, 0.01\nmax_iter = 2\n")
        report = run_experiment(cfg)
        assert report.provenance["solver"] == {"tol": 1e-8, "max_iter": 2, "steps": 50}
        assert iterations == [2, 2]

    def test_solve_stops_at_tol_residual_only(self):
        # a bare tol key is not a solve-experiment setting
        cfg = parse_config("experiment = solve\ngrid_n = 256\nkernel = riesz\n"
                           "kernel.c = 0.2\nkernel.kappa = 0.75\nkappa = 0.75\n"
                           "T = 0.1\nsteps = 50\ntol.residual = 1e-8\ntol = 0.5\n")
        report = run_experiment(cfg)
        assert report.provenance["solver"] == {"tol": 1e-8, "max_iter": 20, "steps": 50}
        (row,) = [r for r in report.rows if r.quantity == "fixed_point_residual"]
        assert row.tol == 1e-8

    def test_grid_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = kernel_membership\ngrid_n = 1024\n"
                       "kernel = dirac\ndeltas = 1.5\nks = inf\n")
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path),
                       "--grid", "512", "--extent", "8", "--formats", "json"])
        capsys.readouterr()
        assert rc == 0
        (path,) = tmp_path.glob("*.json")
        assert json.loads(path.read_text())["provenance"]["grid"] == "dim=1 n=512 extent=8"

    @pytest.mark.parametrize("argv", [
        ["norm", "--threads", "2"],
        ["norm", "--out", "x"],
        ["kernel-study", "--threads", "2"],
        ["kernel-study", "--seed", "1"],
    ])
    def test_unread_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        capsys.readouterr()
        assert exc.value.code == 2

    def test_unknown_format_rejected_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mkvflow.cli.run_experiment", None)  # must not be reached
        with pytest.raises(SystemExit) as exc:
            cli_main(["experiment", "--config", str(REPO / "configs/entropy_zero.cfg"),
                      "--out", str(tmp_path), "--formats", "cvs"])
        assert exc.value.code == 2
        assert "csv,json,plotdata" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        with pytest.raises(ValueError, match="unknown report formats"):
            emit_report(RunReport(rows=[], provenance={}), tmp_path, formats=("cvs",))

    def test_lambda_sweep_agrees_with_report_ratios(self, monkeypatch):
        solves = []

        def capture(*args, **kwargs):
            solves.append(picard_solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(experiments, "picard_solve", capture)
        cfg = parse_config("experiment = solve\ngrid_n = 256\nkernel = riesz\n"
                           "kernel.c = 0.2\nkernel.kappa = 0.75\nkappa = 0.75\n"
                           "T = 0.1\nsteps = 50\ntol.residual = 1e-12\n")
        report = run_experiment(cfg)
        ((_, rep),) = solves
        assert rep.lam_used == 0.0 and len(rep.contraction_ratios) >= 2
        sweep = dict(report.figures["contraction_ratio_vs_lambda"])
        assert sweep[0.0] == max(rep.contraction_ratios[:4])

    def test_readme_cli_lines(self, tmp_path, monkeypatch, capsys):
        # every command of the sh block under README's "## CLI" heading, with
        # out/ in a temporary directory and <hash> resolved from what exists
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
            assert cli_main(args) == 0, " ".join(argv)
        capsys.readouterr()

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
        assert "refused" in err

    def test_kernel_study_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["kernel-study", "--grid", "1024", "--kernel", "dirac",
                       "--delta", "1.5"])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "kernel_study.csv").exists()
        assert not (tmp_path / "None").exists()

    def test_seed_zero_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = kernel_membership\nseed = 5\ngrid_n = 1024\n"
                       "kernel = dirac\ndeltas = 1.5\nks = inf\n")
        out = tmp_path / "out"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out),
                       "--seed", "0", "--formats", "json"])
        capsys.readouterr()
        assert rc == 0
        (path,) = out.glob("*.json")
        assert json.loads(path.read_text())["provenance"]["seed"] == 0

    def test_report_command_comma_labels(self, tmp_path, capsys):
        rep = RunReport(rows=[ReportRow("norm(delta=1, k=2)", 1.0, 1.25, 0.5, True),
                              ReportRow("plain", 0.0, 0.5, 0.1, False)], provenance={})
        emit_report(rep, tmp_path, name="r", formats=("csv",))
        text = (tmp_path / "r.csv").read_text()
        assert text.splitlines()[2] == "plain,0,0.5,0.10000000000000001,false"
        rc = cli_main(["report", str(tmp_path / "r.csv")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[PASS] norm(delta=1, k=2): measured 1.25" in out
        back = parse_report_csv(tmp_path / "r.csv")
        assert [r.quantity for r in back.rows] == ["norm(delta=1, k=2)", "plain"]
        assert back.rows[0].measured == 1.25

    def test_report_command(self, tmp_path, capsys):
        rep = RunReport(rows=[ReportRow("x", 0.0, 0.5, 0.1, False)], provenance={})
        emit_report(rep, tmp_path, name="r", formats=("csv",))
        rc = cli_main(["report", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out
