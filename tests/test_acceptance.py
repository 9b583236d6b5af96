"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion pins its tolerance here, from the defaults table in
mkvflow.experiments or the number stated alongside; nothing is deferred to
later calibration.  Criteria run through the experiment harness where one
exists, so the public surface is exercised end to end.
"""

import math
import time

import numpy as np
import pytest

from mkvflow.experiments import ExperimentConfig, run_experiment
from mkvflow.grids import (
    GridSpec,
    gaussian_density,
    grid_delta,
    heat_apply,
    bessel_apply,
)
from mkvflow.kernels import KernelSpec, RieszOrder, TimeModulation
from mkvflow.metrics import GaussianSpec, relative_entropy, wasserstein_1d
from mkvflow.solver import FlowParams, picard_solve, time_shift_solve
from oracles import bessel_gamma_quadrature, gaussian_entropy, gaussian_w2, random_band_limited


def announce(name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def report_rows_ok(report, prefix=""):
    detail = "; ".join(f"{r.quantity}={r.measured:.4g}" for r in report.rows)
    return report.all_passed, prefix + detail


class TestHeatOperatorExponents:
    def test_exponent_matrix(self):
        t0 = time.time()
        cfg = ExperimentConfig("heat_exponent", seed=0,
                               options=(("grid_n", 2048),))
        report = run_experiment(cfg)
        per_case = (time.time() - t0) / 3.0
        ok = report.all_passed and per_case < 60.0
        detail = "; ".join(
            f"{r.quantity.split('(')[1].rstrip(')')}: {r.measured:+.3f} vs "
            f"{r.theory:+.3f} (tol {r.tol})" for r in report.rows)
        announce("heat operator exponents", ok, f"{detail}; {per_case:.0f}s/case")


class TestBesselIdentity:
    def test_gamma_quadrature_matches_spectral(self):
        t0 = time.time()
        grid = GridSpec(1, 1024, 16.0)
        rng = np.random.default_rng(0)
        worst = 0.0
        for r in (0.25, 0.75, 1.5):
            for _ in range(3):
                f = random_band_limited(grid, 128, rng)
                a = bessel_gamma_quadrature(f, r, nodes=200)
                b = bessel_apply(f, r)
                rel = np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values)
                worst = max(worst, rel)
        took = time.time() - t0
        ok = worst < 1e-6 and took < 10.0
        announce("Bessel integral identity", ok,
                 f"worst rel L2 {worst:.2e} (tol 1e-6); {took:.1f}s")


class TestPointMassThreshold:
    def test_dirac_norm_dichotomy(self):
        t0 = time.time()
        cfg = ExperimentConfig("kernel_membership", seed=0, options=(
            ("grid_n", 2048), ("kernel", "dirac"), ("kernel.order", 0),
            ("deltas", (1.5, 0.5)), ("ks", (math.inf, math.inf))))
        report = run_experiment(cfg)
        took = time.time() - t0
        ok, detail = report_rows_ok(report)
        ok = ok and took < 60.0
        announce("point-mass membership threshold", ok, f"{detail}; {took:.0f}s")


class TestRieszMembership:
    def test_admissible_and_supercritical(self):
        t0 = time.time()
        cfg1 = ExperimentConfig("kernel_membership", seed=0, options=(
            ("grid_n", 2048), ("kernel", "riesz"), ("kernel.c", 1.0),
            ("kernel.n0", 0), ("kernel.eps0", 0.5),
            ("deltas", (1.0, 1.0)), ("ks", (2.0, 4.0))))
        cfg2 = ExperimentConfig("kernel_membership", seed=0, options=(
            ("grid_n", 2048), ("kernel", "riesz"), ("kernel.c", 1.0),
            ("kernel.n0", 1), ("kernel.eps0", 0.5),
            ("deltas", (1.0,)), ("ks", (2.0,))))
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        took = time.time() - t0
        ok = r1.all_passed and r2.all_passed and took < 120.0
        announce("inverse-power kernel membership", ok,
                 f"n0=0 bounded at k=2,4; n0=1 unbounded; {took:.0f}s")


class TestSolverNullCases:
    def test_zero_and_constant_drift(self):
        t0 = time.time()
        grid = GridSpec(1, 1024, 16.0)
        tg = tuple(np.linspace(0.05, 0.5, 10))
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5, time_grid=tg)
        gamma = gaussian_density(grid, 0.0, 0.04)
        from mkvflow.kernels import ConstantVector
        flow0, rep0 = picard_solve(gamma, KernelSpec(ConstantVector((0.0,))),
                                   params, steps=200)
        err0 = max(np.abs(r.values - gaussian_density(grid, 0.0, 0.04 + t).values).max()
                   for t, r in zip(flow0.times, flow0.densities))
        c = 0.6
        flowc, repc = picard_solve(gamma, KernelSpec(ConstantVector((c,))),
                                   params, steps=1500)
        errc = max(np.abs(r.values - gaussian_density(grid, c * t, 0.04 + t).values).max()
                   for t, r in zip(flowc.times, flowc.densities))
        took = time.time() - t0
        ok = (err0 < 1e-8 and rep0.iterations == 1
              and errc < 1e-6 and repc.iterations <= 2 and took < 30.0)
        announce("solver null cases", ok,
                 f"zero-drift Linf {err0:.1e} in {rep0.iterations} it (tol 1e-8); "
                 f"constant-drift {errc:.1e} in {repc.iterations} it (tol 1e-6); "
                 f"{took:.0f}s")


class TestContraction:
    def test_calibrated_instance(self):
        t0 = time.time()
        cfg = ExperimentConfig("solve", seed=0, options=(
            ("grid_n", 1024), ("kernel", "riesz"), ("kernel.c", 0.2),
            ("kernel.n0", 0), ("kernel.eps0", 1.0), ("kernel.kappa", 0.75),
            ("delta", 1.0), ("k", 2.0), ("kappa", 0.75), ("T", 0.5)))
        report = run_experiment(cfg)
        took = time.time() - t0
        by_name = {r.quantity: r for r in report.rows}
        ok = (report.all_passed and took < 300.0)
        announce("fixed-point contraction", ok,
                 f"ratio {by_name['contraction_ratio'].measured:.3f} (< 0.9), "
                 f"residual {by_name['fixed_point_residual'].measured:.1e} (< 1e-6), "
                 f"{by_name['iterations'].measured:.0f} iterations (<= 20), "
                 f"weight-monotone={bool(by_name['lambda_monotone'].measured)}; "
                 f"{took:.0f}s")


class TestTimeShiftConsistency:
    @pytest.mark.parametrize("kappa", [0.0, 0.75])
    def test_shifted_vs_plain(self, kappa):
        t0 = time.time()
        grid = GridSpec(1, 1024, 16.0)
        tg = tuple(np.linspace(0.05, 0.5, 10))
        params = FlowParams(delta=1.0, k=2.0, kappa=kappa, T=0.5, time_grid=tg)
        kern = KernelSpec(RieszOrder((0.2,), 0, 1.0), 4 * grid.spacing**2,
                          TimeModulation(kappa=kappa))
        r = 0.05
        gamma0 = grid_delta(grid)
        shifted = time_shift_solve(gamma0, r, kern, params, tol=1e-10, steps=600)
        plain, _ = picard_solve(heat_apply(gamma0, r), kern, params,
                                tol=1e-10, steps=600)
        worst = max(float(np.abs(a.values - b.values).sum()) * grid.spacing
                    for a, b in zip(shifted.densities, plain.densities))
        took = time.time() - t0
        ok = worst < 1e-8 and took < 300.0
        announce("time-shift consistency", ok,
                 f"kappa {kappa}: worst per-time L1 {worst:.1e} (tol 1e-8); {took:.0f}s")


class TestDecayUniformity:
    def test_uniform_in_initial_width(self):
        t0 = time.time()
        cfg = ExperimentConfig("decay", seed=0, options=(
            ("grid_n", 1024), ("kernel", "riesz"), ("kernel.c", 0.2),
            ("kernel.n0", 0), ("kernel.eps0", 1.0), ("kernel.kappa", 0.75),
            ("delta", 1.0), ("k", 2.0), ("kappa", 0.75), ("T", 0.5),
            ("t_first", 0.01), ("r_list", (0.02, 0.01, 0.005))))
        report = run_experiment(cfg)
        took = time.time() - t0
        spread = next(r for r in report.rows if r.quantity == "decay_spread")
        ok = report.all_passed and took < 600.0
        announce("decay uniform in initial width", ok,
                 f"spread {spread.measured:.3f} (tol 0.20); {took:.0f}s")


class TestStability:
    @pytest.mark.parametrize("kernel_opts,label", [
        ((("kernel", "zero"),), "zero-kernel"),
        ((("kernel", "riesz"), ("kernel.c", 0.2), ("kernel.n0", 0),
          ("kernel.eps0", 1.0), ("kernel.kappa", 1.25)), "small-kernel"),
    ])
    def test_transport_stability(self, kernel_opts, label):
        t0 = time.time()
        cfg = ExperimentConfig("stability", seed=0, options=kernel_opts + (
            ("grid_n", 2048), ("delta", 1.0), ("k", 2.0), ("kappa", 1.25),
            ("T", 0.2), ("gamma_var", 0.002)))
        report = run_experiment(cfg)
        took = time.time() - t0
        by_name = {r.quantity: r for r in report.rows}
        ok = report.all_passed and took < 600.0
        announce(f"stability exponent and linearity ({label})", ok,
                 f"slope {by_name['stability_slope'].measured:+.3f} vs -1.25 "
                 f"(tol 0.1), linearity {by_name['stability_linearity'].measured:.3f} "
                 f"(tol 0.10); {took:.0f}s")


class TestEntropyCost:
    def test_zero_kernel_analytic(self):
        t0 = time.time()
        cfg = ExperimentConfig("entropy_cost", seed=0, options=(
            ("grid_n", 1024), ("kernel", "zero"), ("delta", 1.0), ("k", 2.0),
            ("kappa", 1.25), ("T", 0.5), ("gamma_var", 0.04),
            ("gamma_shift", 0.1)))
        report = run_experiment(cfg)
        took = time.time() - t0
        by_name = {r.quantity: r for r in report.rows}
        ok = report.all_passed and took < 600.0
        announce("entropy-cost (zero kernel, analytic)", ok,
                 f"analytic gap {by_name['entropy_ratio_analytic_gap'].measured:.1e}, "
                 f"sup ratio {by_name['entropy_ratio_bound'].measured:.3f} (<= 0.5); "
                 f"{took:.0f}s")

    def test_small_kernel_envelope(self):
        t0 = time.time()
        cfg = ExperimentConfig("entropy_cost", seed=0, options=(
            ("grid_n", 1024), ("kernel", "riesz"), ("kernel.c", 0.2),
            ("kernel.n0", 0), ("kernel.eps0", 1.0), ("kernel.kappa", 1.25),
            ("delta", 1.0), ("k", 2.0), ("kappa", 1.25), ("T", 0.5),
            ("gamma_var", 0.04), ("gamma_shift", 0.1)))
        report = run_experiment(cfg)
        took = time.time() - t0
        env = report.rows[0]
        ok = report.all_passed and took < 600.0
        announce("entropy-cost (small kernel envelope)", ok,
                 f"fitted envelope {env.measured:.3f} (<= 1.0); {took:.0f}s")


class TestMetricsOracles:
    def test_closed_forms_and_pinsker(self):
        t0 = time.time()
        grid = GridSpec(1, 2048, 16.0)
        a, b = GaussianSpec((0.0,), 0.09), GaussianSpec((0.3,), 0.16)
        w2_gap = abs(wasserstein_1d(a.density(grid), b.density(grid), 2.0)
                     - gaussian_w2(a, b))
        ent_gap = abs(relative_entropy(a.density(grid), b.density(grid))
                      - gaussian_entropy(a, b))
        # Pinsker on 100 random pairs (total-mass variation convention)
        rng = np.random.default_rng(7)
        pinsker_ok = True
        for _ in range(100):
            g1 = gaussian_density(grid, rng.uniform(-1, 1), rng.uniform(0.03, 0.3))
            g2 = gaussian_density(grid, rng.uniform(-1, 1), rng.uniform(0.03, 0.3))
            tv = float(np.abs(g1.values - g2.values).sum()) * grid.cell_volume
            ent = relative_entropy(g1, g2)
            pinsker_ok &= tv <= math.sqrt(2.0 * ent) + 1e-9
        took = time.time() - t0
        ok = w2_gap < 1e-6 and ent_gap < 1e-6 and pinsker_ok and took < 60.0
        announce("metric closed forms and Pinsker", ok,
                 f"W2 gap {w2_gap:.1e} (1e-6), Ent gap {ent_gap:.1e} (1e-6), "
                 f"Pinsker 100/100; {took:.0f}s")


class TestParticles:
    def test_monte_carlo_rate_and_agreement(self):
        t0 = time.time()
        zero_cfg = ExperimentConfig("particles", seed=0, options=(
            ("grid_n", 1024), ("kernel", "zero"), ("delta", 1.0), ("k", 2.0),
            ("kappa", 0.75), ("T", 0.5), ("dt", 0.0125), ("gamma_var", 0.04)))
        small_cfg = ExperimentConfig("particles", seed=0, options=(
            ("grid_n", 1024), ("kernel", "riesz"), ("kernel.c", 0.2),
            ("kernel.n0", 0), ("kernel.eps0", 1.0), ("kernel.kappa", 0.75),
            ("kernel.eps", 0.004), ("delta", 1.0), ("k", 2.0), ("kappa", 0.75),
            ("T", 0.5), ("dt", 0.0025), ("gamma_var", 0.04)))
        r_zero = run_experiment(zero_cfg)
        r_small = run_experiment(small_cfg)
        took = time.time() - t0
        slope = next(r for r in r_zero.rows if r.quantity == "mc_rate_slope")
        ok = r_zero.all_passed and r_small.all_passed and took < 900.0
        announce("particle cross-validation", ok,
                 f"MC rate slope {slope.measured:+.3f} (-0.5 tol 0.15); "
                 f"small-kernel transport error monotone in N; {took:.0f}s")
