import math

import numpy as np
import pytest
import scipy.fft

from mkvflow.grids import (
    GridSpec,
    ScalarField,
    VectorField,
    gaussian_density,
    grid_delta,
    heat_apply,
    random_band_limited,
)
from mkvflow import kernels, solver
from mkvflow.kernels import (
    ConstantVector,
    GridSampled,
    KernelSpec,
    NemytskiiSpec,
    RieszOrder,
    TimeModulation,
    drift_field,
    make_kernel,
    realize_kernel,
)
from mkvflow.solver import (
    _frozen_drift,
    DegradedAccuracyError,
    FlowParams,
    MeasureFlow,
    NoContractionError,
    eta_theta_params,
    phi_apply,
    picard_solve,
    tau_n_formula,
    time_shift_solve,
    weighted_flow_distance,
)

GRID = GridSpec(1, 1024, 16.0)
EPS = 4.0 * GRID.spacing**2


def small_kernel(c=0.2, kappa=0.75):
    return KernelSpec(RieszOrder((c,), 0, 1.0), EPS, TimeModulation(kappa=kappa))


def count_transforms(monkeypatch) -> list:
    """Names of the ``scipy.fft`` real transforms called from here on."""
    calls = []

    def counting(name):
        fn = getattr(scipy.fft, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(scipy.fft, name, counting(name))
    return calls


def params_for(T=0.5, n=10, kappa=0.75, **kw):
    tg = tuple(np.linspace(T / n, T, n))
    return FlowParams(delta=kw.get("delta", 1.0), k=kw.get("k", 2.0),
                      eps=kw.get("eps", 0.0), p=kw.get("p", math.inf),
                      kappa=kappa, T=T, time_grid=tg, dim=1)


class TestFlowParams:
    def test_eta_formula(self):
        p = params_for(kappa=0.0)
        assert p.eta == pytest.approx(1.0 + 0.5)
        assert p.theta == math.inf  # (eta - 2 kappa)+ = 1.5 >= 1

    def test_degenerate_indices(self):
        p = FlowParams(delta=1.0, k=2.0, eps=1.0, p=2.0, kappa=0.0, T=1.0)
        assert p.eta == 0.0
        assert p.theta == 2.0

    def test_admissibility_flags(self):
        p = params_for(kappa=0.0)
        info = eta_theta_params(p)
        assert info["eta"] == pytest.approx(1.5)
        assert not info["smoothing_gap_ok"]
        info2 = eta_theta_params(params_for(kappa=0.5))
        assert info2["smoothing_gap_ok"]  # 1.5 < 1 + 1

    def test_xi_q_matched_indices(self):
        p = FlowParams(delta=1.0, k=2.0, eps=1.0, p=2.0, kappa=0.0, T=1.0)
        info = eta_theta_params(p, q=2.0)
        assert info["xi_q"] == pytest.approx((1.0 + 0.5) / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowParams(delta=1.0, k=2.0, eps=2.0, p=math.inf, T=1.0)
        with pytest.raises(ValueError):
            FlowParams(delta=1.0, k=4.0, p=2.0, T=1.0)
        with pytest.raises(ValueError):
            FlowParams(delta=1.0, k=2.0, T=1.0, time_grid=(0.5, 0.25, 1.0))


class TestTauFormula:
    def test_strongest_norm_branch(self):
        p = params_for()
        assert tau_n_formula(5.0, 3, 1.0, p) == 3.0

    def test_explicit_value(self):
        p = FlowParams(delta=1.0, k=2.0, eps=0.5, p=4.0, kappa=1.0, T=1.0)
        # A_n = 1, norm 1, theta finite: min(2, exp(-1))
        val = tau_n_formula(1.0, 2, 1.0, p)
        assert val == pytest.approx(math.exp(-1.0))

    def test_monotone_in_norm(self):
        p = FlowParams(delta=1.0, k=2.0, eps=0.5, p=4.0, kappa=1.0, T=1.0)
        vals = [tau_n_formula(g, 2, 1.0, p) for g in np.linspace(0.5, 50, 30)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_rejects_undefined_contraction_exponent(self):
        p = FlowParams(delta=1.5, k=2.0, eps=0.5, p=4.0, kappa=0.0, T=1.0)
        assert not math.isfinite(p.theta)
        with pytest.raises(ValueError, match="undefined"):
            tau_n_formula(1.0, 2, 1.0, p)


class TestPhiApply:
    def test_zero_drift_is_heat_flow(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        flow = phi_apply(gamma, None, None, params, steps=200)
        for t, rho in zip(flow.times, flow.densities):
            expect = gaussian_density(GRID, 0.0, 0.04 + t)
            assert np.abs(rho.values - expect.values).max() < 1e-8

    def test_constant_drift_gaussian_law(self):
        c = 0.8
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        kern = KernelSpec(ConstantVector((c,)))
        base = phi_apply(gamma, None, None, params, steps=200)
        flow = phi_apply(gamma, base, kern, params, steps=2000)
        for t, rho in zip(flow.times, flow.densities):
            expect = gaussian_density(GRID, c * t, 0.04 + t)
            assert np.abs(rho.values - expect.values).max() < 1e-6

    def test_agrees_with_fd_oracle(self):
        # independent oracle: central finite differences in space, explicit
        # Euler in time, drift recomputed from the FD density itself; the
        # output grid doubles as the drift-freezing interpolation grid, so it
        # stays at the resolution the solver is meant to run at
        kern = small_kernel()
        params = params_for(T=0.5, n=10)
        gamma = gaussian_density(GRID, 0.0, 0.04)
        flow, _ = picard_solve(gamma, kern, params, tol=1e-8, steps=600)
        h = GRID.spacing
        dt = 2.5e-5
        rho = gamma.values.copy()
        kf_hat = np.fft.fft(np.fft.ifftshift(realize_kernel(kern, GRID).components[0]))
        targets = {int(round(t / dt)): i for i, t in enumerate(flow.times)}
        fd_out = {}
        for m in range(1, int(round(0.5 / dt)) + 1):
            t = m * dt
            b = t**0.75 * np.fft.ifft(kf_hat * np.fft.fft(rho)).real * h
            flux = b * rho
            dflux = (np.roll(flux, -1) - np.roll(flux, 1)) / (2 * h)
            lap = (np.roll(rho, -1) - 2 * rho + np.roll(rho, 1)) / h**2
            rho = rho + dt * (0.5 * lap - dflux)
            if m in targets:
                fd_out[targets[m]] = rho.copy()
        for i, rho_s in enumerate(flow.densities):
            l1 = np.abs(rho_s.values - fd_out[i]).sum() * h
            assert l1 < 1e-3

    def test_mass_and_positivity(self):
        kern = small_kernel(c=0.5)
        params = params_for()
        gamma = gaussian_density(GRID, 0.0, 0.04)
        base = phi_apply(gamma, None, None, params, steps=300)
        flow = phi_apply(gamma, base, kern, params, steps=300)
        for rho in flow.densities:
            assert abs(rho.mass() - 1.0) < 1e-9
            assert rho.values.min() >= -1e-6
        assert flow.meta["clip_mass"] < 1e-3


class TestStepArguments:
    @pytest.mark.parametrize("steps", [0, -5, 2.5])
    def test_steps_must_be_a_positive_int(self, steps):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for(n=2)
        match = "steps must be a positive int"
        with pytest.raises(ValueError, match=match):
            phi_apply(gamma, None, None, params, steps=steps)
        with pytest.raises(ValueError, match=match):
            picard_solve(gamma, small_kernel(), params, steps=steps)
        with pytest.raises(ValueError, match=match):
            time_shift_solve(grid_delta(GRID), 0.02, small_kernel(), params, steps=steps)

    def test_max_iter_must_be_a_positive_int(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        with pytest.raises(ValueError, match="max_iter must be a positive int"):
            picard_solve(gamma, small_kernel(), params_for(n=2), max_iter=0, steps=20)


class TestWeightedFlowDistance:
    def test_identical_flows(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        flow = phi_apply(gamma, None, None, params, steps=100)
        assert weighted_flow_distance(flow, flow, params) == 0.0

    def test_monotone_in_lambda(self):
        gamma1 = gaussian_density(GRID, 0.0, 0.04)
        gamma2 = gaussian_density(GRID, 0.1, 0.04)
        params = params_for()
        f1 = phi_apply(gamma1, None, None, params, steps=100)
        f2 = phi_apply(gamma2, None, None, params, steps=100)
        vals = [weighted_flow_distance(f1, f2, params, lam=l)
                for l in (0.0, 1.0, 10.0, 100.0)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05 * vals[0]

    def test_refinement_consistency(self):
        # [DERIVED refinement oracle] a denser time grid reproduces the sup
        gamma1 = gaussian_density(GRID, 0.0, 0.04)
        gamma2 = gaussian_density(GRID, 0.1, 0.04)
        coarse = params_for(T=0.5, n=10)
        fine = params_for(T=0.5, n=40)
        d_coarse = weighted_flow_distance(
            phi_apply(gamma1, None, None, coarse, steps=100),
            phi_apply(gamma2, None, None, coarse, steps=100), coarse)
        d_fine = weighted_flow_distance(
            phi_apply(gamma1, None, None, fine, steps=100),
            phi_apply(gamma2, None, None, fine, steps=100), fine)
        assert abs(d_fine - d_coarse) / d_fine < 0.02

    def test_grid_mismatch(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        p1, p2 = params_for(n=10), params_for(n=12)
        f1 = phi_apply(gamma, None, None, p1, steps=50)
        f2 = phi_apply(gamma, None, None, p2, steps=50)
        with pytest.raises(ValueError):
            weighted_flow_distance(f1, f2, p1)


class TestSpectralMarch:
    """The spectral-state march against the per-call physical drift."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_interpolated_drift_matches_drift_field(self, dim):
        modulation = TimeModulation(kappa=0.75, table=((0.0, 1.0), (0.5, 2.0)))
        if dim == 1:
            grid, gamma, spec = GRID, gaussian_density(GRID, 0.0, 0.04), small_kernel()
            spec = KernelSpec(spec.variant, spec.mollification_eps, modulation)
        else:
            grid = GridSpec(2, 64, 8.0)
            gamma = gaussian_density(grid, [0.3, -0.2], 0.09)
            rng = np.random.default_rng(3)
            field = VectorField(grid, [random_band_limited(grid, 8, rng).values
                                       for _ in range(2)])
            spec = KernelSpec(GridSampled(field), 0.1, modulation)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5,
                            time_grid=(0.1, 0.25, 0.5), dim=dim)
        mu = phi_apply(gamma, None, None, params, steps=60)
        for shift in (0.0, 0.07):
            drift_at = _frozen_drift(spec, mu, grid, shift)
            for s in (0.0, 0.03, 0.07, 0.1, 0.17, 0.3337, 0.49, 0.5):
                got = drift_at(s)
                if s < shift:
                    assert not any(g.any() for g in got)
                    continue
                want = drift_field(spec, mu.density_at(s), s - shift).components
                scale = max(np.abs(c).max() for c in want)
                assert scale > 0 or s == shift
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-12 * max(scale, 1e-300)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_march_step_transform_count(self, dim, monkeypatch):
        # a march step transforms b rho and b predictor forward (d each) and
        # the predictor and the new state back (one each); once per call come
        # the initial state and one forward and d inverse transforms per
        # frozen field.  The kernel's symbols need no transform
        grid = GRID if dim == 1 else GridSpec(2, 64, 8.0)
        spec = small_kernel() if dim == 1 else KernelSpec(
            ConstantVector((0.3, -0.2)), 0.0, TimeModulation(kappa=0.75))
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5,
                            time_grid=(0.1, 0.25, 0.5), dim=dim)
        gamma = gaussian_density(grid, 0.0, 0.09)
        mu = phi_apply(gamma, None, None, params, steps=40)
        realize_kernel(spec, grid)  # calibrated from here on
        calls = count_transforms(monkeypatch)
        phi_apply(gamma, mu, spec, params, steps=40)
        march_steps = len(solver._internal_grid(params.time_grid, 40)) - 1
        frozen = len(params.time_grid) + 1
        assert len(calls) == (2 * dim + 2) * march_steps + 1 + frozen * (1 + dim)
        inverses = calls.count("irfft") + calls.count("irfftn")
        assert inverses == 2 * march_steps + frozen * dim

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_kernel_marches_as_no_interaction(self, dim, monkeypatch):
        # all symbols of the zero kernel vanish, so its march is the plain
        # heat flow of mu=None, transform for transform
        grid = GRID if dim == 1 else GridSpec(2, 64, 8.0)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5,
                            time_grid=(0.1, 0.25, 0.5), dim=dim)
        gamma = gaussian_density(grid, 0.0, 0.09)
        mu = phi_apply(gamma, None, None, params, steps=40)
        calls = count_transforms(monkeypatch)
        plain = phi_apply(gamma, None, None, params, steps=40)
        heat_only = len(calls)
        zero = phi_apply(gamma, mu, make_kernel("zero", grid), params, steps=40)
        assert len(calls) - heat_only == heat_only
        for a, b in zip(zero.densities, plain.densities):
            assert np.array_equal(a.values, b.values)

    def test_negative_frozen_density_rejected(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for(n=2)
        mu = phi_apply(gamma, None, None, params, steps=20)
        vals = mu.densities[0].values.copy()
        vals[0] = -1e-7
        mu.densities[0] = ScalarField(GRID, vals / (vals.sum() * GRID.cell_volume))
        with pytest.raises(ValueError, match="not a density"):
            phi_apply(gamma, mu, small_kernel(), params, steps=20)

    def test_non_finite_state_rejected(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for(n=2)
        mu = phi_apply(gamma, None, None, params, steps=20)

        def huge(rho, t):
            return VectorField(rho.grid, [np.full(rho.grid.shape, 1e300)])

        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="finite"):
            phi_apply(gamma, mu, huge, params, steps=20)

    @pytest.mark.parametrize("drift", [RieszOrder(), "riesz", 3.0])
    def test_unsupported_drift_rejected(self, drift):
        params = FlowParams(delta=1.0, k=2.0, T=0.5, time_grid=(0.25, 0.5))
        mu = phi_apply(gaussian_density(GRID, 0.0, 0.09), None, None, params, steps=10)
        with pytest.raises(TypeError, match="unsupported drift"):
            _frozen_drift(drift, mu, GRID, 0.0)


class TestPicardSolve:
    def test_zero_drift_one_iteration(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        flow, rep = picard_solve(gamma, KernelSpec(ConstantVector((0.0,))),
                                 params, steps=200)
        assert rep.iterations == 1
        expect = gaussian_density(GRID, 0.0, 0.04 + params.T)
        assert np.abs(flow.densities[-1].values - expect.values).max() < 1e-8

    def test_constant_drift_two_applications(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        flow, rep = picard_solve(gamma, KernelSpec(ConstantVector((0.6,))),
                                 params, steps=1200)
        assert rep.iterations <= 2
        assert rep.residual < 1e-8
        expect = gaussian_density(GRID, 0.6 * params.T, 0.04 + params.T)
        assert np.abs(flow.densities[-1].values - expect.values).max() < 1e-6

    def test_contraction_and_fixed_point(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        kern = small_kernel()
        flow, rep = picard_solve(gamma, kern, params, tol=1e-6, steps=400)
        assert rep.iterations <= 20
        assert max(rep.contraction_ratios) < 0.9
        assert rep.residual < 1e-6
        # fixed-point consistency: one more application stays within 2 tol
        again = phi_apply(gamma, flow, kern, params, steps=400)
        assert weighted_flow_distance(again, flow, params) < 2e-6

    def test_decay_trajectory_and_report(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        _, rep = picard_solve(gamma, small_kernel(), params, steps=400)
        assert np.all(np.isfinite(rep.decay_trajectory))
        assert not rep.blowup

    def test_no_contraction_error(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for(T=2.0, kappa=0.0)
        # strong kernel, long horizon: ratios stay >= 1
        kern = KernelSpec(RieszOrder((12.0,), 0, 1.0), EPS)
        with pytest.raises((NoContractionError, DegradedAccuracyError)):
            picard_solve(gamma, kern, params, tol=1e-12, steps=150, max_iter=8)

    def test_residual_is_the_unweighted_distance(self):
        # a strong kernel whose first ratios are near or above one: reweighting
        # by exp(-lam t) would shrink them, and the residual with them
        grid = GridSpec(1, 256, 16.0)
        kern = KernelSpec(RieszOrder((10.0,), 0, 1.0), 4.0 * grid.spacing**2,
                          TimeModulation(kappa=0.75))
        params = params_for()
        _, rep = picard_solve(gaussian_density(grid, 0.0, 0.04), kern, params,
                              tol=1e-8, steps=100, max_iter=10)
        weight = np.asarray(params.time_grid) ** params.weight_exponent
        assert rep.lam_used == 0.0
        assert rep.residual == float(np.max(weight * rep.gap_series[-1]))
        assert rep.contraction_ratios == solver.contraction_ratios(
            rep.gap_series, params, 0.0)
        assert rep.contraction_ratios[0] > 1.0


class TestTimeShiftSolve:
    def test_zero_drift_shift_invisible(self):
        params = params_for()
        gamma0 = gaussian_density(GRID, 0.0, 0.04)
        shifted = time_shift_solve(gamma0, 0.05, KernelSpec(ConstantVector((0.0,))),
                                   params, steps=300)
        for t, rho in zip(shifted.times, shifted.densities):
            expect = gaussian_density(GRID, 0.0, 0.04 + 0.05 + t)
            assert np.abs(rho.values - expect.values).max() < 1e-8

    def test_heat_leg_from_spike(self):
        params = params_for()
        gamma0 = grid_delta(GRID, 0.0)
        shifted = time_shift_solve(gamma0, 0.05, small_kernel(), params, steps=300)
        expect = gaussian_density(GRID, 0.0, 0.05)
        assert np.abs(shifted.initial.values - expect.values).max() < 1e-6

    def test_matches_plain_solve(self):
        # the two constructions are mutual oracles
        params = params_for()
        kern = small_kernel()
        r = 0.05
        gamma0 = grid_delta(GRID, 0.0)
        shifted = time_shift_solve(gamma0, r, kern, params, tol=1e-10, steps=600)
        plain, _ = picard_solve(heat_apply(gamma0, r), kern, params,
                                tol=1e-10, steps=600)
        h = GRID.spacing
        for a, b in zip(shifted.densities, plain.densities):
            assert np.abs(a.values - b.values).sum() * h < 1e-4

    def test_kernel_shift_takes_spectral_path(self, monkeypatch):
        # the per-step physical drift, wrapped as a callable, is the reference
        params = params_for()
        spec = small_kernel()
        gamma0 = grid_delta(GRID, 0.0)
        calls = []

        def counted(*args, **kw):
            calls.append(args[2])
            return drift_field(*args, **kw)

        monkeypatch.setattr(kernels, "drift_field", counted)
        monkeypatch.setattr(solver, "drift_field", counted, raising=False)
        fast = time_shift_solve(gamma0, 0.02, spec, params, steps=300)
        monkeypatch.undo()
        assert calls == []
        ref = time_shift_solve(gamma0, 0.02, lambda rho, t: drift_field(spec, rho, t),
                               params, steps=300)
        assert fast.meta["report"].iterations == ref.meta["report"].iterations
        for a, b in zip([fast.initial] + fast.densities, [ref.initial] + ref.densities):
            assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()

    def test_nemytskii_shift_equals_callable(self):
        spec = NemytskiiSpec(2, "linear", (("weights", (0.1, 0.1)),),
                             TimeModulation(kappa=0.75))
        gamma0 = grid_delta(GRID, 0.0)
        a = time_shift_solve(gamma0, 0.02, spec, params_for(), steps=200)
        b = time_shift_solve(gamma0, 0.02, lambda rho, t: drift_field(spec, rho, t),
                             params_for(), steps=200)
        for x, y in zip([a.initial] + a.densities, [b.initial] + b.densities):
            assert np.array_equal(x.values, y.values)

    def test_rejects_unresolvable_shift(self):
        params = params_for()
        with pytest.raises(ValueError, match="resolvability"):
            time_shift_solve(grid_delta(GRID), 1e-7, small_kernel(), params)


class TestNemytskiiDriftSolve:
    def test_density_feedback_contracts(self):
        # drift proportional to the solution's own density, small weight
        spec = NemytskiiSpec(1, "linear", params=(("weights", (0.15,)),),
                             modulation=TimeModulation(kappa=0.75))
        params = FlowParams(delta=1.2, k=math.inf, kappa=0.75, T=0.5,
                            time_grid=tuple(np.linspace(0.05, 0.5, 10)))
        gamma = gaussian_density(GRID, 0.0, 0.04)
        flow, rep = picard_solve(gamma, spec, params, tol=1e-8, steps=400)
        assert rep.residual < 1e-8
        assert max(rep.contraction_ratios) < 0.9
        for rho in flow.densities:
            assert abs(rho.mass() - 1.0) < 1e-9
        # the density drift pushes mass rightward where rho is largest
        mean_T = float((flow.densities[-1].values * GRID.coords()[0]).sum()
                       * GRID.cell_volume)
        assert mean_T > 0.01


    def test_clipped_gradient_outputs_stay_densities(self):
        # clipped outputs must pass the next iteration's density check
        spec = NemytskiiSpec(2, "clipped_gradient", (("cap", 0.2),),
                             TimeModulation(kappa=0.75))
        gamma = gaussian_density(GRID, 0.0, 0.04)
        flow, rep = picard_solve(gamma, spec, params_for(), tol=1e-8, steps=200,
                                 max_iter=4)
        assert rep.iterations == 4
        for rho in flow.densities:
            assert rho.values.min() >= 0.0
            assert abs(rho.mass() - 1.0) < 1e-12
        # its distances between iterates grow: the fixed point is not reached
        with pytest.raises(NoContractionError):
            picard_solve(gamma, spec, params_for(), tol=1e-8, steps=200)

    @pytest.mark.parametrize("dim, weights", [(1, (0.1,)), (2, (0.1, 0.1))])
    def test_weight_count_checked_when_the_map_is_built(self, dim, weights):
        grid = GRID if dim == 1 else GridSpec(2, 64, 8.0)
        params = FlowParams(delta=1.0, k=2.0, T=0.5, time_grid=(0.25, 0.5), dim=dim)
        mu = phi_apply(gaussian_density(grid, 0.0, 0.09), None, None, params, steps=10)
        spec = NemytskiiSpec(2, "linear", (("weights", weights),))
        with pytest.raises(ValueError, match=f"need {1 + dim} weights"):
            _frozen_drift(spec, mu, grid, 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["linear", "clipped_gradient"])
    @pytest.mark.parametrize("route", ["picard", "shift"])
    def test_spec_route_equals_callable_route(self, route, family, dim, monkeypatch):
        # in 2-d, depth 3 brings in the mixed derivative
        if dim == 1:
            grid, n, weights = GRID, 2, (0.1, 0.1)
        else:
            grid, n, weights = GridSpec(2, 64, 8.0), 3, (0.1, 0.05, 0.05, 0.01, 0.01, 0.01)
        options = (("weights", weights),) if family == "linear" else (("cap", 0.2),)
        spec = NemytskiiSpec(n, family, options, TimeModulation(kappa=0.75))
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.3,
                            time_grid=(0.1, 0.2, 0.3), dim=dim)
        gamma = gaussian_density(grid, 0.0, 0.09)

        def solve(drift):
            if route == "picard":
                flow = picard_solve(gamma, drift, params, max_iter=3, steps=40)[0]
            else:
                flow = time_shift_solve(gamma, 0.07, drift, params, max_iter=3, steps=40)
            return [flow.initial] + flow.densities

        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(kernels, "drift_field",
                            spy("drift_field", kernels.drift_field))
        monkeypatch.setattr(solver, "drift_field",
                            spy("drift_field", kernels.drift_field), raising=False)
        monkeypatch.setattr(MeasureFlow, "density_at",
                            spy("density_at", MeasureFlow.density_at))
        fast = solve(spec)
        monkeypatch.undo()
        assert calls == []
        ref = solve(lambda rho, t: drift_field(spec, rho, t))
        assert len(fast) == len(ref)
        for a, b in zip(fast, ref):
            assert np.array_equal(a.values, b.values)


class TestTwoDimensional:
    def test_heat_flow_2d(self):
        # extent 12 keeps the evolved Gaussian's wrap-around tail below 1e-10
        grid = GridSpec(2, 64, 12.0)
        gamma = gaussian_density(grid, [0.0, 0.0], 0.09)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.4,
                            time_grid=(0.2, 0.4), dim=2)
        flow = phi_apply(gamma, None, None, params, steps=50)
        expect = gaussian_density(grid, [0.0, 0.0], 0.09 + 0.4)
        assert np.abs(flow.densities[-1].values - expect.values).max() < 1e-8

    def test_constant_drift_2d(self):
        grid = GridSpec(2, 64, 8.0)
        gamma = gaussian_density(grid, [0.0, 0.0], 0.09)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.3,
                            time_grid=(0.15, 0.3), dim=2)
        kern = KernelSpec(ConstantVector((0.4, -0.2)))
        flow, rep = picard_solve(gamma, kern, params, steps=600)
        expect = gaussian_density(grid, [0.4 * 0.3, -0.2 * 0.3], 0.09 + 0.3)
        assert np.abs(flow.densities[-1].values - expect.values).max() < 1e-5
        assert rep.iterations <= 2

    @pytest.mark.parametrize("solve", ["phi_apply", "picard_solve"])
    def test_params_dim_must_match_grid(self, solve):
        # dim enters eta, so a 1-d parameter set would weight a 2-d flow wrongly
        grid = GridSpec(2, 64, 8.0)
        gamma = gaussian_density(grid, [0.0, 0.0], 0.09)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.3, time_grid=(0.15, 0.3))
        with pytest.raises(ValueError, match=r"dim = 1, .* 2-d grid"):
            if solve == "phi_apply":
                phi_apply(gamma, None, None, params, steps=20)
            else:
                picard_solve(gamma, KernelSpec(ConstantVector((0.4, -0.2))), params, steps=20)


class TestMeasureFlow:
    def test_interpolation_endpoints(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        flow = phi_apply(gamma, None, None, params, steps=100)
        assert np.array_equal(flow.density_at(0.0).values, gamma.values)
        assert np.array_equal(flow.density_at(99.0).values, flow.densities[-1].values)

    def test_l1_increments_modulus(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        flow = phi_apply(gamma, None, None, params, steps=100)
        inc = flow.l1_increments()
        assert np.all(inc < 0.5)

    def test_rejects_bad_mass(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        bad = ScalarField(GRID, gamma.values * 1.5)
        with pytest.raises(ValueError, match="mass"):
            MeasureFlow(np.array([0.5]), [bad], gamma)
