import gc
import math
import warnings

import numpy as np
import pytest

from mkvflow.grids import (
    _RESOLUTION_CELLS,
    GridSpec,
    ScalarField,
    gaussian_density,
    grid_delta,
    heat_apply,
)
from mkvflow import solver
from mkvflow.kernels import (
    ConstantVector,
    KernelSpec,
    NemytskiiSpec,
    RieszOrder,
    TimeModulation,
    make_kernel,
    realize_kernel,
)
from mkvflow.metrics import GaussianSpec
from mkvflow.norms import SobolevIndex
from mkvflow.solver import (
    _bracket,
    _frozen_drift,
    _Nodes,
    DegradedAccuracyError,
    FlowParams,
    MeasureFlow,
    NoContractionError,
    phi_apply,
    picard_solve,
    picard_solve_many,
    time_shift_solve,
)
from oracles import (
    burgers_density,
    density_at,
    drift_field,
    dual_norm_series,
    per_node_drift,
    sequential_picard,
)

GRID = GridSpec(1, 1024, 16.0)
EPS = 4.0 * GRID.spacing**2


def small_kernel(c=0.2, kappa=0.75):
    return KernelSpec(RieszOrder((c,), 0, 1.0), EPS, TimeModulation(kappa=kappa))


def node_table(times, flow) -> _Nodes:
    """The node table of ``times`` against the knots of ``flow``."""
    return _Nodes(times, [0.0, *flow.times.tolist()])


def count_transforms(monkeypatch) -> list:
    """Names of the ``numpy.fft`` real transforms called from here on.

    Each ``grids.rfft``/``irfft`` calls exactly one of them, whatever the
    grid's dimension.
    """
    calls = []

    def counting(name):
        fn = getattr(np.fft, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name))
    return calls


def assert_same_solve(got, want):
    """Two ``(flow, report)`` pairs equal bit for bit."""
    (flow, rep), (flow0, rep0) = got, want
    assert flow.times.tolist() == flow0.times.tolist()
    for a, b in zip([flow.initial] + flow.densities, [flow0.initial] + flow0.densities):
        assert np.array_equal(a.values, b.values)
    assert rep.iterations == rep0.iterations
    assert rep.residual == rep0.residual
    assert rep.contraction_ratios == rep0.contraction_ratios
    assert rep.clip_mass == rep0.clip_mass
    assert len(rep.gap_series) == len(rep0.gap_series)
    for a, b in zip(rep.gap_series, rep0.gap_series):
        assert np.array_equal(a, b)


def params_for(T=0.5, n=10, kappa=0.75, **kw):
    tg = tuple(np.linspace(T / n, T, n))
    return FlowParams(delta=kw.get("delta", 1.0), k=kw.get("k", 2.0),
                      kappa=kappa, T=T, time_grid=tg, dim=1)


class TestFlowParams:
    def test_eta_formula(self):
        assert params_for(kappa=0.0).eta == 1.0 + 0.5
        assert FlowParams(delta=0.5, k=math.inf, T=1.0).eta == 0.5
        assert FlowParams(delta=0.5, k=4.0, T=1.0, dim=2).eta == 1.0

    @pytest.mark.parametrize("delta, k", [(-0.1, 2.0), (math.nan, 2.0), (1.0, 0.5)],
                             ids=["delta-negative", "delta-nan", "k-below-one"])
    def test_index_pair_checked(self, delta, k):
        with pytest.raises(ValueError, match="delta must be|k must be"):
            FlowParams(delta=delta, k=k, T=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowParams(delta=1.0, k=2.0, T=1.0, time_grid=(0.5, 0.25, 1.0))
        with pytest.raises(ValueError):
            FlowParams(delta=1.0, k=2.0, T=1.0, time_grid=(0.5, 0.75))


@pytest.mark.parametrize("build", [
    lambda: FlowParams(delta=1.0, k=2.0, T=math.nan),
    lambda: FlowParams(delta=1.0, k=2.0, T=math.inf),
    lambda: FlowParams(delta=1.0, k=2.0, kappa=math.nan),
    lambda: FlowParams(delta=math.inf, k=2.0),
    lambda: FlowParams(delta=1.0, k=2.0, T=1.0, time_grid=(0.5, math.nan, 1.0)),
    lambda: SobolevIndex(math.nan, 2.0),
    lambda: SobolevIndex(1.0, math.nan),
    lambda: TimeModulation(math.nan),
    lambda: GaussianSpec((0.0,), math.nan),
    lambda: GaussianSpec((0.0,), math.inf),
    lambda: GaussianSpec((math.nan,), 1.0),
], ids=["T-nan", "T-inf", "kappa-nan", "delta-inf", "time_grid-nan", "index-delta-nan",
        "index-k-nan", "modulation-kappa-nan", "variance-nan", "variance-inf", "mean-nan"])
def test_non_finite_parameters_rejected_at_construction(build):
    # a NaN horizon used to pass and end in an IndexError inside the solver
    with pytest.raises(ValueError):
        build()


class TestPhiApply:
    def test_zero_drift_is_heat_flow(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        (flow,) = phi_apply([gamma], None, None, params, steps=200)
        for t, rho in zip(flow.times, flow.densities):
            expect = gaussian_density(GRID, 0.0, 0.04 + t)
            assert np.abs(rho.values - expect.values).max() < 1e-8

    def test_constant_drift_gaussian_law(self):
        c = 0.8
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        kern = KernelSpec(ConstantVector((c,)))
        (base,) = phi_apply([gamma], None, None, params, steps=200)
        (flow,) = phi_apply([gamma], [base], kern, params, steps=2000)
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
        (base,) = phi_apply([gamma], None, None, params, steps=300)
        (flow,) = phi_apply([gamma], [base], kern, params, steps=300)
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
            phi_apply([gamma], None, None, params, steps=steps)
        with pytest.raises(ValueError, match=match):
            picard_solve(gamma, small_kernel(), params, steps=steps)
        with pytest.raises(ValueError, match=match):
            time_shift_solve(grid_delta(GRID), 0.02, small_kernel(), params, steps=steps)

    def test_max_iter_must_be_a_positive_int(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        with pytest.raises(ValueError, match="max_iter must be a positive int"):
            picard_solve(gamma, small_kernel(), params_for(n=2), max_iter=0, steps=20)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, monkeypatch, tol):
        # 0, -1 and nan used to run all max_iter iterations, inf to stop after one
        monkeypatch.setattr(solver, "phi_apply", None)  # must not be reached
        gamma = gaussian_density(GRID, 0.0, 0.04)
        match = r"^tol must be a number in \(0, inf\), got "
        with pytest.raises(ValueError, match=match):
            picard_solve(gamma, small_kernel(), params_for(n=2), tol=tol, steps=20)
        with pytest.raises(ValueError, match=match):
            time_shift_solve(grid_delta(GRID), 0.02, small_kernel(), params_for(n=2),
                             tol=tol, steps=20)

    @pytest.mark.parametrize("age", [-1.0, math.nan, math.inf, True, "0"])
    def test_age_must_be_a_finite_number_at_least_zero(self, monkeypatch, age):
        # -1, nan and inf used to run all max_iter iterations to a nan residual
        monkeypatch.setattr(solver, "phi_apply", None)  # must not be reached
        gamma = gaussian_density(GRID, 0.0, 0.04)
        with pytest.raises(ValueError, match="age must be"):
            picard_solve_many([gamma], small_kernel(), params_for(n=2), steps=20, age=age)

    @pytest.mark.parametrize("r", [True, "0.02", None, math.nan, math.inf])
    def test_shift_must_be_a_finite_number(self, monkeypatch, r):
        # a bool r used to run a shift of 1.0
        monkeypatch.setattr(solver, "picard_solve_many", None)  # must not be reached
        with pytest.raises(ValueError, match="r must be"):
            time_shift_solve(grid_delta(GRID), r, small_kernel(), params_for(n=2), steps=20)


class TestSpectralMarch:
    """The spectral-state march against the per-call physical drift."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_interpolated_drift_matches_drift_field(self, dim):
        if dim == 1:
            grid, gamma, spec = GRID, gaussian_density(GRID, 0.0, 0.04), small_kernel()
        else:
            grid = GridSpec(2, 64, 16.0)
            gamma = gaussian_density(grid, [0.3, -0.2], 0.09)
            spec = KernelSpec(RieszOrder((0.2, 0.2), 0, 1.0), 0.04, TimeModulation(0.75))
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5,
                            time_grid=(0.1, 0.25, 0.5), dim=dim)
        (mu,) = phi_apply([gamma], None, None, params, steps=60)
        nodes = (0.0, 0.03, 0.07, 0.1, 0.17, 0.3337, 0.49, 0.5)
        drifts = _frozen_drift(spec, [mu], grid, node_table(nodes, mu))
        for s in nodes:
            got = next(drifts)
            want = drift_field(spec, density_at(mu, [0.0, *mu.times], s), s).components
            scale = max(np.abs(c).max() for c in want)
            assert scale > 0 or s == 0.0
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
        (mu,) = phi_apply([gamma], None, None, params, steps=40)
        realize_kernel(spec, grid)  # calibrated from here on
        calls = count_transforms(monkeypatch)
        phi_apply([gamma], [mu], spec, params, steps=40)
        march_steps = len(solver._internal_grid(params.time_grid, 40)) - 1
        frozen = len(params.time_grid) + 1
        assert len(calls) == (2 * dim + 2) * march_steps + 1 + frozen * (1 + dim)
        inverses = calls.count("irfft")
        assert inverses == 2 * march_steps + frozen * dim

    def test_nemytskii_map_transforms_once_per_block(self, monkeypatch):
        # the Nemytskii drift at the marching nodes is one forward and one
        # inverse transform (the gradient) per block of nodes, not per node
        spec = NemytskiiSpec(2, "linear", (("weights", (0.1, 0.1)),), TimeModulation(0.75))
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5,
                            time_grid=(0.1, 0.25, 0.5))
        gamma = gaussian_density(GRID, 0.0, 0.09)
        (mu,) = phi_apply([gamma], None, None, params, steps=40)
        calls = count_transforms(monkeypatch)
        phi_apply([gamma], [mu], spec, params, steps=40)
        nodes = solver._internal_grid(params.time_grid, 40)
        blocks = math.ceil(len(nodes) / (solver._BLOCK_VALUES // GRID.num_points))
        assert 1 < blocks < len(nodes)
        march_steps = len(nodes) - 1
        assert len(calls) == 4 * march_steps + 1 + 2 * blocks
        assert calls.count("rfft") == 2 * march_steps + 1 + blocks

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_kernel_marches_as_no_interaction(self, dim, monkeypatch):
        # all symbols of the zero kernel vanish, so its march is the plain
        # heat flow of mu=None, transform for transform
        grid = GRID if dim == 1 else GridSpec(2, 64, 8.0)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5,
                            time_grid=(0.1, 0.25, 0.5), dim=dim)
        gamma = gaussian_density(grid, 0.0, 0.09)
        (mu,) = phi_apply([gamma], None, None, params, steps=40)
        calls = count_transforms(monkeypatch)
        (plain,) = phi_apply([gamma], None, None, params, steps=40)
        heat_only = len(calls)
        (zero,) = phi_apply([gamma], [mu], make_kernel("zero", grid), params, steps=40)
        assert len(calls) - heat_only == heat_only
        for a, b in zip(zero.densities, plain.densities):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("grid", [GRID, GridSpec(2, 64, 8.0)], ids=["1d", "2d"])
    def test_heat_march_is_heat_apply(self, grid):
        # each step multiplies by exp(-h |xi|^2 / 2); a multiplier without
        # its 1/2 marches twice the time and misses by far
        params = FlowParams(delta=1.0, k=2.0, T=0.5, time_grid=(0.1, 0.25, 0.5),
                            dim=grid.dim)
        gamma = gaussian_density(grid, 0.0, 0.09)
        (flow,) = phi_apply([gamma], None, None, params, steps=100)
        for t, rho in zip(params.time_grid, flow.densities):
            want = heat_apply(gamma, t).values
            assert np.abs(rho.values - want).max() <= 1e-12 * want.max()

    @pytest.mark.parametrize("extent", [16.0, 7.3])
    def test_output_mass_is_set_at_the_output(self, extent):
        # the march never projects the mass: it is linear in its state and
        # keeps the zero mode, and _clip_output divides by the mass, so a
        # datum of mass 1 + 5e-7 (still a density) gives the unit datum's
        # flow to rounding.  At extent 7.3 the cell volume is not a power of two
        grid = GridSpec(1, 256, extent)
        gamma = gaussian_density(grid, 0.0, 0.09)
        scaled = ScalarField(grid, gamma.values * (1 + 5e-7)).require_density()
        params = params_for()
        kern = KernelSpec(RieszOrder((0.2,), 0, 1.0), 4 * grid.spacing**2,
                          TimeModulation(kappa=0.75))
        (base,) = phi_apply([gamma], None, None, params, steps=100)
        unit, off = phi_apply([gamma, scaled], [base, base], kern, params, steps=100)
        for a, b in zip(off.densities, unit.densities):
            assert np.abs(a.values - b.values).max() <= 1e-14 * np.abs(b.values).max()
            assert abs(a.mass() - 1.0) <= 1e-12 and abs(b.mass() - 1.0) <= 1e-12

    def test_nemytskii_block_interpolation_is_per_node(self):
        # the "density" family at kappa = 0 returns the interpolated values
        # themselves; a block of nodes equals the per-node (1-w) f_j + w f_{j+1}
        # bit for bit, the knot itself at w = 0 and 1.  Swapping w and 1 - w
        # fails at every node but a midpoint
        spec = NemytskiiSpec(1, "density", (), TimeModulation(0.0))
        params = FlowParams(delta=1.0, k=2.0, T=0.5, time_grid=(0.1, 0.25, 0.5))
        mus = [phi_apply([gaussian_density(GRID, m, 0.09)], None, None, params, steps=20)[0]
               for m in (0.0, 0.4)]
        nodes = (0.0, 0.03, 0.1, 0.17, 0.25, 0.5)
        ws = [_bracket([0.0, *params.time_grid], s)[1] for s in nodes]
        assert ws[0] == ws[2] == ws[4] == 0.0 and ws[-1] == 1.0 and 0 < ws[3] != 0.5
        for s, (got,) in zip(nodes, _frozen_drift(spec, mus, GRID, node_table(nodes, mus[0]))):
            for row, mu in zip(got, mus):
                assert np.array_equal(row, density_at(mu, [0.0, *mu.times], s).values)

    def test_negative_frozen_density_rejected(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for(n=2)
        (mu,) = phi_apply([gamma], None, None, params, steps=20)
        vals = mu.densities[0].values.copy()
        vals[0] = -1e-7
        mu.densities[0] = ScalarField(GRID, vals / (vals.sum() * GRID.cell_volume))
        with pytest.raises(ValueError, match="not a density"):
            phi_apply([gamma], [mu], small_kernel(), params, steps=20)

    def test_drift_spec_checked_before_frozen_densities(self):
        params = FlowParams(delta=1.0, k=2.0, T=0.5, time_grid=(0.25, 0.5))
        (mu,) = phi_apply([gaussian_density(GRID, 0.0, 0.09)], None, None, params, steps=10)
        mu.densities[0] = ScalarField(GRID, mu.densities[0].values - 1e-3)
        with pytest.raises(TypeError, match="no drift map for function"):
            _frozen_drift(lambda rho, t: None, [mu], GRID, node_table(mu.times, mu))
        with pytest.raises(ValueError, match="not a density"):
            _frozen_drift(small_kernel(), [mu], GRID, node_table(mu.times, mu))

    def test_non_finite_state_rejected(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for(n=2)
        (mu,) = phi_apply([gamma], None, None, params, steps=20)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="march state is not finite") as err:
            phi_apply([gamma], [mu], KernelSpec(ConstantVector((1e300,))), params, steps=20)
        # finiteness is read at the outputs only: the error names one of them
        assert any(str(err.value).endswith(f"t={t:.6g}") for t in params.time_grid)

    @pytest.mark.parametrize("drift", [RieszOrder(), "riesz", 3.0,
                                       pytest.param(lambda rho, t: None, id="callable")])
    def test_unsupported_drift_rejected(self, drift):
        # a callable is not a drift spec either: drift_map is the one source
        params = FlowParams(delta=1.0, k=2.0, T=0.5, time_grid=(0.25, 0.5))
        gamma = gaussian_density(GRID, 0.0, 0.09)
        (mu,) = phi_apply([gamma], None, None, params, steps=10)
        with pytest.raises(TypeError, match="no drift map"):
            phi_apply([gamma], [mu], drift, params, steps=10)


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
        (again,) = phi_apply([gamma], [flow], kern, params, steps=400)
        gaps = dual_norm_series(again, flow, params.running_index)
        assert np.max(flow.times**(params.eta / 2) * gaps) < 2e-6

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
        weight = np.asarray(params.time_grid) ** (params.eta / 2)
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
        gamma0 = grid_delta(GRID)
        shifted = time_shift_solve(gamma0, 0.05, small_kernel(), params, steps=300)
        expect = gaussian_density(GRID, 0.0, 0.05)
        assert np.abs(shifted.initial.values - expect.values).max() < 1e-6

    @pytest.mark.parametrize("kappa", [0.0, 0.75])
    def test_matches_plain_solve(self, kappa):
        # the time shift is one heat step and the plain solve after it; at
        # kappa = 0 a march that switched the drift on at r integrated it
        # over the step ending at r, a first-order error of 7e-4 in L1
        params = params_for(kappa=kappa)
        kern = small_kernel(kappa=kappa)
        r = 0.05
        gamma0 = grid_delta(GRID)
        shifted = time_shift_solve(gamma0, r, kern, params, tol=1e-10, steps=600)
        plain, _ = picard_solve(heat_apply(gamma0, r), kern, params,
                                tol=1e-10, steps=600)
        h = GRID.spacing
        for a, b in zip(shifted.densities, plain.densities):
            assert np.abs(a.values - b.values).sum() * h < 1e-8
        # the distance keeps the weight of the whole evolution, from t = 0
        rep = shifted.meta["report"]
        weight = (r + np.asarray(params.time_grid)) ** (params.eta / 2)
        assert rep.residual == float(np.max(weight * rep.gap_series[-1]))

    def test_kernel_shift_takes_spectral_path(self, monkeypatch):
        # the physical drift of the interpolated density, node by node, is
        # the reference
        params = params_for()
        spec = small_kernel()
        gamma0 = grid_delta(GRID)
        fast = time_shift_solve(gamma0, 0.02, spec, params, steps=300)
        monkeypatch.setattr(solver, "_frozen_drift", per_node_drift)
        ref = time_shift_solve(gamma0, 0.02, spec, params, steps=300)
        assert fast.meta["report"].iterations == ref.meta["report"].iterations
        for a, b in zip([fast.initial] + fast.densities, [ref.initial] + ref.densities):
            assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()

    def test_nemytskii_shift_equals_per_node_route(self, monkeypatch):
        spec = NemytskiiSpec(2, "linear", (("weights", (0.1, 0.1)),),
                             TimeModulation(kappa=0.75))
        gamma0 = grid_delta(GRID)
        a = time_shift_solve(gamma0, 0.02, spec, params_for(), steps=200)
        monkeypatch.setattr(solver, "_frozen_drift", per_node_drift)
        b = time_shift_solve(gamma0, 0.02, spec, params_for(), steps=200)
        for x, y in zip([a.initial] + a.densities, [b.initial] + b.densities):
            assert np.array_equal(x.values, y.values)

    def test_rejects_unresolvable_shift(self):
        params = params_for()
        with pytest.raises(ValueError, match="resolvability"):
            time_shift_solve(grid_delta(GRID), 1e-7, small_kernel(), params)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_shift_threshold_is_the_heat_resolution_rule(self, side):
        # r just below (2 cells)^2 is rejected, just above it solves; heat_apply
        # flags the same r as under-resolved
        r = (_RESOLUTION_CELLS * GRID.spacing) ** 2 * (1 + side * 1e-9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            heat_apply(grid_delta(GRID), r)
        assert bool(caught) == (side < 0)
        if side < 0:
            with pytest.raises(ValueError, match="resolvability"):
                time_shift_solve(grid_delta(GRID), r, small_kernel(), params_for())
        else:
            flow = time_shift_solve(grid_delta(GRID), r, small_kernel(), params_for(n=2),
                                    max_iter=1, steps=20)
            assert len(flow.densities) == 2


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
        (mu,) = phi_apply([gaussian_density(grid, 0.0, 0.09)], None, None, params, steps=10)
        spec = NemytskiiSpec(2, "linear", (("weights", weights),))
        with pytest.raises(ValueError, match=f"need {1 + dim} weights"):
            _frozen_drift(spec, [mu], grid, node_table(mu.times, mu))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["linear", "clipped_gradient"])
    @pytest.mark.parametrize("route", ["picard", "shift"])
    def test_spec_route_equals_per_node_route(self, route, family, dim, monkeypatch):
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

        def solve():
            if route == "picard":
                flow = picard_solve(gamma, spec, params, max_iter=3, steps=40)[0]
            else:
                flow = time_shift_solve(gamma, 0.07, spec, params, max_iter=3, steps=40)
            return [flow.initial] + flow.densities

        fast = solve()
        monkeypatch.setattr(solver, "_frozen_drift", per_node_drift)
        ref = solve()
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
        (flow,) = phi_apply([gamma], None, None, params, steps=50)
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
                phi_apply([gamma], None, None, params, steps=20)
            else:
                picard_solve(gamma, KernelSpec(ConstantVector((0.4, -0.2))), params, steps=20)


class TestStackedSolve:
    """``picard_solve_many`` against one ``picard_solve`` per datum."""

    GRID = GridSpec(1, 256, 16.0)
    ENVELOPE = TimeModulation(kappa=0.75)

    # each tol sits between the two members' residuals at the smaller count
    @pytest.mark.parametrize("route, tol, age", [
        ("riesz", 1e-8, 0.0),
        ("nemytskii", 1e-12, 0.0),
        ("riesz", 7.5e-9, 0.02),
    ], ids=["riesz", "nemytskii-linear", "riesz-time-shift"])
    def test_members_equal_their_solo_solves(self, route, tol, age):
        # the time-shift case weights the distance from age, as time_shift_solve does
        grid = self.GRID
        spec = (KernelSpec(RieszOrder((0.2,), 0, 1.0), 4 * grid.spacing**2, self.ENVELOPE)
                if route == "riesz" else
                NemytskiiSpec(2, "linear", (("weights", (0.1, 0.1)),), self.ENVELOPE))
        params = params_for()
        data = [gaussian_density(grid, 0.0, var, normalize=True) for var in (0.04, 0.005)]
        solos = [picard_solve_many([g], spec, params, tol=tol, steps=100, age=age)[0]
                 for g in data]
        # the members stop at different iterations: one leaves the stack early
        assert len({rep.iterations for _, rep in solos}) == 2
        stacked = picard_solve_many(data, spec, params, tol=tol, steps=100, age=age)
        assert len(stacked) == 2
        for got, want in zip(stacked, solos):
            assert_same_solve(got, want)

    def test_clipped_gradient_member_raises_as_alone(self):
        grid = self.GRID
        spec = NemytskiiSpec(2, "clipped_gradient", (("cap", 0.2),), self.ENVELOPE)
        probe = gaussian_density(grid, 0.0, 0.04)
        with pytest.raises(NoContractionError) as alone:
            picard_solve(probe, spec, params_for(), steps=100)
        # a wide datum converges alone, and is still in the stack when the
        # probe fails
        wide = gaussian_density(grid, 0.0, 1.0)
        assert picard_solve(wide, spec, params_for(), steps=100)[1].iterations == 10
        with pytest.raises(NoContractionError) as stacked:
            picard_solve_many([wide, probe], spec, params_for(), steps=100)
        assert str(stacked.value) == str(alone.value)

    def test_one_datum_is_a_stack_of_one(self):
        # phi_apply takes and returns lists; one datum marches as the first
        # row of a larger stack does
        data = [gaussian_density(self.GRID, 0.0, var) for var in (0.04, 0.09)]
        params = params_for()
        bases = phi_apply(data, None, None, params, steps=50)
        alone = phi_apply(data[:1], bases[:1], small_kernel(), params, steps=50)
        pair = phi_apply(data, bases, small_kernel(), params, steps=50)
        assert isinstance(alone, list) and isinstance(alone[0], MeasureFlow)
        for a, b in zip(alone[0].densities, pair[0].densities):
            assert np.array_equal(a.values, b.values)

    def test_no_march_outlives_a_raising_solve(self):
        # the successor in flight when the first member raises is suspended in
        # its step generator, whose frame holds its march.  Were the march to
        # hold its generator, that cycle would outlive the solve, and
        # gc.collect() counts it as 0 freed, so what survives is counted
        spec = NemytskiiSpec(2, "clipped_gradient", (("cap", 0.2),), self.ENVELOPE)
        data = [gaussian_density(self.GRID, 0.0, 1.0), gaussian_density(self.GRID, 0.0, 0.04)]
        gc.collect()
        gc.disable()
        try:
            raised = outcome(lambda: picard_solve_many(data, spec, params_for(), steps=100))
            alive = sum(isinstance(o, solver._March) for o in gc.get_objects())
        finally:
            gc.enable()
        assert raised[0] is NoContractionError
        assert alive == 0

    def test_frozen_flows_off_the_march_knots_refused(self):
        # every member is read at the march's knots, params.time_grid.  A
        # member frozen on ten other times used to march silently on the
        # first member's times: 4.5e-3 (max abs) from its solo march at T.
        # A flow on another extent of the same shape was read as if on this
        # grid
        data = [gaussian_density(self.GRID, 0.0, var) for var in (0.04, 0.09)]
        params = params_for()
        other = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=params.T,
                           time_grid=tuple(params.T * np.linspace(0.1, 1.0, 10) ** 2))
        (m1,) = phi_apply(data[:1], None, None, params, steps=50)
        (m2,) = phi_apply(data[1:], None, None, other, steps=50)
        wide = GridSpec(1, self.GRID.points_per_dim, 2 * self.GRID.extent)
        (m3,) = phi_apply([gaussian_density(wide, 0.0, 0.09)], None, None, params, steps=50)
        for frozen in ([m1, m2], [m1, m3], [m2], [m3]):
            with pytest.raises(ValueError, match="off the densities' grid or params.time_grid"):
                phi_apply(data[:len(frozen)], frozen, small_kernel(), params, steps=50)

    def test_stack_inputs_checked(self):
        gamma = gaussian_density(self.GRID, 0.0, 0.04)
        params = params_for(n=2)
        (base,) = phi_apply([gamma], None, None, params, steps=20)
        with pytest.raises(ValueError, match="1 frozen flows for 2 initial densities"):
            phi_apply([gamma, gamma], [base], small_kernel(), params, steps=20)
        with pytest.raises(ValueError, match="share one grid"):
            phi_apply([gamma, gaussian_density(GRID, 0.0, 0.04)], None, None, params, steps=20)
        with pytest.raises(ValueError, match="at least one initial density"):
            phi_apply([], None, None, params, steps=20)


def outcome(solve):
    """What ``solve()`` returns, or the type and message of what it raises."""
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestPipelinedPicard:
    """``picard_solve_many``, whose iterates march as a pipeline, against the
    loop that marches one iterate after the other
    (``oracles.sequential_picard``): flows and reports equal bit for bit,
    errors equal in type and message.  Each test names a mutation of the
    solver that fails it."""

    GRID = GridSpec(1, 256, 16.0)
    ENVELOPE = TimeModulation(kappa=0.75)

    def riesz(self, c=0.2):
        return KernelSpec(RieszOrder((c,), 0, 1.0), 4 * self.GRID.spacing**2, self.ENVELOPE)

    def assert_as_sequential(self, monkeypatch, solve, overlap=True) -> list:
        """``solve(picard)`` equal for both routes; returns what it returned.
        With ``overlap`` a solve that returns makes fewer transform calls in
        the pipeline, else as many."""
        want = outcome(lambda: solve(sequential_picard))  # realizes the kernel too
        calls = count_transforms(monkeypatch)
        got = outcome(lambda: solve(picard_solve_many))
        if isinstance(want, tuple):
            assert got == want
            return got
        assert len(got) == len(want)
        for pair, pair0 in zip(got, want):
            assert_same_solve(pair, pair0)
        pipelined = len(calls)
        calls.clear()
        solve(sequential_picard)
        assert (pipelined < len(calls)) if overlap else (pipelined == len(calls))
        return got

    def test_members_retire_at_different_iterations(self, monkeypatch):
        # geometric times up to 0.06, where a successor lags its predecessor
        # by less than a later output interval, so it waits for knots; three
        # times, 0.010000000000000002 among them, are not their rounded
        # nodes.  At iteration 4 the first member's weighted distance is below
        # tol and its unweighted gap at 0.09 is not.  Fails when a successor
        # starts on an unweighted gap >= tol, and (IndexError) when a node is
        # taken to read the knots up to j only: knot j + 1 enters even at w = 0
        data = [gaussian_density(self.GRID, 0.0, var, normalize=True)
                for var in (0.2, 0.04, 0.005)]
        times = tuple(0.1 * np.array([0.04, 0.1, 0.3, 0.6, 0.8, 0.9, 1.0]))
        assert sum(t != round(t, 14) for t in times) == 3
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.1, time_grid=times)
        got = self.assert_as_sequential(monkeypatch, lambda picard: picard(
            data, self.riesz(), params, tol=1.5e-9, steps=100))
        assert [rep.iterations for _, rep in got] == [4, 5, 5]

    def test_time_shift(self, monkeypatch):
        # age > 0 weights the gaps from age; fails when the distance is
        # weighted from 0
        gamma0, r = grid_delta(self.GRID), 0.02

        def solve(picard):
            if picard is picard_solve_many:
                flow = time_shift_solve(gamma0, r, self.riesz(), params_for(), steps=100)
                return [(flow, flow.meta.pop("report"))]
            return picard([heat_apply(gamma0, r)], self.riesz(), params_for(), steps=100,
                          age=r)

        self.assert_as_sequential(monkeypatch, solve)

    def test_max_iter_stops_the_pipeline(self, monkeypatch):
        # no iterate past max_iter starts; fails when a successor of iterate
        # max_iter may start
        data = [gaussian_density(self.GRID, 0.0, var) for var in (0.04, 0.01)]
        got = self.assert_as_sequential(monkeypatch, lambda picard: picard(
            data, self.riesz(), params_for(), tol=1e-14, max_iter=2, steps=100))
        assert [rep.iterations for _, rep in got] == [2, 2]

    def test_nemytskii_linear(self, monkeypatch):
        # a Nemytskii block of a successor ends at the last knot written;
        # fails (IndexError) when blocks are not cut there
        spec = NemytskiiSpec(2, "linear", (("weights", (0.1, 0.1)),), self.ENVELOPE)
        data = [gaussian_density(self.GRID, 0.0, var, normalize=True) for var in (0.04, 0.005)]
        self.assert_as_sequential(monkeypatch, lambda picard: picard(
            data, spec, params_for(), tol=1e-12, steps=100))

    def test_clipped_gradient_no_contraction(self, monkeypatch):
        # the first member in index order raises, at the iteration that ended,
        # while its successor is in flight; fails when the message counts the
        # iterates started
        spec = NemytskiiSpec(2, "clipped_gradient", (("cap", 0.2),), self.ENVELOPE)
        data = [gaussian_density(self.GRID, 0.0, 1.0), gaussian_density(self.GRID, 0.0, 0.04)]
        got = self.assert_as_sequential(monkeypatch, lambda picard: picard(
            data, spec, params_for(), steps=100))
        assert got[0] is NoContractionError

    def test_two_dimensional_grid_marches_one_iterate_at_a_time(self, monkeypatch):
        # fails when iterates overlap in 2-d: the transform count drops
        grid = GridSpec(2, 64, 16.0)
        spec = KernelSpec(RieszOrder((0.2, 0.2), 0, 1.0), 0.04, self.ENVELOPE)
        params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.3,
                            time_grid=(0.1, 0.2, 0.3), dim=2)
        data = [gaussian_density(grid, [0.3, -0.2], 0.25, normalize=True),
                gaussian_density(grid, 0.0, 0.16, normalize=True)]
        got = self.assert_as_sequential(monkeypatch, lambda picard: picard(
            data, spec, params, steps=40), overlap=False)
        assert all(rep.iterations > 2 for _, rep in got)

    @pytest.mark.parametrize("poisoned", [{1: 0.45, 2: 0.1}, {2: 0.1}],
                             ids=["predecessor-fails-later", "successor-fails"])
    def test_non_finite_state_in_loop_order(self, monkeypatch, poisoned):
        # the drift of iterate k turns NaN from time poisoned[k] on.  The
        # successor fails first in time, while its predecessor still marches;
        # its error counts only once the predecessor has ended.  Fails when a
        # successor's error is raised as soon as it occurs
        real = solver._frozen_drift
        built = []

        def poisoning(drift, mu, grid, nodes):
            built.append(None)
            onset = poisoned.get(len(built), math.inf)
            return ([c * (math.nan if s >= onset else 1.0) for c in comps]
                    for s, comps in zip(list(nodes), real(drift, mu, grid, nodes)))

        monkeypatch.setattr(solver, "_frozen_drift", poisoning)
        data = [gaussian_density(self.GRID, 0.0, 0.04)]

        def solve(picard):
            built.clear()
            with np.errstate(invalid="ignore"):
                return picard(data, self.riesz(), params_for(), steps=100)

        got = self.assert_as_sequential(monkeypatch, solve)
        onset = min(poisoned.values()) if 1 not in poisoned else poisoned[1]
        assert got == (ValueError, f"march state is not finite at t={onset:.6g}")

    @pytest.mark.parametrize("poisoned", [{}, {1: 0.05}, {2: 0.1}, {1: 0.45, 2: 0.1}],
                             ids=["solve", "head-fails", "successor-fails", "both-fail"])
    def test_no_reference_cycles(self, monkeypatch, poisoned):
        # nothing of a solve, returned or raised, is left for the cycle
        # collector; the drift of iterate k turns NaN from time poisoned[k].
        # Fails when an iterate keeps a reference to its successor and back,
        # and (both-fail) when a successor's error, never raised, is kept with
        # the traceback whose frames hold its march
        real, built = solver._frozen_drift, []

        def poisoning(drift, mu, grid, nodes):
            built.append(None)
            onset = poisoned.get(len(built), math.inf)
            return ([c * (math.nan if s >= onset else 1.0) for c in comps]
                    for s, comps in zip(list(nodes), real(drift, mu, grid, nodes)))

        monkeypatch.setattr(solver, "_frozen_drift", poisoning)
        data = [gaussian_density(self.GRID, 0.0, var) for var in (0.04, 0.01)]
        gc.collect()
        gc.disable()
        try:
            with np.errstate(invalid="ignore"):
                solved = outcome(lambda: picard_solve_many(data, self.riesz(), params_for(),
                                                           steps=100))
            freed = gc.collect()
        finally:
            gc.enable()
        assert (solved[0] is ValueError) == bool(poisoned)
        assert freed == 0


class TestDriftRoutes:
    def test_order_zero_dirac_converges_to_the_density_drift(self):
        # two routes to b = t^kappa rho: the mollified Dirac kernel's symbols
        # and the unmollified Nemytskii density map.  Their distance is first
        # order in the mollification time eps, as the mollifier predicts
        grid = GridSpec(1, 512, 16.0)
        h = grid.spacing
        params = params_for()
        gamma = gaussian_density(grid, 0.0, 0.04)
        density, _ = picard_solve(gamma, NemytskiiSpec(1, "density", (), TimeModulation(0.75)),
                                  params, tol=1e-10, steps=300)
        gaps = []
        for eps in (4 * h**2, 16 * h**2):
            kern = make_kernel("dirac", grid, order=0, eps=eps, kappa=0.75)
            flow, _ = picard_solve(gamma, kern, params, tol=1e-10, steps=300)
            gaps.append(max(np.abs(a.values - b.values).sum() * h
                            for a, b in zip(flow.densities, density.densities)))
        assert gaps[0] < 1e-3
        assert 3.0 <= gaps[1] / gaps[0] <= 5.0


class TestMeasureFlow:
    def test_interpolation_endpoints(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        (flow,) = phi_apply([gamma], None, None, params, steps=100)
        knots = [0.0, *flow.times]
        assert np.array_equal(density_at(flow, knots, 0.0).values, gamma.values)
        assert np.array_equal(density_at(flow, knots, 99.0).values, flow.densities[-1].values)

    def test_bracket_exact_at_knots_and_clamped(self):
        # the frozen drift interpolates between the fields _bracket names:
        # the initial datum, then each density
        params = FlowParams(delta=1.0, k=2.0, T=0.5, time_grid=(0.1, 0.25, 0.5))
        (flow,) = phi_apply([gaussian_density(GRID, 0.0, 0.04)], None, None, params, steps=20)
        knots = [0.0, *flow.times.tolist()]
        assert _bracket(knots, -1.0) == (0, 0.0)
        assert _bracket(knots, 0.0) == (0, 0.0)
        assert _bracket(knots, 0.1) == (1, 0.0)
        assert _bracket(knots, 0.375) == (2, 0.5)
        assert _bracket(knots, 0.5) == (2, 1.0)
        assert _bracket(knots, 99.0) == (2, 1.0)

    def test_l1_increments_modulus(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        params = params_for()
        (flow,) = phi_apply([gamma], None, None, params, steps=100)
        vals = np.array([rho.values for rho in flow.densities])
        inc = np.abs(np.diff(vals, axis=0)).sum(axis=1) * GRID.cell_volume
        assert np.all(inc < 0.5)

    def test_rejects_bad_mass(self):
        gamma = gaussian_density(GRID, 0.0, 0.04)
        bad = ScalarField(GRID, gamma.values * 1.5)
        with pytest.raises(ValueError, match="mass"):
            MeasureFlow(np.array([0.5]), [bad], gamma)

    @pytest.mark.parametrize("times", [(0.5, 0.1), (0.0, 0.5), (0.25, 0.25), (-0.1, 0.5)],
                             ids=["decreasing", "zero", "repeated", "negative"])
    def test_rejects_times_not_positive_and_increasing(self, times):
        # the knots of a flow are 0 and then its times, strictly increasing;
        # such a flow used to be accepted, and frozen it marched with no error
        gamma = gaussian_density(GRID, 0.0, 0.04)
        with pytest.raises(ValueError, match="times must be positive and increasing"):
            MeasureFlow(np.array(times), [gamma, gamma], gamma)

    def test_rejects_densities_off_the_initial_grid(self):
        # same shape, another extent: the values used to be accepted as if
        # they lay on the initial datum's grid
        gamma = gaussian_density(GRID, 0.0, 0.04)
        other = gaussian_density(GridSpec(1, GRID.points_per_dim, 2 * GRID.extent), 0.0, 0.04)
        with pytest.raises(ValueError, match="off its initial datum's grid"):
            MeasureFlow(np.array([0.5]), [other], gamma)


class TestExactOracles:
    """Checks whose expected values are known exactly, with no recorded reference.

    Parabolic scaling: if rho solves d_t rho = 1/2 Lap rho - div(rho b) with
    b = c t^kappa K * rho, K(x) = x |x|^(-d-s) and s = 2 n0 + eps0, then
    u(t, y) = lam^d rho(lam^2 t, lam y) solves the same equation with
    amplitude c lam^(2+2kappa-d-s), on the torus of extent L/lam, with
    mollification eps/lam^2 and data variance var/lam^2.  With the same
    number of points the grid points map to grid points, and for lam a power
    of two every rescaling is exact in floating point, so the two solves
    agree to round-off: 2e-15 in L1 at n = 256.  Translations by whole cells
    and, for an odd kernel, the reflection x -> -x map solutions to solutions
    as exactly.  Each test names a mutation of the package that fails it.
    """

    N, L, T, VAR = 256, 16.0, 0.5, 0.04

    @classmethod
    def problem(cls, lam=1.0, kappa=0.75):
        grid = GridSpec(1, cls.N, cls.L / lam)
        params = FlowParams(delta=1.0, k=2.0, kappa=kappa, T=cls.T / lam**2,
                            time_grid=tuple(np.linspace(cls.T / 10, cls.T, 10) / lam**2))
        return grid, params

    @classmethod
    def riesz(cls, grid, lam=1.0, c=0.2, eps0=1.0, kappa=0.75):
        c_lam = c * lam ** (2 + 2 * kappa - grid.dim - eps0)
        return KernelSpec(RieszOrder((c_lam,), 0, eps0), 4.0 * grid.spacing**2,
                          TimeModulation(kappa))

    @classmethod
    def gap(cls, flow, scaled, lam=1.0) -> float:
        """Sup over times of the L1 distance between ``flow`` and ``scaled``
        mapped back to the unscaled torus."""
        cell = cls.L / cls.N
        return max(float(np.abs(b.values / lam - a.values).sum()) * cell
                   for a, b in zip(flow.densities, scaled.densities, strict=True))

    @pytest.mark.parametrize("lam", [2.0, 0.5])
    @pytest.mark.parametrize("c, eps0, kappa", [(0.2, 1.0, 0.75), (0.2, 0.5, 0.75),
                                                (0.05, 1.5, 1.25)])
    def test_riesz_solve_is_scale_covariant(self, lam, c, eps0, kappa):
        # fails if TimeModulation.factor returns (t + 1e-4)**kappa: a time
        # offset that does not rescale opens a gap near 1e-5
        flows = []
        for scale in (1.0, lam):
            grid, params = self.problem(scale, kappa)
            flow, rep = picard_solve(gaussian_density(grid, 0.0, self.VAR / scale**2),
                                     self.riesz(grid, scale, c, eps0, kappa), params,
                                     tol=1e-13, steps=100)
            assert rep.residual < 1e-13
            flows.append(flow)
        assert self.gap(*flows, lam) < 1e-13

    @pytest.mark.parametrize("lam", [2.0, 0.5])
    def test_stacked_solve_is_scale_covariant(self, lam):
        # two data with different means and variances march as one stack;
        # fails under the same (t + 1e-4)**kappa envelope
        solves = []
        for scale in (1.0, lam):
            grid, params = self.problem(scale)
            data = [gaussian_density(grid, mean / scale, var / scale**2)
                    for mean, var in [(0.0, self.VAR), (0.5, 0.09)]]
            solves.append(picard_solve_many(data, self.riesz(grid, scale), params,
                                            tol=1e-13, steps=100))
        for (flow, _), (scaled, _) in zip(*solves, strict=True):
            assert self.gap(flow, scaled, lam) < 1e-13

    @pytest.mark.parametrize("lam", [2.0, 0.5])
    def test_nemytskii_solve_is_scale_covariant(self, lam):
        # b = t^kappa (a_0 rho + a_1 d rho) rescales with a_j lam^(1+2kappa-d-j);
        # both weight sets have norm below 1, so the linear family uses them
        # as given.  Fails if the family divides its weights by their norm
        flows = []
        for scale in (1.0, lam):
            grid, params = self.problem(scale)
            weights = tuple(0.1 * scale ** (1 + 2 * 0.75 - 1 - j) for j in range(2))
            spec = NemytskiiSpec(2, "linear", (("weights", weights),), TimeModulation(0.75))
            flows.append(picard_solve(gaussian_density(grid, 0.0, self.VAR / scale**2),
                                      spec, params, tol=1e-13, steps=100)[0])
        assert self.gap(*flows, lam) < 1e-13

    @pytest.mark.parametrize("cells", [128, -120])
    def test_translation_by_whole_cells(self, cells):
        # the shift carries the datum's bulk across the ends of the array;
        # fails if the Nemytskii derivative stack is taken by np.gradient,
        # whose one-sided differences at the ends are not periodic
        grid, params = self.problem()
        gamma = gaussian_density(grid, 0.0, 0.25)
        spec = NemytskiiSpec(2, "linear", (("weights", (0.1, 0.1)),), TimeModulation(0.75))
        flow = picard_solve(gamma, spec, params, tol=1e-13, steps=100)[0]
        moved = picard_solve(ScalarField(grid, np.roll(gamma.values, cells)), spec, params,
                             tol=1e-13, steps=100)[0]
        assert max(float(np.abs(np.roll(a.values, cells) - b.values).sum()) * grid.spacing
                   for a, b in zip(flow.densities, moved.densities)) < 1e-13

    def test_reflection_parity_of_an_odd_kernel(self):
        # x -> -x takes grid index i to n - i; with an odd kernel the solve
        # from the reflected datum is the reflected solve.  Fails if the
        # kernel's symbols are rooted one cell off zero displacement
        # (multiplied by exp(-i xi h))
        grid, params = self.problem()
        lopsided = ScalarField(grid, 0.7 * gaussian_density(grid, -0.5, 0.04).values
                               + 0.3 * gaussian_density(grid, 0.8, 0.09).values)

        def reflect(values):
            return np.roll(values[::-1], 1)

        kernel = self.riesz(grid)
        flow = picard_solve(lopsided, kernel, params, tol=1e-13, steps=100)[0]
        mirrored = picard_solve(ScalarField(grid, reflect(lopsided.values)), kernel, params,
                                tol=1e-13, steps=100)[0]
        assert max(float(np.abs(reflect(a.values) - b.values).sum()) * grid.spacing
                   for a, b in zip(flow.densities, mirrored.densities)) < 1e-13


class TestBurgersOracle:
    """The solver against an exact nonlinear solution.

    The Nemytskii ``linear`` drift of depth 1 with no envelope, b = a0 rho,
    makes the equation viscous Burgers, solved exactly by the Cole-Hopf
    transform (``oracles.burgers_density``).  On extent 16 at n = 512 the
    tails are negligible.  With the frozen flow interpolated linearly
    between output times, the error is set by the knot spacing: the same to
    1% at 75 and 600 steps, and about 3.4 times smaller per halving of the
    spacing (3.339e-3 at 10 knots, 9.91e-4 at 20, both at 75 steps).
    Mutation, checked: with w -> 0 in ``solver._bracket``, a piecewise
    constant frozen flow, the error at 10 knots reads 2.4e-2 and the ratio
    2.45, so the first two tests fail.
    """

    GRID = GridSpec(1, 512, 16.0)
    A0, VAR, T = 0.5, 0.04, 0.5
    SPEC = NemytskiiSpec(1, "linear", (("weights", (A0,)),), TimeModulation(0.0))

    def params(self, knots: int) -> FlowParams:
        return FlowParams(delta=1.0, k=2.0, kappa=0.0, T=self.T,
                          time_grid=tuple(np.linspace(self.T / knots, self.T, knots)))

    def error(self, flow, var: float, shift: float = 0.0) -> float:
        """Largest L1 distance over the outputs of ``flow`` to the exact flow
        from variance ``var``, at ``shift`` plus each output time."""
        return max(float(np.abs(rho.values - burgers_density(
                       self.GRID, self.A0, var, shift + t).values).sum()) * self.GRID.spacing
                   for t, rho in zip(flow.times, flow.densities))

    def solve_error(self, knots: int, steps: int) -> float:
        gamma = burgers_density(self.GRID, self.A0, self.VAR, 0.0)
        flow, report = picard_solve(gamma, self.SPEC, self.params(knots), tol=1e-13,
                                    steps=steps)
        assert report.residual < 1e-13
        return self.error(flow, self.VAR)

    def test_error_is_the_knot_spacing_not_the_steps(self):
        coarse, fine = self.solve_error(10, 75), self.solve_error(10, 600)
        assert max(coarse, fine) < 4e-3
        assert abs(coarse - fine) <= 0.01 * fine

    def test_error_falls_with_the_knot_spacing(self):
        # 10 -> 20 knots, not 5 -> 10: at 5 knots the ratio reads 2.55
        ratio = self.solve_error(10, 75) / self.solve_error(20, 75)
        assert 3.0 <= ratio <= 5.0

    def test_time_shift_error_falls_with_the_shift(self):
        # from the grid Dirac through the time shift: against the exact flow
        # from the Dirac mass at r + t, 0.153, 0.118 and 0.084 at r = 0.04,
        # 0.02 and 0.01
        errors = [self.error(time_shift_solve(grid_delta(self.GRID), r, self.SPEC,
                                              self.params(10), tol=1e-12, steps=300), 0.0, r)
                  for r in (0.04, 0.02, 0.01)]
        assert errors[0] > errors[1] > errors[2]
