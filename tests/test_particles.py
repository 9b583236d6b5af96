import dataclasses
import math

import numpy as np
import pytest

from mkvflow import metrics, particles
from mkvflow.grids import GridSpec, ScalarField, gaussian_density
from mkvflow.kernels import ConstantVector, KernelSpec, RieszOrder, TimeModulation
from mkvflow.metrics import GaussianSpec, wasserstein_1d_empirical_many
from mkvflow.particles import (
    ParticleEnsemble,
    SimConfig,
    _Workspace,
    _bin_positions,
    _empirical_drift,
    _simulate,
    _step_noise,
    chaos_convergence_study,
    empirical_density,
    simulate_particles,
)
from mkvflow.solver import FlowParams, MeasureFlow, picard_solve
from oracles import pairwise_drift, periodic_interp

GRID = GridSpec(1, 1024, 16.0)
POINT = GaussianSpec((0.0,), 1e-12)


def brownian_cfg(seed=42, dt=0.05, T=1.0):
    return SimConfig(grid=GRID, dt=dt, T=T, seed=seed, kernel=None,
                     initial=POINT, checkpoints=(T,))


class TestSimConfig:
    def test_T_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError):
            SimConfig(grid=GRID, dt=0.3, T=1.0, seed=0)

    def test_dt_capped_by_mollification(self):
        kern = KernelSpec(RieszOrder((1.0,), 0, 1.0), 0.001)
        with pytest.raises(ValueError, match="stability"):
            SimConfig(grid=GRID, dt=0.01, T=1.0, seed=0, kernel=kern)

    @pytest.mark.parametrize("dt, T", [(math.inf, 1.0), (0.1, math.inf), (math.nan, 1.0)])
    def test_step_and_horizon_must_be_finite(self, dt, T):
        # dt = inf used to pass with zero steps; T = inf raised OverflowError
        name = "T" if dt == 0.1 else "dt"
        with pytest.raises(ValueError, match=rf"^{name} must be a number in \(0, inf\), got "):
            SimConfig(grid=GRID, dt=dt, T=T, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # a negative seed used to pass here and fail in Philox at run time
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            SimConfig(grid=GRID, dt=0.1, T=0.5, seed=seed)

    @pytest.mark.parametrize("t", [0.7, -0.1, 0.25])
    def test_checkpoints_are_step_times_within_T(self, t):
        # beyond T a run used to return no snapshot; off the step grid it
        # raised only when run
        with pytest.raises(ValueError, match="checkpoint"):
            SimConfig(grid=GRID, dt=0.1, T=0.5, seed=0, checkpoints=(t,))

    @pytest.mark.parametrize("grid, mean", [(GRID, (0.0, 0.0)), (GridSpec(2, 64, 8.0), (0.0,))],
                             ids=["2-mean-1d-grid", "1-mean-2d-grid"])
    def test_initial_mean_has_one_entry_per_coordinate(self, grid, mean):
        # two entries on a 1-d grid ended in "output array does not match result
        # of ndarray.take"; one entry on a 2-d grid was broadcast to both axes
        with pytest.raises(ValueError, match="initial mean"):
            SimConfig(grid=grid, dt=0.1, T=0.5, seed=0, initial=GaussianSpec(mean, 0.04))

    def test_initial_must_be_a_gaussian_or_none(self):
        with pytest.raises(ValueError, match="initial must be a GaussianSpec or None"):
            SimConfig(grid=GRID, dt=0.1, T=0.5, seed=0, initial=0.04)


class TestSimulate:
    def test_brownian_variance_growth(self):
        snaps = simulate_particles(brownian_cfg(), 10_000)
        assert snaps[-1].positions.var() == pytest.approx(1.0, abs=0.05)

    def test_determinism_bitwise(self):
        a = simulate_particles(brownian_cfg(), 500)
        b = simulate_particles(brownian_cfg(), 500)
        assert np.array_equal(a[-1].positions, b[-1].positions)

    def test_paths_independent_of_ensemble_size(self):
        big = simulate_particles(brownian_cfg(), 400)
        small = simulate_particles(brownian_cfg(), 40)
        assert np.array_equal(big[-1].positions[:40], small[-1].positions)

    def test_constant_drift_mean(self):
        cfg = SimConfig(grid=GRID, dt=0.01, T=1.0, seed=7,
                        kernel=KernelSpec(ConstantVector((0.5,)), 1.0),
                        initial=POINT, checkpoints=(1.0,))
        sn = simulate_particles(cfg, 1000)
        se = 3.0 / math.sqrt(1000)
        assert abs(sn[-1].positions.mean() - 0.5) < se

    def test_pairwise_matches_binned(self, monkeypatch):
        eps = 16 * GRID.spacing**2
        kern = KernelSpec(RieszOrder((0.2,), 0, 1.0), eps)
        cfg = SimConfig(grid=GRID, dt=2e-3, T=0.01, seed=3, kernel=kern,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.01,))
        sb = simulate_particles(cfg, 1000)
        monkeypatch.setattr(particles, "_empirical_drift", pairwise_drift)
        sp = simulate_particles(cfg, 1000)
        gap = np.abs(sp[-1].positions - sb[-1].positions).max()
        assert gap < 1e-3

    def test_exchangeability(self):
        # the noise of row i is the same whatever particle sits there, so
        # permuted runs are not compared; the drift is: it depends on the
        # empirical measure only, so relabeling the particles permutes it
        eps = 16 * GRID.spacing**2
        kern = KernelSpec(RieszOrder((0.2,), 0, 1.0), eps)
        cfg = SimConfig(grid=GRID, dt=2e-3, T=0.02, seed=5, kernel=kern,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.02,))
        base = simulate_particles(cfg, 64)
        pos = base[-1].positions
        perm = np.random.default_rng(0).permutation(pos.shape[0])
        work = _Workspace(GRID, np.zeros(len(pos), dtype=int), kern)  # a single ensemble
        d1 = _empirical_drift(cfg, pos, 0.01, work).copy()
        d2 = _empirical_drift(cfg, pos[perm], 0.01, work)
        assert np.allclose(d1[perm], d2, atol=1e-12)

    def test_brownian_law_across_seeds(self):
        # terminal mean/variance against theory within 4 standard errors,
        # over 20 seeds
        N, T = 2000, 1.0
        for seed in range(20):
            cfg = SimConfig(grid=GRID, dt=0.05, T=T, seed=seed, kernel=None,
                            initial=POINT, checkpoints=(T,))
            xs = simulate_particles(cfg, N)[-1].positions[:, 0]
            se_mean = math.sqrt(T / N)
            se_var = T * math.sqrt(2.0 / (N - 1))
            assert abs(xs.mean()) < 4 * se_mean
            assert abs(xs.var(ddof=1) - T) < 4 * se_var

    def test_batch_wraps_each_ensemble_alone(self):
        # the larger ensemble leaves the core first; wrapping the smaller one
        # with it would round its positions away from its own run.  At seed 3
        # the 2-particle ensemble stays in the core up to t = 20, while the
        # 50-particle one has wrapped three times by t = 10
        cfg = SimConfig(grid=GRID, dt=0.5, T=20.0, seed=3, kernel=None,
                        initial=POINT, checkpoints=(10.0, 20.0))
        batch = _simulate(cfg, [cfg.seed], [2, 50])[0]
        for N, snaps in zip([2, 50], batch):
            for got, want in zip(snaps, simulate_particles(cfg, N), strict=True):
                assert np.array_equal(got.positions, want.positions)
                assert got.time == want.time

    def test_wrap_counter(self):
        cfg = SimConfig(grid=GRID, dt=0.5, T=40.0, seed=1, kernel=None,
                        initial=POINT, checkpoints=(40.0,))
        snaps = simulate_particles(cfg, 50)
        assert np.all(np.abs(snaps[-1].positions) <= GRID.extent / 2)

    @pytest.mark.parametrize("grid", [GRID, GridSpec(2, 16, 4.0)], ids=["1d", "2d"])
    def test_wrap_leaves_the_coordinates_inside_untouched(self, grid):
        # a free run adds sqrt(dt) times step m's draw to each coordinate; one
        # that stays inside the torus keeps that sum bit for bit, one that
        # leaves comes back by a whole extent.  Re-wrapping every coordinate
        # of an ensemble that has a particle outside rounded the ones inside
        cfg = SimConfig(grid=grid, dt=0.5, T=20.0, seed=1, kernel=None,
                        checkpoints=tuple(0.5 * m for m in range(41)))
        snaps = simulate_particles(cfg, 50)
        half_L, wrapped = 0.5 * grid.extent, 0
        for m, (now, nxt) in enumerate(zip(snaps, snaps[1:])):
            want = now.positions + math.sqrt(cfg.dt) * TestStreamContract.oracle(
                cfg.seed, m, 50, grid.dim)
            inside = np.abs(want) <= half_L
            wrapped += int((~inside).sum())
            assert np.array_equal(nxt.positions[inside], want[inside])
            assert np.allclose(nxt.positions[~inside],
                               (want[~inside] + half_L) % grid.extent - half_L, atol=1e-12)
        assert wrapped > 0


class TestStreamContract:
    @staticmethod
    def oracle(seed, step, N, dim):
        return np.random.Generator(np.random.Philox(
            key=[np.uint64(seed), np.uint64(step)])).standard_normal((N, dim))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 7])
    def test_increments_match_per_step_generators(self, seed, dim):
        # one generator re-keyed per (seed, step), steps in any order
        rng = np.random.Generator(np.random.Philox(0))
        for step in (0, 8, 3, 2**40):
            got = np.empty((37, dim))
            _step_noise(rng, seed, step, got)
            assert np.array_equal(got, self.oracle(seed, step, 37, dim))
            # the draw of N particles is a prefix of the draw of more
            assert np.array_equal(got, self.oracle(seed, step, 4000, dim)[:37])

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 7])
    def test_free_run_sums_the_step_draws(self, seed, dim):
        # with no drift and a zero start, step m adds sqrt(dt) times the draw
        # keyed [seed, m]; the sum is in step order, so the match is exact
        grid = GRID if dim == 1 else GridSpec(2, 64, 64.0)
        cfg = SimConfig(grid=grid, dt=0.01, T=0.09, seed=seed, checkpoints=(0.09,))
        want = np.zeros((37, dim))
        for m in range(cfg.steps):
            want = want + math.sqrt(cfg.dt) * self.oracle(seed, m, 37, dim)
        got = simulate_particles(cfg, 37)[-1]
        assert np.array_equal(got.positions, want)

    def test_batch_of_seeds_equals_solo_runs_2d(self):
        # 2-d, interacting: each (seed, count) ensemble of a multi-seed batch
        # is its own solo run, bit for bit
        grid = GridSpec(2, 64, 16.0)
        kern = KernelSpec(RieszOrder((0.2, 0.2), 0, 1.0), 0.04)
        cfg = SimConfig(grid=grid, dt=0.01, T=0.05, seed=0, kernel=kern,
                        initial=GaussianSpec((0.3, -0.2), 0.09), checkpoints=(0.02, 0.05))
        assert kern.modulation.factor(0.02) != 0  # the binned drift acts
        seeds, counts = [5, 1005, 2**40 + 7], [30, 200]
        batch = _simulate(cfg, seeds, counts)
        for seed, row in zip(seeds, batch, strict=True):
            for N, snaps in zip(counts, row, strict=True):
                solo = simulate_particles(dataclasses.replace(cfg, seed=seed), N)
                for got, want in zip(snaps, solo, strict=True):
                    assert np.array_equal(got.positions, want.positions)
                    assert got.time == want.time


class TestBinPositions:
    @staticmethod
    def add_at_oracle(positions, grid):
        n, L, h = grid.points_per_dim, grid.extent, grid.spacing
        idx = np.floor((positions + 0.5 * L) / h + 0.5).astype(int) % n
        vals = np.zeros(grid.shape)
        np.add.at(vals, tuple(idx.T), 1.0)
        return vals / (positions.shape[0] * grid.cell_volume)

    @pytest.mark.parametrize("grid", [GridSpec(1, 32, 4.0), GridSpec(2, 16, 4.0)],
                             ids=["1d", "2d"])
    def test_matches_add_at(self, grid):
        L, h = grid.extent, grid.spacing
        rng = np.random.default_rng(8)
        edges = np.array([-L / 2, L / 2, -L / 2 + h / 2, L / 2 - h / 2, h / 2, -h / 2,
                          0.0, L / 2 - h / 4])
        pts = [rng.uniform(-L / 2, L / 2, size=(200, grid.dim)),
               np.repeat(edges[:, None], grid.dim, axis=1)]
        if grid.dim == 2:
            a, b = np.meshgrid(edges, edges, indexing="ij")
            pts.append(np.column_stack([a.ravel(), b.ravel()]))
        positions = np.concatenate(pts)
        hist = _bin_positions(positions, grid)
        want = self.add_at_oracle(positions, grid)
        assert np.array_equal(hist.values, want)
        # +L/2 and the last half cell wrap to index 0
        top = _bin_positions(np.full((2, grid.dim), L / 2 - h / 4), grid)
        assert top.values[(0,) * grid.dim] == pytest.approx(1.0 / grid.cell_volume)


class TestWorkspace:
    @pytest.mark.parametrize("grid", [GridSpec(1, 32, 4.0), GridSpec(2, 16, 4.0)],
                             ids=["1d", "2d"])
    def test_interpolation_matches_oracle(self, grid):
        # two ensembles, each reading its own field; core edges included
        rng = np.random.default_rng(3)
        L, h = grid.extent, grid.spacing
        positions = np.concatenate([rng.uniform(-L / 2, L / 2, size=(300, grid.dim)),
                                    np.full((2, grid.dim), L / 2 - h / 4),
                                    np.full((2, grid.dim), -L / 2)])
        ens = np.repeat([0, 1], [150, 154])
        fields = rng.standard_normal((2,) + grid.shape)
        work = _Workspace(grid, ens)
        work.locate(positions)
        work.corners()
        got = np.empty(len(positions))
        work.interpolate(fields, got)
        s = (positions + 0.5 * L) / h
        for e in (0, 1):
            want = periodic_interp(fields[e], grid, s[ens == e])
            assert np.allclose(got[ens == e], want, rtol=0, atol=1e-13)


class TestEmpiricalDensity:
    def test_point_pair_is_gaussian(self):
        ens = ParticleEnsemble(np.zeros((2, 1)), 0.0)
        kde = empirical_density(ens, GRID, 0.25)
        expect = gaussian_density(GRID, 0.0, 0.25**2)
        assert np.abs(kde.values - expect.values).max() < 1e-12

    def test_mass_exactly_one(self):
        rng = np.random.default_rng(4)
        ens = ParticleEnsemble(rng.normal(size=(500, 1)), 0.0)
        kde = empirical_density(ens, GRID, 0.1)
        assert kde.mass() == pytest.approx(1.0, abs=1e-14)

    def test_large_sample_recovers_law(self):
        snaps = simulate_particles(brownian_cfg(dt=0.1), 100_000)
        kde = empirical_density(snaps[-1], GRID, 0.08)
        target = gaussian_density(GRID, 0.0, 1.0)
        l1 = np.abs(kde.values - target.values).sum() * GRID.cell_volume
        assert l1 < 0.02

    def test_bandwidth_floor(self):
        ens = ParticleEnsemble(np.zeros((2, 1)), 0.0)
        with pytest.raises(ValueError):
            empirical_density(ens, GRID, GRID.spacing / 2)

    @pytest.mark.parametrize("dim, grid", [(1, GridSpec(2, 32, 8.0)), (2, GRID)],
                             ids=["1d-on-2d", "2d-on-1d"])
    def test_ensemble_dimension_must_match_the_grid(self, dim, grid):
        # 1-d particles on a 2-d grid gave a unit-mass density along the
        # diagonal; 2-d particles on a 1-d grid a numpy broadcast error
        ens = ParticleEnsemble(np.random.default_rng(0).normal(size=(500, dim)), 0.0)
        with pytest.raises(ValueError, match=f"{dim}-d ensemble .* {grid.dim}-d grid"):
            empirical_density(ens, grid, 0.5)


@pytest.fixture(scope="module")
def heat_flow():
    tg = (0.25, 0.5)
    params = FlowParams(delta=1.0, k=2.0, kappa=0.75, T=0.5, time_grid=tg)
    gamma = gaussian_density(GRID, 0.0, 0.04)
    flow, _ = picard_solve(gamma, KernelSpec(ConstantVector((0.0,))),
                           params, steps=200)
    return flow


class TestChaosStudy:

    def test_zero_kernel_mc_rate(self, heat_flow):
        cfg = SimConfig(grid=GRID, dt=0.0125, T=0.5, seed=11, kernel=None,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.5,))
        study = chaos_convergence_study(cfg, [250, 1000, 4000], heat_flow,
                                        repeats=10)
        Ns = sorted(study["summary"])
        means = [study["summary"][N][0] for N in Ns]
        slope = np.polyfit(np.log(Ns), np.log(means), 1)[0]
        assert abs(slope - (-0.5)) < 0.15
        assert not study["failures"]

    def test_flow_on_another_grid_is_rejected(self, heat_flow):
        cfg = SimConfig(grid=GridSpec(1, 1024, 8.0), dt=0.025, T=0.5, seed=11, kernel=None,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.5,))
        with pytest.raises(ValueError, match="flow lives on"):
            chaos_convergence_study(cfg, [250], heat_flow, repeats=1)

    @pytest.mark.parametrize("N_list, repeats, message", [
        ([250, 500], 0, "repeats must be a positive int"),
        ([250, 500], 2.0, "repeats must be a positive int"),
        ([250, 250], 2, "N_list must be a list of distinct ints >= 2"),
        ([1, 250], 2, "N_list must be a list of distinct ints >= 2"),
        ([250.0], 2, "N_list must be a list of distinct ints >= 2"),
        ([], 2, "N_list must be a list of distinct ints >= 2"),
    ])
    def test_bad_sizes_are_rejected_at_entry(self, heat_flow, monkeypatch,
                                             N_list, repeats, message):
        monkeypatch.setattr(particles, "_simulate", None)  # must not be reached
        cfg = SimConfig(grid=GRID, dt=0.025, T=0.5, seed=11, kernel=None,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.5,))
        with pytest.raises(ValueError, match=message):
            chaos_convergence_study(cfg, N_list, heat_flow, repeats=repeats)

    def test_deterministic_table(self, heat_flow):
        cfg = SimConfig(grid=GRID, dt=0.025, T=0.5, seed=11, kernel=None,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.5,))
        a = chaos_convergence_study(cfg, [250, 500], heat_flow, repeats=3)
        b = chaos_convergence_study(cfg, [250, 500], heat_flow, repeats=3)
        assert a["rows"] == b["rows"]

    @pytest.mark.parametrize("N_list, repeats", [([50, 200], 1), ([50, 200, 400], 3)])
    def test_one_quantile_table_per_checkpoint(self, heat_flow, monkeypatch, N_list, repeats):
        # every (N, seed) run built its own table of the same target: 60 per
        # study of three counts, ten repeats and two checkpoints
        built = []
        quantiles = metrics._density_quantiles

        def counted(rho, u):
            built.append(rho)
            return quantiles(rho, u)

        monkeypatch.setattr(metrics, "_density_quantiles", counted)
        cfg = SimConfig(grid=GRID, dt=0.025, T=0.5, seed=11, kernel=None,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.25, 0.5))
        study = chaos_convergence_study(cfg, N_list, heat_flow, repeats=repeats)
        assert len(study["rows"]) == 2 * len(N_list) * repeats
        assert [id(rho) for rho in built] == [id(rho) for rho in heat_flow.densities]

    def test_target_that_is_not_a_density_is_refused_at_entry(self, heat_flow, monkeypatch):
        # every run used to fail alone, each with the same diagnostic
        monkeypatch.setattr(particles, "_simulate", None)  # must not be reached
        dipped = heat_flow.densities[1].values.copy()
        dipped[0] -= 0.01
        dipped[1] += 0.01
        flow = MeasureFlow(heat_flow.times, [heat_flow.densities[0], ScalarField(GRID, dipped)],
                           heat_flow.initial)
        cfg = SimConfig(grid=GRID, dt=0.025, T=0.5, seed=11, kernel=None,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.5,))
        with pytest.raises(ValueError, match="not a density"):
            chaos_convergence_study(cfg, [50], flow, repeats=2)

    @staticmethod
    def riesz_cfg():
        eps = 16 * GRID.spacing**2
        kern = KernelSpec(RieszOrder((0.2,), 0, 1.0), eps)
        assert kern.modulation.factor(0.25) != 0  # the binned drift acts
        return SimConfig(grid=GRID, dt=2.5e-3, T=0.5, seed=5, kernel=kern,
                         initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.25, 0.5))

    def test_batched_rows_equal_solo_runs(self, heat_flow):
        cfg = self.riesz_cfg()
        study = chaos_convergence_study(cfg, [50, 200], heat_flow, repeats=2)
        want = []
        for N in (50, 200):
            for rep in range(2):
                run_cfg = dataclasses.replace(cfg, seed=cfg.seed + 1000 * rep)
                for ens in simulate_particles(run_cfg, N):
                    target = heat_flow.densities[list(heat_flow.times).index(ens.time)]
                    w1 = wasserstein_1d_empirical_many([ens.positions[:, 0]], target, 1.0)[0]
                    kde = empirical_density(ens, GRID, 4 * GRID.spacing)
                    l1 = float(np.abs(kde.values - target.values).sum()) * GRID.cell_volume
                    want.append((N, run_cfg.seed, ens.time, w1, l1))
        assert study["rows"] == want
        assert not study["failures"]

    def test_failure_in_a_batch_stays_with_its_run(self, heat_flow, monkeypatch):
        cfg = self.riesz_cfg()
        clean = chaos_convergence_study(cfg, [50, 200], heat_flow, repeats=2)
        draw = particles._step_noise

        def poisoned(rng, seed, step, out):
            draw(rng, seed, step, out)
            if seed == cfg.seed + 1000 and step == 5 and len(out) > 100:
                out[100] = np.nan  # particle 100 runs only in N=200, second seed

        monkeypatch.setattr(particles, "_step_noise", poisoned)
        study = chaos_convergence_study(cfg, [50, 200], heat_flow, repeats=2)
        assert [args for args, _ in study["failures"]] == [(200, 1)]
        assert "non-finite position at step 6" in study["failures"][0][1]
        assert study["rows"] == [r for r in clean["rows"]
                                 if (r[0], r[1]) != (200, cfg.seed + 1000)]

    def test_sd_shrinks_with_repeats(self, heat_flow):
        # repeated studies: the spread of the mean across study replicas
        # shrinks roughly like 1/sqrt(repeats)
        cfg = SimConfig(grid=GRID, dt=0.025, T=0.5, seed=100, kernel=None,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.5,))
        means_r2, means_r8 = [], []
        for block in range(6):
            cfg_b = SimConfig(grid=GRID, dt=0.025, T=0.5, seed=100 + 50 * block,
                              kernel=None, initial=GaussianSpec((0.0,), 0.04),
                              checkpoints=(0.5,))
            s2 = chaos_convergence_study(cfg_b, [500], heat_flow, repeats=2)
            s8 = chaos_convergence_study(cfg_b, [500], heat_flow, repeats=8)
            means_r2.append(s2["summary"][500][0])
            means_r8.append(s8["summary"][500][0])
        assert np.std(means_r8) < np.std(means_r2)


class TestExactOracles:
    """Particle paths whose expected values are known exactly.

    Parabolic scaling (see ``test_solver.TestExactOracles``): the system on
    the torus of extent L/lam with step dt/lam^2, Riesz amplitude
    c lam^(2+2kappa-d-s), mollification eps/lam^2 and initial variance
    var/lam^2, driven by the same draws, moves every particle to its unscaled
    position divided by lam.  For lam a power of two the rescaling is exact in
    floating point: the largest gap is 4e-16.  A translation by whole cells
    moves every path by as many cells.
    """

    N, L, VAR = 256, 16.0, 0.04

    @classmethod
    def cfg(cls, lam=1.0, mean=0.0, c=0.2, eps0=1.0, kappa=0.75):
        grid = GridSpec(1, cls.N, cls.L / lam)
        kern = KernelSpec(RieszOrder((c * lam ** (2 + 2 * kappa - 1 - eps0),), 0, eps0),
                          4.0 * grid.spacing**2, TimeModulation(kappa))
        return SimConfig(grid=grid, dt=0.01 / lam**2, T=0.5 / lam**2, seed=3, kernel=kern,
                         initial=GaussianSpec((mean / lam,), cls.VAR / lam**2),
                         checkpoints=(0.1 / lam**2, 0.5 / lam**2))

    @pytest.mark.parametrize("lam", [2.0, 0.5, 4.0])
    def test_paths_are_scale_covariant(self, lam):
        # fails if TimeModulation.factor returns (t + 1e-4)**kappa
        runs = [simulate_particles(self.cfg(scale), 2000) for scale in (1.0, lam)]
        for ens, scaled in zip(*runs, strict=True):
            assert scaled.time * lam**2 == pytest.approx(ens.time, rel=1e-15)
            assert np.abs(lam * scaled.positions - ens.positions).max() < 1e-13

    def test_translation_by_whole_cells(self):
        # half a torus puts the bulk on the seam, where histograms, drift
        # reads and wraps all cross the ends of the grid; fails if cell
        # indices are clipped to [0, n - 1] instead of wrapped modulo n
        half = 0.5 * self.L
        runs = [simulate_particles(self.cfg(mean=mean), 2000) for mean in (0.0, half)]
        for ens, moved in zip(*runs, strict=True):
            gap = (moved.positions - ens.positions) % self.L - half
            assert np.abs(gap).max() < 1e-13
