import math
import sys

import numpy as np
import pytest

from mkvflow.grids import GridSpec, gaussian_density
from mkvflow.kernels import ConstantVector, KernelSpec, RieszOrder
from mkvflow.metrics import GaussianSpec
from mkvflow.particles import (
    ParticleEnsemble,
    SimConfig,
    _bin_positions,
    _particle_increments,
    chaos_convergence_study,
    empirical_density,
    simulate_particles,
)
from mkvflow.solver import FlowParams, picard_solve

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

    def test_pairwise_matches_binned(self):
        eps = 16 * GRID.spacing**2
        kern = KernelSpec(RieszOrder((0.2,), 0, 1.0), eps)
        kw = dict(grid=GRID, dt=2e-3, T=0.01, seed=3, kernel=kern,
                  initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.01,))
        sp = simulate_particles(SimConfig(drift_mode="pairwise", **kw), 1000)
        sb = simulate_particles(SimConfig(drift_mode="binned", **kw), 1000)
        gap = np.abs(sp[-1].positions - sb[-1].positions).max()
        assert gap < 1e-3

    def test_exchangeability(self):
        # permuting initial particles permutes trajectories: particle streams
        # are keyed by index, so compare two runs whose initial samplers agree
        # after permutation through the binned (symmetric) drift
        eps = 16 * GRID.spacing**2
        kern = KernelSpec(RieszOrder((0.2,), 0, 1.0), eps)
        cfg = SimConfig(grid=GRID, dt=2e-3, T=0.02, seed=5, kernel=kern,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.02,))
        base = simulate_particles(cfg, 64)
        # drift field depends on the empirical measure only; verify the drift
        # seen by particle 0 is unchanged when the others are relabeled
        from mkvflow.particles import _empirical_drift, _kernel_spectra
        from mkvflow.kernels import realize_kernel
        kf = realize_kernel(kern, GRID)
        khat = _kernel_spectra(kf)
        pos = base[-1].positions
        perm = np.random.default_rng(0).permutation(pos.shape[0])
        d1 = _empirical_drift(cfg, pos, 0.01, kf, khat)
        d2 = _empirical_drift(cfg, pos[perm], 0.01, kf, khat)
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

    def test_wrap_counter(self):
        cfg = SimConfig(grid=GRID, dt=0.5, T=40.0, seed=1, kernel=None,
                        initial=POINT, checkpoints=(40.0,))
        snaps = simulate_particles(cfg, 50)
        assert np.all(np.abs(snaps[-1].positions) <= GRID.extent / 2)
        assert snaps[-1].wrap_count > 0


class TestStreamContract:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 7])
    def test_increments_match_per_particle_generators(self, seed, dim):
        N, steps = 37, 9
        got = _particle_increments(seed, N, steps, dim)
        for i in range(N):
            oracle = np.random.Generator(np.random.Philox(
                key=[np.uint64(seed), np.uint64(i)])).standard_normal((steps, dim))
            assert np.array_equal(got[i], oracle)


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


class TestEmpiricalDensity:
    def test_point_pair_is_gaussian(self):
        ens = ParticleEnsemble(1, np.zeros((2, 1)), 0.0)
        kde = empirical_density(ens, GRID, 0.25)
        expect = gaussian_density(GRID, 0.0, 0.25**2)
        assert np.abs(kde.values - expect.values).max() < 1e-12

    def test_mass_exactly_one(self):
        rng = np.random.default_rng(4)
        ens = ParticleEnsemble(1, rng.normal(size=(500, 1)), 0.0)
        kde = empirical_density(ens, GRID, 0.1)
        assert kde.mass() == pytest.approx(1.0, abs=1e-14)

    def test_large_sample_recovers_law(self):
        snaps = simulate_particles(brownian_cfg(dt=0.1), 100_000)
        kde = empirical_density(snaps[-1], GRID, 0.08)
        target = gaussian_density(GRID, 0.0, 1.0)
        l1 = np.abs(kde.values - target.values).sum() * GRID.cell_volume
        assert l1 < 0.02

    def test_bandwidth_floor(self):
        ens = ParticleEnsemble(1, np.zeros((2, 1)), 0.0)
        with pytest.raises(ValueError):
            empirical_density(ens, GRID, GRID.spacing / 2)


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

    def test_deterministic_table(self, heat_flow):
        cfg = SimConfig(grid=GRID, dt=0.025, T=0.5, seed=11, kernel=None,
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.5,))
        a = chaos_convergence_study(cfg, [250, 500], heat_flow, repeats=3)
        b = chaos_convergence_study(cfg, [250, 500], heat_flow, repeats=3)
        assert a["rows"] == b["rows"]

    def test_threads_match_serial(self, heat_flow):
        # each run draws from its own generator, so thread scheduling cannot
        # change any particle path; more threads than cores and a short switch
        # interval make a generator shared between runs show up as a mismatch
        eps = 16 * GRID.spacing**2
        cfg = SimConfig(grid=GRID, dt=0.0025, T=0.25, seed=4,
                        kernel=KernelSpec(RieszOrder((0.2,), 0, 1.0), eps),
                        initial=GaussianSpec((0.0,), 0.04), checkpoints=(0.25,))
        serial = chaos_convergence_study(cfg, [300, 600], heat_flow, repeats=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = chaos_convergence_study(cfg, [300, 600], heat_flow, repeats=4,
                                               threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert not serial["failures"]
        assert threaded["rows"] == serial["rows"]

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
