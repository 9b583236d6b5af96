import itertools
import math

import numpy as np
import pytest

from mkvflow.grids import GridSpec, ScalarField, gaussian_density, heat_apply
from mkvflow.metrics import (
    GaussianSpec,
    relative_entropy,
    wasserstein_1d,
    wasserstein_1d_empirical,
)
from oracles import gaussian_entropy, gaussian_w2

GRID = GridSpec(1, 2048, 16.0)


def enumerate_transport(wa, wb, cost):
    """Brute-force LP oracle: scan all basic feasible transport plans.

    A vertex plan has at most m+n-1 nonzero cells forming no cycle; solving
    the marginal equations on every candidate support of that size and
    keeping the feasible ones covers all vertices of the polytope.
    """
    m, n = len(wa), len(wb)
    cells = list(itertools.product(range(m), range(n)))
    best = math.inf
    for support in itertools.combinations(cells, m + n - 1):
        A = np.zeros((m + n, len(support)))
        for col, (i, j) in enumerate(support):
            A[i, col] = 1.0
            A[m + j, col] = 1.0
        rhs = np.concatenate([wa, wb])
        sol, residual, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        if np.linalg.norm(A @ sol - rhs) > 1e-9:
            continue
        if sol.min() < -1e-9:
            continue
        value = sum(max(s, 0.0) * cost[i, j] for s, (i, j) in zip(sol, support))
        best = min(best, value)
    return best


def random_density(rng, grid=GRID, mean_range=1.5, var_min=0.03):
    base = gaussian_density(grid, rng.uniform(-mean_range, mean_range),
                            rng.uniform(var_min, 0.4))
    bump = gaussian_density(grid, rng.uniform(-mean_range, mean_range),
                            rng.uniform(var_min, 0.4))
    alpha = rng.uniform(0.2, 0.8)
    return ScalarField(grid, alpha * base.values + (1 - alpha) * bump.values)


class TestWasserstein1d:
    def test_identical_is_zero(self):
        a = gaussian_density(GRID, 0.1, 0.09)
        assert wasserstein_1d(a, a, 2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_gaussian_translation(self, q):
        a = gaussian_density(GRID, 0.0, 0.09)
        b = gaussian_density(GRID, 0.37, 0.09)
        assert wasserstein_1d(a, b, q) == pytest.approx(0.37, abs=1e-6)

    def test_grid_shift_exact(self):
        shift_cells = 96
        a = gaussian_density(GRID, 0.0, 0.04)
        b = ScalarField(GRID, np.roll(a.values, shift_cells))
        expect = shift_cells * GRID.spacing
        assert wasserstein_1d(a, b, 1.0) == pytest.approx(expect, abs=1e-8)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b = random_density(rng), random_density(rng)
            vals = [wasserstein_1d(a, b, q) for q in (1.0, 1.5, 2.0, 3.0)]
            assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, c = (random_density(rng) for _ in range(3))
            dab = wasserstein_1d(a, b, 2.0)
            dba = wasserstein_1d(b, a, 2.0)
            assert dab == pytest.approx(dba, abs=1e-12)
            dac = wasserstein_1d(a, c, 2.0)
            dcb = wasserstein_1d(c, b, 2.0)
            assert dab <= dac + dcb + 1e-9

    def test_two_point_vs_brute_force(self):
        # densities concentrated at two cells behave like two-point measures
        vals = np.zeros(GRID.shape)
        w = GRID.cell_volume
        i1, i2 = 800, 1400
        vals[i1] = 0.3 / w
        vals[i2] = 0.7 / w
        a = ScalarField(GRID, vals)
        vals2 = np.zeros(GRID.shape)
        j1, j2 = 600, 1100
        vals2[j1] = 0.6 / w
        vals2[j2] = 0.4 / w
        b = ScalarField(GRID, vals2)
        x = GRID.axis_coords()
        wa, wb = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        cost = np.abs(np.array([[x[i1] - x[j1], x[i1] - x[j2]],
                                [x[i2] - x[j1], x[i2] - x[j2]]]))
        oracle = enumerate_transport(wa, wb, cost)
        assert wasserstein_1d(a, b, 1.0) == pytest.approx(oracle, rel=1e-3)

    def test_rejects_2d(self):
        grid = GridSpec(2, 64, 8.0)
        a = gaussian_density(grid, [0, 0], 0.09)
        with pytest.raises(ValueError, match="one-dimensional"):
            wasserstein_1d(a, a, 1.0)

    @pytest.mark.parametrize("case", ["2d", "q-below-one", "negated", "mass"])
    def test_empirical_route_checks_as_the_density_route(self, case):
        # the empirical route returned 0.0255 at q = 0.5 and 0.0341 against a
        # negated density, and ended in a scipy error on a 2-d density
        samples = np.random.default_rng(3).standard_normal(1000)
        target, q = gaussian_density(GRID, 0.0, 1.0), 1.0
        if case == "2d":
            target = gaussian_density(GridSpec(2, 64, 8.0), [0, 0], 0.09)
        elif case == "q-below-one":
            q = 0.5
        elif case == "negated":
            target = ScalarField(GRID, -target.values)
        else:
            target = ScalarField(GRID, 2.0 * target.values)
        with pytest.raises(ValueError) as density_route:
            wasserstein_1d(target, target, q)
        with pytest.raises(ValueError) as empirical_route:
            wasserstein_1d_empirical(samples, target, q)
        assert str(empirical_route.value) == str(density_route.value)

    def test_empirical_route(self):
        rng = np.random.default_rng(3)
        target = gaussian_density(GRID, 0.0, 1.0)
        samples = rng.standard_normal(200_000)
        w1 = wasserstein_1d_empirical(samples, target, 1.0)
        assert w1 < 0.01


class TestRelativeEntropy:
    def test_identical_zero(self):
        a = gaussian_density(GRID, 0.2, 0.09)
        assert relative_entropy(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_closed_form(self):
        a = gaussian_density(GRID, 0.0, 0.09)
        b = gaussian_density(GRID, 0.25, 0.09)
        assert relative_entropy(a, b) == pytest.approx(0.25**2 / (2 * 0.09), abs=1e-6)

    def test_vanishing_support_infinite(self):
        w = GRID.cell_volume
        a_vals = np.zeros(GRID.shape)
        a_vals[400:600] = 1.0 / (200 * w)
        b_vals = np.zeros(GRID.shape)
        b_vals[1400:1600] = 1.0 / (200 * w)
        assert relative_entropy(ScalarField(GRID, a_vals), ScalarField(GRID, b_vals)) == math.inf

    def test_pinsker(self):
        # total-mass convention: ||p - q||_var <= sqrt(2 Ent(p|q))
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = random_density(rng), random_density(rng)
            tv = float(np.abs(a.values - b.values).sum()) * GRID.cell_volume
            ent = relative_entropy(a, b)
            assert tv <= math.sqrt(2.0 * ent) + 1e-9

    def test_joint_convexity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m1, n1 = random_density(rng), random_density(rng)
            m2, n2 = random_density(rng), random_density(rng)
            alpha = rng.uniform(0.1, 0.9)
            mix_m = ScalarField(GRID, alpha * m1.values + (1 - alpha) * m2.values)
            mix_n = ScalarField(GRID, alpha * n1.values + (1 - alpha) * n2.values)
            lhs = relative_entropy(mix_m, mix_n)
            rhs = alpha * relative_entropy(m1, n1) + (1 - alpha) * relative_entropy(m2, n2)
            assert lhs <= rhs + 1e-9

    def test_data_processing_under_heat(self):
        # the second density keeps half the first as a mixture component, so
        # their ratio stays representable and the vanish cutoff never trips
        # on FFT roundoff zeros in far tails
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_density(rng)
            other = random_density(rng)
            b = ScalarField(GRID, 0.5 * a.values + 0.5 * other.values)
            before = relative_entropy(a, b)
            after = relative_entropy(heat_apply(a, 0.2), heat_apply(b, 0.2))
            assert after <= before + 1e-9


class TestGaussianOracles:
    def test_w2_translation(self):
        a = GaussianSpec((0.0,), 0.09)
        b = GaussianSpec((0.25,), 0.09)
        assert gaussian_w2(a, b) == pytest.approx(0.25)

    def test_w2_matches_grid(self):
        a = GaussianSpec((0.0,), 0.09)
        b = GaussianSpec((0.3,), 0.16)
        num = wasserstein_1d(a.density(GRID), b.density(GRID), 2.0)
        assert num == pytest.approx(gaussian_w2(a, b), abs=1e-6)

    def test_entropy_matches_grid(self):
        a = GaussianSpec((0.0,), 0.09)
        b = GaussianSpec((0.2,), 0.13)
        num = relative_entropy(a.density(GRID), b.density(GRID))
        assert num == pytest.approx(gaussian_entropy(a, b), abs=1e-6)
