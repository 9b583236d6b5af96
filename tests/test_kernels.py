import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn

from mkvflow import kernels
from mkvflow.grids import (
    GridSpec,
    _magnitude,
    bessel_apply,
    bessel_sharpen,
    gaussian_density,
    grid_delta,
    heat_apply,
    rfft_wavenumbers,
)
from mkvflow.experiments import parse_config
from mkvflow.metrics import wasserstein_1d
from mkvflow.norms import SobolevIndex, local_neg_norm, measure_dual_norm
from mkvflow.particles import ParticleEnsemble, SimConfig, empirical_density
from mkvflow.solver import FlowParams, picard_solve_many
from mkvflow.kernels import (
    ConstantVector,
    DiracDerivative,
    KernelSpec,
    MollificationError,
    NemytskiiSpec,
    RieszOrder,
    TimeModulation,
    drift_map,
    kernel_norm_study,
    make_kernel,
    realize_kernel,
)
import oracles
from oracles import drift_field, full_lattice_derivative

GRID = GridSpec(1, 2048, 16.0)
EPS = 4.0 * GRID.spacing**2

# frozen oracle: Gamma-integral value at the origin of the Bessel-smoothed
# Gaussian of variance eps (heat at variance 2t inside the integral); see
# the generator in this test module's git history / docstring below.
DIRAC_ORACLE = {
    0.5: [1.4479, 1.7915, 2.2010, 2.6885, 3.2688, 3.9590, 4.7800],
    1.5: [0.5920, 0.6293, 0.6613, 0.6885, 0.7116, 0.7311, 0.7475],
}
EPS_LIST = [0.02 * 2.0**-j for j in range(7)]
# uneven log-steps: the verdict must not depend on the spacing of eps
UNEVEN_EPS_LIST = [0.02, 0.015, 0.008, 0.005, 0.002, 0.0012]


def oracle_dirac_norm(delta, eps, d=1):
    g = lambda t: t ** (delta / 2 - 1.0) * math.exp(-t) * (2 * math.pi * (eps + 2 * t)) ** (-d / 2)
    val, _ = quad(g, 0, 60, limit=400, points=[1e-8, 1e-4, 1e-2, 1.0])
    return val / math.gamma(delta / 2)


class TestRealizeKernel:
    def test_constant(self):
        f = realize_kernel(KernelSpec(ConstantVector((2.0,))), GRID)
        assert np.all(f.components[0] == 2.0)

    def test_unmollified_singular_raises(self):
        with pytest.raises(MollificationError):
            realize_kernel(KernelSpec(RieszOrder((1.0,), 0, 1.0), 0.0), GRID)
        with pytest.raises(MollificationError):
            realize_kernel(KernelSpec(DiracDerivative(0, 0), 0.0), GRID)

    @pytest.mark.parametrize("realize", [
        lambda g: realize_kernel(make_kernel("constant", g, c=(0.3, 5.0, 7.0)), g),
        lambda g: realize_kernel(KernelSpec(RieszOrder((0.2, 9.0), 0, 1.0), 0.01), g),
        lambda g: kernels.riesz_direct(RieszOrder((0.2, 9.0), 0, 1.0), g),
    ], ids=["constant", "riesz", "riesz_direct"])
    def test_more_amplitudes_than_components_refused(self, realize):
        # a 1-d grid realizes c[0] alone; the others used to be dropped silently
        with pytest.raises(ValueError, match="^c has [23] amplitudes, more than the 1 "):
            realize(GridSpec(1, 256, 16.0))

    def test_shorter_amplitudes_repeat_the_first(self):
        f = realize_kernel(KernelSpec(ConstantVector((0.3,))), GridSpec(2, 16, 4.0))
        assert all(np.all(c == 0.3) for c in f.components)

    def test_dirac_order_zero_is_gaussian(self):
        f = realize_kernel(KernelSpec(DiracDerivative(0, 0), 0.05), GRID)
        expect = gaussian_density(GRID, 0.0, 0.05).values
        assert np.max(np.abs(f.components[0] - expect)) < 1e-10

    @pytest.mark.parametrize("variant,grid", [
        *((DiracDerivative(order, 0), GRID) for order in range(3)),
        *((DiracDerivative(order, direction), GridSpec(2, 64, 8.0))
          for order in range(3) for direction in range(2)),
        (ConstantVector((-1.5,)), GridSpec(1, 256, 10.0)),
        (ConstantVector((0.3, -0.2)), GridSpec(2, 64, 6.0)),
    ], ids=repr)
    def test_symbol_matches_spatial_route(self, variant, grid):
        # the spatial construction: a constant filled in, a point-mass
        # derivative as the derivative of the heat-mollified centered spike
        eps = 8.0 * grid.spacing**2
        if isinstance(variant, ConstantVector):
            want = [np.full(grid.shape, c) for c in variant.c]
        else:
            order = tuple(variant.order * (j == variant.direction) for j in range(grid.dim))
            core = full_lattice_derivative(heat_apply(grid_delta(grid), eps), order)
            want = [core if j == variant.direction else np.zeros(grid.shape)
                    for j in range(grid.dim)]
        got = realize_kernel(KernelSpec(variant, eps), grid).components
        scale = max(np.abs(w).max() for w in want)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * scale

    def test_riesz_symbol_matches_mollified_direct(self):
        # oracle: exact heat-mollified 1/z kernel via the Dawson function,
        # periodized with paired images
        spec = KernelSpec(RieszOrder((1.0,), 0, 1.0), EPS)
        f = realize_kernel(spec, GRID).components[0]
        x = GRID.axis_coords()
        sig = math.sqrt(2.0 * EPS)
        mask = (np.abs(x) > 5 * math.sqrt(EPS)) & (np.abs(x) < GRID.extent / 4)

        def oracle(z, images=400):
            out = math.sqrt(2.0 / EPS) * dawsn(z / sig)
            for m in range(1, images + 1):
                out += math.sqrt(2.0 / EPS) * (
                    dawsn((z + m * GRID.extent) / sig) + dawsn((z - m * GRID.extent) / sig))
            return out

        vals = np.array([oracle(z) for z in x[mask]])
        rel = np.abs(f[mask] - vals) / np.abs(vals)
        assert rel.max() < 0.01

    @pytest.mark.parametrize("n0,eps0", [(0, 0.5), (0, 1.0), (0, 1.5), (1, 0.5)])
    def test_symbol_consistency_matrix(self, n0, eps0):
        # oracle: the heat-mollified sharp kernel by adaptive quadrature,
        # periodized with paired images, at sample points across the annulus
        spec = KernelSpec(RieszOrder((1.0,), n0, eps0), EPS)
        f = realize_kernel(spec, GRID).components[0]
        x = GRID.axis_coords()
        p = 1 + 2 * n0 + eps0
        sig2 = EPS

        def sharp(z):
            return np.sign(z) * np.abs(z) ** -(p - 1.0)

        def mollified(z, images=4000):
            # paired images telescope like m^-(p+1); slow tails (small eps0)
            # need thousands of pairs to sit well under the 1% comparison
            lo, hi = z - 8 * math.sqrt(sig2), z + 8 * math.sqrt(sig2)
            g = lambda y: math.exp(-0.5 * (z - y) ** 2 / sig2) * sharp(y)
            pts = [0.0] if lo < 0 < hi else None
            val, _ = quad(g, lo, hi, limit=400, points=pts)
            out = val / math.sqrt(2 * math.pi * sig2)
            m = np.arange(1, images + 1)
            out += (sharp(z + m * GRID.extent) + sharp(z - m * GRID.extent)).sum()
            return out

        radii = np.geomspace(10 * math.sqrt(EPS), GRID.extent / 4, 6)
        for r0 in radii:
            i = int(np.argmin(np.abs(x - r0)))
            oracle = mollified(x[i])
            assert abs(f[i] - oracle) / abs(oracle) < 0.01

    @pytest.mark.parametrize("n0", [1, 2])
    def test_even_integer_order_rejected(self, n0):
        # s = 2 n0 with eps0 = 0 has the polynomial symbol i xi |xi|^(2 n0 - 2)
        with pytest.raises(ValueError, match="even order"):
            RieszOrder((1.0,), n0, 0.0)
        with pytest.raises(ValueError, match="even order"):
            make_kernel("riesz", GRID, n0=n0, eps0=0.0)
        assert RieszOrder((1.0,), 0, 0.0).n0 == 0  # s = 0: the 1/z kernel

    def test_realizations_are_independent_copies(self):
        spec = KernelSpec(RieszOrder((0.5,), 0, 1.0), EPS)
        first = realize_kernel(spec, GRID)
        want = first.components[0].copy()
        first.components[0][:] = 7.0
        assert np.array_equal(realize_kernel(spec, GRID).components[0], want)

    def test_riesz_odd_symmetry(self):
        f = realize_kernel(KernelSpec(RieszOrder((1.0,), 0, 0.5), EPS), GRID)
        v = f.components[0]
        n = GRID.points_per_dim
        # values at +x and -x mirror up to the asymmetric wrap column
        flipped = -np.roll(v[::-1], 1)
        assert np.max(np.abs(v[1:] - flipped[1:])) < 1e-8 * np.max(np.abs(v))

    def test_2d_riesz_realizes(self):
        grid = GridSpec(2, 128, 8.0)
        spec = KernelSpec(RieszOrder((1.0, 1.0), 0, 0.5), 4 * grid.spacing**2)
        f = realize_kernel(spec, grid)
        assert len(f.components) == 2
        assert np.all(np.isfinite(f.components[0]))


class TestRieszImageSum:
    """The 2-d image sum on one quadrant, and the amplitude fitted against it."""

    ORDERS = [(0, 0.5), (0, 1.0), (1, 0.5)]

    @pytest.mark.parametrize("n, extent", [(32, 8.0), (64, 16.0), (128, 16.0)])
    @pytest.mark.parametrize("n0, eps0", ORDERS)
    def test_quadrant_sum_matches_the_full_grid_sum(self, n, extent, n0, eps0):
        grid = GridSpec(2, n, extent)
        spec = RieszOrder((0.3, -0.7), n0, eps0)
        for got, want in zip(kernels.riesz_direct(spec, grid),
                             oracles.riesz_image_sum_2d(spec, grid)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n0, eps0", ORDERS)
    def test_reflections_and_transpose_are_exact(self, n0, eps0):
        grid = GridSpec(2, 64, 8.0)
        first, second = kernels.riesz_direct(RieszOrder((0.3, 0.3), n0, eps0), grid)
        inner = first[1:, 1:]  # x_{n-i} = -x_i for 1 <= i < n
        assert np.array_equal(inner[::-1, :], -inner)
        assert np.array_equal(inner[:, ::-1], inner)
        assert np.array_equal(second, first.T)

    # (dim, n, extent, s): relative distance of the fitted amplitude from -C,
    # measured with the full-grid image sum; bounded at twice that
    @pytest.mark.parametrize("dim, n, extent, s, measured", [
        (1, 1024, 16.0, 0.5, 2.17e-3), (1, 1024, 16.0, 1.5, 2.91e-4),
        (2, 128, 16.0, 1.0, 2.55e-4), (2, 128, 16.0, 1.5, 9.43e-4),
        (2, 256, 8.0, 1.0, 9.1e-6),
    ])
    def test_fitted_amplitude_is_near_the_closed_form(self, dim, n, extent, s, measured):
        # F[x_j |x|^(-d-s)] = -i C xi_j |xi|^(s-2) with
        # C = pi^(d/2) 2^(1-s) Gamma(1-s/2) / Gamma((d+s)/2) (Stein, ch. III)
        grid = GridSpec(dim, n, extent)
        eps = kernels.default_mollification(grid)
        symbol = kernels._riesz_unit_symbols(0, s, grid, eps)[0]
        ixi, xi_sq = rfft_wavenumbers(grid)
        mode = (1,) + (0,) * (dim - 1)
        unit = ixi[0][mode] * xi_sq[mode] ** (0.5 * s - 1.0) * math.exp(-0.5 * eps * xi_sq[mode])
        fitted = (symbol[mode] / unit).real
        closed = -math.pi ** (0.5 * dim) * 2.0 ** (1.0 - s) * math.gamma(1.0 - 0.5 * s) \
            / math.gamma(0.5 * (dim + s))
        assert abs(fitted / closed - 1.0) <= 2.0 * measured


class TestDriftFromKernel:
    def test_constant_vector_drift(self):
        rho = gaussian_density(GRID, 0.4, 0.09)
        b = drift_field(KernelSpec(ConstantVector((1.5,))), rho, 0.3)
        assert np.allclose(b.components[0], 1.5, atol=1e-12)

    def test_vanishing_modulation_at_zero(self):
        rho = gaussian_density(GRID, 0.0, 0.09)
        spec = KernelSpec(ConstantVector((1.0,)), 0.0, TimeModulation(kappa=1.0))
        b = drift_field(spec, rho, 0.0)
        assert np.all(b.components[0] == 0.0)

    def test_riesz_drift_matches_principal_value_quadrature(self):
        # oracle: symmetrized principal-value integral of the sharp kernel
        sigma2 = 0.04
        rho = gaussian_density(GRID, 0.0, sigma2)
        spec = KernelSpec(RieszOrder((1.0,), 0, 1.0), EPS)
        b = drift_field(spec, rho, 1.0).components[0]

        def pv(xv):
            g = lambda u: (math.exp(-0.5 * (xv - u) ** 2 / sigma2)
                           - math.exp(-0.5 * (xv + u) ** 2 / sigma2)) / u
            val, _ = quad(g, 0, 8.0, limit=200, points=[0.01, 0.1, 1.0])
            return val / math.sqrt(2 * math.pi * sigma2)

        i = int(np.argmax(np.abs(b)))
        x_star = GRID.axis_coords()[i]
        assert abs(abs(b[i]) - abs(pv(x_star))) / abs(pv(x_star)) < 0.02

    def test_linearity_in_density(self):
        spec = KernelSpec(RieszOrder((1.0,), 0, 0.5), EPS)
        r1 = gaussian_density(GRID, -0.3, 0.04)
        r2 = gaussian_density(GRID, 0.5, 0.09)
        alpha = 0.3
        mix = gaussian_density(GRID, 0.0, 1.0)
        mix.values = alpha * r1.values + (1 - alpha) * r2.values
        b_mix = drift_field(spec, mix, 1.0).components[0]
        b1 = drift_field(spec, r1, 1.0).components[0]
        b2 = drift_field(spec, r2, 1.0).components[0]
        assert np.max(np.abs(b_mix - alpha * b1 - (1 - alpha) * b2)) < 1e-10

    def test_translation_equivariance(self):
        spec = KernelSpec(RieszOrder((1.0,), 0, 0.5), EPS)
        shift_cells = 64
        r1 = gaussian_density(GRID, 0.0, 0.04)
        r2 = gaussian_density(GRID, 0.0, 0.04)
        r2.values = np.roll(r1.values, shift_cells)
        b1 = drift_field(spec, r1, 1.0).components[0]
        b2 = drift_field(spec, r2, 1.0).components[0]
        assert np.max(np.abs(np.roll(b1, shift_cells) - b2)) < 1e-10

    def test_lipschitz_in_measure_envelope(self):
        # |b(mu) - b(nu)|_inf <= K t^kappa * dual-gap * kernel norm, with the
        # dual norm taken from the upper (amalgam) bracket
        idx = SobolevIndex(1.0, 2.0)
        spec = KernelSpec(RieszOrder((1.0,), 0, 0.5), EPS)
        kern_norm = local_neg_norm(realize_kernel(spec, GRID), idx)
        rng = np.random.default_rng(5)
        for _ in range(5):
            m1, m2 = rng.uniform(-0.5, 0.5, 2)
            v1, v2 = rng.uniform(0.03, 0.2, 2)
            r1 = gaussian_density(GRID, m1, v1)
            r2 = gaussian_density(GRID, m2, v2)
            b1 = drift_field(spec, r1, 1.0)
            b2 = drift_field(spec, r2, 1.0)
            gap = max(np.abs(a - b).max() for a, b in zip(b1.components, b2.components))
            diff = gaussian_density(GRID, 0.0, 1.0)
            diff.values = r1.values - r2.values
            dual_hi = measure_dual_norm(diff, idx, "amalgam")
            assert gap <= kern_norm * dual_hi * 1.05

    def test_boundedness_envelope(self):
        # sup|b| <= K_t t^kappa * dual-norm(rho) * kernel norm, bracket-slack
        # conservative (upper bracket on the measure side)
        idx = SobolevIndex(1.0, 2.0)
        spec = KernelSpec(RieszOrder((1.0,), 0, 0.5), EPS)
        kern_norm = local_neg_norm(realize_kernel(spec, GRID), idx)
        rng = np.random.default_rng(9)
        for _ in range(5):
            rho = gaussian_density(GRID, rng.uniform(-0.5, 0.5),
                                   rng.uniform(0.03, 0.2))
            b = drift_field(spec, rho, 1.0)
            dual_hi = measure_dual_norm(rho, idx, "amalgam")
            assert _magnitude(b.components).max() <= kern_norm * dual_hi * 1.05


class TestNemytskiiDrift:
    def test_zero_family(self):
        rho = gaussian_density(GRID, 0.0, 0.04)
        spec = NemytskiiSpec(1, "zero")
        b = drift_field(spec, rho, 0.5)
        assert np.all(b.components[0] == 0.0)

    def test_density_family_peak(self):
        sigma2 = 0.04
        rho = gaussian_density(GRID, 0.0, sigma2)
        spec = NemytskiiSpec(1, "density")
        b = drift_field(spec, rho, 0.5)
        peak = (2 * math.pi * sigma2) ** -0.5
        assert np.abs(b.components[0]).max() == pytest.approx(peak, rel=1e-8)

    def test_modulated_density_family(self):
        rho = gaussian_density(GRID, 0.0, 0.04)
        spec = NemytskiiSpec(1, "density", modulation=TimeModulation(kappa=0.5))
        t = 0.25
        b = drift_field(spec, rho, t)
        assert np.abs(b.components[0]).max() == pytest.approx(
            math.sqrt(t) * (2 * math.pi * 0.04) ** -0.5, rel=1e-8)

    def test_clipped_gradient_lipschitz_envelope(self):
        # sampled Lipschitz quotient |b(h) - b(h~)| / |h - h~| of the family's
        # map over 1000 random pairs of 1-d stacks (rho, rho'), against the
        # envelope K(t) t^kappa
        spec = NemytskiiSpec(2, "clipped_gradient", modulation=TimeModulation(kappa=0.5))
        fn = kernels._NEMYTSKII[spec.family][1](spec.n, 1, spec.param_dict)
        factor = spec.modulation.factor(0.3)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            h = rng.normal(size=spec.n)
            ht = h + rng.normal(scale=0.5, size=spec.n)
            gap = float(np.linalg.norm((np.array(fn(list(h[:, None])))
                                        - np.array(fn(list(ht[:, None])))).ravel()))
            dh = float(np.linalg.norm(h - ht))
            if dh > 1e-12:
                worst = max(worst, gap / dh)
        assert factor * worst <= factor * (1 + 1e-9)
        assert worst <= 1.0 + 1e-9

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="unsupported"):
            NemytskiiSpec(6, "density")

    @pytest.mark.parametrize("n, family, match", [(1, "clipped_gradient", "n >= 2"),
                                                  (2, "linear", "weights")])
    def test_unusable_specs_rejected(self, n, family, match):
        with pytest.raises(ValueError, match=match):
            NemytskiiSpec(n, family)

    @pytest.mark.parametrize("n, family, options", [
        (1, "density", (("cap", 0.2),)),
        (2, "clipped_gradient", (("weights", (1, 1)),)),
        (1, "zero", (("weights", (1,)),)),
        (2, "linear", (("weights", (1, 1)), ("cap", 0.2))),
    ], ids=["density-cap", "clipped_gradient-weights", "zero-weights", "linear-cap"])
    def test_parameters_the_family_does_not_read_are_rejected(self, n, family, options):
        # each constructed, and its drift ignored the parameter
        with pytest.raises(ValueError, match=f"family '{family}' does not read"):
            NemytskiiSpec(n, family, options)

    @pytest.mark.parametrize("family", sorted(kernels._NEMYTSKII))
    def test_builder_reads_exactly_the_declared_parameters(self, family):
        # the constructor rejects any parameter outside the table entry, so a
        # builder that read another one could never receive it
        class Recording(dict):
            def __init__(self, **params):
                super().__init__(**params)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

            def __contains__(self, key):
                self.read.add(key)
                return super().__contains__(key)

        params = Recording(cap=0.2, weights=(0.1, 0.1))
        reads, build = kernels._NEMYTSKII[family]
        build(2, 1, params)([np.ones(4), np.ones(4)])
        assert params.read == set(reads)

    def test_linear_weights_above_unit_norm_are_refused(self):
        # the map builder divided such weights by their norm, so (2, 0)
        # realized the weights (1, 0)
        with pytest.raises(ValueError, match="Euclidean norm <= 1, got norm 2"):
            NemytskiiSpec(2, "linear", (("weights", (2.0, 0.0)),))
        NemytskiiSpec(2, "linear", (("weights", (0.6, 0.8)),))  # norm 1 is kept

    @pytest.mark.parametrize("cap", [math.nan, -0.2, 0.0, math.inf])
    def test_clipped_gradient_cap_must_be_positive_and_finite(self, cap):
        # otherwise a nan cap fails only mid-solve and a negative one solves
        # with a constant drift
        with pytest.raises(ValueError, match=r"^cap must be a number in \(0, inf\), got "):
            NemytskiiSpec(2, "clipped_gradient", (("cap", cap),))


class TestDriftMap:
    @pytest.mark.parametrize("spec", [lambda rho, t: None, RieszOrder(), "riesz"],
                             ids=["callable", "RieszOrder", "str"])
    def test_rejects_other_specs(self, spec):
        with pytest.raises(TypeError, match="no drift map"):
            drift_map(spec, GRID)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["zero", "density", "clipped_gradient", "linear"])
    def test_nemytskii_map_of_a_stack_equals_per_row_maps(self, family, dim):
        # depth 3 in 2-d brings in the mixed derivative
        grid = GridSpec(1, 1024, 16.0) if dim == 1 else GridSpec(2, 128, 8.0)
        n = 2 if dim == 1 else 3
        weights = (0.1, 0.05) if dim == 1 else (0.1, 0.05, 0.05, 0.01, 0.01, 0.01)
        options = {"clipped_gradient": (("cap", 0.2),), "linear": (("weights", weights),)}
        spec = NemytskiiSpec(n, family, options.get(family, ()))
        stack = np.random.default_rng(dim).random((5 if dim == 1 else 3,) + grid.shape)
        evaluate = drift_map(spec, grid)
        got = evaluate(stack)
        assert len(got) == dim
        for i, row in enumerate(stack):
            for g, w in zip(got, evaluate(row)):
                assert np.array_equal(g[i], w)


class TestKernelNormStudy:
    def test_dirac_threshold_dichotomy(self):
        # bounded iff delta > d = 1 at k = inf; unbounded side grows like the
        # heat-kernel oracle, and at delta = d like log(1/eps)
        spec = KernelSpec(DiracDerivative(0, 0), 1.0)
        above = kernel_norm_study(spec, SobolevIndex(1.5, math.inf), EPS_LIST, GRID)
        at = kernel_norm_study(spec, SobolevIndex(1.0, math.inf), EPS_LIST, GRID)
        below = kernel_norm_study(spec, SobolevIndex(0.5, math.inf), EPS_LIST, GRID)
        assert above.verdict == "bounded"
        assert at.verdict == "unbounded"
        assert below.verdict == "unbounded"
        assert abs(-below.growth_exponent - (0.5 - 1) / 2) < 0.1

    @pytest.mark.parametrize("variant, delta, k, verdict", [
        (DiracDerivative(0, 0), 1.5, math.inf, "bounded"),
        (DiracDerivative(0, 0), 0.5, math.inf, "unbounded"),
        (RieszOrder((1.0,), 1, 0.5), 1.0, 2.0, "unbounded"),
    ], ids=["dirac-above", "dirac-below", "riesz-steep"])
    def test_verdict_on_uneven_eps_steps(self, variant, delta, k, verdict):
        study = kernel_norm_study(KernelSpec(variant, 1.0), SobolevIndex(delta, k),
                                  UNEVEN_EPS_LIST, GRID)
        assert study.verdict == verdict

    @pytest.mark.parametrize("delta", [0.5, 1.5])
    def test_norms_match_frozen_oracle(self, delta):
        spec = KernelSpec(DiracDerivative(0, 0), 1.0)
        study = kernel_norm_study(spec, SobolevIndex(delta, math.inf), EPS_LIST, GRID)
        for measured, frozen in zip(study.norms, DIRAC_ORACLE[delta]):
            assert measured == pytest.approx(frozen, rel=2e-3)

    def test_riesz_admissible_bounded(self):
        spec = KernelSpec(RieszOrder((1.0,), 0, 0.5), 1.0)
        for k in (2.0, 4.0):
            study = kernel_norm_study(spec, SobolevIndex(1.0, k), EPS_LIST, GRID)
            assert study.verdict == "bounded"

    def test_riesz_supercritical_unbounded(self):
        spec = KernelSpec(RieszOrder((1.0,), 1, 0.5), 1.0)
        study = kernel_norm_study(spec, SobolevIndex(1.0, 2.0), EPS_LIST, GRID)
        assert study.verdict == "unbounded"
        assert study.growth_exponent > 0.3

    def test_truncates_unresolvable(self):
        spec = KernelSpec(DiracDerivative(0, 0), 1.0)
        eps = [0.02, 0.01, 0.005, 1e-7]
        study = kernel_norm_study(spec, SobolevIndex(1.5, math.inf), eps, GRID)
        assert study.eps_values == eps[:3] and len(study.norms) == 3

    def test_vanishing_kernel_is_bounded(self):
        spec = make_kernel("zero", GRID)
        study = kernel_norm_study(spec, SobolevIndex(1.5, math.inf), [0.02, 0.01, 0.005], GRID)
        assert study.norms == [0.0, 0.0, 0.0]
        assert (study.verdict, study.growth_exponent) == ("bounded", 0.0)

    def test_rejects_nondecreasing(self):
        spec = KernelSpec(DiracDerivative(0, 0), 1.0)
        with pytest.raises(ValueError):
            kernel_norm_study(spec, SobolevIndex(1.5, math.inf), [0.01, 0.02, 0.04], GRID)

    def test_riesz_image_sum_once_per_grid(self, monkeypatch):
        # the image sum does not depend on the mollification time, and was
        # recomputed for each of them
        direct, calls = kernels.riesz_direct, []

        def counting(*args):
            calls.append(args)
            return direct(*args)

        kernels._riesz_unit_symbols.cache_clear()
        kernels._riesz_image_sum.cache_clear()
        monkeypatch.setattr(kernels, "riesz_direct", counting)
        spec = KernelSpec(RieszOrder((1.0,), 0, 0.5), 1.0)
        eps = [0.02 * 2.0**-j for j in range(7)]
        study = kernel_norm_study(spec, SobolevIndex(1.0, 2.0), eps, GridSpec(1, 1024, 16.0))
        assert len(study.norms) == 7
        assert len(calls) == 1


class TestModulation:
    def test_envelope_factor(self):
        mod = TimeModulation(0.5)
        assert mod.factor(0.25) == 0.5
        assert mod.factor(0.0) == 0.0
        assert TimeModulation().factor(0.0) == TimeModulation().factor(0.3) == 1.0
        with pytest.raises(ValueError, match="time must be >= 0"):
            mod.factor(-0.1)
        with pytest.raises(ValueError, match=r"^kappa must be a number in \[0, inf\), got "):
            TimeModulation(-0.5)


class TestCatalog:
    def test_names(self):
        for name in ("zero", "constant", "riesz", "dirac"):
            spec = make_kernel(name, GRID)
            assert isinstance(spec, KernelSpec)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel("nope", GRID)

    @pytest.mark.parametrize("kw", [{"cc": 5.0}, {"K_table": (0, 1, 0.5, 2)}])
    def test_unknown_parameter(self, kw):
        with pytest.raises(ValueError, match="unknown kernel parameters"):
            make_kernel("riesz", GRID, **kw)

    def test_parameters_of_other_kernels_are_rejected(self):
        # each was accepted and ignored: the Dirac kernel has unit amplitude
        # whatever its c, the zero kernel has no order and Riesz no Dirac order
        for name, kw in [("dirac", {"c": 0.5}), ("zero", {"n0": 3}), ("zero", {"c": 0.2}),
                         ("riesz", {"order": 2}), ("constant", {"eps": 0.1})]:
            with pytest.raises(ValueError, match=f"unknown kernel parameters "
                                                 f"\\['{next(iter(kw))}'\\] for kernel '{name}'"):
                make_kernel(name, GRID, **kw)
        spec = make_kernel("zero", GRID, kappa=0.75)
        assert spec.variant.c == (0.0,)
        assert spec.modulation.kappa == 0.75

    @pytest.mark.parametrize("name, kw", [("riesz", {"c": True}), ("riesz", {"kappa": True}),
                                          ("riesz", {"eps0": "abc"}), ("riesz", {"c": None}),
                                          ("dirac", {"eps": "0.1"}),
                                          ("constant", {"c": (1.0, False)})],
                             ids=["c-bool", "kappa-bool", "eps0-word", "c-none", "eps-word",
                                  "c-entry-bool"])
    def test_number_parameters_must_be_numbers(self, name, kw):
        # each was cast with float(): c = True built c = 1.0, and a word failed
        # with "could not convert string to float", which names no key
        (key,) = kw
        with pytest.raises(ValueError, match=f"^{key} must be a number, got "):
            make_kernel(name, GRID, **kw)

    def test_number_parameters_accept_ints(self):
        spec = make_kernel("riesz", GRID, c=1, eps0=1, eps=0, kappa=np.int64(1))
        assert spec.variant.c == (1.0,) and spec.variant.eps0 == 1.0
        assert spec.mollification_eps == 0.0 and spec.modulation.kappa == 1.0
        assert make_kernel("dirac", GRID, eps=None).mollification_eps > 0  # the default

    def test_riesz_params(self):
        spec = make_kernel("riesz", GRID, c=0.05, n0=1, eps0=0.25, kappa=0.5)
        assert spec.variant.n0 == 1
        assert spec.modulation.kappa == 0.5

    @pytest.mark.parametrize("name, kw", [("riesz", {"n0": 1.5}), ("riesz", {"n0": True}),
                                          ("dirac", {"order": 1.9}), ("dirac", {"order": True}),
                                          ("dirac", {"direction": 1.0})],
                             ids=["n0-float", "n0-bool", "order-float", "order-bool",
                                  "direction-float"])
    def test_int_parameters_must_be_ints(self, name, kw):
        # each was cast with int(): n0 = 1.5 built n0 = 1, order = 1.9 order 1
        (key,) = kw
        with pytest.raises(ValueError, match=f"^{key} must be a non-negative int"):
            make_kernel(name, GRID, **kw)


# each was accepted, or failed with a TypeError, AttributeError or
# IndexError that names no field; through a config a NaN amplitude reached
# the march and a NaN eps the calibration; a string variant constructed and
# failed at realization, and a number as modulation constructed and realized;
# a bool took the value 0 or 1, a NaN weight gave a NaN drift, string weights
# failed only in drift_map, and of a parameter named twice the last one won
REFUSED_CONSTRUCTIONS = {  # id: (the field the message names, construction)
    "riesz-c-nan": ("c", lambda: RieszOrder((math.nan,))),
    "riesz-c-inf": ("c", lambda: RieszOrder((math.inf,))),
    "riesz-c-scalar": ("c", lambda: RieszOrder(c=0.5)),
    "riesz-c-empty": ("c", lambda: RieszOrder(c=())),
    "riesz-n0-float": ("n0", lambda: RieszOrder(n0=1.5)),
    "constant-c-nan": ("c", lambda: ConstantVector((math.nan,))),
    "constant-c-scalar": ("c", lambda: ConstantVector(c=1.0)),
    "spec-eps-nan": ("eps", lambda: KernelSpec(ConstantVector(), math.nan)),
    "spec-eps-inf": ("eps", lambda: KernelSpec(ConstantVector(), math.inf)),
    "spec-variant-str": ("variant", lambda: KernelSpec("riesz", 0.1)),
    "spec-modulation-float": ("modulation",
                              lambda: KernelSpec(RieszOrder(), 0.1, modulation=0.75)),
    "spec-modulation-none": ("modulation",
                             lambda: KernelSpec(RieszOrder(), 0.1, modulation=None)),
    "dirac-order-bool": ("order", lambda: DiracDerivative(order=True)),
    "dirac-order-float": ("order", lambda: DiracDerivative(order=1.0)),
    "modulation-bool": ("kappa", lambda: TimeModulation(True)),
    "nemytskii-n-float": ("derivative depth n", lambda: NemytskiiSpec(2.5, "density")),
    "nemytskii-modulation-float": ("modulation",
                                   lambda: NemytskiiSpec(1, "density", modulation=0.75)),
    "nemytskii-weights-str": ("weights", lambda: NemytskiiSpec(2, "linear",
                                                                (("weights", ("a", "b")),))),
    "nemytskii-weights-scalar": ("weights", lambda: NemytskiiSpec(2, "linear",
                                                                   (("weights", 0.1),))),
    "nemytskii-weights-nan": ("weights", lambda: NemytskiiSpec(2, "linear",
                                                                (("weights", (math.nan, 0.1)),))),
    "nemytskii-cap-bool": ("cap", lambda: NemytskiiSpec(2, "clipped_gradient",
                                                         (("cap", True),))),
    "nemytskii-cap-str": ("cap", lambda: NemytskiiSpec(2, "clipped_gradient", (("cap", "1"),))),
    "nemytskii-params-scalar": ("params", lambda: NemytskiiSpec(2, "clipped_gradient", 0.2)),
    "nemytskii-params-flat": ("params", lambda: NemytskiiSpec(2, "clipped_gradient",
                                                               ("cap", 0.2))),
    "nemytskii-params-twice": ("params", lambda: NemytskiiSpec(
        2, "clipped_gradient", (("cap", 0.2), ("cap", 0.5)))),
    "grid-dim-bool": ("dim", lambda: GridSpec(True, 1024, 16)),
    "grid-points-float": ("points_per_dim", lambda: GridSpec(1, 1024.0, 16)),
    "flow-dim-bool": ("dim", lambda: FlowParams(1, 2, dim=True)),
    "flow-kappa-bool": ("kappa", lambda: FlowParams(1, 2, kappa=True)),
    "flow-kappa-str": ("kappa", lambda: FlowParams(1, 2, kappa="0.5")),
    "flow-T-bool": ("T", lambda: FlowParams(1, 2, T=True)),
    "flow-time-grid-bool": ("each time_grid entry",
                            lambda: FlowParams(1, 2, T=1.0, time_grid=(0.5, True))),
    "index-delta-bool": ("delta", lambda: SobolevIndex(True, 2)),
    "sim-dt-bool": ("dt", lambda: SimConfig(GRID, True, 1.0, 0)),
    "sim-dt-str": ("dt", lambda: SimConfig(GRID, "0.1", 1.0, 0)),
    "sim-T-str": ("T", lambda: SimConfig(GRID, 0.1, "1", 0)),
    "sim-nemytskii-kernel": ("kernel", lambda: SimConfig(GRID, 0.01, 0.1, 0,
                                                         kernel=NemytskiiSpec(1, "density"))),
    "config-c-nan": ("c", lambda: parse_config("experiment = solve\nkernel = riesz\n"
                                               "kernel.c = nan\n")),
    "config-eps-nan": ("eps", lambda: parse_config("experiment = solve\nkernel = riesz\n"
                                                   "kernel.eps = nan\n")),
}


@pytest.mark.parametrize("name, build", REFUSED_CONSTRUCTIONS.values(), ids=REFUSED_CONSTRUCTIONS)
def test_constructors_refuse_what_they_cannot_realize(name, build):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


# each was accepted, or failed with a TypeError, OverflowError or ValueError
# that names no argument: a bool took the value 0 or 1, wasserstein_1d(a, b,
# True) returned 0.0, an infinite Bessel order returned a field, and a
# negative mollification time ended in "math domain error"
_GAUSS = gaussian_density(GRID, 0.0, 1.0, normalize=True)
_PAIR = ParticleEnsemble(np.zeros((4, 1)), 0.0)
_RIESZ = KernelSpec(RieszOrder(), 0.1)
REFUSED_ARGUMENTS = {  # id: (the argument the message names, call)
    "gaussian-variance-bool": ("variance", lambda: gaussian_density(GRID, 0.0, True)),
    "gaussian-variance-str": ("variance", lambda: gaussian_density(GRID, 0.0, "0.5")),
    "heat-t-bool": ("t", lambda: heat_apply(_GAUSS, True)),
    "bessel-r-inf": ("r", lambda: bessel_apply(_GAUSS, math.inf)),
    "bessel-r-bool": ("r", lambda: bessel_apply(_GAUSS, True)),
    "sharpen-r-nan": ("r", lambda: bessel_sharpen(_GAUSS, math.nan)),
    "picard-tol-bool": ("tol", lambda: picard_solve_many(
        [_GAUSS], KernelSpec(ConstantVector()), FlowParams(1, 2), tol=True)),
    "wasserstein-q-bool": ("q", lambda: wasserstein_1d(_GAUSS, _GAUSS, True)),
    "kde-bandwidth-inf": ("bandwidth", lambda: empirical_density(_PAIR, GRID, math.inf)),
    "kde-bandwidth-str": ("bandwidth", lambda: empirical_density(_PAIR, GRID, "1")),
    "sim-checkpoint-str": ("checkpoint", lambda: SimConfig(GRID, 0.1, 1.0, 0,
                                                           checkpoints=("0.5",))),
    "sim-checkpoint-inf": ("checkpoint", lambda: SimConfig(GRID, 0.1, 1.0, 0,
                                                           checkpoints=(math.inf,))),
    "norm-study-eps-negative": ("each eps_list entry", lambda: kernel_norm_study(
        _RIESZ, SobolevIndex(0.0, 2.0), [1.0, 0.5, -1.0], GRID)),
    "norm-study-eps-nan": ("each eps_list entry", lambda: kernel_norm_study(
        _RIESZ, SobolevIndex(0.0, 2.0), [1.0, 0.5, math.nan], GRID)),
    "norm-study-eps-bool": ("each eps_list entry", lambda: kernel_norm_study(
        _RIESZ, SobolevIndex(0.0, 2.0), [True, 0.5, 0.25], GRID)),
    "norm-study-eps-str": ("each eps_list entry", lambda: kernel_norm_study(
        _RIESZ, SobolevIndex(0.0, 2.0), [1.0, 0.5, "0.25"], GRID)),
}


@pytest.mark.parametrize("name, call", REFUSED_ARGUMENTS.values(), ids=REFUSED_ARGUMENTS)
def test_functions_refuse_arguments_outside_their_interval(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()
