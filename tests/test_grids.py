import math
import warnings

import numpy as np
import pytest
import scipy.fft

from mkvflow.grids import (
    GridSpec,
    ScalarField,
    bessel_apply,
    bessel_sharpen,
    field_derivative,
    gaussian_density,
    grid_delta,
    heat_apply,
    heat_gradient,
    irfft,
    random_band_limited,
    rfft,
)
from mkvflow.grids import _exp_sinh_nodes
from mkvflow.norms import _windowed_power_sums

GRID1 = GridSpec(1, 1024, 16.0)


def cosine_field(grid, m):
    """cos(omega x) at an exact grid frequency omega = 2 pi m / L."""
    omega = 2.0 * math.pi * m / grid.extent
    x = grid.coords()[0]
    return ScalarField(grid, np.cos(omega * x)), omega


class TestGridSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            GridSpec(3, 64, 8.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(1, 100, 8.0)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            GridSpec(1, 8, 8.0)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError):
            GridSpec(1, 64, -1.0)

    def test_spacing(self):
        assert GRID1.spacing == pytest.approx(16.0 / 1024)


class TestHeatApply:
    def test_gaussian_convolution_identity(self):
        # N(0, 0.04) evolved for t=0.1 is N(0, 0.14)
        f = gaussian_density(GRID1, 0.0, 0.04)
        out = heat_apply(f, 0.1)
        expect = gaussian_density(GRID1, 0.0, 0.14)
        assert np.max(np.abs(out.values - expect.values)) < 1e-8

    def test_cosine_eigenfunction(self):
        f, omega = cosine_field(GRID1, 5)
        out = heat_apply(f, 0.5)
        expect = math.exp(-0.5 * 0.5 * omega**2) * f.values
        assert np.max(np.abs(out.values - expect)) < 1e-12

    def test_semigroup_law(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = random_band_limited(GRID1, 100, rng)
            s, t = rng.uniform(1e-3, 2.0, size=2)
            a = heat_apply(heat_apply(f, s), t)
            b = heat_apply(f, s + t)
            rel = np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))
            assert rel < 1e-10

    def test_mass_conserved(self):
        f = gaussian_density(GRID1, 0.3, 0.09)
        out = heat_apply(f, 0.4)
        assert abs(out.mass() - f.mass()) < 1e-12

    def test_positivity(self):
        f = gaussian_density(GRID1, -0.5, 0.04)
        out = heat_apply(f, 0.2)
        assert out.values.min() > -1e-12

    def test_rejects_nonpositive_time(self):
        f = gaussian_density(GRID1, 0.0, 0.04)
        with pytest.raises(ValueError):
            heat_apply(f, 0.0)
        with pytest.raises(ValueError):
            heat_apply(f, -1.0)

    def test_under_resolved_warns_not_raises(self):
        f = gaussian_density(GRID1, 0.0, 0.04)
        tiny = (0.5 * GRID1.spacing) ** 2
        with pytest.warns(UserWarning, match="under-resolved"):
            heat_apply(f, tiny)


class TestHeatGradient:
    def test_constant_has_zero_gradient(self):
        f = ScalarField(GRID1, np.ones(GRID1.shape))
        out = heat_gradient(f, 0.3)
        assert np.max(np.abs(out.components[0])) < 1e-13

    def test_sine_eigenfunction(self):
        omega = 2.0 * math.pi * 4 / GRID1.extent
        x = GRID1.coords()[0]
        f = ScalarField(GRID1, np.sin(omega * x))
        out = heat_gradient(f, 0.25)
        expect = omega * math.exp(-0.5 * 0.25 * omega**2) * np.cos(omega * x)
        assert np.max(np.abs(out.components[0] - expect)) < 1e-12

    def test_mollified_spike_sup_decay_slope(self):
        # sup |grad P_t delta| ~ t^{-(1+d)/2}; slope fitted over t in [0.01, 1]
        f = gaussian_density(GRID1, 0.0, 1e-4, normalize=True)
        ts = np.geomspace(0.01, 1.0, 12)
        sups = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in ts:
                sups.append(heat_gradient(f, t).sup_norm())
        slope = np.polyfit(np.log(ts), np.log(sups), 1)[0]
        assert abs(slope - (-1.0)) < 0.1


class TestBesselApply:
    def test_r_zero_is_identity(self):
        rng = np.random.default_rng(3)
        f = random_band_limited(GRID1, 64, rng)
        out = bessel_apply(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_cosine_eigenfunction(self):
        f, omega = cosine_field(GRID1, 7)
        out = bessel_apply(f, 0.5)
        expect = (1.0 + omega**2) ** (-0.5) * f.values
        assert np.max(np.abs(out.values - expect)) < 1e-12

    @pytest.mark.parametrize("r", [0.25, 0.75, 1.5])
    def test_gamma_quadrature_matches_spectral(self, r):
        rng = np.random.default_rng(11)
        f = random_band_limited(GRID1, 128, rng)
        a = bessel_apply(f, r, mode="gamma_quadrature", nodes=200)
        b = bessel_apply(f, r, mode="spectral")
        rel = np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values)
        assert rel < 1e-6

    def test_gamma_quadrature_rejects_r_zero(self):
        f = gaussian_density(GRID1, 0.0, 0.04)
        with pytest.raises(ValueError):
            bessel_apply(f, 0.0, mode="gamma_quadrature")

    def test_rejects_negative_order(self):
        f = gaussian_density(GRID1, 0.0, 0.04)
        with pytest.raises(ValueError):
            bessel_apply(f, -0.5)

    def test_composition_law(self):
        rng = np.random.default_rng(5)
        f = random_band_limited(GRID1, 64, rng)
        a = bessel_apply(bessel_apply(f, 0.6), 0.9)
        b = bessel_apply(f, 1.5)
        rel = np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))
        assert rel < 1e-10

    def test_commutes_with_derivative(self):
        rng = np.random.default_rng(9)
        f = random_band_limited(GRID1, 64, rng)
        a = bessel_apply(field_derivative(f, (1,)), 0.7)
        b = field_derivative(bessel_apply(f, 0.7), (1,))
        assert np.max(np.abs(a.values - b.values)) < 1e-10


def _quadrature_mult(r, nodes):
    s, w = _exp_sinh_nodes(r, nodes)
    return lambda xi_sq: np.tensordot(w, np.exp(-np.multiply.outer(s, xi_sq)), axes=(0, 0))


def _radial(fn):
    """Full-lattice multiplier list from a function of |xi|^2."""
    return lambda grid: [fn(grid.freq_sq())]


def _heat_gradient_mults(grid):
    damp = np.exp(-0.005 * grid.freq_sq())
    return [1j * xi * damp for xi in grid.freqs()]


# operator under test (field -> output arrays) and its full-lattice multipliers
HALF_LATTICE_CASES = {
    "heat": (lambda f: [heat_apply(f, 0.01).values], _radial(lambda q: np.exp(-0.005 * q))),
    "bessel_spectral": (lambda f: [bessel_apply(f, 0.75).values],
                        _radial(lambda q: (1.0 + q) ** -0.75)),
    "bessel_gamma_quadrature": (
        lambda f: [bessel_apply(f, 0.75, mode="gamma_quadrature", nodes=120).values],
        _radial(_quadrature_mult(0.75, 120))),
    "bessel_sharpen": (lambda f: [bessel_sharpen(f, 1.25).values],
                       _radial(lambda q: (1.0 + q) ** 1.25)),
    "heat_gradient": (lambda f: list(heat_gradient(f, 0.01).components), _heat_gradient_mults),
}

HALF_LATTICE_GRIDS = {1: GridSpec(1, 64, 8.0), 2: GridSpec(2, 32, 8.0)}

# every multi-index with 1 <= |order| <= 4, in one and two dimensions
DERIVATIVE_ORDERS = [(o,) for o in range(1, 5)] + [
    (a, b) for a in range(5) for b in range(5 - a) if a + b > 0]


def _nyquist_field(grid):
    """Random field and its full spectrum, with content at every Nyquist mode."""
    n = grid.points_per_dim
    f = random_band_limited(grid, n // 2, np.random.default_rng(21))
    spec = np.fft.fftn(f.values)
    scale = np.abs(spec).max()
    assert np.abs(np.take(spec, n // 2, axis=-1)).max() > 1e-3 * scale
    assert abs(spec[(n // 2,) * grid.dim]) > 1e-3 * scale  # the 2-d corner too
    return f, spec


def _assert_matches_oracle(got, spec, mults):
    """``got`` equals ``ifftn(spec * m).real`` for each multiplier, 1e-13 relative."""
    assert len(got) == len(mults)
    for g, m in zip(got, mults):
        want = np.fft.ifftn(spec * m).real
        assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
def test_one_dimensional_transforms_match_the_nd_entry_points(n):
    values = np.random.default_rng(n).standard_normal(n)
    spectrum = scipy.fft.rfftn(values)
    assert np.array_equal(rfft(values), spectrum)
    spectrum = spectrum * (1.0 + 0.5j)
    assert np.array_equal(irfft(spectrum, (n,)), scipy.fft.irfftn(spectrum, s=(n,)))


class TestHalfLatticeMultipliers:
    """Operators applied on the real-FFT half lattice agree with their
    full-lattice multipliers followed by ``.real``, Nyquist modes included."""

    @pytest.mark.filterwarnings("ignore:heat kernel under-resolved")
    @pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("case", sorted(HALF_LATTICE_CASES))
    def test_matches_complex_oracle(self, case, dim):
        grid = HALF_LATTICE_GRIDS[dim]
        apply, mults = HALF_LATTICE_CASES[case]
        f, spec = _nyquist_field(grid)
        _assert_matches_oracle(apply(f), spec, mults(grid))

    @pytest.mark.parametrize("order", DERIVATIVE_ORDERS, ids=str)
    def test_field_derivative(self, order):
        grid = HALF_LATTICE_GRIDS[len(order)]
        f, spec = _nyquist_field(grid)
        mult = np.ones(grid.shape, dtype=complex)
        for xi, o in zip(grid.freqs(), order):
            mult = mult * (1j * xi) ** o
        _assert_matches_oracle([field_derivative(f, order).values], spec, [mult])

    @pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
    def test_windowed_power_sums(self, dim):
        grid = HALF_LATTICE_GRIDS[dim]
        p = np.abs(_nyquist_field(grid)[0].values) ** 1.5
        ball = (grid.periodic_radius() <= 1.0).astype(float)
        want = np.fft.ifftn(np.fft.fftn(p) * np.fft.fftn(ball)).real
        want = np.maximum(want, 0.0) * grid.cell_volume
        got = _windowed_power_sums(grid, p)
        assert np.abs(got - want).max() <= 1e-13 * want.max()


class TestFieldDerivative:
    def test_zero_order_is_identity(self):
        f = gaussian_density(GRID1, 0.0, 0.04)
        out = field_derivative(f, (0,))
        assert np.array_equal(out.values, f.values)

    def test_sine_second_derivative(self):
        omega = 2.0 * math.pi * 6 / GRID1.extent
        x = GRID1.coords()[0]
        f = ScalarField(GRID1, np.sin(omega * x))
        out = field_derivative(f, (2,))
        assert np.max(np.abs(out.values + omega**2 * f.values)) < 1e-10

    def test_gaussian_derivative_closed_form(self):
        sigma2 = 0.09
        f = gaussian_density(GRID1, 0.0, sigma2)
        out = field_derivative(f, (1,))
        x = GRID1.coords()[0]
        expect = -x / sigma2 * f.values
        assert np.max(np.abs(out.values - expect)) < 1e-8

    def test_rejects_order_above_four(self):
        f = gaussian_density(GRID1, 0.0, 0.04)
        with pytest.raises(ValueError, match="unsupported"):
            field_derivative(f, (5,))

    def test_2d_mixed_derivative(self):
        grid = GridSpec(2, 64, 8.0)
        oma = 2.0 * math.pi * 2 / grid.extent
        omb = 2.0 * math.pi * 3 / grid.extent
        xa, xb = grid.coords()
        f = ScalarField(grid, np.sin(oma * xa) * np.cos(omb * xb))
        out = field_derivative(f, (1, 1))
        expect = -oma * omb * np.cos(oma * xa) * np.sin(omb * xb)
        assert np.max(np.abs(out.values - expect)) < 1e-10


class TestHelpers:
    def test_grid_delta_mass(self):
        d = grid_delta(GRID1)
        assert d.mass() == pytest.approx(1.0)

    def test_delta_heated_is_gaussian(self):
        d = grid_delta(GRID1)
        out = heat_apply(d, 0.05)
        expect = gaussian_density(GRID1, 0.0, 0.05)
        assert np.max(np.abs(out.values - expect.values)) < 1e-6

    def test_band_limited_band(self):
        rng = np.random.default_rng(0)
        f = random_band_limited(GRID1, 10, rng)
        spec = np.fft.fft(f.values)
        m = np.fft.fftfreq(GRID1.points_per_dim, 1.0 / GRID1.points_per_dim).astype(int)
        assert np.max(np.abs(spec[np.abs(m) > 10])) < 1e-9 * np.max(np.abs(spec))

    def test_field_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScalarField(GRID1, np.zeros(10))

    def test_2d_heat_mass(self):
        grid = GridSpec(2, 64, 8.0)
        f = gaussian_density(grid, [0.2, -0.1], 0.09)
        out = heat_apply(f, 0.3)
        assert abs(out.mass() - 1.0) < 1e-10
