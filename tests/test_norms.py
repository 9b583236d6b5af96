import math

import numpy as np
import pytest

from mkvflow.grids import (
    GridSpec,
    ScalarField,
    VectorField,
    bessel_sharpen,
    gaussian_density,
    heat_apply,
    rfft,
    rfft_wavenumbers,
)
from mkvflow import norms
from mkvflow.norms import (
    SobolevIndex,
    _matched_packets,
    _packets,
    _probe_candidates,
    _probe_family,
    heat_norm_exponent,
    local_neg_norm,
    measure_dual_bracket,
    measure_dual_norm,
    operator_exponent_probe,
)
from oracles import (
    fft_windowed_sups,
    heat_gradient,
    random_band_limited,
    row_packets,
    sup_comparison_constant,
)

GRID = GridSpec(1, 1024, 16.0)


def gaussian_pair_diff(grid, shift=0.1, var=0.04):
    a = gaussian_density(grid, 0.0, var)
    b = gaussian_density(grid, shift, var)
    return ScalarField(grid, a.values - b.values)


def per_candidate_probe_norm(rho, idx):
    """The probe bound with one ``local_neg_norm`` call per candidate."""
    best = 0.0
    for vals in _probe_candidates(rho, idx):
        nrm = local_neg_norm(ScalarField(rho.grid, vals), idx)
        if nrm > 0 and np.isfinite(nrm):
            best = max(best, abs(float((rho.values * vals).sum()) * rho.grid.cell_volume) / nrm)
    return best


class TestSobolevIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            SobolevIndex(-0.1, 2.0)
        with pytest.raises(ValueError):
            SobolevIndex(1.0, 0.5)

    def test_conjugate(self):
        assert SobolevIndex(1.0, 2.0).conjugate == 2.0
        assert SobolevIndex(1.0, math.inf).conjugate == 1.0
        assert SobolevIndex(1.0, 1.0).conjugate == math.inf


class TestLocalNegNorm:
    @pytest.mark.parametrize("k,expect", [(1.0, 2.0), (2.0, 2.0**0.5), (4.0, 2.0**0.25)])
    def test_constant_field_finite_k(self, k, expect):
        one = ScalarField(GRID, np.ones(GRID.shape))
        v = local_neg_norm(one, SobolevIndex(1.3, k))
        assert v == pytest.approx(expect, rel=1e-2)

    def test_constant_field_sup(self):
        one = ScalarField(GRID, np.ones(GRID.shape))
        assert local_neg_norm(one, SobolevIndex(0.7, math.inf)) == pytest.approx(1.0, abs=1e-10)

    def test_mollified_spike_dichotomy(self):
        # above the dimension threshold the norm stabilizes as the
        # mollification halves; below it grows like a power of the width
        stable = []
        growing = []
        for std in (0.02, 0.01, 0.005):
            f = gaussian_density(GRID, 0.0, std**2, normalize=True)
            stable.append(local_neg_norm(f, SobolevIndex(1.5, math.inf)))
            growing.append(local_neg_norm(f, SobolevIndex(0.5, math.inf)))
        assert abs(stable[1] - stable[0]) / stable[0] < 0.05
        assert abs(stable[2] - stable[1]) / stable[1] < 0.05
        assert growing[1] / growing[0] > 1.25
        assert growing[2] / growing[1] > 1.25

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(2)
        f = random_band_limited(GRID, 64, rng)
        idx = SobolevIndex(0.8, 3.0)
        base = local_neg_norm(f, idx)
        scaled = local_neg_norm(ScalarField(GRID, -2.5 * f.values), idx)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_band_limited(GRID, 128, rng)
            prev = math.inf
            for delta in (0.0, 0.5, 1.0, 2.0):
                v = local_neg_norm(f, SobolevIndex(delta, 2.0))
                assert v <= prev + 1e-9
                prev = v

    def test_sup_comparison(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = random_band_limited(GRID, 32, rng)
            for k in (1.0, 2.0, math.inf):
                idx = SobolevIndex(0.9, k)
                c = sup_comparison_constant(idx, 1)
                assert local_neg_norm(f, idx) <= c * np.abs(f.values).max() * (1 + 1e-6)

    def test_vector_field_magnitude(self):
        comp = gaussian_density(GRID, 0.0, 0.09).values
        vf = VectorField(GRID, [comp])
        sf = ScalarField(GRID, comp)
        idx = SobolevIndex(1.0, 2.0)
        assert local_neg_norm(vf, idx) == pytest.approx(local_neg_norm(sf, idx))

    def test_constant_field_2d(self):
        grid = GridSpec(2, 64, 8.0)
        one = ScalarField(grid, np.ones(grid.shape))
        for k in (2.0, math.inf):
            v = local_neg_norm(one, SobolevIndex(1.0, k))
            expect = 1.0 if math.isinf(k) else math.pi ** (1.0 / k)
            assert v == pytest.approx(expect, rel=2e-2)

    def test_spike_dichotomy_2d(self):
        # threshold moves with the dimension: bounded iff delta > 2; frozen
        # values from the Gamma-integral oracle at the origin (variance + 2t
        # inside), which separates the per-halving growth 1.64 vs 1.19
        grid = GridSpec(2, 128, 8.0)
        oracle = {1.5: [0.5472, 0.8978], 2.5: [0.1909, 0.2266]}
        vals = {1.5: [], 2.5: []}
        for std in (0.16, 0.08):
            f = gaussian_density(grid, [0.0, 0.0], std**2, normalize=True)
            for delta in vals:
                vals[delta].append(local_neg_norm(f, SobolevIndex(delta, math.inf)))
        for delta, frozen in oracle.items():
            for measured, expect in zip(vals[delta], frozen):
                assert measured == pytest.approx(expect, rel=2e-3)
        assert vals[2.5][1] / vals[2.5][0] < 1.25
        assert vals[1.5][1] / vals[1.5][0] > 1.5

    def test_probe_supports_k_one(self):
        d = gaussian_pair_diff(GRID, 0.1)
        idx = SobolevIndex(1.0, 1.0)
        v = measure_dual_norm(d, idx, "probe")
        assert v > 0
        assert v == pytest.approx(per_candidate_probe_norm(d, idx), rel=1e-12, abs=0)

    def test_lattice_refinement_tracked(self, monkeypatch):
        rng = np.random.default_rng(8)
        f = random_band_limited(GRID, 64, rng)
        idx = SobolevIndex(1.0, 2.0)
        coarse = local_neg_norm(f, idx)
        monkeypatch.setattr(norms, "_CENTER_SPACING", 0.03125)
        fine = local_neg_norm(f, idx)
        assert fine >= coarse - 1e-12
        assert (fine - coarse) / fine < 0.01


class TestMeasureDualNorm:
    def test_zero_difference(self):
        z = ScalarField(GRID, np.zeros(GRID.shape))
        idx = SobolevIndex(1.0, 2.0)
        assert measure_dual_norm(z, idx, "probe") == 0.0
        assert measure_dual_norm(z, idx, "amalgam") == 0.0

    def test_probe_below_amalgam(self):
        rng = np.random.default_rng(10)
        idx = SobolevIndex(1.0, 2.0)
        for shift in (0.05, 0.1, 0.3):
            d = gaussian_pair_diff(GRID, shift)
            br = measure_dual_bracket(d, idx)
            assert br["probe"] <= br["amalgam"] * (1 + 1e-9)
            want = per_candidate_probe_norm(d, idx)
            assert br["probe"] == pytest.approx(want, rel=1e-12, abs=0)
        for _ in range(5):
            w = random_band_limited(GRID, 32, rng)
            vals = w.values - w.values.mean()
            d = ScalarField(GRID, vals * gaussian_density(GRID, 0, 1.0).values)
            d = ScalarField(GRID, d.values - d.values.mean())
            br = measure_dual_bracket(d, idx)
            assert br["probe"] <= br["amalgam"] * (1 + 1e-9)

    def test_probe_stable_under_denser_search(self):
        # [DERIVED oracle] none of 1e4 random band-limited test functions,
        # sharpened by (1-Lap)^{delta/2}, pairs better than the structured
        # witnesses, at k = 2 and at k = 1
        d = gaussian_pair_diff(GRID, 0.1, 0.04)
        indices = [SobolevIndex(1.0, 2.0), SobolevIndex(1.0, 1.0)]
        n = GRID.points_per_dim
        bands = [max(1, n // 16), max(2, n // 4), n // 2]
        bessel = (1.0 + rfft_wavenumbers(GRID)[1]) ** -0.5
        rng = np.random.default_rng(1)
        best = np.zeros(len(indices))
        for _ in range(10):
            cands = np.array([bessel_sharpen(random_band_limited(GRID, bands[j % 3], rng),
                                             0.5).values for j in range(1000)])
            pairing = np.abs(cands @ d.values) * GRID.cell_volume
            spectra = rfft(cands, GRID.dim)
            for m, idx in enumerate(indices):
                cand_norms = norms._probe_norms(GRID, spectra, [bessel], idx)
                for j in (0, 1, 2):
                    want = local_neg_norm(ScalarField(GRID, cands[j]), idx)
                    assert cand_norms[j] == pytest.approx(want, rel=1e-9)
                best[m] = max(best[m], (pairing / cand_norms).max())
        for b, idx in zip(best, indices):
            # the search comes close (0.5) but never past the witnesses
            probe = measure_dual_norm(d, idx, "probe")
            assert 0.5 * probe <= b <= probe

    def test_scaling(self):
        d = gaussian_pair_diff(GRID, 0.1)
        idx = SobolevIndex(1.0, 2.0)
        v1 = measure_dual_norm(d, idx, "amalgam")
        v2 = measure_dual_norm(ScalarField(GRID, 3.0 * d.values), idx, "amalgam")
        assert v2 == pytest.approx(3.0 * v1, rel=1e-12)

    def test_rejects_k_one_amalgam(self):
        d = gaussian_pair_diff(GRID)
        with pytest.raises(ValueError):
            measure_dual_norm(d, SobolevIndex(1.0, 1.0), "amalgam")

    @pytest.mark.parametrize("k", [2.0, math.inf])
    def test_probe_rejects_torus_within_ball(self, k):
        # at extent 2 the unit ball covers the torus: no window is a ball,
        # whatever k is
        grid = GridSpec(1, 64, 2.0)
        rho = gaussian_density(grid, 0.0, 0.04, normalize=True)
        with pytest.raises(ValueError, match="too small for unit-ball windows"):
            measure_dual_norm(rho, SobolevIndex(1.0, k), "probe")

    def test_rejects_bad_mass(self):
        f = ScalarField(GRID, gaussian_density(GRID, 0, 0.04).values * 0.5)
        with pytest.raises(ValueError):
            measure_dual_norm(f, SobolevIndex(1.0, 2.0))

    def test_variation_comparison(self):
        # ||mu - nu||_var <= c(delta,k,d) * dual norm, c from the sup-bound
        rng = np.random.default_rng(12)
        idx = SobolevIndex(1.0, 2.0)
        c = sup_comparison_constant(idx, 1)
        for _ in range(50):
            v1 = 0.02 + 0.2 * rng.random()
            v2 = 0.02 + 0.2 * rng.random()
            m1, m2 = rng.uniform(-1, 1, size=2)
            a = gaussian_density(GRID, m1, v1)
            b = gaussian_density(GRID, m2, v2)
            d = ScalarField(GRID, a.values - b.values)
            tv = float(np.abs(d.values).sum()) * GRID.cell_volume
            lower = measure_dual_norm(d, idx, "probe")
            assert tv <= c * lower * (1 + 1e-6)


@pytest.mark.parametrize("dim, n, extent, per_side", [
    (1, 1024, 16.0, 16), (1, 1024, 10.0, 16), (1, 256, 5.0, 8), (1, 64, 2.0, 2),
    (1, 64, 0.5, 2), (1, 64, 2.5, 2), (1, 64, 3.5, 4), (2, 128, 16.0, 16), (2, 64, 8.0, 8),
])
def test_partition_cells_count_is_the_least_power_of_two_at_the_rounded_extent(
        dim, n, extent, per_side):
    assert norms._partition_cells(GridSpec(dim, n, extent)) == (per_side, n // per_side)


@pytest.mark.parametrize("dim, n, extent", [(1, 16, 20.0), (2, 16, 17.0)])
def test_partition_cells_refuses_more_cells_than_points(dim, n, extent):
    with pytest.raises(ValueError, match="cannot tile grid into cells"):
        norms._partition_cells(GridSpec(dim, n, extent))


WINDOW_GRIDS = [GridSpec(1, 2048, 16.0), GridSpec(1, 1024, 10.0), GridSpec(2, 128, 16.0),
                GridSpec(2, 64, 8.0)]


class TestWindowedSups:
    """The sums read at the lattice centers only, against the convolution
    over the whole grid read every ``_CENTER_SPACING``."""

    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0, 3.0, math.inf], ids=lambda k: f"k{k:g}")
    @pytest.mark.parametrize("grid", WINDOW_GRIDS,
                             ids=lambda g: f"{g.dim}d-{g.points_per_dim}-L{g.extent:g}")
    def test_matches_fft_oracle(self, grid, k):
        # 1024 points on extent 10: the center stride 51 does not divide n/2
        rng = np.random.default_rng(14)
        g = np.array([np.abs(random_band_limited(grid, band, rng).values) for band in (2, 8, 32)]
                     + [gaussian_density(grid, 0.3, 0.01).values, np.ones(grid.shape)])
        got = norms._windowed_sups(grid, g, SobolevIndex(0.0, k))
        np.testing.assert_allclose(got, fft_windowed_sups(grid, g, k), rtol=1e-13, atol=0)

    def test_one_chord_per_line(self):
        # 32 centers per axis, each with one chord per line the ball crosses;
        # in 1-d the line is cut only at the 64 chord ends
        cuts, hi, lo = norms._ball_chords(GridSpec(1, 2048, 16.0), 64)
        assert hi.shape == lo.shape == (1, 32, 1)
        assert len(cuts) == 64
        cuts, hi, lo = norms._ball_chords(GridSpec(2, 128, 16.0), 4)
        assert hi.shape == lo.shape == (32, 32, 17)


class TestOperatorExponentProbe:
    T_GRID = np.geomspace(0.01, 10**-0.5, 12)

    LOOP_GRID = GridSpec(1, 256, 16.0)
    LOOP_TIMES = np.geomspace(0.02, 0.02 * 10**1.5, 5)
    LOOP_CASES = ((0, SobolevIndex(1.0, 2.0), SobolevIndex(0.5, 4.0)),
                  (1, SobolevIndex(0.5, 2.0), SobolevIndex(0.0, math.inf)))

    @pytest.fixture(scope="class")
    def loop_fits(self):
        """Both cases of the loop comparison, fitted in one call."""
        return operator_exponent_probe(self.LOOP_CASES, self.LOOP_TIMES, grid=self.LOOP_GRID)

    def test_flat_case_slope_zero(self):
        idx = SobolevIndex(1.0, 2.0)
        (fit,) = operator_exponent_probe([(0, idx, idx)], self.T_GRID)
        assert abs(fit.slope) < 0.05

    def test_smoothing_case(self):
        frm = SobolevIndex(1.0, 2.0)
        to = SobolevIndex(0.0, math.inf)
        (fit,) = operator_exponent_probe([(0, frm, to)], self.T_GRID)
        assert abs(fit.slope - (-0.75)) < 0.08

    def test_gradient_case(self):
        idx = SobolevIndex(0.0, math.inf)
        (fit,) = operator_exponent_probe([(1, idx, idx)], self.T_GRID)
        assert abs(fit.slope - (-0.5)) < 0.05

    @pytest.mark.parametrize("case", [0, 1], ids=["i0-finite-k", "i1-inf-k"])
    def test_matches_a_loop_over_public_operators(self, loop_fits, case):
        # each fit of the one call against one heat_apply / heat_gradient and
        # local_neg_norm call per probe (1-Lap)^{frm.delta/2} f and time
        grid, t_grid = self.LOOP_GRID, self.LOOP_TIMES
        i, frm, to = self.LOOP_CASES[case]
        fit = loop_fits[case]
        assert len(loop_fits) == len(self.LOOP_CASES)

        def probes(stack):
            return [bessel_sharpen(ScalarField(grid, f), frm.delta / 2.0) for f in stack]

        family = probes(_probe_family(grid))
        estimates = []
        for t in t_grid:
            fields = family + probes(_matched_packets(grid, t))
            best = 0.0
            for f in fields:
                nin = local_neg_norm(f, frm)
                if nin > 1e-12:
                    out = heat_apply(f, t) if i == 0 else heat_gradient(f, t)
                    best = max(best, local_neg_norm(out, to) / nin)
            estimates.append(best)
        np.testing.assert_allclose(fit.estimates, estimates, rtol=1e-12, atol=0)

    def test_theory_formula(self):
        assert heat_norm_exponent(0, SobolevIndex(1, 2), SobolevIndex(0, math.inf), 1) == -0.75
        assert heat_norm_exponent(1, SobolevIndex(0, math.inf), SobolevIndex(0, math.inf), 1) == -0.5
        assert heat_norm_exponent(0, SobolevIndex(0.5, 1), SobolevIndex(0, 2), 1) == -0.5

    def test_rejects_short_span(self):
        idx = SobolevIndex(1.0, 2.0)
        with pytest.raises(ValueError):
            operator_exponent_probe([(0, idx, idx)], [0.1, 0.2, 0.4, 0.8])

    def test_rejects_wrong_ordering(self):
        idx = SobolevIndex(1.0, 2.0)
        with pytest.raises(ValueError, match="target index"):
            operator_exponent_probe([(0, idx, idx), (0, SobolevIndex(0.0, 2.0), idx)],
                                    self.T_GRID)

    def test_rejects_no_case(self):
        with pytest.raises(ValueError, match="at least one"):
            operator_exponent_probe([], self.T_GRID)

    @pytest.mark.parametrize("k", [2.0, math.inf])
    def test_rejects_torus_within_ball(self, k):
        # at extent 2 the unit ball covers the torus: refused, not fitted
        idx = SobolevIndex(0.0, k)
        with pytest.raises(ValueError, match="too small for unit-ball windows"):
            operator_exponent_probe([(0, idx, idx)], self.T_GRID, grid=GridSpec(1, 256, 2.0))


@pytest.mark.parametrize("grid", [GridSpec(1, 1024, 16.0), GridSpec(2, 64, 8.0)],
                         ids=["1d", "2d"])
class TestPackets:
    """Envelopes and carriers evaluated once give the row-by-row packets bit
    for bit."""

    def test_packets_match_rows(self, grid):
        widths = np.geomspace(4 * grid.spacing, grid.extent / 8.0, 3)
        for freqs in ((0.0,), (0.0, 1.5, 7.0), (2.0,), ()):
            want = row_packets(grid, widths, freqs)
            assert np.array_equal(_packets(grid, widths, freqs), want)
        assert _packets(grid, [], (0.0, 1.0)).shape == (0,) + grid.shape

    def test_probe_family_matches_rows(self, grid, monkeypatch):
        got = _probe_family(grid)
        monkeypatch.setattr(norms, "_packets", row_packets)
        assert np.array_equal(got, _probe_family(grid))

    @pytest.mark.parametrize("t", [1e-6, 0.01, 0.3])  # 1e-6: no width resolvable
    def test_matched_packets_match_rows(self, grid, monkeypatch, t):
        got = _matched_packets(grid, t)
        monkeypatch.setattr(norms, "_packets", row_packets)
        assert np.array_equal(got, _matched_packets(grid, t))
