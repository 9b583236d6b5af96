"""Windowed negative-Sobolev norms and the dual norm on measures.

The function norm is ``sup_z || 1_{B(z,1)} (1-Lap)^{-delta/2} f ||_{L^k}``
with the sup taken over a lattice of ball centers.  The dual norm on
(differences of) measures is not computable exactly; it is bracketed by a
certified lower bound (maximize the pairing over concrete test functions)
and an upper surrogate (cell-partition sum dual to the windowed structure).
Inequality checks elsewhere always use the bracket conservatively.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import (
    GridSpec,
    ScalarField,
    VectorField,
    _periodic_sq_distance,
    bessel_apply,
    bessel_sharpen,
    heat_apply,
    heat_gradient,
    irfft,
    random_band_limited,
    rfft,
)

__all__ = [
    "SobolevIndex",
    "BallLattice",
    "local_neg_norm",
    "measure_dual_norm",
    "measure_dual_bracket",
    "operator_exponent_probe",
    "heat_norm_exponent",
    "sup_comparison_constant",
    "ProbeFit",
]

BALL_RADIUS = 1.0


def _inv(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


@dataclass(frozen=True)
class SobolevIndex:
    """Pair (delta, k) indexing the windowed negative-Sobolev scale.

    ``k = math.inf`` is a first-class value; the sharpest statements live at
    ``(delta, inf)``.
    """

    delta: float
    k: float

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1 (or inf), got {self.k}")

    @property
    def conjugate(self) -> float:
        """Holder conjugate of k; inf for k=1."""
        if math.isinf(self.k):
            return 1.0
        if self.k == 1:
            return math.inf
        return self.k / (self.k - 1.0)


@dataclass(frozen=True)
class BallLattice:
    """Lattice of unit-ball centers used to approximate the sup over centers.

    ``spacing`` must be <= 0.5 so the lattice resolves the windowed sup; the
    ball radius is fixed at one.  Centers finer than the grid collapse to the
    grid itself.
    """

    spacing: float = 0.5

    def __post_init__(self):
        if not (0 < self.spacing <= 0.5):
            raise ValueError(f"lattice spacing must lie in (0, 0.5], got {self.spacing}")

    def stride(self, grid: GridSpec) -> int:
        return max(1, int(self.spacing / grid.spacing))


@functools.lru_cache(maxsize=16)
def _ball_spectrum(grid: GridSpec) -> np.ndarray:
    """Half-lattice spectrum of the unit-ball indicator (real: the ball is even)."""
    spec = rfft((grid.periodic_radius() <= BALL_RADIUS).astype(float))
    spec.setflags(write=False)
    return spec


def _windowed_power_sums(grid: GridSpec, power_values: np.ndarray) -> np.ndarray:
    """Integral of ``power_values`` over the unit ball around every grid point."""
    conv = irfft(rfft(power_values) * _ball_spectrum(grid), grid.shape)
    return np.maximum(conv, 0.0) * grid.cell_volume


def _smoothed_magnitude(f, idx: SobolevIndex) -> np.ndarray:
    if isinstance(f, VectorField):
        comps = [bessel_apply(ScalarField(f.grid, c), idx.delta / 2.0).values
                 for c in f.components]
        out = comps[0] ** 2
        for c in comps[1:]:
            out = out + c**2
        return np.sqrt(out)
    return np.abs(bessel_apply(f, idx.delta / 2.0).values)


def local_neg_norm(f, idx: SobolevIndex, lat: BallLattice | None = None) -> float:
    """Windowed norm ``sup_z ||1_{B(z,1)} (1-Lap)^{-delta/2} f||_{L^k}``.

    Vector fields are smoothed componentwise and measured through the
    Euclidean magnitude.  For finite k the windowed integrals at all grid
    centers come from one FFT convolution with the ball indicator and the
    lattice picks a subsample; for k = inf every point is covered by some
    ball, so the windowed sup equals the global sup.
    """
    lat = lat or BallLattice()
    grid = f.grid
    if grid.extent <= 2 * BALL_RADIUS:
        raise ValueError(f"torus extent {grid.extent} too small for unit-ball windows")
    g = _smoothed_magnitude(f, idx)
    if math.isinf(idx.k):
        return float(g.max())
    stride = lat.stride(grid)
    sums = _windowed_power_sums(grid, g**idx.k)
    sub = sums[(slice(None, None, stride),) * grid.dim]
    return float(sub.max() ** (1.0 / idx.k))


def sup_comparison_constant(idx: SobolevIndex, dim: int) -> float:
    """Constant c with ``local_neg_norm(f) <= c * sup|f|``.

    The Bessel kernel is a probability kernel, so the windowed L^k norm of a
    bounded field is at most the unit-ball volume to the power 1/k.
    """
    vol = 2.0 * math.pi ** (0.5 * dim) / (dim * math.gamma(0.5 * dim))  # |B^d(0, 1)|
    return vol ** _inv(idx.k)


# ---------------------------------------------------------------------------
# dual norm on (differences of) measures


def _partition_cells(grid: GridSpec):
    """Disjoint cubes of side ~1 tiling the torus, each inside some unit ball."""
    per_side = max(2, int(round(grid.extent)))
    side_pts = grid.points_per_dim // per_side
    while side_pts * per_side != grid.points_per_dim:
        per_side += 1
        side_pts = grid.points_per_dim // per_side
        if per_side > grid.points_per_dim:
            raise ValueError("cannot tile grid into cells")
    # cells of side extent/per_side <= 2/sqrt(dim) keeps probe <= amalgam rigorous
    side = grid.extent / per_side
    if side > 2.0 / math.sqrt(grid.dim):
        raise ValueError(f"cell side {side:.3f} too large for duality bound")
    return per_side, side_pts


def _amalgam_norm(rho: ScalarField, idx: SobolevIndex) -> float:
    if idx.k == 1:
        raise ValueError("amalgam method unsupported at k=1 (conjugate exponent is inf)")
    kp = idx.conjugate
    u = np.abs(bessel_sharpen(rho, idx.delta / 2.0).values)
    grid = rho.grid
    per_side, side_pts = _partition_cells(grid)
    # axes (cell, point in cell) per dimension; sum over the points
    blocks = u.reshape((per_side, side_pts) * grid.dim)
    cell_norms = (blocks**kp).sum(axis=tuple(range(1, 2 * grid.dim, 2))) * grid.cell_volume
    return float((cell_norms ** (1.0 / kp)).sum())


def _probe_candidates(rho: ScalarField, idx: SobolevIndex, probes: int, seed):
    """Test-function family: structured witnesses plus shaped random noise."""
    rng = np.random.default_rng(seed)
    grid = rho.grid
    n = grid.points_per_dim
    cands = []
    # sign pattern of the input attains the variation pairing
    sgn = np.sign(rho.values)
    if np.any(sgn):
        cands.append(sgn)
    cands.append(np.ones(grid.shape))
    # the sharpened input itself is the L2-dual witness
    cands.append(bessel_sharpen(rho, idx.delta).values)
    bands = [max(1, n // 16), max(2, n // 4), n // 2]
    for j in range(max(0, probes)):
        w = random_band_limited(grid, bands[j % len(bands)], rng)
        cands.append(bessel_sharpen(w, idx.delta / 2.0).values)
    return cands


def _probe_norm(rho: ScalarField, idx: SobolevIndex, probes: int, seed) -> float:
    if probes <= 0:
        raise ValueError(f"probe method needs probes >= 1, got {probes}")
    grid = rho.grid
    best = 0.0
    for vals in _probe_candidates(rho, idx, probes, seed):
        g = ScalarField(grid, vals)
        nrm = local_neg_norm(g, idx)
        if nrm <= 0 or not np.isfinite(nrm):
            continue
        pairing = abs(float((rho.values * vals).sum()) * grid.cell_volume) / nrm
        best = max(best, pairing)
    return best


def measure_dual_norm(rho: ScalarField, idx: SobolevIndex, method: str = "amalgam",
                      probes: int = 64, seed: int = 0) -> float:
    """Dual norm of a measure (mass 1) or difference of measures (mass 0).

    ``method='amalgam'`` sums cellwise conjugate norms of the sharpened
    density: an upper-equivalent surrogate, exact duality up to the
    cell/ball mismatch.  ``method='probe'`` maximizes |integral of rho * g|
    over normalized test functions: a certified lower bound.
    """
    m = rho.mass()
    if not (abs(m) < 1e-6 or abs(m - 1.0) < 1e-6):
        raise ValueError(f"input must integrate to 0 or 1, got mass {m:.3e}")
    if method == "amalgam":
        return _amalgam_norm(rho, idx)
    if method == "probe":
        return _probe_norm(rho, idx, probes, seed)
    raise ValueError(f"unknown method {method!r}")


def measure_dual_bracket(rho: ScalarField, idx: SobolevIndex, seed: int = 0) -> dict:
    """Both bracket sides and their ratio, for tracking surrogate slack."""
    lo = measure_dual_norm(rho, idx, "probe", seed=seed)
    hi = measure_dual_norm(rho, idx, "amalgam")
    return {"probe": lo, "amalgam": hi, "ratio": hi / lo if lo > 0 else math.inf}


# ---------------------------------------------------------------------------
# empirical operator exponents for the heat flow


def heat_norm_exponent(i: int, frm: SobolevIndex, to: SobolevIndex, dim: int) -> float:
    """Predicted log-log slope of the heat operator norm between two indices."""
    return -(i + frm.delta - to.delta) / 2.0 - 0.5 * dim * (_inv(frm.k) - _inv(to.k))


@dataclass
class ProbeFit:
    slope: float
    intercept: float
    t_values: np.ndarray
    estimates: np.ndarray
    probes_used: int
    seed: int

    def csv_rows(self):
        """Rows in the probe-report layout (t, norm_estimate, probes_used, seed)."""
        return [(float(t), float(v), self.probes_used, self.seed)
                for t, v in zip(self.t_values, self.estimates)]


def _packet(grid: GridSpec, width: float, freq: float, center: float,
            phase: float) -> ScalarField:
    """Gaussian-envelope wave packet with periodic distance to the center."""
    env = np.exp(-0.5 * _periodic_sq_distance(grid, (center,) * grid.dim) / width**2)
    return ScalarField(grid, env * np.cos(freq * grid.coords()[0] + phase))


def _probe_family(grid: GridSpec, frm: SobolevIndex, probes: int, rng):
    """Base inputs spanning the unit ball's extreme directions.

    Shaped band-limited noise alone biases the fitted slope whenever the
    extremizer is a scale-matched packet (notably the gradient and the
    concentrated-source cases), so the family also carries Gabor-type packets
    over a log-grid of widths and frequencies and a constant field.
    """
    n = grid.points_per_dim
    fields = [ScalarField(grid, np.ones(grid.shape))]
    n_noise = max(6, probes // 2)
    bands = np.unique(np.geomspace(1, n // 2, 7).astype(int))
    for j in range(n_noise):
        w = random_band_limited(grid, int(bands[j % len(bands)]), rng)
        fields.append(bessel_sharpen(w, frm.delta / 2.0))
    xi_max = math.pi / grid.spacing
    widths = np.geomspace(4 * grid.spacing, grid.extent / 8.0, 5)
    freqs = np.concatenate([[0.0], np.geomspace(2.0 * math.pi / grid.extent,
                                                0.5 * xi_max, 6)])
    for s in widths:
        for q in freqs:
            pk = _packet(grid, s, q, rng.uniform(-grid.extent / 4, grid.extent / 4),
                         rng.uniform(0, 2 * math.pi))
            fields.append(bessel_sharpen(pk, frm.delta / 2.0))
    return fields


def _matched_packets(grid: GridSpec, frm: SobolevIndex, t: float):
    """Packets tuned to the diffusive scale sqrt(t), deterministic.

    The heat operator norm between windowed indices is attained (up to
    constants) by inputs concentrated at width ~ sqrt(t) or oscillating at
    frequency ~ 1/sqrt(t); a fixed family misses those scales between its
    log-grid points, so a few matched probes per time sharpen the estimate.
    Both norms are translation invariant, so centering at the origin loses
    nothing; two carrier phases cover grid alignment.
    """
    rt = math.sqrt(t)
    fields = []
    for s in (0.25 * rt, 0.4 * rt, 0.65 * rt, 1.0 * rt, 1.6 * rt):
        if s < grid.spacing or s > grid.extent / 4:
            continue
        for q in (0.0, 0.5 / rt, 0.8 / rt, 1.2 / rt, 1.8 / rt):
            for phase in ((0.0,) if q == 0.0 else (0.0, 0.5 * math.pi)):
                pk = _packet(grid, s, q, 0.0, phase)
                fields.append(bessel_sharpen(pk, frm.delta / 2.0))
    return fields


def operator_exponent_probe(i: int, frm: SobolevIndex, to: SobolevIndex,
                            t_grid, probes: int = 24, seed: int = 0,
                            grid: GridSpec | None = None) -> ProbeFit:
    """Fit the time exponent of the heat operator norm between two indices.

    For each t the operator norm is estimated from below by maximizing the
    output/input norm ratio over the probe family; the log-log slope across
    ``t_grid`` is fitted by least squares.

    Preconditions: ``to.delta <= frm.delta``, ``frm.k <= to.k`` and a time
    grid spanning at least 1.5 decades.
    """
    if i not in (0, 1):
        raise ValueError(f"derivative count i must be 0 or 1, got {i}")
    if to.delta > frm.delta or to.k < frm.k:
        raise ValueError("target index must have smaller delta and larger k")
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size < 4 or t_grid[0] <= 0:
        raise ValueError("need at least 4 positive times")
    if t_grid[-1] / t_grid[0] < 10**1.5:
        raise ValueError("time grid must span at least 1.5 decades")
    grid = grid or GridSpec(1, 2048, 16.0)
    rng = np.random.default_rng(seed)
    family = _probe_family(grid, frm, probes, rng)
    in_norms = [local_neg_norm(f, frm) for f in family]
    estimates = np.empty_like(t_grid)
    n_probes = len(family)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-t probes are intentional
        for j, t in enumerate(t_grid):
            matched = _matched_packets(grid, frm, t)
            n_probes = max(n_probes, len(family) + len(matched))
            best = 0.0
            for f, nin in zip(family + matched,
                              in_norms + [local_neg_norm(f, frm) for f in matched]):
                if nin <= 1e-12:
                    continue
                if i == 0:
                    out = heat_apply(f, t)
                else:
                    out = heat_gradient(f, t)
                best = max(best, local_neg_norm(out, to) / nin)
            estimates[j] = best
    slope, intercept = np.polyfit(np.log(t_grid), np.log(estimates), 1)
    return ProbeFit(float(slope), float(intercept), t_grid, estimates,
                    n_probes, seed)
