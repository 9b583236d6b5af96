"""Distances and divergences between probability measures on the grid.

The one-dimensional transport distances go through quantile functions (the
monotone coupling is optimal for every convex cost).  Relative entropy is a
grid quadrature that returns +inf as soon as more than 1e-12 of the first
measure's mass sits where the second density vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, ScalarField, gaussian_density

__all__ = [
    "GaussianSpec",
    "wasserstein_1d",
    "relative_entropy",
]

ENTROPY_VANISH_MASS = 1e-12
QUANTILE_NODES = 32768  # midpoint nodes in u of the quantile integrals


@dataclass(frozen=True)
class GaussianSpec:
    """Isotropic Gaussian law: finite mean, per-coordinate variance in (0, inf)."""

    mean: tuple
    variance: float

    def __post_init__(self):
        if not 0 < self.variance < math.inf:
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if not all(math.isfinite(m) for m in self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")

    def density(self, grid: GridSpec) -> ScalarField:
        return gaussian_density(grid, list(self.mean), self.variance)

    @property
    def dim(self) -> int:
        return len(self.mean)


# ---------------------------------------------------------------------------
# one-dimensional transport via quantiles


def _density_quantiles(rho: ScalarField, u: np.ndarray) -> np.ndarray:
    """Quantile function of a 1-d grid density at ``u``: inverse interpolation
    of monotone CDF samples on a refined axis."""
    from scipy.interpolate import PchipInterpolator  # here: it loads scipy.optimize

    grid = rho.grid
    x = grid.axis_coords()
    h = grid.spacing
    # left-edge cumulative sums; prepend 0 at the domain edge
    cdf = np.concatenate([[0.0], np.cumsum(rho.values) * h])
    xs = np.concatenate([[x[0] - 0.5 * h], x + 0.5 * h])
    cdf = np.maximum.accumulate(cdf / cdf[-1])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # flat tail segments make the monotone interpolant divide by zero
        # slopes internally; its zero-derivative handling is what we want
        interp = PchipInterpolator(xs, cdf)
        fine_x = np.linspace(xs[0], xs[-1], 16 * len(xs))  # 16 points per cell
        fine_c = np.maximum.accumulate(np.clip(interp(fine_x), 0.0, 1.0))
    return np.interp(u, fine_c, fine_x)


def _transport_distance(rho: ScalarField, other, q: float) -> float:
    """Order-q transport distance between the 1-d grid density ``rho`` and
    ``other``, a density on its grid or 1-d sample positions: the inputs
    checked, then the midpoint rule in u of |F^{-1}(u) - G^{-1}(u)|^q."""
    if rho.grid.dim != 1:
        raise ValueError(f"one-dimensional densities required, got dim {rho.grid.dim}")
    density = isinstance(other, ScalarField)
    if density and other.grid != rho.grid:
        raise ValueError("densities must share a grid")
    if q < 1:
        raise ValueError(f"order q must be >= 1, got {q}")
    rho.require_density()
    u = (np.arange(QUANTILE_NODES) + 0.5) / QUANTILE_NODES
    if density:
        other_q = _density_quantiles(other.require_density(), u)
    else:
        other_q = empirical_quantiles(np.asarray(other).ravel(), u)
    return float(np.mean(np.abs(_density_quantiles(rho, u) - other_q) ** q) ** (1.0 / q))


def wasserstein_1d(rho1: ScalarField, rho2: ScalarField, q: float = 1.0) -> float:
    """Transport distance of order q between densities on a 1-d grid.

    Integrates |F1^{-1}(u) - F2^{-1}(u)|^q over u with a midpoint rule,
    evaluating the inverse CDFs by monotone interpolation of refined
    cumulative tables (the monotone rearrangement is the optimal coupling
    for every q >= 1).
    """
    return _transport_distance(rho1, rho2, q)


def empirical_quantiles(positions: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Quantile function of the empirical measure of 1-d samples."""
    xs = np.sort(positions)
    idx = np.minimum((u * xs.size).astype(int), xs.size - 1)
    return xs[idx]


def wasserstein_1d_empirical(positions: np.ndarray, rho: ScalarField,
                             q: float = 1.0) -> float:
    """Transport distance of order q between an empirical sample and a
    density on a 1-d grid, checked and integrated as ``wasserstein_1d``."""
    return _transport_distance(rho, positions, q)


# ---------------------------------------------------------------------------
# divergences


def relative_entropy(rho1: ScalarField, rho2: ScalarField) -> float:
    """Relative entropy (KL divergence) between grid densities; may be +inf."""
    rho1.require_density()
    rho2.require_density()
    if rho1.grid != rho2.grid:
        raise ValueError("densities must share a grid")
    w = rho1.grid.cell_volume
    p = np.maximum(rho1.values, 0.0)
    qv = rho2.values
    vanished = qv <= 0.0
    if float(p[vanished].sum()) * w > ENTROPY_VANISH_MASS:
        return math.inf
    mask = (p > 0.0) & ~vanished
    return max(float((p[mask] * np.log(p[mask] / qv[mask])).sum()) * w, 0.0)

