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


def _quantile_table(rho: ScalarField):
    """Monotone CDF samples on a refined axis, for inverse interpolation."""
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
    return fine_x, fine_c


def wasserstein_1d(rho1: ScalarField, rho2: ScalarField, q: float = 1.0) -> float:
    """Transport distance of order q between densities on a 1-d grid.

    Integrates |F1^{-1}(u) - F2^{-1}(u)|^q over u with a midpoint rule,
    evaluating the inverse CDFs by monotone interpolation of refined
    cumulative tables (the monotone rearrangement is the optimal coupling
    for every q >= 1).
    """
    if rho1.grid.dim != 1:
        raise ValueError(f"one-dimensional densities required, got dim {rho1.grid.dim}")
    if rho1.grid != rho2.grid:
        raise ValueError("densities must share a grid")
    if q < 1:
        raise ValueError(f"order q must be >= 1, got {q}")
    rho1.require_density()
    rho2.require_density()
    x1, c1 = _quantile_table(rho1)
    x2, c2 = _quantile_table(rho2)
    u = (np.arange(QUANTILE_NODES) + 0.5) / QUANTILE_NODES
    q1 = np.interp(u, c1, x1)
    q2 = np.interp(u, c2, x2)
    return float(np.mean(np.abs(q1 - q2) ** q) ** (1.0 / q))


def empirical_quantiles(positions: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Quantile function of the empirical measure of 1-d samples."""
    xs = np.sort(positions)
    idx = np.minimum((u * xs.size).astype(int), xs.size - 1)
    return xs[idx]


def wasserstein_1d_empirical(positions: np.ndarray, rho: ScalarField,
                             q: float = 1.0) -> float:
    """Transport distance between an empirical sample and a grid density."""
    x2, c2 = _quantile_table(rho)
    u = (np.arange(QUANTILE_NODES) + 0.5) / QUANTILE_NODES
    qe = empirical_quantiles(np.asarray(positions).ravel(), u)
    qd = np.interp(u, c2, x2)
    return float(np.mean(np.abs(qe - qd) ** q) ** (1.0 / q))


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

