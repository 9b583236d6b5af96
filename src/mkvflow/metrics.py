"""Distances and divergences between probability measures.

Transport distances are exact: the one-dimensional case goes through
quantile functions (the monotone coupling is optimal for every convex cost),
and the discrete case solves the transport linear program.  Relative entropy
and total variation are grid quadratures with documented conventions: the
variation norm is the total mass of the difference (range [0, 2]) and the
entropy returns +inf as soon as more than 1e-12 of the first measure's mass
sits where the second density vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .grids import GridSpec, ScalarField, gaussian_density

__all__ = [
    "DiscreteMeasure",
    "GaussianSpec",
    "wasserstein_1d",
    "wasserstein_discrete",
    "relative_entropy",
    "total_variation",
    "gaussian_w2",
    "gaussian_entropy",
]

ENTROPY_VANISH_MASS = 1e-12
DISCRETE_SIZE_CAP = 10**6


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure: points (m, dim) and weights summing to 1."""

    points: tuple
    weights: tuple

    @staticmethod
    def create(points, weights) -> "DiscreteMeasure":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 1 and pts.shape[1] > 2:
            pts = pts.T
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size != pts.shape[0]:
            raise ValueError("weights must be one per point")
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum():.15f}")
        return DiscreteMeasure(tuple(map(tuple, pts)), tuple(w))

    @property
    def array_points(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @property
    def array_weights(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class GaussianSpec:
    """Isotropic Gaussian, the closed-form oracle family."""

    mean: tuple
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    def density(self, grid: GridSpec) -> ScalarField:
        return gaussian_density(grid, list(self.mean), self.variance)

    @property
    def dim(self) -> int:
        return len(self.mean)


def gaussian_w2(a: GaussianSpec, b: GaussianSpec) -> float:
    """Closed-form quadratic transport distance between isotropic Gaussians."""
    dm = np.asarray(a.mean) - np.asarray(b.mean)
    ds = math.sqrt(a.variance) - math.sqrt(b.variance)
    return math.sqrt(float(dm @ dm) + a.dim * ds**2)


def gaussian_entropy(a: GaussianSpec, b: GaussianSpec) -> float:
    """Closed-form relative entropy between isotropic Gaussians."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d = a.dim
    r = a.variance / b.variance
    dm = np.asarray(a.mean) - np.asarray(b.mean)
    return 0.5 * (d * (r - 1.0 - math.log(r)) + float(dm @ dm) / b.variance)


# ---------------------------------------------------------------------------
# one-dimensional transport via quantiles


def _quantile_table(rho: ScalarField, refine: int = 16):
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
        fine_x = np.linspace(xs[0], xs[-1], refine * len(xs))
        fine_c = np.maximum.accumulate(np.clip(interp(fine_x), 0.0, 1.0))
    return fine_x, fine_c


def wasserstein_1d(rho1: ScalarField, rho2: ScalarField, q: float = 1.0,
                   u_nodes: int = 32768) -> float:
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
    u = (np.arange(u_nodes) + 0.5) / u_nodes
    q1 = np.interp(u, c1, x1)
    q2 = np.interp(u, c2, x2)
    return float(np.mean(np.abs(q1 - q2) ** q) ** (1.0 / q))


def empirical_quantiles(positions: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Quantile function of the empirical measure of 1-d samples."""
    xs = np.sort(positions)
    idx = np.minimum((u * xs.size).astype(int), xs.size - 1)
    return xs[idx]


def wasserstein_1d_empirical(positions: np.ndarray, rho: ScalarField,
                             q: float = 1.0, u_nodes: int = 32768) -> float:
    """Transport distance between an empirical sample and a grid density."""
    x2, c2 = _quantile_table(rho)
    u = (np.arange(u_nodes) + 0.5) / u_nodes
    qe = empirical_quantiles(np.asarray(positions).ravel(), u)
    qd = np.interp(u, c2, x2)
    return float(np.mean(np.abs(qe - qd) ** q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# discrete transport as a linear program (min-cost flow on the bipartite graph)


def wasserstein_discrete(a: DiscreteMeasure, b: DiscreteMeasure, q: float = 1.0) -> float:
    """Exact order-q transport distance between finitely supported measures."""
    from scipy.optimize import linprog  # here: keeps scipy.optimize off start-up

    if q < 1:
        raise ValueError(f"order q must be >= 1, got {q}")
    pa, wa = a.array_points, a.array_weights
    pb, wb = b.array_points, b.array_weights
    m, n = len(wa), len(wb)
    if m * n > DISCRETE_SIZE_CAP:
        raise ValueError(f"problem size {m}x{n} exceeds cap {DISCRETE_SIZE_CAP}")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("point dimensions differ")
    diff = pa[:, None, :] - pb[None, :, :]
    cost = (np.sqrt((diff**2).sum(axis=2)) ** q).ravel()
    # row/column marginal constraints on the m*n transport variables
    rows_i, rows_j, vals = [], [], []
    for i in range(m):
        rows_i.extend([i] * n)
        rows_j.extend(range(i * n, (i + 1) * n))
        vals.extend([1.0] * n)
    for j in range(n):
        rows_i.extend([m + j] * m)
        rows_j.extend(range(j, m * n, n))
        vals.extend([1.0] * m)
    A = sparse.csr_matrix((vals, (rows_i, rows_j)), shape=(m + n, m * n))
    rhs = np.concatenate([wa, wb])
    res = linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun ** (1.0 / q))


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


def total_variation(rho1: ScalarField, rho2: ScalarField) -> float:
    """Total mass of the difference |rho1 - rho2|; lies in [0, 2]."""
    rho1.require_density()
    rho2.require_density()
    if rho1.grid != rho2.grid:
        raise ValueError("densities must share a grid")
    return float(np.abs(rho1.values - rho2.values).sum()) * rho1.grid.cell_volume
