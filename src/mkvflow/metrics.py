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

from .grids import ScalarField, _require_number, _require_numbers

__all__ = [
    "GaussianSpec",
    "wasserstein_1d",
    "relative_entropy",
]

ENTROPY_VANISH_MASS = 1e-12
QUANTILE_NODES = 32768  # midpoint nodes in u of the quantile integrals


@dataclass(frozen=True)
class GaussianSpec:
    """Isotropic Gaussian law: mean a non-empty tuple of finite numbers, one per
    coordinate, and per-coordinate variance a number in (0, inf)."""

    mean: tuple
    variance: float

    def __post_init__(self):
        _require_number("variance", self.variance, 0, strict=True)
        _require_numbers("mean", self.mean)


# ---------------------------------------------------------------------------
# one-dimensional transport via quantiles


def _pchip(xs: np.ndarray, ys: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson monotone cubic interpolant of the table ``(xs, ys)``,
    at least three nodes, evaluated at ``at`` in [xs[0], xs[-1]].

    It has the derivative rules and the term order of scipy's
    ``PchipInterpolator``, whose values it reproduces bit for bit.  Flat or
    tiny slopes divide by zero or overflow; the caller sets ``np.errstate``.
    """
    h = np.diff(xs)
    m = np.diff(ys) / h
    # interior: weighted harmonic mean of the neighbouring slopes, zero
    # where they differ in sign or either one is zero
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.zeros_like(ys)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[1:-1][(np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)] = 0.0
    # ends: Moler's one-sided three-point rule, limited to keep the shape
    for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2])):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            e = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(e) > 3 * abs(m0):
            e = 3 * m0
        d[end] = e
    t = (d[:-1] + d[1:] - 2 * m) / h
    c2, c3 = (m - d[:-1]) / h - t, t / h
    i = np.clip(np.searchsorted(xs, at, side="right") - 1, 0, h.size - 1)
    s = at - xs[i]
    # scipy's term order, not Horner's: it is what keeps the bits
    return ys[i] + d[i] * s + c2[i] * (s * s) + c3[i] * (s * s * s)


def _density_quantiles(rho: ScalarField, u: np.ndarray) -> np.ndarray:
    """Quantile function of a 1-d grid density at ``u``.

    The cumulative table at the cell edges is interpolated by the monotone
    piecewise-cubic Hermite (PCHIP) interpolant of Fritsch & Carlson (SIAM
    J. Numer. Anal. 17, 1980), ``_pchip``, sampled 16 times per cell, and
    the samples are inverted by linear interpolation.
    """
    grid = rho.grid
    x = grid.axis_coords()
    h = grid.spacing
    # left-edge cumulative sums; prepend 0 at the domain edge
    cdf = np.concatenate([[0.0], np.cumsum(rho.values) * h])
    xs = np.concatenate([[x[0] - 0.5 * h], x + 0.5 * h])
    cdf = np.maximum.accumulate(cdf / cdf[-1])
    fine_x = np.linspace(xs[0], xs[-1], 16 * len(xs))  # 16 points per cell
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # flat tail segments divide by zero slopes and tiny ones overflow;
        # the interpolant's zero derivatives there are what we want
        fine_c = np.maximum.accumulate(np.clip(_pchip(xs, cdf, fine_x), 0.0, 1.0))
    return np.interp(u, fine_c, fine_x)


def _samples(positions) -> np.ndarray:
    """Flat view of 1-d sample positions, raising unless they are finite and
    of shape (N,) or (N, 1) with N >= 1."""
    x = np.asarray(positions)
    if x.ndim not in (1, 2) or x.shape[1:] not in ((), (1,)):
        raise ValueError(f"samples must have shape (N,) or (N, 1), got {x.shape}")
    if not x.size:
        raise ValueError("samples must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    return x.ravel()


def _transport_distances(rho: ScalarField, others, q: float) -> list:
    """Order-q transport distance between the 1-d grid density ``rho`` and
    each of ``others``, densities on its grid or 1-d sample positions: the
    inputs checked, then the midpoint rule in u of |F^{-1}(u) - G^{-1}(u)|^q,
    with the quantiles of ``rho`` built once."""
    if rho.grid.dim != 1:
        raise ValueError(f"one-dimensional densities required, got dim {rho.grid.dim}")
    if any(isinstance(o, ScalarField) and o.grid != rho.grid for o in others):
        raise ValueError("densities must share a grid")
    _require_number("q", q, 1)
    rho.require_density()
    others = [o.require_density() if isinstance(o, ScalarField) else _samples(o)
              for o in others]
    u = (np.arange(QUANTILE_NODES) + 0.5) / QUANTILE_NODES
    rho_q = _density_quantiles(rho, u)
    distances = []
    for o in others:
        o_q = _density_quantiles(o, u) if isinstance(o, ScalarField) else empirical_quantiles(o, u)
        distances.append(float(np.mean(np.abs(rho_q - o_q) ** q) ** (1.0 / q)))
    return distances


def wasserstein_1d(rho1: ScalarField, rho2: ScalarField, q: float = 1.0) -> float:
    """Transport distance of order q between densities on a 1-d grid.

    Integrates |F1^{-1}(u) - F2^{-1}(u)|^q over u with a midpoint rule,
    evaluating the inverse CDFs by monotone interpolation of refined
    cumulative tables (the monotone rearrangement is the optimal coupling
    for every q >= 1).
    """
    return _transport_distances(rho1, [rho2], q)[0]


def empirical_quantiles(positions: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Quantile function of the empirical measure of 1-d samples."""
    xs = np.sort(positions)
    idx = np.minimum((u * xs.size).astype(int), xs.size - 1)
    return xs[idx]


def wasserstein_1d_empirical_many(samples, rho: ScalarField, q: float = 1.0) -> list:
    """Transport distance of order q from each of ``samples``, finite positions
    of shape (N,) or (N, 1), to a density ``rho`` on a 1-d grid, checked and
    integrated as ``wasserstein_1d``, with the quantiles of ``rho`` built once."""
    return _transport_distances(rho, list(samples), q)


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

