"""Periodic-grid fields and spectral operators.

Everything lives on a uniform grid over a centered torus ``[-L/2, L/2)^d``
with ``d`` in {1, 2}.  The heat semigroup, its gradient, Bessel-potential
smoothing and spatial derivatives are all Fourier multipliers, so they are
exact on band-limited data and mass/positivity behave as for the continuum
operators up to FFT roundoff.  All of them act on the real-FFT half lattice
through read-only arrays cached per ``GridSpec``, shared with other modules.
Every real transform of the package goes through ``rfft``/``irfft``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.special import gammaln

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "heat_apply",
    "heat_gradient",
    "bessel_apply",
    "bessel_sharpen",
    "field_derivative",
    "rfft",
    "irfft",
    "rfft_wavenumbers",
    "gaussian_density",
    "grid_delta",
    "random_band_limited",
]

MAX_DERIVATIVE_ORDER = 4

# Gaussian std below this many grid cells is flagged as under-resolved.
_RESOLUTION_CELLS = 2.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on a centered torus.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    points_per_dim : int
        Grid points per axis; a power of two, at least 16.
    extent : float
        Torus side length L; coordinates run over [-L/2, L/2).
    """

    dim: int
    points_per_dim: int
    extent: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        n = self.points_per_dim
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_dim must be a power of two >= 16, got {n}")
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"extent must be positive and finite, got {self.extent}")

    @property
    def spacing(self) -> float:
        return self.extent / self.points_per_dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_dim,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def num_points(self) -> int:
        return self.points_per_dim**self.dim

    def axis_coords(self) -> np.ndarray:
        n = self.points_per_dim
        return -0.5 * self.extent + self.spacing * np.arange(n)

    def _lattice(self, axis: np.ndarray) -> tuple:
        """``axis`` along every dimension, as ``ij``-indexed arrays of grid shape."""
        return tuple(np.meshgrid(*[axis] * self.dim, indexing="ij"))

    def coords(self) -> tuple:
        """Coordinate arrays broadcastable against field values."""
        return self._lattice(self.axis_coords())

    def freq_axis(self) -> np.ndarray:
        """Angular frequencies for one axis (fftfreq ordering)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_dim, d=self.spacing)

    def freqs(self) -> tuple:
        return self._lattice(self.freq_axis())

    def freq_sq(self) -> np.ndarray:
        """|xi|^2 on the full frequency lattice."""
        return sum(c**2 for c in self.freqs())

    def periodic_radius(self) -> np.ndarray:
        """Distance to the origin respecting the torus wrap."""
        x = self.axis_coords()
        # min over the two images along each axis
        return np.hypot.reduce(self._lattice(np.minimum(np.abs(x), self.extent - np.abs(x))))


def rfft(values: np.ndarray) -> np.ndarray:
    """Real-FFT half-lattice spectrum of grid values, over all their axes.

    ``rfft`` and ``irfft`` run ``scipy.fft`` on one thread: its 1-d entry
    points on 1-d grids, cheaper per call than ``rfftn``/``irfftn`` and
    bit-identical to them, and the n-d ones on 2-d grids.  Each is looked
    up on the ``scipy.fft`` module at call time, never through a name bound
    at import, so that a wrapper installed on the module's attributes (a
    transform counter, say) sees every transform.
    """
    return (fft.rfft if values.ndim == 1 else fft.rfftn)(values, workers=1)


def irfft(spectrum: np.ndarray, shape: tuple) -> np.ndarray:
    """Real grid values of shape ``shape`` from their half-lattice spectrum.

    ``shape`` is passed to the transform, so the last axis is never guessed
    from the half-lattice length.  See ``rfft`` for the entry points.
    """
    if len(shape) == 1:
        return fft.irfft(spectrum, n=shape[0], workers=1)
    return fft.irfftn(spectrum, s=shape, workers=1)


@functools.lru_cache(maxsize=64)
def _derivative_multiplier(grid: GridSpec, order: tuple) -> np.ndarray:
    """``prod_j (i xi_j)^o_j`` on the real-FFT half lattice, read-only.

    Every axis, the last included, carries its Nyquist frequency with the
    ``fftfreq`` sign (-pi/h).  A Nyquist index is its own mirror image, so
    where the orders of the axes at their Nyquist index add up to an odd
    number, ``.real`` of the full-lattice product drops the mode; zeroing it
    here makes the two routes agree exactly.
    """
    n = grid.points_per_dim
    axis = grid.freq_axis()
    xi = np.meshgrid(*([axis] * (grid.dim - 1) + [axis[: n // 2 + 1]]), indexing="ij")
    mult = np.ones(xi[0].shape, dtype=complex)
    odd = np.zeros(xi[0].shape, dtype=int)
    for x, o in zip(xi, order):
        if o:
            mult = mult * (1j * x) ** o
            odd = odd + o * (x == axis[n // 2])
    mult[odd % 2 == 1] = 0.0
    mult.setflags(write=False)
    return mult


@functools.lru_cache(maxsize=16)
def rfft_wavenumbers(grid: GridSpec) -> tuple:
    """``(i xi_1, ..., i xi_d)`` and ``|xi|^2`` on the real-FFT lattice of ``grid``.

    These are the first-order derivative multipliers, which vanish at the
    Nyquist frequency of their own axis, and minus the Laplacian's.  The
    arrays are shared between callers and read-only.
    """
    units = [tuple(int(i == j) for i in range(grid.dim)) for j in range(grid.dim)]
    xi_sq = -sum(_derivative_multiplier(grid, tuple(2 * o for o in u)).real for u in units)
    xi_sq.setflags(write=False)
    return tuple(_derivative_multiplier(grid, u) for u in units), xi_sq


class ScalarField:
    """Real-valued samples on a grid, finite and of the grid's shape."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values

    def mass(self) -> float:
        return float(self.values.sum()) * self.grid.cell_volume

    def require_density(self):
        if self.values.min() < -1e-8:
            raise ValueError(f"not a density: min value {self.values.min():.3e} < 0")
        m = self.mass()
        if abs(m - 1.0) > 1e-6:
            raise ValueError(f"not a density: mass {m:.8f} differs from 1")
        return self

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


class VectorField:
    """One real component array per spatial dimension, all on a shared grid."""

    __slots__ = ("grid", "components")

    def __init__(self, grid: GridSpec, components):
        components = tuple(np.asarray(c, dtype=float) for c in components)
        if len(components) != grid.dim:
            raise ValueError(f"expected {grid.dim} components, got {len(components)}")
        for c in components:
            if c.shape != grid.shape:
                raise ValueError(f"component shape {c.shape} does not match grid {grid.shape}")
            if not np.all(np.isfinite(c)):
                raise ValueError("field values must be finite")
        self.grid = grid
        self.components = components

    def magnitude(self) -> np.ndarray:
        out = self.components[0] ** 2
        for c in self.components[1:]:
            out = out + c**2
        return np.sqrt(out)

    def sup_norm(self) -> float:
        return float(self.magnitude().max())


def _apply_half(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Apply a multiplier given on the real-FFT half lattice.

    A real radial multiplier, or one from ``_derivative_multiplier``, keeps
    the spectrum of a real field Hermitian, so this equals the full-lattice
    product followed by ``.real``, Nyquist modes included.
    """
    return irfft(rfft(values) * mult, values.shape)


def _check_resolution(grid: GridSpec, t: float):
    """Flag heat times whose Gaussian std is under ~2 grid cells."""
    return math.sqrt(t) < _RESOLUTION_CELLS * grid.spacing


def heat_apply(f: ScalarField, t: float) -> ScalarField:
    """Evolve a field by the Brownian heat semigroup for time ``t``.

    Spectral multiplier ``exp(-t |xi|^2 / 2)``; equivalently convolution with
    the centered Gaussian of variance ``t`` per coordinate.  Mass of a density
    is preserved exactly (the zero mode has multiplier one).

    Raises
    ------
    ValueError
        If ``t <= 0``.  Very small positive ``t`` (std below two cells) only
        warns, since operator-norm probes sweep small times on purpose.
    """
    if not (t > 0 and np.isfinite(t)):
        raise ValueError(f"heat time must be positive and finite, got {t}")
    mult = np.exp(-0.5 * t * rfft_wavenumbers(f.grid)[1])
    if _check_resolution(f.grid, t):
        warnings.warn(f"heat kernel under-resolved: std {math.sqrt(t):.3g} < "
                      f"{_RESOLUTION_CELLS:g} * spacing {f.grid.spacing:.3g}", stacklevel=2)
    return ScalarField(f.grid, _apply_half(f.values, mult))


def heat_gradient(f: ScalarField, t: float) -> VectorField:
    """Gradient of the heat-evolved field, multiplier ``i xi exp(-t|xi|^2/2)``."""
    if not (t > 0 and np.isfinite(t)):
        raise ValueError(f"heat time must be positive and finite, got {t}")
    ixi, xi_sq = rfft_wavenumbers(f.grid)
    spec = rfft(f.values) * np.exp(-0.5 * t * xi_sq)
    if _check_resolution(f.grid, t):
        warnings.warn(f"heat kernel under-resolved at t={t:.3g}", stacklevel=2)
    return VectorField(f.grid, [irfft(ik * spec, f.grid.shape) for ik in ixi])


def _exp_sinh_nodes(r: float, nodes: int):
    """Quadrature nodes/weights for ``Gamma(r)^{-1} int_0^inf s^{r-1} e^-s g(s) ds``.

    Exp-sinh (double-exponential) substitution ``s = exp(c sinh(tau))``: the
    integrable endpoint singularity ``s^{r-1}`` and the e^{-s} tail both turn
    into double-exponentially decaying factors, so a uniform trapezoid rule in
    tau converges geometrically across the whole scale range of s.  Nodes with
    relative weight below 1e-18 are dropped (tail truncation).
    """
    c = 0.5 * np.pi
    # cover s down to where s^r is negligible and up to where e^-s is
    s_lo = min(10.0 ** (-18.0 / max(r, 0.05)), 1e-6)
    s_hi = 60.0
    t_lo = math.asinh(math.log(s_lo) / c)
    t_hi = math.asinh(math.log(s_hi) / c)
    tau = np.linspace(t_lo, t_hi, nodes)
    h = tau[1] - tau[0]
    s = np.exp(c * np.sinh(tau))
    # ds = s * c * cosh(tau) dtau; integrand weight s^{r-1} e^{-s} / Gamma(r)
    logw = (math.log(h * c) + np.log(np.cosh(tau)) + r * np.log(s) - s
            - gammaln(r))
    w = np.exp(logw)
    keep = w > 1e-18 * w.max()
    return s[keep], w[keep]


def bessel_apply(f: ScalarField, r: float, mode: str = "spectral",
                 nodes: int = 200) -> ScalarField:
    """Smooth by the Bessel potential of order ``r`` (multiplier ``(1+|xi|^2)^-r``).

    ``mode='spectral'`` applies the closed-form multiplier.  In
    ``mode='gamma_quadrature'`` the same operator is assembled as a
    Gamma-weighted time integral of heat flows; with the Brownian-motion
    normalization of :func:`heat_apply` the heat time must be ``2s`` so the
    per-mode factor is ``exp(-s |xi|^2)``.  The two routes agree to quadrature
    accuracy (documented: < 1e-9 relative L2 for r in [0.1, 4] at 200 nodes on
    band-limited fields; see tests).

    Raises
    ------
    ValueError
        If ``r < 0``, or ``mode='gamma_quadrature'`` with ``r == 0``.
    """
    if r < 0:
        raise ValueError(f"Bessel order must be nonnegative, got {r}")
    xi_sq = rfft_wavenumbers(f.grid)[1]
    if mode == "spectral":
        if r == 0:
            return f.copy()
        mult = (1.0 + xi_sq) ** (-r)
    elif mode == "gamma_quadrature":
        if r == 0:
            raise ValueError("gamma_quadrature mode requires r > 0")
        s, w = _exp_sinh_nodes(r, nodes)
        # sum_i w_i exp(-s_i |xi|^2): heat_apply(., 2 s_i) stacked in one pass
        mult = np.tensordot(w, np.exp(-np.multiply.outer(s, xi_sq)), axes=(0, 0))
    else:
        raise ValueError(f"unknown bessel mode {mode!r}")
    return ScalarField(f.grid, _apply_half(f.values, mult))


def bessel_sharpen(f: ScalarField, r: float) -> ScalarField:
    """Inverse Bessel smoothing, multiplier ``(1+|xi|^2)^{+r}`` (band-limited)."""
    if r < 0:
        raise ValueError(f"order must be nonnegative, got {r}")
    if r == 0:
        return f.copy()
    mult = (1.0 + rfft_wavenumbers(f.grid)[1]) ** r
    return ScalarField(f.grid, _apply_half(f.values, mult))


def field_derivative(f: ScalarField, order) -> ScalarField:
    """Spectral partial derivative for a multi-index ``order`` with |order| <= 4.

    A bare int is accepted in one dimension.  Exact on band-limited inputs.
    """
    if isinstance(order, (int, np.integer)):
        if f.grid.dim != 1:
            raise ValueError("a bare int order is only valid for dim=1; pass a multi-index")
        order = (order,)
    order = tuple(int(o) for o in order)
    if len(order) != f.grid.dim:
        raise ValueError(f"multi-index length {len(order)} does not match dim {f.grid.dim}")
    if any(o < 0 for o in order):
        raise ValueError(f"derivative orders must be nonnegative, got {order}")
    total = sum(order)
    if total > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"unsupported derivative order |{order}| = {total} > {MAX_DERIVATIVE_ORDER}")
    if total == 0:
        return f.copy()
    mult = _derivative_multiplier(f.grid, order)
    return ScalarField(f.grid, _apply_half(f.values, mult))


def _periodic_sq_distance(grid: GridSpec, center) -> np.ndarray:
    """Squared torus distance from every grid point to ``center``, one entry per axis."""
    q = np.zeros(grid.shape)
    for x, c in zip(grid.coords(), center):
        d = np.abs(x - c)
        q = q + np.minimum(d, grid.extent - d) ** 2  # nearest periodic image
    return q


def gaussian_density(grid: GridSpec, mean=0.0, variance: float = 1.0,
                     normalize: bool = False) -> ScalarField:
    """Isotropic Gaussian density sampled on the grid.

    With ``normalize=True`` the grid mass is rescaled to exactly one, which is
    what the solver wants for initial data whose tails or width are marginal.
    """
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if mean.size == 1:
        mean = np.repeat(mean, grid.dim)
    if mean.size != grid.dim:
        raise ValueError(f"mean has {mean.size} entries for dim {grid.dim}")
    norm = (2.0 * np.pi * variance) ** (-0.5 * grid.dim)
    f = ScalarField(grid, norm * np.exp(-0.5 * _periodic_sq_distance(grid, mean) / variance))
    if normalize:
        f.values /= f.mass()
    return f


def grid_delta(grid: GridSpec, center=0.0) -> ScalarField:
    """Unit-mass spike at the grid point nearest ``center`` (sharp Dirac proxy)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size == 1:
        center = np.repeat(center, grid.dim)
    x = grid.axis_coords()
    idx = tuple(int(np.argmin(np.abs(x - c))) for c in center[: grid.dim])
    vals = np.zeros(grid.shape)
    vals[idx] = 1.0 / grid.cell_volume
    return ScalarField(grid, vals)


def random_band_limited(grid: GridSpec, band: int, rng) -> ScalarField:
    """Real random field of unit standard deviation with Fourier support in
    modes |m| <= band per axis."""
    n = grid.points_per_dim
    if not (0 < band <= n // 2):
        raise ValueError(f"band must lie in [1, {n // 2}], got {band}")
    spec = np.zeros(grid.shape, dtype=complex)
    m = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    mask = np.all([np.abs(c) <= band for c in grid._lattice(m)], axis=0)
    k = int(mask.sum())
    spec[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    vals = np.fft.ifftn(spec).real
    scale = vals.std()
    if scale > 0:
        vals *= 1.0 / scale
    return ScalarField(grid, vals)
