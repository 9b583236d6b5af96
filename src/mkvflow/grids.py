"""Periodic-grid fields and spectral operators.

Everything lives on a uniform grid over a centered torus ``[-L/2, L/2)^d``
with ``d`` in {1, 2}.  The heat semigroup, Bessel-potential smoothing and
spatial derivatives are all Fourier multipliers, so they are
exact on band-limited data and mass/positivity behave as for the continuum
operators up to FFT roundoff.  All of them act on the real-FFT half lattice
through read-only arrays cached per ``GridSpec``, shared with other modules.
Every real transform of the package goes through ``rfft``/``irfft``, which
run ``numpy.fft`` one axis at a time; scipy is not imported here.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "heat_apply",
    "bessel_apply",
    "bessel_sharpen",
    "rfft",
    "irfft",
    "rfft_wavenumbers",
    "gaussian_density",
    "grid_delta",
]

# Gaussian std below this many grid cells is flagged as under-resolved.
_RESOLUTION_CELLS = 2.0


def _require_int(name: str, value, least: int = 1):
    """Raise unless ``value`` is an int (not a bool) of at least ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} int, got {value!r}")


def _require_number(name: str, value, finite: bool = False):
    """Raise unless ``value`` is an int or a float (not a bool), and, with
    ``finite``, neither infinite nor NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_numbers(name: str, values):
    """Raise unless ``values`` is a non-empty tuple of finite numbers."""
    if not isinstance(values, tuple) or not values:
        raise ValueError(f"{name} must be a non-empty tuple of numbers, got {values!r}")
    for x in values:
        _require_number(name, x, finite=True)


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
        _require_int("dim", self.dim)
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        n = self.points_per_dim
        _require_int("points_per_dim", n)
        _require_number("extent", self.extent)
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

    def periodic_radius(self) -> np.ndarray:
        """Distance to the origin respecting the torus wrap."""
        x = self.axis_coords()
        # min over the two images along each axis
        return np.hypot.reduce(self._lattice(np.minimum(np.abs(x), self.extent - np.abs(x))))


def rfft(values: np.ndarray, dim: int | None = None, out: np.ndarray | None = None
         ) -> np.ndarray:
    """Real-FFT half-lattice spectrum over the last ``dim`` axes (default: all).

    Leading axes index a stack of fields.  ``rfft`` and ``irfft`` run
    ``numpy.fft``'s 1-d entry points, one axis at a time: ``rfft`` along the
    last axis into ``out``, then ``fft`` in place along each earlier grid
    axis, bit-identical to an n-d transform and cheaper per call.  ``out``,
    if given, is the complex array of the spectrum's shape that is filled
    and returned.  Each entry point is looked up on the ``numpy.fft`` module
    at call time, never through a name bound at import, so that a wrapper
    installed on the module's attributes (a transform counter, say) sees
    every transform.
    """
    dim = dim or values.ndim
    out = np.fft.rfft(values, axis=-1, out=out)
    for axis in range(-dim, -1):
        np.fft.fft(out, axis=axis, out=out)
    return out


def irfft(spectrum: np.ndarray, shape: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Real grid values of shape ``shape`` from their half-lattice spectrum.

    Leading axes index a stack.  ``shape`` is passed to the transform, so the
    last axis is never guessed from the half-lattice length.  ``out``, if
    given, is the real array that is filled and returned.  ``spectrum`` is
    left as it is.  See ``rfft``.
    """
    for axis in range(-len(shape), -1):
        spectrum = np.fft.ifft(spectrum, axis=axis)
    return np.fft.irfft(spectrum, n=shape[-1], axis=-1, out=out)


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
        lo = self.values.min()
        if not lo >= -1e-8:  # a NaN fails here
            raise ValueError(f"not a density: min value {lo:.3e} is not >= 0")
        m = self.mass()
        if not abs(m - 1.0) <= 1e-6:
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


def _magnitude(components) -> np.ndarray:
    """Pointwise Euclidean norm of a sequence of component arrays; a lone
    component's absolute value, which no square underflows."""
    if len(components) == 1:
        return np.abs(components[0])
    out = components[0] ** 2
    for c in components[1:]:
        out = out + c**2
    return np.sqrt(out)


def _apply_half(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Apply a multiplier given on the real-FFT half lattice.

    A real radial multiplier, or one from ``_derivative_multiplier``, keeps
    the spectrum of a real field Hermitian, so this equals the full-lattice
    product followed by ``.real``, Nyquist modes included.
    """
    return irfft(rfft(values) * mult, values.shape)


def _heat_multiplier(grid: GridSpec, t: float) -> np.ndarray:
    """``exp(-t |xi|^2 / 2)`` on the real-FFT half lattice of ``grid``.

    Raises ``ValueError`` unless ``t`` is positive and finite; warns when the
    Gaussian std is under ``_RESOLUTION_CELLS`` grid cells.
    """
    if not (t > 0 and np.isfinite(t)):
        raise ValueError(f"heat time must be positive and finite, got {t}")
    if math.sqrt(t) < _RESOLUTION_CELLS * grid.spacing:
        warnings.warn(f"heat kernel under-resolved: std {math.sqrt(t):.3g} < "
                      f"{_RESOLUTION_CELLS:g} * spacing {grid.spacing:.3g}", stacklevel=3)
    return np.exp(-0.5 * t * rfft_wavenumbers(grid)[1])


def heat_apply(f: ScalarField, t: float) -> ScalarField:
    """Evolve a field by the Brownian heat semigroup for time ``t``.

    Spectral multiplier ``exp(-t |xi|^2 / 2)``; equivalently convolution with
    the centered Gaussian of variance ``t`` per coordinate.  Mass of a density
    is preserved exactly (the zero mode has multiplier one).

    Raises
    ------
    ValueError
        If ``t <= 0``.  Very small positive ``t`` (std below two cells) only
        warns, since operator-norm probing sweeps small times on purpose.
    """
    return ScalarField(f.grid, _apply_half(f.values, _heat_multiplier(f.grid, t)))


def bessel_apply(f: ScalarField, r: float) -> ScalarField:
    """Smooth by the Bessel potential of order ``r``, multiplier ``(1+|xi|^2)^-r``.

    The multiplier is applied in closed form; ``r = 0`` returns a copy.

    Raises
    ------
    ValueError
        If ``r < 0``.
    """
    if r < 0:
        raise ValueError(f"Bessel order must be nonnegative, got {r}")
    return _bessel_power(f, -r)


def bessel_sharpen(f: ScalarField, r: float) -> ScalarField:
    """Inverse Bessel smoothing, multiplier ``(1+|xi|^2)^{+r}`` (band-limited)."""
    if r < 0:
        raise ValueError(f"order must be nonnegative, got {r}")
    return _bessel_power(f, r)


def _bessel_power(f: ScalarField, s: float) -> ScalarField:
    """Apply the multiplier ``(1+|xi|^2)^s``; a copy of ``f`` at ``s = 0``."""
    if s == 0:
        return f.copy()
    return ScalarField(f.grid, _apply_half(f.values, (1.0 + rfft_wavenumbers(f.grid)[1]) ** s))


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
    if not 0 < variance < math.inf:
        raise ValueError(f"variance must be positive and finite, got {variance}")
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


def grid_delta(grid: GridSpec) -> ScalarField:
    """Unit-mass spike at the origin, grid index ``n/2`` on each axis (sharp Dirac proxy)."""
    vals = np.zeros(grid.shape)
    vals[(grid.points_per_dim // 2,) * grid.dim] = 1.0 / grid.cell_volume
    return ScalarField(grid, vals)
