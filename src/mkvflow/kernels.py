"""Singular interaction kernels, their grid realizations, and drifts.

The catalog covers gradient-of-potential kernels with adjustable singular
order (`RieszOrder`), derivatives of a point mass (`DiracDerivative`),
constant vectors and arbitrary grid-sampled fields.  Each catalog kernel is
its real-FFT half-lattice symbol, heat-mollified at time
``mollification_eps`` when singular, and ``realize_kernel`` is one inverse
transform to its physical view; grid-sampled fields stay physical data.
The convolution drift and the pointwise density-derivative (Nemytskii)
drift are both a ``K(t) * t**kappa`` time envelope times a map from the
density to a vector field; ``drift_map`` is the one evaluator of that map,
and every caller applies the envelope itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    GridSpec,
    ScalarField,
    VectorField,
    _derivative_multiplier,
    heat_apply,
    irfft,
    rfft,
    rfft_wavenumbers,
)
from .norms import SobolevIndex, local_neg_norm

__all__ = [
    "RieszOrder",
    "DiracDerivative",
    "ConstantVector",
    "GridSampled",
    "TimeModulation",
    "KernelSpec",
    "kernel_vanishes",
    "NemytskiiSpec",
    "MollificationError",
    "realize_kernel",
    "riesz_direct",
    "drift_map",
    "drift_field",
    "nemytskii_lipschitz_check",
    "kernel_norm_study",
    "NormStudy",
    "kernel_catalog",
    "make_kernel",
]


class MollificationError(ValueError):
    """Singular kernel realized without a positive mollification time."""


@dataclass(frozen=True)
class RieszOrder:
    """Kernel ``c * z / |z|^(d + 2*n0 + eps0)`` (componentwise in c).

    ``n0 >= 1`` or ``eps0 >= 1`` makes it more singular than the classical
    inverse-power kernels.  Even orders ``2*n0 + eps0`` (``n0 >= 1`` with
    ``eps0 = 0``) are rejected: their symbol ``i xi |xi|^(2 n0 - 2)`` is a
    polynomial, which realizes a derivative of a point mass instead.
    """

    c: tuple = (1.0,)
    n0: int = 0
    eps0: float = 0.0

    def __post_init__(self):
        if self.n0 < 0:
            raise ValueError(f"n0 must be a nonnegative integer, got {self.n0}")
        if not (0.0 <= self.eps0 < 2.0):
            raise ValueError(f"eps0 must lie in [0, 2), got {self.eps0}")
        if self.n0 >= 1 and self.eps0 == 0.0:
            raise ValueError(f"even order 2*n0 + eps0 = {2 * self.n0} has a polynomial "
                             "symbol and no inverse-power realization; use eps0 > 0")

    @property
    def singular(self) -> bool:
        return True


@dataclass(frozen=True)
class DiracDerivative:
    """Derivative of order ``order`` of a unit point mass, along one axis."""

    order: int = 0
    direction: int = 0

    def __post_init__(self):
        if self.order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {self.order}")
        if self.direction not in (0, 1):
            raise ValueError(f"direction must be 0 or 1, got {self.direction}")

    @property
    def singular(self) -> bool:
        return True


@dataclass(frozen=True)
class ConstantVector:
    c: tuple = (1.0,)

    @property
    def singular(self) -> bool:
        return False


@dataclass
class GridSampled:
    field: VectorField

    @property
    def singular(self) -> bool:
        return False


@dataclass(frozen=True)
class TimeModulation:
    """Envelope ``K(t) * t**kappa`` with K tabulated, nondecreasing, >= 1."""

    kappa: float = 0.0
    table: tuple | None = None  # ((t0, K0), (t1, K1), ...) or None for K == 1

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.table is not None:
            ts = [t for t, _ in self.table]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("tabulated times must be strictly increasing")
            ks = [k for _, k in self.table]
            if any(k < 1 for k in ks):
                raise ValueError("tabulated K values must be >= 1")
            if any(b < a for a, b in zip(ks, ks[1:])):
                raise ValueError("tabulated K must be nondecreasing")

    def K(self, t: float) -> float:
        if self.table is None:
            return 1.0
        ts = np.array([p[0] for p in self.table])
        ks = np.array([p[1] for p in self.table])
        return float(np.interp(t, ts, ks))

    def factor(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        if t == 0.0:
            return self.K(0.0) if self.kappa == 0.0 else 0.0
        return self.K(t) * t**self.kappa


@dataclass(frozen=True)
class KernelSpec:
    variant: object
    mollification_eps: float = 0.0
    modulation: TimeModulation = field(default_factory=TimeModulation)

    def __post_init__(self):
        if self.mollification_eps < 0:
            raise ValueError("mollification_eps must be >= 0")


def kernel_vanishes(spec: KernelSpec) -> bool:
    """Whether all of the kernel's symbols vanish, so its drift is no interaction.

    A constant or Riesz symbol is the amplitude ``c_j`` times a unit symbol
    and a grid-sampled one the transform of its field; a Dirac derivative,
    which has no amplitude, never vanishes.
    """
    v = spec.variant
    amplitudes = v.field.components if isinstance(v, GridSampled) else getattr(v, "c", [1.0])
    return not any(np.any(a) for a in amplitudes)


def default_mollification(grid: GridSpec) -> float:
    return 4.0 * grid.spacing**2


# ---------------------------------------------------------------------------
# realization


def _component(c: tuple, j: int) -> float:
    """Amplitude of component ``j``; a shorter ``c`` repeats its first entry."""
    return float(c[j] if j < len(c) else c[0])


def riesz_direct(spec: RieszOrder, grid: GridSpec):
    """Pointwise kernel values periodized over the torus.

    Opposite images are summed in +/- pairs so the conditionally convergent
    tail (the kernel is odd) telescopes: 800 pairs in 1-d, 24 per axis in
    2-d.  Values at the origin are set to zero (the mollified comparison
    never uses them).
    """
    p = grid.dim + 2 * spec.n0 + spec.eps0
    xs = grid.coords()
    L = grid.extent
    comps = [np.zeros(grid.shape) for _ in range(grid.dim)]
    if grid.dim == 1:
        x = xs[0]
        for m in range(-800, 801):
            z = x + m * L
            r = np.abs(z)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(r > 0, z / r**p, 0.0)
            comps[0] += vals
    else:
        xa, xb = xs
        for ma in range(-24, 25):
            za = xa + ma * L
            for mb in range(-24, 25):
                zb = xb + mb * L
                r = np.hypot(za, zb)
                with np.errstate(divide="ignore", invalid="ignore"):
                    inv = np.where(r > 0, r**-p, 0.0)
                comps[0] += za * inv
                comps[1] += zb * inv
    return [_component(spec.c, j) * comps[j] for j in range(grid.dim)]


@functools.lru_cache(maxsize=32)
def _riesz_unit_symbols(n0: int, eps0: float, grid: GridSpec, eps: float) -> tuple:
    """Symbols of the unit-amplitude Riesz kernel, shared and read-only.

    The symbol of grad(Lap^n0 (inverse-power potential)) per component is
    ``i xi_j |xi|^(2 n0 + eps0 - 2)`` times the mollifier
    ``exp(-eps |xi|^2 / 2)``, up to one multiplicative constant.  That
    constant is the least-squares amplitude matching the physical view to
    the direct values on an annulus clear of both the mollified core and the
    wrap zone.  The zero mode vanishes (odd kernel).
    """
    power = 2 * n0 + eps0 - 2.0
    ixi, xi_sq = rfft_wavenumbers(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where(xi_sq > 0, xi_sq ** (0.5 * power), 0.0)
    radial = radial * np.exp(-0.5 * eps * xi_sq)
    unit = [ik * radial for ik in ixi]
    direct = riesz_direct(RieszOrder((1.0,) * grid.dim, n0, eps0), grid)
    rad = grid.periodic_radius()
    r_lo = max(10.0 * math.sqrt(eps), 8.0 * grid.spacing)
    r_hi = grid.extent / 4.0
    mask = (rad >= r_lo) & (rad <= r_hi)
    if not mask.any():
        raise ValueError(f"no calibration annulus: [{r_lo:.3g}, {r_hi:.3g}] empty on this grid")
    # the symbol route is mollified but the direct sum is sharp; correct the
    # direct side to second order in the smoothing variance, using
    # Lap(z_j |z|^-p) = p (p - dim) z_j |z|^-(p+2) (next order < 1e-4 here)
    p = grid.dim + 2 * n0 + eps0
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(rad > 0, 1.0 + 0.5 * eps * p * (p - grid.dim) / rad**2, 1.0)
    num = 0.0
    den = 0.0
    for m, d in zip(unit, direct):
        u = _physical(m, grid)
        dm = (d * corr)[mask]
        num += float((dm * u[mask]).sum())
        den += float((u[mask] * u[mask]).sum())
    if den == 0:
        raise ValueError("degenerate symbol realization; cannot calibrate")
    symbols = tuple(num / den * m for m in unit)
    for m in symbols:
        m.setflags(write=False)
    return symbols


def _kernel_symbols(spec: KernelSpec, grid: GridSpec) -> list:
    """Half-lattice symbol of each kernel component, the kernel's definition.

    Each is the spectrum rooted at zero displacement with the cell volume
    folded in, so ``irfft(m * rfft(values))`` convolves the kernel with the
    density ``values``.  A grid-sampled kernel's symbol is the forward
    conversion of its field.  Raises ``MollificationError`` for a singular
    variant with ``mollification_eps == 0``.
    """
    v = spec.variant
    eps = spec.mollification_eps
    if getattr(v, "singular", False) and eps <= 0:
        raise MollificationError(f"{type(v).__name__} requires mollification_eps > 0")
    if isinstance(v, GridSampled):
        return [grid.cell_volume * rfft(np.fft.ifftshift(c))
                for c in realize_kernel(spec, grid).components]
    xi_sq = rfft_wavenumbers(grid)[1]
    if isinstance(v, DiracDerivative):
        if v.direction >= grid.dim:
            raise ValueError(f"direction {v.direction} invalid for dim {grid.dim}")
        order = tuple(v.order if j == v.direction else 0 for j in range(grid.dim))
        core = _derivative_multiplier(grid, order) * np.exp(-0.5 * eps * xi_sq)
        return [core if j == v.direction else np.zeros_like(core) for j in range(grid.dim)]
    if isinstance(v, ConstantVector):
        units = [grid.extent**grid.dim * (xi_sq == 0)] * grid.dim
    elif isinstance(v, RieszOrder):
        units = _riesz_unit_symbols(v.n0, v.eps0, grid, eps)
    else:
        raise TypeError(f"unknown kernel variant {type(v).__name__}")
    return [_component(v.c, j) * u for j, u in enumerate(units)]


def _physical(symbol: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid values of a symbol, shifted so the origin sits at the grid center."""
    return np.fft.fftshift(irfft(symbol, grid.shape)) / grid.cell_volume


def realize_kernel(spec: KernelSpec, grid: GridSpec) -> VectorField:
    """Mollified grid realization of the kernel as a vector field.

    The physical view of ``_kernel_symbols``, read by norms, membership
    studies and pairwise particle drifts.  A grid-sampled kernel is its own
    field, heat-mollified when ``mollification_eps > 0``.

    Raises
    ------
    MollificationError
        For singular variants with ``mollification_eps == 0``.
    """
    v = spec.variant
    if not isinstance(v, GridSampled):
        return VectorField(grid, [_physical(m, grid) for m in _kernel_symbols(spec, grid)])
    if v.field.grid != grid:
        raise ValueError("grid-sampled kernel lives on a different grid")
    comps = v.field.components
    if spec.mollification_eps > 0:
        comps = [heat_apply(ScalarField(grid, c), spec.mollification_eps).values
                 for c in comps]
    return VectorField(grid, comps)


# ---------------------------------------------------------------------------
# density-derivative (Nemytskii) drifts


def _nemytskii_families():
    """Built-in pointwise maps F(H) -> drift vector, 1-Lipschitz in H.

    Each family builds its map from the stack length, the spatial dimension
    and the spec's parameters.  H is the list of flattened derivative stacks
    (rho, grad rho, ...) in the order of ``_derivative_orders``; the map
    emits one component per spatial dimension.  No family depends on the
    position.
    """

    def zero(size, dim, params):
        return lambda H: [np.zeros_like(H[0])] * dim

    def density(size, dim, params):
        return lambda H: [H[0]] + [np.zeros_like(H[0])] * (dim - 1)

    def clipped_gradient(size, dim, params):
        cap = params.get("cap", 1.0)
        return lambda H: [np.clip(H[1 + j], -cap, cap) for j in range(dim)]

    def linear(size, dim, params):
        w = np.asarray(params["weights"], dtype=float)
        if w.size != size:
            raise ValueError(f"need {size} weights, got {w.size}")
        w = w / max(np.linalg.norm(w), 1.0)  # keep the unit Lipschitz bound
        return lambda H: [sum(wi * h for wi, h in zip(w, H))] + [np.zeros_like(H[0])] * (dim - 1)

    return {"zero": zero, "density": density,
            "clipped_gradient": clipped_gradient, "linear": linear}


_NEMYTSKII = _nemytskii_families()


@dataclass(frozen=True)
class NemytskiiSpec:
    """Pointwise drift from the density and its derivatives up to order n-1."""

    n: int = 1
    family: str = "density"
    params: tuple = ()
    modulation: TimeModulation = field(default_factory=TimeModulation)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"derivative depth n must be >= 1, got {self.n}")
        if self.n - 1 > 4:
            raise ValueError(f"unsupported derivative depth n={self.n} (n-1 > 4)")
        if self.family not in _NEMYTSKII:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {sorted(_NEMYTSKII)}")
        if self.family == "clipped_gradient" and self.n < 2:
            raise ValueError("clipped_gradient needs derivative depth n >= 2")
        if self.family == "linear" and "weights" not in self.param_dict:
            raise ValueError("linear family needs 'weights'")

    @property
    def param_dict(self) -> dict:
        return dict(self.params)


def _derivative_orders(dim: int, n: int) -> list:
    """Multi-indices of the derivative stack after rho: all first
    derivatives, then all second derivatives, ... up to order n-1, each
    depth in decreasing order of its leading entries."""
    return [o for depth in range(1, n)
            for o in itertools.product(range(depth, -1, -1), repeat=dim) if sum(o) == depth]


# ---------------------------------------------------------------------------
# the drift map of either spec


def drift_map(spec, grid: GridSpec):
    """``values -> drift components`` of ``spec`` on ``grid``, without the envelope.

    One evaluation makes one forward transform of the density values and one
    inverse per multiplier, then a pointwise map.  For a ``KernelSpec`` the
    multipliers are the kernel's symbols (``_kernel_symbols``) and the map
    returns the periodic convolutions.  For a ``NemytskiiSpec`` they are the
    derivative multipliers of the stack (rho, grad rho, ...) and the map is
    the family's ``F``, its parameters checked here.  Both are built once;
    the returned function validates nothing.

    Raises
    ------
    TypeError
        For any other spec.
    """
    if isinstance(spec, KernelSpec):
        mults = _kernel_symbols(spec, grid)
        F = None  # the convolutions are the drift
    elif isinstance(spec, NemytskiiSpec):
        mults = [_derivative_multiplier(grid, o) for o in _derivative_orders(grid.dim, spec.n)]
        F = _NEMYTSKII[spec.family](1 + len(mults), grid.dim, spec.param_dict)
    else:
        raise TypeError(f"no drift map for {type(spec).__name__}")

    def drift(values: np.ndarray) -> list:
        fields = []
        if mults:
            spectrum = rfft(values)
            fields = [irfft(m * spectrum, grid.shape) for m in mults]
        return fields if F is None else F([values] + fields)
    return drift


def drift_field(spec, rho: ScalarField, t: float) -> VectorField:
    """Drift ``K(t) t^kappa`` times ``drift_map(spec)`` of the density ``rho``."""
    rho.require_density()
    factor = spec.modulation.factor(t)
    return VectorField(rho.grid, [factor * c for c in drift_map(spec, rho.grid)(rho.values)])


def nemytskii_lipschitz_check(spec: NemytskiiSpec, t: float, samples: int = 1000,
                              seed: int = 0) -> dict:
    """Sampled Lipschitz quotient of the drift map against its envelope.

    Draws random pairs of 1-d derivative stacks (rho, rho', ...), n entries
    each, and measures ``|b(h) - b(h~)| / ||h - h~||``; the max must stay
    below K(t) t^kappa.
    """
    rng = np.random.default_rng(seed)
    n_entries = spec.n
    fn = _NEMYTSKII[spec.family](n_entries, 1, spec.param_dict)
    factor = spec.modulation.factor(t)
    worst = 0.0
    for _ in range(samples):
        h = rng.normal(size=n_entries)
        ht = h + rng.normal(scale=0.5, size=n_entries)
        fa = np.array(fn(list(h[:, None])))
        fb = np.array(fn(list(ht[:, None])))
        gap = float(np.linalg.norm((fa - fb).ravel()))
        dh = float(np.linalg.norm(h - ht))
        if dh > 1e-12:
            worst = max(worst, gap / dh)
    return {"measured": factor * worst, "bound": factor, "ratio": worst}


# ---------------------------------------------------------------------------
# membership studies


@dataclass
class NormStudy:
    eps_values: list
    norms: list
    verdict: str            # "bounded" | "unbounded"
    growth_exponent: float  # q: minus the log-log slope of norm against eps

    def rows(self):
        return [(e, n, self.verdict) for e, n in zip(self.eps_values, self.norms)]


def kernel_norm_study(spec: KernelSpec, idx: SobolevIndex, eps_list,
                      grid: GridSpec) -> NormStudy:
    """Windowed-norm trace of the mollified kernel across mollification times.

    Verdict rule (documented): with ``s_j = (n_{j+1} - n_j) / log(eps_j / eps_{j+1})``
    the norm increment per unit of log(1/eps), the verdict is unbounded iff
    the log-log slope exponent q exceeds 0.05 and ``s_last >= s_prev``.  A
    shrinking increment is a convergent tail; a constant one is log growth
    and a growing one power growth.  The q floor keeps noise-level increments
    of a plateaued trace from counting as growth.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    usable = [e for e in eps_list if math.sqrt(e) >= grid.spacing]
    if len(usable) < len(eps_list):
        warnings.warn(f"truncated {len(eps_list) - len(usable)} unresolvable "
                      f"mollification times (sqrt(eps) < spacing)", stacklevel=2)
    if len(usable) < 3:
        raise ValueError("need at least 3 resolvable mollification times")
    norms = []
    for e in usable:
        realized = realize_kernel(
            KernelSpec(spec.variant, e, spec.modulation), grid)
        norms.append(local_neg_norm(realized, idx))
    log_eps = np.log(usable)
    q = -np.polyfit(log_eps, np.log(norms), 1)[0]
    s = -np.diff(norms) / np.diff(log_eps)
    unbounded = q > 0.05 and s[-1] >= s[-2]
    return NormStudy(usable, norms, "unbounded" if unbounded else "bounded", float(q))


# ---------------------------------------------------------------------------
# named catalog for configs and the CLI


def kernel_catalog() -> dict:
    return {
        "zero": lambda grid, **kw: KernelSpec(
            ConstantVector((0.0,) * grid.dim), 0.0, _mod(kw)),
        "constant": lambda grid, **kw: KernelSpec(
            ConstantVector(_as_vec(kw.get("c", 1.0), grid.dim)), 0.0, _mod(kw)),
        "riesz": lambda grid, **kw: KernelSpec(
            RieszOrder((float(kw.get("c", 1.0)),) * grid.dim,
                       int(kw.get("n0", 0)), float(kw.get("eps0", 0.5))),
            float(kw.get("eps", default_mollification(grid))), _mod(kw)),
        "dirac": lambda grid, **kw: KernelSpec(
            DiracDerivative(int(kw.get("order", 0)), int(kw.get("direction", 0))),
            float(kw.get("eps", default_mollification(grid))), _mod(kw)),
    }


def _as_vec(c, dim: int) -> tuple:
    if np.iterable(c):
        return tuple(float(x) for x in c)
    return (float(c),) * dim


def _mod(kw) -> TimeModulation:
    return TimeModulation(kappa=float(kw.get("kappa", 0.0)))


# every parameter name some catalog kernel reads; each kernel ignores the rest
_KERNEL_PARAMETERS = ("c", "direction", "eps", "eps0", "kappa", "n0", "order")


def make_kernel(name: str, grid: GridSpec, **kw) -> KernelSpec:
    cat = kernel_catalog()
    if name not in cat:
        raise ValueError(f"unknown kernel {name!r}; catalog: {sorted(cat)}")
    unknown = sorted(set(kw) - set(_KERNEL_PARAMETERS))
    if unknown:
        raise ValueError(f"unknown kernel parameters {unknown}; "
                         f"known: {list(_KERNEL_PARAMETERS)}")
    # only the constant kernel reads a vector: its c
    sequences = sorted(k for k, v in kw.items() if isinstance(v, (tuple, list, np.ndarray))
                       and (name, k) != ("constant", "c"))
    if sequences:
        raise ValueError(f"kernel {name!r} reads a number for {sequences}, got a sequence")
    return cat[name](grid, **kw)
