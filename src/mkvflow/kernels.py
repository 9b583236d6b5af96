"""Singular interaction kernels, their grid realizations, and drifts.

The catalog covers gradient-of-potential kernels with adjustable singular
order (`RieszOrder`), derivatives of a point mass (`DiracDerivative`) and
constant vectors.  Each catalog kernel is its real-FFT half-lattice symbol,
heat-mollified at time ``mollification_eps`` when singular, and
``realize_kernel`` is one inverse transform to its physical view.  The
convolution drift and the pointwise density-derivative (Nemytskii) drift
are both a ``t**kappa`` time envelope times a map from the density to a
vector field; ``drift_map`` is the one evaluator of that map, and every
caller applies the envelope itself.  Nemytskii ``linear`` weights are used as
given, and refused above Euclidean norm 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    GridSpec,
    VectorField,
    _derivative_multiplier,
    _require_int,
    _require_number,
    _require_numbers,
    irfft,
    rfft,
    rfft_wavenumbers,
)
from .norms import SobolevIndex, local_neg_norm

__all__ = [
    "RieszOrder",
    "DiracDerivative",
    "ConstantVector",
    "TimeModulation",
    "KernelSpec",
    "kernel_vanishes",
    "NemytskiiSpec",
    "MollificationError",
    "realize_kernel",
    "riesz_direct",
    "drift_map",
    "kernel_norm_study",
    "NormStudy",
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
        _require_numbers("c", self.c)
        _require_int("n0", self.n0, 0)
        _require_number("eps0", self.eps0, 0, 2)
        if self.n0 >= 1 and self.eps0 == 0.0:
            raise ValueError(f"even order 2*n0 + eps0 = {2 * self.n0} has a polynomial "
                             "symbol and no inverse-power realization; use eps0 > 0")


@dataclass(frozen=True)
class DiracDerivative:
    """Derivative of order ``order`` of a unit point mass, along one axis."""

    order: int = 0
    direction: int = 0

    def __post_init__(self):
        _require_int("order", self.order, 0)
        _require_int("direction", self.direction, 0)
        if self.order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {self.order}")
        if self.direction not in (0, 1):
            raise ValueError(f"direction must be 0 or 1, got {self.direction}")


@dataclass(frozen=True)
class ConstantVector:
    c: tuple = (1.0,)

    def __post_init__(self):
        _require_numbers("c", self.c)


@dataclass(frozen=True)
class TimeModulation:
    """Envelope ``t**kappa``, which vanishes at t = 0 unless kappa = 0."""

    kappa: float = 0.0

    def __post_init__(self):
        _require_number("kappa", self.kappa, 0)

    def factor(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        return t**self.kappa


def _require_modulation(modulation):
    """Raise unless ``modulation`` is a ``TimeModulation``."""
    if not isinstance(modulation, TimeModulation):
        raise ValueError(f"modulation must be a TimeModulation, got {modulation!r}")


@dataclass(frozen=True)
class KernelSpec:
    variant: object
    mollification_eps: float = 0.0
    modulation: TimeModulation = field(default_factory=TimeModulation)

    def __post_init__(self):
        if not isinstance(self.variant, (RieszOrder, DiracDerivative, ConstantVector)):
            raise ValueError("variant must be a RieszOrder, DiracDerivative or "
                             f"ConstantVector, got {self.variant!r}")
        _require_number("eps", self.mollification_eps, 0)  # the catalog's name
        _require_modulation(self.modulation)


def kernel_vanishes(spec: KernelSpec) -> bool:
    """Whether all of the kernel's symbols vanish, so its drift is no interaction.

    A constant or Riesz symbol is the amplitude ``c_j`` times a unit symbol;
    a Dirac derivative, which has no amplitude, never vanishes.
    """
    return not any(getattr(spec.variant, "c", (1.0,)))


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

    In 2-d the sum runs on the quadrant ``[0, n/2]^2`` of indices only.  The
    grid has ``x_{n-i} = -x_i`` for ``1 <= i < n`` and the image range is
    symmetric, so the first component is odd under ``i -> n - i`` and even
    under ``j -> n - j``; both axes share one coordinate array, so the
    second component is the first transposed.  Row and column 0
    (``x = -L/2``) have no mirror on the grid and lie in the quadrant.
    """
    p = grid.dim + 2 * spec.n0 + spec.eps0
    L = grid.extent
    if grid.dim == 1:
        comps = [np.zeros(grid.shape)]
        x = grid.coords()[0]
        for m in range(-800, 801):
            z = x + m * L
            r = np.abs(z)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(r > 0, z / r**p, 0.0)
            comps[0] += vals
    else:
        h = grid.points_per_dim // 2 + 1
        x = grid.axis_coords()[:h]  # -L/2 up to the origin
        quad = np.zeros((h, h))
        for ma in range(-24, 25):
            za = (x + ma * L)[:, None]
            za_sq = za * za
            inv = np.zeros((h, h))
            for mb in range(-24, 25):
                zb = x + mb * L
                r2 = za_sq + zb * zb
                if ma == mb == 0:  # the one image through the origin
                    with np.errstate(divide="ignore"):
                        inv += np.where(r2 > 0, r2 ** (-0.5 * p), 0.0)
                else:
                    inv += r2 ** (-0.5 * p)
            quad += za * inv
        quad[-1] = 0.0  # x = 0 is its own mirror, where the sum leaves roundoff
        full = np.empty(grid.shape)
        full[:h, :h] = quad
        full[h:, :h] = -quad[h - 2:0:-1]
        full[:, h:] = full[:, h - 2:0:-1]
        comps = [full, full.T]
    return [_component(spec.c, j) * comps[j] for j in range(grid.dim)]


@functools.lru_cache(maxsize=8)
def _riesz_image_sum(n0: int, eps0: float, grid: GridSpec) -> tuple:
    """``riesz_direct`` of the unit-amplitude kernel, shared and read-only;
    it does not depend on the mollification, so each grid computes it once."""
    direct = tuple(riesz_direct(RieszOrder((1.0,) * grid.dim, n0, eps0), grid))
    for d in direct:
        d.setflags(write=False)
    return direct


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
    direct = _riesz_image_sum(n0, eps0, grid)
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
    density ``values``.  Raises ``MollificationError`` for a singular
    variant (Riesz or Dirac derivative) with ``mollification_eps == 0``.
    """
    v = spec.variant
    eps = spec.mollification_eps
    if isinstance(v, (RieszOrder, DiracDerivative)) and eps <= 0:
        raise MollificationError(f"{type(v).__name__} requires mollification_eps > 0")
    xi_sq = rfft_wavenumbers(grid)[1]
    if isinstance(v, DiracDerivative):
        if v.direction >= grid.dim:
            raise ValueError(f"direction {v.direction} invalid for dim {grid.dim}")
        order = tuple(v.order if j == v.direction else 0 for j in range(grid.dim))
        core = _derivative_multiplier(grid, order) * np.exp(-0.5 * eps * xi_sq)
        return [core if j == v.direction else np.zeros_like(core) for j in range(grid.dim)]
    if isinstance(v, ConstantVector):
        units = [grid.extent**grid.dim * (xi_sq == 0)] * grid.dim
    else:  # RieszOrder, the one variant left
        units = _riesz_unit_symbols(v.n0, v.eps0, grid, eps)
    return [_component(v.c, j) * u for j, u in enumerate(units)]


def _physical(symbol: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid values of a symbol, shifted so the origin sits at the grid center."""
    return np.fft.fftshift(irfft(symbol, grid.shape)) / grid.cell_volume


def realize_kernel(spec: KernelSpec, grid: GridSpec) -> VectorField:
    """Mollified grid realization of the kernel as a vector field: the
    physical view of ``_kernel_symbols``, read by norms and membership studies.

    Raises
    ------
    MollificationError
        For singular variants with ``mollification_eps == 0``.
    """
    return VectorField(grid, [_physical(m, grid) for m in _kernel_symbols(spec, grid)])


# ---------------------------------------------------------------------------
# density-derivative (Nemytskii) drifts


def _clipped_gradient(size: int, dim: int, params: dict):
    cap = params.get("cap", 1.0)
    return lambda H: [np.clip(H[1 + j], -cap, cap) for j in range(dim)]


def _linear(size: int, dim: int, params: dict):
    w = params["weights"]
    if len(w) != size:
        raise ValueError(f"need {size} weights, got {len(w)}")
    return lambda H: [sum(wi * h for wi, h in zip(w, H))] + [np.zeros_like(H[0])] * (dim - 1)


# family -> (the parameters it reads, the builder of its map F(H) -> drift from
# the stack length, the dimension and the parameters).  H is the stack (rho,
# grad rho, ...) in the order of ``_derivative_orders``; F is 1-Lipschitz in H,
# emits one component per dimension and does not depend on the position
_NEMYTSKII = {
    "zero": ((), lambda size, dim, params: lambda H: [np.zeros_like(H[0])] * dim),
    "density": ((), lambda size, dim, params:
                lambda H: [H[0]] + [np.zeros_like(H[0])] * (dim - 1)),
    "clipped_gradient": (("cap",), _clipped_gradient),
    "linear": (("weights",), _linear),
}


@dataclass(frozen=True)
class NemytskiiSpec:
    """Pointwise drift from the density and its derivatives up to order n-1."""

    n: int = 1
    family: str = "density"
    params: tuple = ()
    modulation: TimeModulation = field(default_factory=TimeModulation)

    def __post_init__(self):
        _require_int("derivative depth n", self.n)
        _require_modulation(self.modulation)
        if self.n - 1 > 4:
            raise ValueError(f"unsupported derivative depth n={self.n} (n-1 > 4)")
        if self.family not in _NEMYTSKII:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {sorted(_NEMYTSKII)}")
        pairs = isinstance(self.params, tuple) and all(
            isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str) for p in self.params)
        names = [p[0] for p in self.params] if pairs else []
        if not pairs or len(set(names)) < len(names):
            raise ValueError(f"params must be a tuple of (name, value) pairs with distinct "
                             f"names, got {self.params!r}")
        reads = _NEMYTSKII[self.family][0]
        unread = sorted(set(self.param_dict) - set(reads))
        if unread:
            raise ValueError(f"family {self.family!r} does not read parameters {unread}; "
                             f"it reads {list(reads)}")
        if self.family == "clipped_gradient" and self.n < 2:
            raise ValueError("clipped_gradient needs derivative depth n >= 2")
        cap = self.param_dict.get("cap")
        if cap is not None:
            _require_number("cap", cap, 0, strict=True)
        if self.family == "linear":
            if "weights" not in self.param_dict:
                raise ValueError("linear family needs 'weights'")
            _require_numbers("weights", self.param_dict["weights"])
            norm = math.hypot(*self.param_dict["weights"])
            if norm > 1.0:
                raise ValueError(f"linear weights need Euclidean norm <= 1, got norm {norm:.6g}")

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
    the returned function validates nothing.  Leading axes of ``values``
    beyond the grid's index a stack of densities.

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
        F = _NEMYTSKII[spec.family][1](1 + len(mults), grid.dim, spec.param_dict)
    else:
        raise TypeError(f"no drift map for {type(spec).__name__}")

    def drift(values: np.ndarray) -> list:
        fields = []
        if mults:
            spectrum = rfft(values, grid.dim)
            fields = [irfft(m * spectrum, grid.shape) for m in mults]
        return fields if F is None else F([values] + fields)
    return drift


# ---------------------------------------------------------------------------
# membership studies


@dataclass
class NormStudy:
    eps_values: list
    norms: list
    verdict: str            # "bounded" | "unbounded"
    growth_exponent: float  # q: minus the log-log slope of norm against eps


def kernel_norm_study(spec: KernelSpec, idx: SobolevIndex, eps_list,
                      grid: GridSpec) -> NormStudy:
    """Windowed-norm trace of the mollified kernel across mollification times.

    Times with ``sqrt(eps)`` below the grid spacing are dropped;
    ``eps_values`` holds the ones traced.

    Verdict rule (documented): with ``s_j = (n_{j+1} - n_j) / log(eps_j / eps_{j+1})``
    the norm increment per unit of log(1/eps), the verdict is unbounded iff
    the log-log slope exponent q exceeds 0.05 and ``s_last >= s_prev``.  A
    shrinking increment is a convergent tail; a constant one is log growth
    and a growing one power growth.  The q floor keeps noise-level increments
    of a plateaued trace from counting as growth.  A vanishing kernel has
    zero norms, no log-log slope and verdict bounded with q = 0.  Each
    ``eps_list`` entry must be a number in (0, inf).
    """
    eps_list = list(eps_list)
    for e in eps_list:
        _require_number("each eps_list entry", e, 0, strict=True)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    usable = [e for e in eps_list if math.sqrt(e) >= grid.spacing]
    if len(usable) < 3:
        raise ValueError("need at least 3 resolvable mollification times")
    if kernel_vanishes(spec):
        return NormStudy(usable, [0.0] * len(usable), "bounded", 0.0)
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


# each catalog kernel's parameters, with their defaults; every other one is
# rejected.  An eps of None is the grid's default_mollification
_CATALOG = {
    "zero": {"kappa": 0.0},
    "constant": {"c": 1.0, "kappa": 0.0},
    "riesz": {"c": 1.0, "n0": 0, "eps0": 0.5, "eps": None, "kappa": 0.0},
    "dirac": {"order": 0, "direction": 0, "eps": None, "kappa": 0.0},
}


def make_kernel(name: str, grid: GridSpec, **kw) -> KernelSpec:
    """The catalog kernel ``name`` on ``grid``, from the parameters it reads.

    Raises ``ValueError`` for an unknown name or a parameter the kernel does
    not read; the variant, envelope and spec constructors check the values.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown kernel {name!r}; catalog: {sorted(_CATALOG)}")
    reads = _CATALOG[name]
    unknown = sorted(set(kw) - set(reads))
    if unknown:
        raise ValueError(f"unknown kernel parameters {unknown} for kernel {name!r}; "
                         f"it reads {list(reads)}")
    p = {**reads, **kw}
    if name == "riesz":
        variant = RieszOrder((p["c"],) * grid.dim, p["n0"], p["eps0"])
    elif name == "dirac":
        variant = DiracDerivative(p["order"], p["direction"])
    else:
        c = p.get("c", 0.0)  # the zero kernel is the constant 0
        variant = ConstantVector(tuple(c) if np.iterable(c) else (c,) * grid.dim)
    eps = p.get("eps", 0.0)  # only the singular kernels are mollified
    eps = default_mollification(grid) if eps is None else eps
    return KernelSpec(variant, eps, TimeModulation(kappa=p["kappa"]))
