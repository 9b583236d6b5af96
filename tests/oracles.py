"""Independent references that tests compare the package against.

Closed forms for isotropic Gaussians, the sup-norm bound of the windowed
norm, the Bessel potential assembled as a Gamma-weighted integral of heat
flows instead of its closed-form multiplier, the gradient of the heat flow
of a single field, the full complex frequency lattice and partial
derivatives on it, the particle drift
summed over pairs instead of binned, read through a corner-by-corner
periodic interpolation, the solver's frozen drift evaluated node by node
on the interpolated density, the 2-d Riesz image sum over the whole grid,
the transport metrics' quantile functions through scipy's PCHIP, the
probe packets built row by row, the windowed norms' sums by an FFT
convolution over the whole grid, and random band-limited test inputs.
"""

import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaln

from mkvflow.grids import (
    ScalarField,
    VectorField,
    _heat_multiplier,
    _periodic_sq_distance,
    irfft,
    rfft,
    rfft_wavenumbers,
)
from mkvflow.kernels import _component, drift_map, realize_kernel
from mkvflow.metrics import QUANTILE_NODES, empirical_quantiles


def gaussian_w2(a, b) -> float:
    """Closed-form quadratic transport distance between isotropic Gaussians."""
    dm = np.asarray(a.mean) - np.asarray(b.mean)
    ds = math.sqrt(a.variance) - math.sqrt(b.variance)
    return math.sqrt(float(dm @ dm) + len(a.mean) * ds**2)


def gaussian_entropy(a, b) -> float:
    """Closed-form relative entropy between isotropic Gaussians."""
    d = len(a.mean)
    r = a.variance / b.variance
    dm = np.asarray(a.mean) - np.asarray(b.mean)
    return 0.5 * (d * (r - 1.0 - math.log(r)) + float(dm @ dm) / b.variance)


def sup_comparison_constant(idx, dim: int) -> float:
    """Constant c with ``local_neg_norm(f) <= c * sup|f|``.

    The Bessel kernel is a probability kernel, so the windowed L^k norm of a
    bounded field is at most the unit-ball volume to the power 1/k.
    """
    vol = 2.0 * math.pi ** (0.5 * dim) / (dim * math.gamma(0.5 * dim))  # |B^d(0, 1)|
    return vol ** (0.0 if math.isinf(idx.k) else 1.0 / idx.k)


def exp_sinh_nodes(r: float, nodes: int):
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


def bessel_gamma_quadrature(f: ScalarField, r: float, nodes: int = 200) -> ScalarField:
    """Bessel potential of order ``r > 0`` as a Gamma-weighted time integral of
    heat flows.

    With the Brownian-motion normalization of ``heat_apply`` the heat time is
    ``2s``, so the per-mode factor is ``exp(-s |xi|^2)``; the quadrature sum
    ``sum_i w_i exp(-s_i |xi|^2)`` is applied as one multiplier.
    """
    s, w = exp_sinh_nodes(r, nodes)
    xi_sq = rfft_wavenumbers(f.grid)[1]
    mult = np.tensordot(w, np.exp(-np.multiply.outer(s, xi_sq)), axes=(0, 0))
    return ScalarField(f.grid, irfft(rfft(f.values) * mult, f.values.shape))


def heat_gradient(f: ScalarField, t: float) -> VectorField:
    """Gradient of the heat-evolved field, multiplier ``i xi exp(-t|xi|^2/2)``."""
    spec = rfft(f.values) * _heat_multiplier(f.grid, t)
    ixi = rfft_wavenumbers(f.grid)[0]
    return VectorField(f.grid, [irfft(ik * spec, f.grid.shape) for ik in ixi])


def freqs(grid) -> tuple:
    """Angular frequencies on the full lattice, one array per axis (fftfreq order)."""
    return grid._lattice(grid.freq_axis())


def full_lattice_derivative(f: ScalarField, order) -> np.ndarray:
    """Partial derivative of multi-index ``order``: the full-lattice spectrum
    times ``prod_j (i xi_j)^o_j``, transformed back, then ``.real``."""
    mult = np.ones(f.grid.shape, dtype=complex)
    for xi, o in zip(freqs(f.grid), order):
        mult = mult * (1j * xi) ** o
    return np.fft.ifftn(np.fft.fftn(f.values) * mult).real


def freq_sq(grid) -> np.ndarray:
    """|xi|^2 on the full frequency lattice."""
    return sum(c**2 for c in freqs(grid))


def periodic_interp(values, grid, s):
    """Periodic multilinear interpolation of one grid field at cell coordinates
    ``s`` ``(M, dim)``, corner by corner."""
    n = grid.points_per_dim
    cell = np.floor(s).astype(int)
    w = s - cell
    out = np.zeros(len(s))
    for corner in np.ndindex((2,) * grid.dim):
        idx = tuple((cell[:, j] + c) % n for j, c in enumerate(corner))
        weight = np.prod([w[:, j] if c else 1 - w[:, j] for j, c in enumerate(corner)], axis=0)
        out += values[idx] * weight
    return out


def pairwise_drift(cfg, positions, t, work):
    """Drop-in for ``particles._empirical_drift``: each particle's drift is the
    mean of the realized kernel, interpolated at its periodic displacements
    from every particle of its ensemble ``work.ens`` (itself included); no
    buffer of ``work`` is read."""
    if cfg.kernel is None:
        return np.zeros_like(positions)
    grid, ens = cfg.grid, work.ens
    L, h = grid.extent, grid.spacing
    out = np.zeros_like(positions)
    for j, comp in enumerate(realize_kernel(cfg.kernel, grid).components):
        for i in range(len(positions)):
            z = positions[i] - positions[ens == ens[i]]
            z = (z + 0.5 * L) % L - 0.5 * L
            out[i, j] = periodic_interp(comp, grid, (z + 0.5 * L) / h).mean()
    return cfg.kernel.modulation.factor(t) * out


def density_at(flow, t: float) -> ScalarField:
    """Linear interpolation of ``flow`` in time; the initial datum anchors t=0."""
    fields = [flow.initial] + list(flow.densities)
    j, w = flow._bracket(t)
    if w == 0.0 or w == 1.0:
        return fields[j + int(w)]
    return ScalarField(flow.grid, (1 - w) * fields[j].values + w * fields[j + 1].values)


def drift_field(spec, rho: ScalarField, t: float) -> VectorField:
    """Drift ``t^kappa`` times ``drift_map(spec)`` of the density ``rho``."""
    rho.require_density()
    factor = spec.modulation.factor(t)
    return VectorField(rho.grid, [factor * c for c in drift_map(spec, rho.grid)(rho.values)])


def per_node_drift(spec, mus, grid, nodes):
    """Drop-in for ``solver._frozen_drift`` on a sequence of frozen flows:
    ``drift_field`` of each flow's density interpolated at each node, one
    node and one flow at a time, stacked over the flows."""
    return ([np.stack(c) for c in zip(*(drift_field(spec, density_at(mu, s), s).components
                                         for mu in mus))]
            for s in nodes)


def riesz_image_sum_2d(spec, grid) -> list:
    """``kernels.riesz_direct`` of a 2-d Riesz kernel, summed over every grid
    point and every image pair, with no symmetry used."""
    p = grid.dim + 2 * spec.n0 + spec.eps0
    xa, xb = grid.coords()
    L = grid.extent
    comps = [np.zeros(grid.shape) for _ in range(2)]
    for ma in range(-24, 25):
        za = xa + ma * L
        for mb in range(-24, 25):
            zb = xb + mb * L
            r = np.hypot(za, zb)
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(r > 0, r**-p, 0.0)
            comps[0] += za * inv
            comps[1] += zb * inv
    return [_component(spec.c, j) * comps[j] for j in range(2)]


def pchip_density_quantiles(rho: ScalarField, u: np.ndarray) -> np.ndarray:
    """Quantile function of a 1-d grid density at ``u``, as the transport
    metrics compute it but through scipy's ``PchipInterpolator``."""
    grid = rho.grid
    x = grid.axis_coords()
    h = grid.spacing
    cdf = np.concatenate([[0.0], np.cumsum(rho.values) * h])
    xs = np.concatenate([[x[0] - 0.5 * h], x + 0.5 * h])
    cdf = np.maximum.accumulate(cdf / cdf[-1])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        interp = PchipInterpolator(xs, cdf)
        fine_x = np.linspace(xs[0], xs[-1], 16 * len(xs))
        fine_c = np.maximum.accumulate(np.clip(interp(fine_x), 0.0, 1.0))
    return np.interp(u, fine_c, fine_x)


def pchip_transport_distance(rho: ScalarField, other, q: float) -> float:
    """Order-q transport distance between the density ``rho`` and a density
    or 1-d samples ``other``, with ``pchip_density_quantiles``."""
    u = (np.arange(QUANTILE_NODES) + 0.5) / QUANTILE_NODES
    if isinstance(other, ScalarField):
        other_q = pchip_density_quantiles(other, u)
    else:
        other_q = empirical_quantiles(np.asarray(other).ravel(), u)
    return float(np.mean(np.abs(pchip_density_quantiles(rho, u) - other_q) ** q) ** (1.0 / q))


def row_packets(grid, widths, freqs) -> np.ndarray:
    """Drop-in for ``norms._packets``: envelope and carrier evaluated anew on
    every (width, frequency, phase) row."""
    rows = [(s, q, phase) for s in widths for q in freqs
            for phase in ((0.0,) if q == 0.0 else (0.0, 0.5 * math.pi))]
    width, freq, phase = np.reshape(rows, (-1, 3) + (1,) * grid.dim).swapaxes(0, 1)
    env = np.exp(-0.5 * _periodic_sq_distance(grid, (0.0,) * grid.dim) / width**2)
    return env * np.cos(freq * grid.coords()[0] + phase)


def random_band_limited(grid, band: int, rng) -> ScalarField:
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


def fft_windowed_sups(grid, g, k, center_spacing: float = 0.5) -> np.ndarray:
    """``norms._windowed_sups`` of the stack ``g >= 0`` by convolving over the
    whole grid, then reading every ``center_spacing`` from index 0.

    For finite k: the full complex FFT convolution of ``g**k`` with the
    unit-ball indicator, clipped at 0, times the cell volume.  For k = inf:
    the largest value of ``g`` in each ball, by one roll per ball point.
    """
    axes = tuple(range(1, grid.dim + 1))
    ball = grid.periodic_radius() <= 1.0
    stride = max(1, int(center_spacing / grid.spacing))
    sub = (slice(None),) + (slice(None, None, stride),) * grid.dim
    if math.isinf(k):
        window = np.zeros_like(g)
        for pos in np.argwhere(ball):
            window = np.maximum(window, np.roll(g, tuple(pos), axis=axes))
        return window[sub].reshape(len(g), -1).max(axis=1)
    spec = np.fft.fftn(g**k, axes=axes) * np.fft.fftn(ball.astype(float))
    window = np.maximum(np.fft.ifftn(spec, axes=axes).real, 0.0) * grid.cell_volume
    return window[sub].reshape(len(g), -1).max(axis=1) ** (1.0 / k)
