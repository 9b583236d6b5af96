"""Windowed negative-Sobolev norms and the dual norm on measures.

The function norm is ``sup_z || 1_{B(z,1)} (1-Lap)^{-delta/2} f ||_{L^k}``
with the sup taken over a lattice of ball centers ``_CENTER_SPACING`` apart;
each center's windowed integral is read off prefix sums along the ball's
chords, so only the lattice centers are computed, on a torus wider than the
ball.
The dual norm on (differences of) measures is not computable exactly; it is
bracketed by a certified lower bound (the best pairing with three structured
test functions) and an upper surrogate (cell-partition sum dual to the
windowed structure).
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
    _heat_multiplier,
    _magnitude,
    _periodic_sq_distance,
    _require_number,
    bessel_apply,
    bessel_sharpen,
    irfft,
    rfft,
    rfft_wavenumbers,
)

__all__ = [
    "SobolevIndex",
    "local_neg_norm",
    "measure_dual_norm",
    "measure_dual_bracket",
    "operator_exponent_probe",
    "heat_norm_exponent",
    "ProbeFit",
]

BALL_RADIUS = 1.0
_CENTER_SPACING = 0.5  # resolves the windowed sup; a finer grid keeps every point
_PROBE_BLOCK = 16  # rows per stacked probe evaluation


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
        _require_number("delta", self.delta)
        _require_number("k", self.k)
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be >= 0 and finite, got {self.delta}")
        if not self.k >= 1:
            raise ValueError(f"k must be >= 1 (or inf), got {self.k}")

    @property
    def conjugate(self) -> float:
        """Holder conjugate of k; inf for k=1."""
        if math.isinf(self.k):
            return 1.0
        if self.k == 1:
            return math.inf
        return self.k / (self.k - 1.0)


@functools.lru_cache(maxsize=16)
def _ball_chords(grid: GridSpec, stride: int) -> tuple:
    """The cut points and prefix-sum indices that ``_windowed_sups`` reads,
    read-only.

    The ball ``periodic_radius() <= BALL_RADIUS`` sits at grid index ``n/2``
    on each axis and meets each grid line along the last axis in one run of
    points, a chord: one chord in 1-d, one per line it crosses in 2-d.  The
    centers are ``(m * stride + n/2) mod n`` on each axis.  ``cuts`` are the
    sorted points of the last axis where some chord starts or stops at some
    center, 0 included.  ``hi`` and ``lo``, of shape (centers on the leading
    axis or 1, centers on the last axis, chords), index the flat prefix sums
    over the segments between cuts: a chord's sum at a center is
    ``prefix[hi] - prefix[lo]``.
    """
    n = grid.points_per_dim
    ball = (grid.periodic_radius() <= BALL_RADIUS).reshape(-1, n).astype(np.int8)
    edges = np.diff(ball, axis=1, prepend=0, append=0)
    lines, starts = np.nonzero(edges == 1)
    stops = np.nonzero(edges == -1)[1]
    centers = (np.arange(0, n, stride) + n // 2) % n
    # the line of a chord at a center on the leading axis; 1-d has one line
    rows = (centers[:, None] + lines - n // 2) % n if grid.dim == 2 else lines[None, :]
    # chord ends along the line, in (-n/2, 3n/2): the chord is [lo end, hi end)
    ends = [centers[:, None] + e - n // 2 for e in (stops, starts)]
    cuts = np.unique(np.concatenate([[0]] + [e.ravel() % n for e in ends]))
    # prefix sums of each line take 3 * len(cuts) entries: periods -1, 0 and 1
    base = (rows * 3 * len(cuts))[:, None, :]
    hi, lo = (base + (e // n + 1) * len(cuts) + np.searchsorted(cuts, e % n) for e in ends)
    for a in (cuts, hi, lo):
        a.setflags(write=False)
    return cuts, hi, lo


def _windowed_sups(grid: GridSpec, g: np.ndarray, idx: SobolevIndex) -> list:
    """``sup_z ||1_{B(z,1)} g||_{L^k}`` of each field in the stack ``g >= 0``.

    The centers ``z`` are the grid points every ``_CENTER_SPACING``, offset
    to include the origin.  For finite k the windowed integral of ``g**k``
    at each center is a sum over the ball's chords of differences of prefix
    sums along the last axis, taken over the segments between the chord
    ends (``_ball_chords``), so only the centers read are computed; for
    k = inf every point lies in some ball: the sup is the global sup.  A
    torus of extent at most ``2 * BALL_RADIUS`` is refused: the ball would
    cover it.
    """
    if grid.extent <= 2 * BALL_RADIUS:
        raise ValueError(f"torus extent {grid.extent} too small for unit-ball windows")
    if math.isinf(idx.k):
        return list(g.reshape(len(g), -1).max(axis=1))
    cuts, hi, lo = _ball_chords(grid, max(1, int(_CENTER_SPACING / grid.spacing)))
    segments = np.add.reduceat(g**idx.k, cuts, axis=-1)
    cum = np.zeros(segments.shape[:-1] + (len(cuts) + 1,))
    np.cumsum(segments, axis=-1, out=cum[..., 1:])
    below, total = cum[..., :-1], cum[..., -1:]
    # the periodic prefix sum over three periods, nondecreasing like ``cum``
    prefix = np.concatenate([below - total, below, below + total], axis=-1).reshape(len(g), -1)
    sums = (prefix[:, hi] - prefix[:, lo]).sum(axis=-1)
    top = sums.reshape(len(g), -1).max(axis=1) * grid.cell_volume
    return [m ** (1.0 / idx.k) for m in top]


def local_neg_norm(f, idx: SobolevIndex) -> float:
    """Windowed norm ``sup_z ||1_{B(z,1)} (1-Lap)^{-delta/2} f||_{L^k}``.

    Vector fields are smoothed componentwise and measured through the
    Euclidean magnitude; the sup over centers is ``_windowed_sups`` of one
    field.
    """
    grid = f.grid
    if isinstance(f, VectorField):
        g = _magnitude([bessel_apply(ScalarField(grid, c), idx.delta / 2.0).values
                        for c in f.components])
    else:
        g = np.abs(bessel_apply(f, idx.delta / 2.0).values)
    return float(_windowed_sups(grid, g[None], idx)[0])


# ---------------------------------------------------------------------------
# dual norm on (differences of) measures


def _partition_cells(grid: GridSpec):
    """Disjoint cubes of side ~1 tiling the torus, each inside some unit ball."""
    # the least power of two, so a divisor of n, at or above the rounded extent
    per_side = 1 << (max(2, int(round(grid.extent))) - 1).bit_length()
    if per_side > grid.points_per_dim:
        raise ValueError("cannot tile grid into cells")
    side_pts = grid.points_per_dim // per_side
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


def _probe_candidates(rho: ScalarField, idx: SobolevIndex):
    """The structured witnesses: the sign pattern of the input (it attains the
    variation pairing), the constant, and the sharpened input (the L2-dual
    witness)."""
    sgn = np.sign(rho.values)
    cands = [sgn] if np.any(sgn) else []
    return cands + [np.ones(rho.grid.shape), bessel_sharpen(rho, idx.delta).values]


def _probe_norm(rho: ScalarField, idx: SobolevIndex) -> float:
    """Largest pairing with a candidate over its windowed norm, all norms taken
    as one stack; a candidate of zero or non-finite norm is skipped."""
    grid = rho.grid
    cands = np.array(_probe_candidates(rho, idx))
    bessel = (1.0 + rfft_wavenumbers(grid)[1]) ** (-idx.delta / 2.0)
    best = 0.0
    for vals, nrm in zip(cands, _probe_norms(grid, rfft(cands, grid.dim), [bessel], idx)):
        if nrm > 0 and np.isfinite(nrm):
            best = max(best, abs(float((rho.values * vals).sum()) * grid.cell_volume) / nrm)
    return best


def measure_dual_norm(rho: ScalarField, idx: SobolevIndex, method: str = "amalgam") -> float:
    """Dual norm of a measure (mass 1) or difference of measures (mass 0).

    ``method='amalgam'`` sums cellwise conjugate norms of the sharpened
    density: an upper-equivalent surrogate, exact duality up to the
    cell/ball mismatch.  ``method='probe'`` maximizes |integral of rho * g|
    over the normalized witnesses ``g`` of ``_probe_candidates``: a certified
    lower bound, deterministic.
    """
    m = rho.mass()
    if not (abs(m) < 1e-6 or abs(m - 1.0) < 1e-6):
        raise ValueError(f"input must integrate to 0 or 1, got mass {m:.3e}")
    if method == "amalgam":
        return _amalgam_norm(rho, idx)
    if method == "probe":
        return _probe_norm(rho, idx)
    raise ValueError(f"unknown method {method!r}")


def measure_dual_bracket(rho: ScalarField, idx: SobolevIndex) -> dict:
    """Both bracket sides and their ratio, for tracking surrogate slack."""
    lo = measure_dual_norm(rho, idx, "probe")
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
    t_values: np.ndarray
    estimates: np.ndarray


def _packets(grid: GridSpec, widths, freqs) -> np.ndarray:
    """Gaussian-envelope wave packets centered at the origin, stacked, one per
    (width, frequency, carrier phase): phases 0 and pi/2, only 0 at frequency 0.

    Both norms are translation invariant, so centering loses nothing; the two
    phases cover grid alignment.  Each envelope and each carrier is evaluated
    once; the rows are their products, width-major.
    """
    axes = (1,) * grid.dim
    waves = [(q, phase) for q in freqs for phase in ((0.0,) if q == 0.0 else (0.0, 0.5 * math.pi))]
    freq, phase = np.reshape(waves, (-1, 2) + axes).swapaxes(0, 1)
    width = np.reshape(widths, (-1, 1) + axes)
    env = np.exp(-0.5 * _periodic_sq_distance(grid, (0.0,) * grid.dim) / width**2)
    return (env * np.cos(freq * grid.coords()[0] + phase)).reshape((-1,) + grid.shape)


def _probe_family(grid: GridSpec) -> np.ndarray:
    """Base inputs spanning the unit ball's extreme directions, stacked: the
    constant field and Gabor-type packets over a log-grid of widths and
    frequencies, since the extremizer is often a scale-matched packet
    (notably in the gradient and concentrated-source cases)."""
    xi_max = math.pi / grid.spacing
    widths = np.geomspace(4 * grid.spacing, grid.extent / 8.0, 5)
    freqs = np.concatenate([[0.0], np.geomspace(2.0 * math.pi / grid.extent,
                                                0.5 * xi_max, 6)])
    return np.concatenate([np.ones((1,) + grid.shape), _packets(grid, widths, freqs)])


def _matched_packets(grid: GridSpec, t: float) -> np.ndarray:
    """Packets tuned to the diffusive scale sqrt(t), stacked.

    The heat operator norm between windowed indices is attained (up to
    constants) by inputs concentrated at width ~ sqrt(t) or oscillating at
    frequency ~ 1/sqrt(t); the fixed family misses those scales between its
    log-grid points, so a few matched packets per time sharpen the estimate.
    """
    rt = math.sqrt(t)
    widths = [s for s in (0.25 * rt, 0.4 * rt, 0.65 * rt, 1.0 * rt, 1.6 * rt)
              if grid.spacing <= s <= grid.extent / 4]
    return _packets(grid, widths, (0.0, 0.5 / rt, 0.8 / rt, 1.2 / rt, 1.8 / rt))


def _probe_norms(grid: GridSpec, spectra: np.ndarray, mults, idx: SobolevIndex) -> np.ndarray:
    """Per row of ``spectra``, the windowed sup of ``|(irfft(spectra * m) for m in mults)|``."""
    norms = []
    for lo in range(0, len(spectra), _PROBE_BLOCK):
        g = _magnitude([irfft(spectra[lo:lo + _PROBE_BLOCK] * m, grid.shape) for m in mults])
        if not np.all(np.isfinite(g)):
            raise ValueError("field values must be finite")
        norms += _windowed_sups(grid, g, idx)
    return np.array(norms)


def operator_exponent_probe(cases, t_grid, grid: GridSpec | None = None) -> list:
    """Fit the time exponent of the heat operator norm between two indices,
    one ``ProbeFit`` per case ``(i, frm, to)`` of the sequence ``cases``.

    For each t the operator norm is estimated from below by maximizing the
    output/input norm ratio over the inputs ``(1-Lap)^{frm.delta/2} f``, of
    input norm that of ``|f|``, with ``f`` from ``_probe_family`` and
    ``_matched_packets(t)``; each output is one multiplier product on the
    spectrum.  ``t_grid`` is swept once: each time's matched packets, their
    spectrum and the heat multiplier serve every case.  The log-log slope
    across ``t_grid`` is fitted by least squares; the fit is deterministic.

    Preconditions: ``i`` in {0, 1}, ``to.delta <= frm.delta``,
    ``frm.k <= to.k`` and a time grid spanning at least 1.5 decades.
    """
    cases = list(cases)
    if not cases:
        raise ValueError("need at least one (i, frm, to) case")
    for i, frm, to in cases:
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
    ixi, xi_sq = rfft_wavenumbers(grid)
    out_comps = []
    for i, frm, to in cases:
        bessel = (1.0 + xi_sq) ** ((frm.delta - to.delta) / 2.0)  # sharpen, then smooth
        out_comps.append([bessel] if i == 0 else [bessel * ik for ik in ixi])
    base = _probe_family(grid)
    family = rfft(base, grid.dim)
    np.abs(base, out=base)  # the input norms read |f|
    family_in = [np.array(_windowed_sups(grid, base, frm)) for _, frm, _ in cases]
    estimates = np.zeros((len(cases), t_grid.size))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small probe times are intentional
        for j, t in enumerate(t_grid):
            heat = _heat_multiplier(grid, t)
            packets = _matched_packets(grid, t)
            matched = rfft(packets, grid.dim)
            np.abs(packets, out=packets)
            for c, (_, frm, to) in enumerate(cases):
                mults = [heat * m for m in out_comps[c]]
                matched_in = np.array(_windowed_sups(grid, packets, frm))
                for spectra, nin in ((family, family_in[c]), (matched, matched_in)):
                    live = nin > 1e-12
                    ratios = _probe_norms(grid, spectra[live], mults, to) / nin[live]
                    estimates[c, j] = max(estimates[c, j], np.max(ratios, initial=0.0))
    log_t = np.log(t_grid)
    return [ProbeFit(float(np.polyfit(log_t, np.log(e), 1)[0]), t_grid, e) for e in estimates]
