"""Mean-field Fokker-Planck flow as a fixed point of the frozen-drift map.

For a frozen time-indexed family of densities the drift field is known, and
the law of the associated diffusion solves the linear Fokker-Planck equation
whose mild form is

    rho_t = H_t rho_0 - int_0^t div( H_{t-s} (b_s rho_s) ) ds,

with ``H`` the heat semigroup.  ``phi_apply`` marches this Volterra identity
with a second-order exponential Heun step on a graded internal grid, keeping
the real-FFT spectrum of the density as its state: heat is a multiplier and
mass projection pins the zero mode.  Both drift specs are evaluated by
``kernels.drift_map``, built once per map: a convolution drift on each
frozen density, interpolated linearly in time in physical space, which is
exact by linearity; a Nemytskii drift on the raw interpolated values.  A
callable drift gets the interpolated density.
The Picard loop feeds the output flow back in until the distance between
successive iterates falls below tolerance.  Rough initial data enters
through the time-shift route: pure diffusion on [0, r], drift switched on
afterwards with shifted time argument.  The shift lives in the march itself
(``graded_from``), so a shifted convolution drift keeps the spectral path.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import GridSpec, ScalarField, irfft, rfft, rfft_wavenumbers
from .kernels import KernelSpec, NemytskiiSpec, drift_map, kernel_vanishes
from .norms import SobolevIndex, _inv, measure_dual_norm

__all__ = [
    "FlowParams",
    "MeasureFlow",
    "SolveReport",
    "DegradedAccuracyError",
    "NoContractionError",
    "eta_theta_params",
    "phi_apply",
    "weighted_flow_distance",
    "contraction_ratios",
    "picard_solve",
    "time_shift_solve",
    "tau_n_formula",
]


# exponent of the internal marching grid's refinement toward the drift onset
GRADING = 1.5


class DegradedAccuracyError(RuntimeError):
    """Quadrature produced more negative mass than the density tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NoContractionError(RuntimeError):
    """Three successive Picard distance ratios were at or above one."""


def _require_positive_int(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


@dataclass(frozen=True)
class FlowParams:
    """Index pair and time horizon defining one solve.

    ``eps <= delta`` and ``k <= p`` index the initial and running norms; the
    derived smoothing gap ``eta`` must stay below ``1 + 2 kappa`` for the
    fixed-point scheme to contract.
    """

    delta: float
    k: float
    eps: float = 0.0
    p: float = math.inf
    kappa: float = 0.0
    T: float = 1.0
    time_grid: tuple = ()
    dim: int = 1

    def __post_init__(self):
        if not (0 <= self.eps <= self.delta):
            raise ValueError(f"need 0 <= eps <= delta, got eps={self.eps}, delta={self.delta}")
        if not (1 <= self.k <= self.p):
            raise ValueError(f"need 1 <= k <= p, got k={self.k}, p={self.p}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.T <= 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        # eight equally spaced output times unless given
        tg = tuple(float(t) for t in self.time_grid) or tuple(self.T * j / 8 for j in range(1, 9))
        if any(t <= 0 for t in tg) or any(b <= a for a, b in zip(tg, tg[1:])):
            raise ValueError("time_grid must be strictly increasing and positive")
        if abs(tg[-1] - self.T) > 1e-12:
            raise ValueError(f"time_grid must end at T={self.T}, ends at {tg[-1]}")
        object.__setattr__(self, "time_grid", tg)

    @property
    def eta(self) -> float:
        return self.delta - self.eps + self.dim * (_inv(self.k) - _inv(self.p))

    @property
    def theta(self) -> float:
        gap = 1.0 - max(self.eta - 2.0 * self.kappa, 0.0)
        return math.inf if gap <= 0 else 2.0 / gap

    @property
    def running_index(self) -> SobolevIndex:
        return SobolevIndex(self.delta, self.k)

    @property
    def weight_exponent(self) -> float:
        """Time power in the weighted flow metric (half the smoothing gap)."""
        return 0.5 * self.eta


def eta_theta_params(params: FlowParams, q: float | None = None) -> dict:
    """Derived indices and admissibility flags for one parameter set.

    Returns eta, theta, the transport order index xi(q) when q is given, and
    booleans for the smoothing-gap condition (eta < 1 + 2 kappa), the
    stability window (eta < max(1, 1/2 + kappa) together with the delta
    cap), and the admissible q-range for transport comparisons.  Inadmissible
    sets are flagged, never rejected.
    """
    eta = params.eta
    theta = params.theta
    d, kk = params.dim, params.kappa
    slack = max(2.0 * kk - eta, 0.0)
    out = {
        "eta": eta,
        "theta": theta,
        "smoothing_gap_ok": eta < 1.0 + 2.0 * kk,
        "stability_window_ok": (
            eta < max(1.0, 0.5 + kk)
            and params.delta < min(1.0, 2.0 - d * _inv(params.k)) + slack
            and params.eps <= d * (1.0 - _inv(params.p))
        ),
    }
    if q is not None:
        if q < 1:
            raise ValueError(f"transport order q must be >= 1, got {q}")
        xi = params.delta + d * _inv(params.k) - (1.0 - 1.0 / q) * (
            params.eps + d * _inv(params.p))
        lo = (params.eps + d * _inv(params.p)) / (1.0 + slack - eta) \
            if 1.0 + slack - eta > 0 else math.inf
        denom = max(params.eps + d * _inv(params.p) - d * _inv(params.k), 0.0)
        hi = math.inf if denom == 0 else (params.eps + d * _inv(params.p)) / denom
        out["xi_q"] = xi
        out["q_range_ok"] = lo < q <= hi
    return out


@dataclass
class MeasureFlow:
    """Time-indexed densities with the initial datum attached."""

    times: np.ndarray
    densities: list
    initial: ScalarField
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.densities) != self.times.size:
            raise ValueError("one density per time required")
        self._knots = [0.0] + self.times.tolist()
        for rho in self.densities:
            m = rho.mass()
            if abs(m - 1.0) > 1e-6:
                raise ValueError(f"flow density mass {m:.8f} out of tolerance")

    @property
    def grid(self) -> GridSpec:
        return self.initial.grid

    def density_at(self, t: float) -> ScalarField:
        """Linear interpolation in time; the initial datum anchors t=0."""
        fields = [self.initial] + list(self.densities)
        j, w = self._bracket(t)
        if w == 0.0 or w == 1.0:
            return fields[j + int(w)]
        return ScalarField(self.grid, (1 - w) * fields[j].values + w * fields[j + 1].values)

    def _bracket(self, t: float) -> tuple:
        """``(j, w)`` with the flow at ``t`` equal to ``(1-w) f_j + w f_{j+1}``,
        where ``f`` is the initial datum followed by the densities and ``t`` is
        clamped to ``[0, times[-1]]``."""
        ts = self._knots
        j = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
        return j, min(max(float((t - ts[j]) / (ts[j + 1] - ts[j])), 0.0), 1.0)

    def l1_increments(self) -> np.ndarray:
        w = self.grid.cell_volume
        return np.asarray([float(np.abs(b.values - a.values).sum()) * w
                           for a, b in zip(self.densities, self.densities[1:])])


@dataclass
class SolveReport:
    iterations: int
    contraction_ratios: list
    decay_trajectory: np.ndarray
    blowup: bool
    lam_used: float
    clip_mass: float
    residual: float
    gap_series: list = field(default_factory=list)


def _frozen_drift(drift, mu: MeasureFlow, grid: GridSpec, shift: float):
    """``s -> drift components`` of ``drift`` with the flow frozen at ``mu``.

    The drift is zero before ``shift`` (``phi_apply`` passes ``graded_from``)
    and takes the time argument ``s - shift`` after it.  Both spec kinds are
    ``kernels.drift_map``, built once here, times the envelope.  A
    convolution drift is linear in the density and ``density_at`` is linear
    in time, so the map of each frozen field, evaluated once here and
    interpolated linearly between the flow's times, gives it exactly at any
    ``s``.  A Nemytskii drift is the map of the values ``density_at`` would
    give, with finite components at every node.  For both, each frozen field
    passes the density check once: every marching node sees a convex
    combination of two of them, whose minimum and mass lie between theirs.
    Callable drifts get ``density_at(s)``.
    """
    fields = [mu.initial] + list(mu.densities)
    if isinstance(drift, (KernelSpec, NemytskiiSpec)):
        for f in fields:
            f.require_density()
        evaluate = drift_map(drift, grid)
    if isinstance(drift, KernelSpec):
        convs = [evaluate(f.values) for f in fields]

        def field_at(s: float) -> list:
            j, w = mu._bracket(s)
            factor = drift.modulation.factor(s - shift)
            a, b = factor * (1 - w), factor * w
            return [a * c0 + b * c1 for c0, c1 in zip(convs[j], convs[j + 1])]
    elif isinstance(drift, NemytskiiSpec):
        values = [f.values for f in fields]

        def field_at(s: float) -> list:
            j, w = mu._bracket(s)
            rho = (values[j + int(w)] if w == 0.0 or w == 1.0
                   else (1 - w) * values[j] + w * values[j + 1])
            factor = drift.modulation.factor(s - shift)
            comps = [factor * c for c in evaluate(rho)]
            if not all(np.isfinite(c).all() for c in comps):
                raise ValueError(f"drift is not finite at t={s:.6g}")
            return comps
    elif callable(drift):
        def field_at(s: float) -> list:
            return drift(mu.density_at(s), s - shift).components
    else:
        raise TypeError(f"unsupported drift spec {type(drift).__name__}")
    zero = [np.zeros(grid.shape)] * grid.dim
    return lambda s: zero if s < shift else field_at(s)


def _internal_grid(out_times, steps: int, graded_from: float = 0.0) -> np.ndarray:
    """Marching nodes: graded refinement clustered at the drift onset, merged
    with the output times (the drift envelope t^kappa and rough initial data
    live near the onset; the step integral's own endpoint is handled by the
    scheme).  ``graded_from > 0`` prepends a coarse pure-diffusion leg."""
    T = out_times[-1]
    base = graded_from + (T - graded_from) * (np.arange(steps + 1) / steps) ** GRADING
    parts = [np.round(base, 14), np.round(np.asarray(out_times), 14)]
    if graded_from > 0:
        parts.append(np.round(np.linspace(0.0, graded_from,
                                          max(2, steps // 16) + 1), 14))
    nodes = parts[0]
    for p in parts[1:]:
        nodes = np.union1d(nodes, p)
    nodes = nodes[(nodes >= 0) & (nodes <= T + 1e-14)]
    if nodes[0] > 0:
        nodes = np.concatenate([[0.0], nodes])
    return nodes


def _clip_output(vals: np.ndarray, grid: GridSpec, log: dict):
    """Clip negatives at zero and re-project the mass, on outputs only.

    Outputs are the next iteration's frozen densities and must pass its
    density check.  Internal marching states stay untouched: rough initial
    data legitimately passes through oscillatory under-resolved transients
    whose undershoot is a representation artifact, and the spectral heat
    steps are exact on them.
    """
    neg = vals < 0.0
    if neg.any():
        log["clip_mass"] -= float(vals[neg].sum()) * grid.cell_volume
        vals = np.where(neg, 0.0, vals)
    return vals / (float(vals.sum()) * grid.cell_volume)


def phi_apply(gamma: ScalarField, mu: MeasureFlow | None, drift,
              params: FlowParams, steps: int = 600,
              graded_from: float = 0.0) -> MeasureFlow:
    """Law flow of the diffusion whose drift is frozen from the flow ``mu``.

    Marches the mild identity with an exponential Heun (predictor-corrector)
    step on the density's real-FFT spectrum, over ``steps`` nodes refined
    toward the drift onset with exponent ``GRADING``: heat is applied exactly, the
    transport term is integrated by the trapezoid rule inside each step,
    second order overall.  ``mu=None``, or a kernel whose symbols all vanish,
    means zero interaction (the map's base point, the plain heat flow of the
    initial datum).  The frozen flow enters
    through linear interpolation between its grid times, so the output grid
    density is an accuracy parameter of the fixed point, not just a sampling
    choice.  ``graded_from > 0`` switches the drift on at that time, with
    time argument ``s - graded_from`` (the time-shift route).

    Raises
    ------
    DegradedAccuracyError
        If the accumulated negative undershoot exceeds 1e-3 in mass.
    ValueError
        If ``steps`` is not a positive int, ``params.dim`` is not the
        dimension of the density's grid, a frozen density is not a density
        or the march state turns non-finite.
    """
    _require_positive_int("steps", steps)
    grid = gamma.grid
    if params.dim != grid.dim:
        raise ValueError(f"FlowParams.dim = {params.dim}, but the density is on a "
                         f"{grid.dim}-d grid")
    gamma.require_density()
    out_times = np.asarray(params.time_grid)
    nodes = _internal_grid(out_times, steps, graded_from)
    # node index -> output slot
    out_slot = {}
    for i, t in enumerate(out_times):
        j = int(np.argmin(np.abs(nodes - t)))
        if abs(nodes[j] - t) > 1e-10:
            raise RuntimeError(f"output time {t} missing from the marching grid")
        out_slot[j] = i
    log = {"clip_mass": 0.0}
    ixi, xi_sq = rfft_wavenumbers(grid)
    minus_ixi = [-ik for ik in ixi]
    drift_at = None
    if mu is not None and not (isinstance(drift, KernelSpec) and kernel_vanishes(drift)):
        drift_at = _frozen_drift(drift, mu, grid, graded_from)

    def transport(b, vals: np.ndarray) -> np.ndarray:  # spectrum of -div(b rho)
        out = minus_ixi[0] * rfft(b[0] * vals)
        for ik, c in zip(minus_ixi[1:], b[1:]):
            out += ik * rfft(c * vals)
        return out

    rho = gamma.values
    rho_hat = rfft(rho)
    densities = [None] * out_times.size
    b_next = None if drift_at is None else drift_at(nodes[0])
    for m_idx in range(len(nodes) - 1):
        s0, s1 = nodes[m_idx], nodes[m_idx + 1]
        h = s1 - s0
        mult = np.exp(-0.5 * h * xi_sq)
        rho_hat = rho_hat * mult
        if drift_at is not None:
            heated_F0 = transport(b_next, rho) * mult
            predictor = irfft(rho_hat + h * heated_F0, grid.shape)
            b_next = drift_at(s1)
            rho_hat = rho_hat + 0.5 * h * (heated_F0 + transport(b_next, predictor))
        rho_hat = rho_hat / (rho_hat.flat[0].real * grid.cell_volume)
        slot = out_slot.get(m_idx + 1)
        if drift_at is not None or slot is not None:
            rho = irfft(rho_hat, grid.shape)
            if not np.all(np.isfinite(rho)):
                raise ValueError(f"march state is not finite at t={s1:.6g}")
        if slot is not None:
            densities[slot] = ScalarField(grid, _clip_output(rho.copy(), grid, log))
    if log["clip_mass"] > 1e-3:
        raise DegradedAccuracyError(
            f"negative undershoot mass {log['clip_mass']:.2e} exceeds 1e-3",
            diagnostics={**log, "steps": steps})
    return MeasureFlow(out_times, densities, gamma, meta=log)


def _dual_norm_series(mu: MeasureFlow, nu: MeasureFlow, idx: SobolevIndex) -> np.ndarray:
    return np.asarray([measure_dual_norm(ScalarField(a.grid, a.values - b.values), idx,
                                         "amalgam")
                       for a, b in zip(mu.densities, nu.densities)])


def _weight(params: FlowParams, times: np.ndarray, lam: float) -> np.ndarray:
    return np.exp(-lam * times) * times**params.weight_exponent


def weighted_flow_distance(mu: MeasureFlow, nu: MeasureFlow, params: FlowParams,
                           lam: float = 0.0) -> float:
    """Weighted sup distance between two flows on their common time grid.

    The time weight is ``exp(-lam t) t^(eta/2)``; the per-time distance is
    the dual norm of the density difference (upper amalgam bracket).
    """
    if mu.times.shape != nu.times.shape or not np.allclose(mu.times, nu.times):
        raise ValueError("flows live on different time grids")
    series = _dual_norm_series(mu, nu, params.running_index)
    return float(np.max(_weight(params, mu.times, lam) * series))


def contraction_ratios(gap_series: list, params: FlowParams, lam: float) -> list:
    """Ratios of successive weighted distances between Picard iterates.

    ``gap_series[j]`` holds the per-time dual-norm gaps of iteration ``j``;
    its distance is their maximum under the weight ``exp(-lam t) t^(eta/2)``.
    """
    weight = _weight(params, np.asarray(params.time_grid), lam)
    dists = [float(np.max(weight * gaps)) for gaps in gap_series]
    return [d1 / max(d0, 1e-300) for d0, d1 in zip(dists, dists[1:])]


def tau_n_formula(gamma_norm: float, n: int, A_n: float, params: FlowParams) -> float:
    """Guaranteed-lifetime lower bound for the level-n localization.

    Equals n outright in the strongest-norm setting (eps=0, p=inf); otherwise
    caps n by the reciprocal of ``A_n g^theta exp(A_n g^theta)`` with g the
    initial norm.  ``A_n`` is caller-supplied: the analysis provides
    existence, not a value.
    """
    if A_n <= 0:
        raise ValueError(f"A_n must be positive, got {A_n}")
    if gamma_norm <= 0:
        raise ValueError(f"gamma_norm must be positive, got {gamma_norm}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if params.eps == 0.0 and math.isinf(params.p):
        return float(n)
    if not math.isfinite(params.theta):
        raise ValueError("contraction exponent undefined: the smoothing gap "
                         f"eta={params.eta:.3f} is too large for kappa={params.kappa:.3f}")
    g = A_n * gamma_norm**params.theta
    # exp saturates near 745 in double precision; beyond it the 1/g factor
    # keeps the bound strictly decreasing
    return min(float(n), math.exp(-min(g, 700.0)) / g)


def picard_solve(gamma: ScalarField, drift, params: FlowParams, tol: float = 1e-8,
                 max_iter: int = 25, steps: int = 600, graded_from: float = 0.0):
    """Fixed-point iteration for the self-consistent law flow.

    Starts from the pure heat flow of the initial datum, reapplies the
    frozen-drift map until the distance between successive iterates, the
    maximum over output times of ``t^(eta/2)`` times their dual-norm gap,
    drops below ``tol``.  The weight ``exp(-lam t)`` of the contraction
    proof would only shrink this distance and does not move the fixed point,
    so the loop does not apply it; the per-time gaps are kept, so
    ``contraction_ratios`` can reweight them afterwards.  ``steps`` is passed
    to every ``phi_apply``; ``graded_from`` is the time-shift onset that
    ``time_shift_solve`` sets.

    Returns ``(flow, report)``.  The report holds the iteration count, the
    unweighted ``contraction_ratios`` and residual (``lam_used`` is always
    0), the per-iteration gap series, and the decay trajectory
    ``t^(eta/2) |mu_t|`` on the flow's times with its blow-up flag.

    Raises
    ------
    NoContractionError
        After three consecutive contraction ratios at or above one.
    ValueError
        If ``steps`` or ``max_iter`` is not a positive int.
    """
    _require_positive_int("max_iter", max_iter)
    weight = _weight(params, np.asarray(params.time_grid), 0.0)
    current = phi_apply(gamma, None, drift, params, steps, graded_from)
    gap_series = []  # per-iteration arrays of per-time dual-norm gaps
    iterations = 0
    residual = math.inf
    clip_mass = current.meta["clip_mass"]

    for it in range(max_iter):
        nxt = phi_apply(gamma, current, drift, params, steps, graded_from)
        clip_mass = max(clip_mass, nxt.meta["clip_mass"])
        gap_series.append(_dual_norm_series(nxt, current, params.running_index))
        current = nxt
        iterations = it + 1
        residual = float(np.max(weight * gap_series[-1]))
        if residual < tol:
            break
        ratios = contraction_ratios(gap_series, params, 0.0)[-3:]
        if len(ratios) == 3 and min(ratios) >= 1.0:
            raise NoContractionError(
                f"no contraction after {iterations} iterations "
                f"(last ratios {[f'{r:.3f}' for r in ratios]}); "
                f"weaken the drift or shorten the horizon T")
    norms = np.array([measure_dual_norm(r, params.running_index, "amalgam")
                      for r in current.densities])
    report = SolveReport(
        iterations=iterations,
        contraction_ratios=contraction_ratios(gap_series, params, 0.0),
        decay_trajectory=current.times**params.weight_exponent * norms,
        blowup=bool((norms > 1e6).any()),
        lam_used=0.0, clip_mass=clip_mass, residual=residual,
        gap_series=gap_series)
    return current, report


def time_shift_solve(gamma0: ScalarField, r: float, drift, params: FlowParams,
                     tol: float = 1e-8, max_iter: int = 25, steps: int = 600):
    """Solve with rough initial data by prepending a pure-diffusion leg.

    The initial measure evolves freely on [0, r]; the drift then switches on
    with shifted time argument.  The returned flow is indexed by the time
    after the switch, so its law at t matches the plain solve started from
    the r-smoothed initial datum.  ``steps`` and ``max_iter`` must be
    positive ints, as for ``picard_solve``.
    """
    if r <= 0:
        raise ValueError(f"shift r must be positive, got {r}")
    if math.sqrt(r) < 2.0 * gamma0.grid.spacing:
        raise ValueError(f"shift r={r} below grid resolvability")
    # the switch-on time joins the grid so the frozen-flow interpolation just
    # after it anchors at the diffused law, not at the rough initial spike
    shifted_times = (r,) + tuple(r + t for t in params.time_grid)
    inner = replace(params, T=params.T + r, time_grid=shifted_times)
    flow, report = picard_solve(gamma0, drift, inner, tol=tol, max_iter=max_iter,
                                steps=steps, graded_from=r)
    out = MeasureFlow(np.asarray(params.time_grid), flow.densities[1:],
                      flow.densities[0], meta=dict(flow.meta))
    out.meta["shift"] = r
    out.meta["report"] = report
    return out
