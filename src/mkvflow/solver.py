"""Mean-field Fokker-Planck flow as a fixed point of the frozen-drift map.

For a frozen time-indexed family of densities the drift field is known, and
the law of the associated diffusion solves the linear Fokker-Planck equation
whose mild form is

    rho_t = H_t rho_0 - int_0^t div( H_{t-s} (b_s rho_s) ) ds,

with ``H`` the heat semigroup.  ``phi_apply`` marches this Volterra identity
with a second-order exponential Heun step on a graded internal grid, keeping
the real-FFT spectrum of the density as its state: heat is a multiplier and
mass projection pins the zero mode.  The state is a stack, one row per
initial datum (a single datum is a stack of one), so the data of an
experiment march together and every transform serves all of them; each row
equals the march of its datum alone bit for bit.  Both drift specs are
evaluated by ``kernels.drift_map``, built once per map: a convolution drift
on each frozen density, interpolated linearly in time in physical space,
which is exact by linearity; a Nemytskii drift on the raw interpolated
values, which do not depend on the march state, so one call of the map
serves a block of marching nodes.
The Picard loop, ``picard_solve_many``, feeds the output flows back in until
the distance between successive iterates falls below tolerance; a member
leaves the stack at the iteration where its own distance does, so it sees
exactly the iterates of its solo solve.  Rough initial data enters
through the time-shift route: pure diffusion on [0, r], one exact heat
step, then the plain solve from the smoothed law, whose drift runs on the
time after r; the march itself knows no shift.
The solver reports what it computed (iterations, residual, ratios, clipped
mass); which parameter sets an estimate admits, and whether a solve reached
its tolerance, the experiments judge.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (_RESOLUTION_CELLS, GridSpec, ScalarField, heat_apply, irfft, rfft,
                    rfft_wavenumbers)
from .kernels import KernelSpec, drift_map, kernel_vanishes
from .norms import SobolevIndex, measure_dual_norm

__all__ = [
    "FlowParams",
    "MeasureFlow",
    "SolveReport",
    "DegradedAccuracyError",
    "NoContractionError",
    "phi_apply",
    "contraction_ratios",
    "picard_solve",
    "picard_solve_many",
    "time_shift_solve",
]


# exponent of the internal marching grid's refinement toward t = 0
GRADING = 1.5

# grid values per stacked Nemytskii drift evaluation (128 KB of floats per
# array): 16 marching nodes of one member at n = 1024, one at 128^2
_BLOCK_VALUES = 2**14


class DegradedAccuracyError(RuntimeError):
    """Quadrature produced more negative mass than the density tolerance."""


class NoContractionError(RuntimeError):
    """Three successive Picard distance ratios were at or above one."""


def _require_int(name: str, value, least: int = 1):
    """Raise unless ``value`` is an int (not a bool) of at least ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} int, got {value!r}")


@dataclass(frozen=True)
class FlowParams:
    """Running index, drift envelope exponent and time horizon of one solve.

    ``(delta, k)`` indexes the running norm and is checked as a
    ``SobolevIndex``; ``eta = delta + dim/k`` is the smoothing gap, whose half
    is the time power of the flow metric.  ``kappa`` is the drift envelope's
    exponent; which ``(eta, kappa)`` an estimate admits is the experiments'
    check.  ``time_grid`` defaults to eight equally spaced times ending at ``T``.
    """

    delta: float
    k: float
    kappa: float = 0.0
    T: float = 1.0
    time_grid: tuple = ()
    dim: int = 1

    def __post_init__(self):
        SobolevIndex(self.delta, self.k)  # raises on an index pair outside the scale
        if not 0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be >= 0 and finite, got {self.kappa}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        # eight equally spaced output times unless given
        tg = tuple(float(t) for t in self.time_grid) or tuple(self.T * j / 8 for j in range(1, 9))
        if not (tg[0] > 0 and all(b > a for a, b in zip(tg, tg[1:]))):
            raise ValueError("time_grid must be strictly increasing and positive")
        if not abs(tg[-1] - self.T) <= 1e-12:
            raise ValueError(f"time_grid must end at T={self.T}, ends at {tg[-1]}")
        object.__setattr__(self, "time_grid", tg)

    @property
    def eta(self) -> float:
        return self.delta + self.dim / self.k

    @property
    def running_index(self) -> SobolevIndex:
        return SobolevIndex(self.delta, self.k)


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

    def _bracket(self, t: float) -> tuple:
        """``(j, w)`` with the flow at ``t`` equal to ``(1-w) f_j + w f_{j+1}``,
        where ``f`` is the initial datum followed by the densities and ``t`` is
        clamped to ``[0, times[-1]]``."""
        ts = self._knots
        j = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
        return j, min(max(float((t - ts[j]) / (ts[j + 1] - ts[j])), 0.0), 1.0)


@dataclass
class SolveReport:
    iterations: int
    contraction_ratios: list
    lam_used: float
    clip_mass: float
    residual: float
    gap_series: list = field(default_factory=list)


def _stack_of(x, kind) -> list:
    """``x`` as a list of members: one ``kind`` is a stack of one."""
    return [x] if isinstance(x, kind) else list(x)


def _frozen_drift(drift, mu, grid: GridSpec, nodes):
    """Iterator over the drift components of ``drift`` at each of ``nodes``, in
    order, with the flows frozen at ``mu``.

    ``mu`` is a flow or a sequence of flows on the same times, the members
    of a stack; each component has shape ``(members, *grid.shape)``.
    Both spec kinds are ``kernels.drift_map``, built once here, times the
    envelope; it rejects any other drift.  A convolution drift is linear in
    the density and the frozen flow is linear in time between its fields
    (``MeasureFlow._bracket``), so the map of each frozen field, evaluated
    once here on the stack of every member's field and interpolated the same
    way, gives it exactly at any node.  A Nemytskii drift is the map of the interpolated values.  It
    does not depend on the march, so it is evaluated ahead of it, one map
    call per block of up to ``_BLOCK_VALUES // (members * grid.num_points)``
    nodes, whose components are checked finite together; stacked transforms
    equal per-node and per-member ones bit for bit.
    Each frozen field passes the density check once: every node sees a convex
    combination of two of them, whose minimum and mass lie between theirs.
    The spec's type, the map's parameters and the frozen densities are
    checked here, before the first node.
    """
    evaluate = drift_map(drift, grid)
    flows = _stack_of(mu, MeasureFlow)
    fields = [[f.initial] + list(f.densities) for f in flows]
    for f in itertools.chain.from_iterable(fields):
        f.require_density()
    # one (members, *grid.shape) stack per frozen time
    stacks = [np.stack([f.values for f in at]) for at in zip(*fields)]
    bracket = flows[0]._bracket
    if isinstance(drift, KernelSpec):
        convs = [evaluate(values) for values in stacks]

        def field_at(s: float) -> list:
            j, w = bracket(s)
            factor = drift.modulation.factor(s)
            a, b = factor * (1 - w), factor * w
            return [a * c0 + b * c1 for c0, c1 in zip(convs[j], convs[j + 1])]
        return map(field_at, nodes)
    size = max(1, _BLOCK_VALUES // (len(flows) * grid.num_points))

    def block_at(block: list) -> list:
        """Components at each node of ``block``, from one call of the map."""
        rho = np.empty((len(block), len(flows)) + grid.shape)
        factors = np.empty((len(block),) + (1,) * (grid.dim + 1))
        for i, s in enumerate(block):
            j, w = bracket(s)
            rho[i] = (stacks[j + int(w)] if w == 0.0 or w == 1.0
                      else (1 - w) * stacks[j] + w * stacks[j + 1])
            factors[i] = drift.modulation.factor(s)
        comps = [factors * c for c in evaluate(rho)]
        finite = np.all([np.isfinite(c).reshape(len(block), -1).all(axis=1)
                         for c in comps], axis=0)
        if not finite.all():
            raise ValueError(f"drift is not finite at t={block[np.argmin(finite)]:.6g}")
        return [list(at) for at in zip(*comps)]
    return itertools.chain.from_iterable(
        block_at(nodes[i:i + size]) for i in range(0, len(nodes), size))


def _internal_grid(out_times, steps: int) -> np.ndarray:
    """Marching nodes: graded refinement clustered at t = 0, merged with the
    output times (the drift envelope t^kappa and rough initial data live near
    t = 0; the step integral's own endpoint is handled by the scheme)."""
    base = out_times[-1] * (np.arange(steps + 1) / steps) ** GRADING
    return np.unique(np.round(np.concatenate([base, out_times]), 14))


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


def phi_apply(gamma, mu, drift, params: FlowParams, steps: int = 600):
    """Law flow of the diffusion whose drift is frozen from the flow ``mu``.

    Marches the mild identity with an exponential Heun (predictor-corrector)
    step on the density's real-FFT spectrum, over ``steps`` nodes refined
    toward t = 0 with exponent ``GRADING``: heat is applied exactly, the
    transport term is integrated by the trapezoid rule inside each step,
    second order overall.  ``mu=None``, or a kernel whose symbols all vanish,
    means zero interaction (the map's base point, the plain heat flow of the
    initial datum).  The frozen flow enters
    through linear interpolation between its grid times, so the output grid
    density is an accuracy parameter of the fixed point, not just a sampling
    choice.

    ``gamma`` is one density or a sequence of densities on one grid, and
    ``mu`` then None, one flow or a sequence of as many flows.  The march
    state is a ``(members, *grid.shape)`` stack, one row per density, with
    the heat multipliers and the drift interpolation weights shared by all
    rows; each row is marched, mass-projected, checked and clipped as its
    density alone would be, bit for bit.  Returns one flow for one density,
    else a list of flows in the order of ``gamma``.

    Raises
    ------
    DegradedAccuracyError
        If the accumulated negative undershoot of a member exceeds 1e-3 in mass.
    ValueError
        If ``steps`` is not a positive int, ``params.dim`` is not the
        dimension of the density's grid, the densities do not share one grid
        or number other than the frozen flows, a frozen density is not a
        density or the march state turns non-finite.
    """
    _require_int("steps", steps)
    gammas = _stack_of(gamma, ScalarField)
    if not gammas:
        raise ValueError("phi_apply needs at least one initial density")
    grid = gammas[0].grid
    if any(g.grid != grid for g in gammas):
        raise ValueError("the initial densities must share one grid")
    frozen = None if mu is None else _stack_of(mu, MeasureFlow)
    if frozen is not None and len(frozen) != len(gammas):
        raise ValueError(f"{len(frozen)} frozen flows for {len(gammas)} initial densities")
    if params.dim != grid.dim:
        raise ValueError(f"FlowParams.dim = {params.dim}, but the density is on a "
                         f"{grid.dim}-d grid")
    for g in gammas:
        g.require_density()
    out_times = np.asarray(params.time_grid)
    # Python floats: the same values as the array's, cheaper to step through
    nodes = _internal_grid(out_times, steps).tolist()
    # node index -> output slot; the nodes hold the rounded output times
    out_slot = {j: i for i, j in
                enumerate(np.searchsorted(nodes, np.round(out_times, 14)).tolist())}
    logs = [{"clip_mass": 0.0} for _ in gammas]
    ixi, xi_sq = rfft_wavenumbers(grid)
    minus_ixi = [-ik for ik in ixi]
    zero_mode = (slice(None),) + (slice(0, 1),) * grid.dim  # per row, kept as an axis
    shape, cell_volume = grid.shape, grid.cell_volume
    drifts = None
    if frozen is not None and not (isinstance(drift, KernelSpec) and kernel_vanishes(drift)):
        drifts = _frozen_drift(drift, frozen, grid, nodes)

    def transport(b, vals: np.ndarray) -> np.ndarray:  # spectrum of -div(b rho)
        out = minus_ixi[0] * rfft(b[0] * vals, grid.dim)
        for ik, c in zip(minus_ixi[1:], b[1:]):
            out += ik * rfft(c * vals, grid.dim)
        return out

    rho = np.stack([g.values for g in gammas])
    rho_hat = rfft(rho, grid.dim)
    densities = [[None] * out_times.size for _ in gammas]
    b_next = None if drifts is None else next(drifts)
    for m_idx in range(len(nodes) - 1):
        s0, s1 = nodes[m_idx], nodes[m_idx + 1]
        h = s1 - s0
        # in place, each update is the product or sum of the same operands
        mult = -0.5 * h * xi_sq
        np.exp(mult, out=mult)
        rho_hat *= mult
        if drifts is not None:
            b0, b_next = b_next, next(drifts)
            heated_F0 = transport(b0, rho)
            heated_F0 *= mult
            predictor = irfft(rho_hat + h * heated_F0, shape)
            corrector = transport(b_next, predictor)
            corrector += heated_F0
            corrector *= 0.5 * h
            rho_hat += corrector
        rho_hat /= rho_hat[zero_mode].real * cell_volume
        slot = out_slot.get(m_idx + 1)
        if slot is not None or drifts is not None:
            rho = irfft(rho_hat, shape)
            if not np.isfinite(rho).all():
                raise ValueError(f"march state is not finite at t={s1:.6g}")
        if slot is not None:
            for out, row, log in zip(densities, rho, logs):
                out[slot] = ScalarField(grid, _clip_output(row.copy(), grid, log))
    for log in logs:
        if log["clip_mass"] > 1e-3:
            raise DegradedAccuracyError(
                f"negative undershoot mass {log['clip_mass']:.2e} exceeds 1e-3")
    flows = [MeasureFlow(out_times, d, g, meta=log)
             for d, g, log in zip(densities, gammas, logs)]
    return flows[0] if isinstance(gamma, ScalarField) else flows


def _dual_norm_series(mu: MeasureFlow, nu: MeasureFlow, idx: SobolevIndex) -> np.ndarray:
    return np.asarray([measure_dual_norm(ScalarField(a.grid, a.values - b.values), idx,
                                         "amalgam")
                       for a, b in zip(mu.densities, nu.densities)])


def _weight(params: FlowParams, times: np.ndarray, lam: float) -> np.ndarray:
    return np.exp(-lam * times) * times**(0.5 * params.eta)


def contraction_ratios(gap_series: list, params: FlowParams, lam: float) -> list:
    """Ratios of successive weighted distances between Picard iterates.

    ``gap_series[j]`` holds the per-time dual-norm gaps of iteration ``j``;
    its distance is their maximum under the weight ``exp(-lam t) t^(eta/2)``.
    """
    weight = _weight(params, np.asarray(params.time_grid), lam)
    return _ratios([float(np.max(weight * gaps)) for gaps in gap_series])


def _ratios(dists: list) -> list:
    """Ratios of successive distances between Picard iterates."""
    return [d1 / max(d0, 1e-300) for d0, d1 in zip(dists, dists[1:])]


def _require_tol(tol, name: str = "tol"):
    """Raise unless ``tol`` is positive and finite: below 0, or at NaN, no
    residual stops the loop, and at inf the first one does."""
    if not 0 < tol < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def picard_solve_many(gammas, drift, params: FlowParams, tol: float = 1e-8,
                      max_iter: int = 25, steps: int = 600, age: float = 0.0) -> list:
    """Fixed-point iteration for the self-consistent law flow of each datum.

    Starts from the pure heat flows of the initial data, reapplies the
    frozen-drift map until the distance between successive iterates, the
    maximum over output times of ``(age + t)^(eta/2)`` times their dual-norm
    gap, drops below ``tol``; ``age`` is the time the data have already
    evolved (``time_shift_solve`` sets it), so the weight counts from there.
    The weight ``exp(-lam t)`` of the contraction proof would only shrink
    this distance and does not move the fixed point, so the loop does not
    apply it; the per-time gaps are kept, so ``contraction_ratios`` can
    reweight them afterwards.  ``steps`` is passed to every ``phi_apply``.

    All data march as one ``phi_apply`` stack per iteration.  A member
    leaves the stack once its own distance is below ``tol``, so each member
    sees exactly the iterates, and ends with exactly the flow and report, of
    its solo solve; the stack runs until every member has retired or
    ``max_iter`` iterations are made.

    Returns one ``(flow, report)`` per datum, in order.  The report holds the
    iteration count, the unweighted ``contraction_ratios`` and residual
    (``lam_used`` is always 0), the largest clipped mass and the
    per-iteration gap series.  Running out of iterations is not an error
    here: the caller judges ``residual`` against ``tol``.

    Raises
    ------
    NoContractionError
        After three consecutive contraction ratios of a member at or above one.
    ValueError
        If ``steps`` or ``max_iter`` is not a positive int, or ``tol`` is not
        positive and finite.
    """
    _require_int("max_iter", max_iter)
    _require_tol(tol)
    gammas = list(gammas)
    weight = _weight(params, age + np.asarray(params.time_grid), 0.0)
    current = phi_apply(gammas, None, drift, params, steps)
    gap_series = [[] for _ in gammas]  # per member, per-iteration per-time gaps
    dists = [[] for _ in gammas]  # per member, per-iteration weighted distance
    residual = [math.inf] * len(gammas)
    clip_mass = [flow.meta["clip_mass"] for flow in current]
    active = list(range(len(gammas)))

    for it in range(max_iter):
        nxt = phi_apply([gammas[i] for i in active], [current[i] for i in active],
                        drift, params, steps)
        for i, flow in zip(active, nxt):
            clip_mass[i] = max(clip_mass[i], flow.meta["clip_mass"])
            gap_series[i].append(_dual_norm_series(flow, current[i], params.running_index))
            current[i] = flow
            residual[i] = float(np.max(weight * gap_series[i][-1]))
            dists[i].append(residual[i])
            if residual[i] < tol:
                continue
            ratios = _ratios(dists[i])[-3:]
            if len(ratios) == 3 and min(ratios) >= 1.0:
                raise NoContractionError(
                    f"no contraction after {it + 1} iterations "
                    f"(last ratios {[f'{r:.3f}' for r in ratios]}); "
                    f"weaken the drift or shorten the horizon T")
        active = [i for i in active if not residual[i] < tol]
        if not active:
            break
    return [(flow, SolveReport(
                iterations=len(gaps), contraction_ratios=_ratios(dist), lam_used=0.0,
                clip_mass=clipped, residual=res, gap_series=gaps))
            for flow, gaps, dist, clipped, res
            in zip(current, gap_series, dists, clip_mass, residual)]


def picard_solve(gamma: ScalarField, drift, params: FlowParams, tol: float = 1e-8,
                 max_iter: int = 25, steps: int = 600):
    """The ``(flow, report)`` of ``picard_solve_many`` for the one datum ``gamma``."""
    return picard_solve_many((gamma,), drift, params, tol, max_iter, steps)[0]


def time_shift_solve(gamma0: ScalarField, r: float, drift, params: FlowParams,
                     tol: float = 1e-8, max_iter: int = 25, steps: int = 600):
    """Solve with rough initial data through the time shift.

    The initial measure evolves by pure diffusion on [0, r], one exact heat
    step; the drift then runs with its time argument counted from r, which
    is the plain solve started from the r-smoothed datum, its Picard
    distance weighted from the start, ``(r + t)^(eta/2)``.  The returned flow
    is indexed by the time after r, its initial datum is the r-smoothed law
    and ``meta["report"]`` holds its report.  ``steps``, ``max_iter`` and
    ``tol`` are checked as ``picard_solve`` checks them.
    """
    if r <= 0:
        raise ValueError(f"shift r must be positive, got {r}")
    if math.sqrt(r) < _RESOLUTION_CELLS * gamma0.grid.spacing:
        raise ValueError(f"shift r={r} below grid resolvability")
    ((flow, report),) = picard_solve_many((heat_apply(gamma0, r),), drift, params, tol,
                                          max_iter, steps, age=r)
    flow.meta["report"] = report
    return flow
