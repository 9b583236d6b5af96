"""Mean-field Fokker-Planck flow as a fixed point of the frozen-drift map.

For a frozen time-indexed family of densities the drift field is known, and
the law of the associated diffusion solves the linear Fokker-Planck equation
whose mild form is

    rho_t = H_t rho_0 - int_0^t div( H_{t-s} (b_s rho_s) ) ds,

with ``H`` the heat semigroup.  ``phi_apply`` marches this Volterra identity
with a second-order exponential Heun step on a graded internal grid, keeping
the real-FFT spectrum of the density as its state: heat is an exact
multiplier, the step keeps the zero mode, the mass of each output is set where
it is clipped, and finiteness is read at the outputs.  The state is a
stack, one row per initial datum (a single datum is a stack of one), so the
data of an experiment march together and every transform serves all of them;
each row equals the march of its datum alone bit for bit.  Both drift specs are
evaluated by ``kernels.drift_map``, built once per map: a convolution drift
on each frozen density, interpolated linearly in time in physical space,
which is exact by linearity; a Nemytskii drift on the raw interpolated
values, which do not depend on the march state, so one interpolation and
one call of the map serve a block of marching nodes.
The Picard loop, ``picard_solve_many``, feeds the output flows back in until
the distance between successive iterates falls below tolerance; a member
leaves the stack at the iteration where its own distance does, so it sees
exactly the iterates of its solo solve.  The frozen-drift map is causal: the
next iterate up to a node reads the current one only up to the knot after
that node.  So on a 1-d grid the iterates march as a pipeline, each one
output interval or more behind its predecessor; a transform phase is one
call for every iterate in flight when all of them step, else one per iterate.
The outputs are those of the loop that runs one iterate after the other, bit
for bit.  A solve's knots live in its node table (``_Nodes``) alone.
Rough initial data enters through the time-shift route: pure diffusion on
[0, r], one exact heat step, then the plain solve from the smoothed law,
whose drift runs on the time after r; the march itself knows no shift.
The solver reports what it computed (iterations, residual, ratios, clipped
mass); which parameter sets an estimate admits, and whether a solve reached
its tolerance, the experiments judge.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (_RESOLUTION_CELLS, GridSpec, ScalarField, _require_int, _require_number,
                    heat_apply, irfft, rfft, rfft_wavenumbers)
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

# grid values per block of Nemytskii drift nodes (128 KB of floats per array):
# 16 nodes of one member at n = 1024, one at 128^2
_BLOCK_VALUES = 2**14

# the transforms a march step asks of its group between its pointwise phases:
# the flux products forward, the predictor back, the new state back
_FORWARD, _PREDICT, _STATE = range(3)


class DegradedAccuracyError(RuntimeError):
    """Quadrature produced more negative mass than the density tolerance."""


class NoContractionError(RuntimeError):
    """Three successive Picard distance ratios were at or above one."""


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
        _require_number("kappa", self.kappa, 0)
        _require_number("T", self.T, 0, strict=True)
        for t in self.time_grid:
            _require_number("each time_grid entry", t)
        _require_int("dim", self.dim)
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


def _bracket(knots: list, t: float) -> tuple:
    """``(j, w)`` with a flow at ``t`` equal to ``(1-w) f_j + w f_{j+1}``, where
    ``f_j`` is its field at ``knots[j]`` and ``t`` is clamped to the knots."""
    j = min(max(bisect.bisect_right(knots, t) - 1, 0), len(knots) - 2)
    return j, min(max(float((t - knots[j]) / (knots[j + 1] - knots[j])), 0.0), 1.0)


@dataclass
class MeasureFlow:
    """Time-indexed densities with the initial datum attached: the times are
    positive and strictly increasing, each density has unit mass on the
    initial datum's grid, and anything else is refused here."""

    times: np.ndarray
    densities: list
    initial: ScalarField
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.densities) != self.times.size:
            raise ValueError("one density per time required")
        if self.times.ndim != 1 or not (np.diff(self.times, prepend=0.0) > 0).all():
            raise ValueError(f"flow times must be positive and increasing, got {self.times}")
        for rho in self.densities:
            if rho.grid != self.grid:
                raise ValueError(f"flow density on {rho.grid}, off its initial datum's grid")
            m = rho.mass()
            if abs(m - 1.0) > 1e-6:
                raise ValueError(f"flow density mass {m:.8f} out of tolerance")

    @property
    def grid(self) -> GridSpec:
        return self.initial.grid


class _Written:
    """The part of a flow that a march has written so far, read as a frozen
    flow is read: its initial datum and its densities in time order."""

    __slots__ = ("initial", "densities")

    def __init__(self, initial: ScalarField):
        self.initial, self.densities = initial, []


@dataclass
class SolveReport:
    iterations: int
    contraction_ratios: list
    lam_used: float
    clip_mass: float
    residual: float
    gap_series: list = field(default_factory=list)


class _Nodes:
    """Marching node times against ``knots``, the initial time and then the
    output times: the times of every flow a march reads or writes.

    Per node: its ``bracket`` ``(j, w)`` (``_bracket`` of the knots), and
    ``need``, the number of knots it reads (``j + 2``: knot ``j + 1`` enters
    even at w = 0).  The brackets are computed, not inferred from the output
    slots: a rounded output node can lie just below its knot, and then its
    bracket is the interval before.  ``slot`` maps each output node (it
    holds the rounded output time) to its output slot.  ``envelope`` gives
    per node the factor and the weights ``factor (1-w)`` and ``factor w`` of
    one envelope.  Every march of a solve reads one table; iterating yields
    the node times.
    """

    def __init__(self, times, knots):
        # Python floats: the same values as an array's, cheaper to step through
        self.times, self.knots = np.asarray(times, float).tolist(), list(knots)
        self.brackets = [_bracket(self.knots, s) for s in self.times]
        self.need = [j + 2 for j, _ in self.brackets]
        self.slot = {j: i for i, j in enumerate(
            np.searchsorted(self.times, np.round(self.knots[1:], 14)).tolist())}
        self._envelopes = {}

    def __iter__(self):
        return iter(self.times)

    def __len__(self) -> int:
        return len(self.times)

    def envelope(self, modulation) -> tuple:
        """``(factors, a, b)`` per node, with ``a = factor (1-w)`` and ``b = factor w``."""
        if modulation not in self._envelopes:
            factors = [modulation.factor(s) for s in self.times]
            self._envelopes[modulation] = (
                factors, [f * (1 - w) for f, (_, w) in zip(factors, self.brackets)],
                [f * w for f, (_, w) in zip(factors, self.brackets)])
        return self._envelopes[modulation]


def _frozen_drift(drift, mu, grid: GridSpec, nodes: _Nodes):
    """Iterator over the drift components of ``drift`` at each of ``nodes``, in
    order, with the flows frozen at ``mu``.

    ``mu`` is a list of flows on the knots of the node table ``nodes``, the
    members of a stack; each component has shape ``(members, *grid.shape)``.
    Both spec kinds are ``kernels.drift_map``, built once here, times the
    envelope; it rejects any other drift.  A convolution drift is linear in
    the density and the frozen flow is linear in time between its fields
    (``_bracket``), so the map of each frozen field, evaluated on the stack
    of every member's field and interpolated the same way, gives it exactly
    at any node; each knot's map is evaluated when a node
    first reads it and dropped once the nodes have passed it.  A Nemytskii
    drift is the map of the interpolated values.  It does not depend on the
    march, so it is evaluated ahead of it per block of up to
    ``_BLOCK_VALUES // (members * grid.num_points)`` nodes, aligned to
    multiples of that size: one ``(1-w) S_j + w S_{j+1}`` over the stacked
    knots ``S`` (the knot itself at w = 0 or 1), one map call, its
    components checked finite together; this equals the per-node and
    per-member route bit for bit.

    ``mu`` may be flows still being written (``_Written``): a node is read
    only once the knots it needs exist, and a Nemytskii block ends at the
    last knot written.  Each frozen field passes the density check once:
    every node sees a convex combination of two of them, whose minimum and
    mass lie between theirs.  The spec's type, the map's parameters and the
    frozen densities present are checked here, before the first node.
    """
    evaluate = drift_map(drift, grid)
    for f in mu:
        for rho in [f.initial] + list(f.densities):
            rho.require_density()
    checked = 1 + len(mu[0].densities)
    brackets = nodes.brackets
    factors, a, b = nodes.envelope(drift.modulation)
    convolution = isinstance(drift, KernelSpec)
    held = [None] * len(nodes.knots)  # per knot: its map for a kernel, else its stack
    low = 0  # no node from here on reads a knot below this one

    def knot(j: int) -> np.ndarray:
        """The stack of every member's field at knot ``j`` (the initial datum at 0)."""
        fields = [f.initial if j == 0 else f.densities[j - 1] for f in mu]
        if j >= checked:
            for rho in fields:
                rho.require_density()
        return np.stack([rho.values for rho in fields])

    def reach(j: int, last: int):
        """Drop what is held below knot ``j`` and hold knots ``j`` to ``last``."""
        nonlocal low
        while low < j:
            held[low] = None
            low += 1
        for x in range(j, last + 1):
            if held[x] is None:
                held[x] = evaluate(knot(x)) if convolution else knot(x)

    if convolution:
        def field_at(i: int) -> list:
            j = brackets[i][0]
            reach(j, j + 1)
            return [a[i] * c0 + b[i] * c1 for c0, c1 in zip(held[j], held[j + 1])]
        return map(field_at, range(len(nodes)))
    size = max(1, _BLOCK_VALUES // (len(mu) * grid.num_points))
    per_node = (-1,) + (1,) * (grid.dim + 1)

    def block_at(lo: int, hi: int) -> list:
        """Components at nodes ``lo`` up to ``hi``, from one call of the map."""
        j = np.array([brackets[x][0] for x in range(lo, hi)])
        reach(j[0], j[-1] + 1)
        stack = np.stack(held[j[0]:j[-1] + 2])
        j -= j[0]
        w = np.array([brackets[x][1] for x in range(lo, hi)]).reshape(per_node)
        rho = (1 - w) * stack[j] + w * stack[j + 1]
        factor = np.array(factors[lo:hi]).reshape(per_node)
        comps = [factor * c for c in evaluate(rho)]
        finite = np.all([np.isfinite(c).reshape(hi - lo, -1).all(axis=1) for c in comps], axis=0)
        if not finite.all():
            raise ValueError(f"drift is not finite at t={nodes.times[lo + np.argmin(finite)]:.6g}")
        return [list(at) for at in zip(*comps)]

    def blocks():
        lo = 0
        while lo < len(nodes):
            # the aligned block, cut at the last node whose knots are written
            hi = min(lo // size * size + size, len(nodes),
                     bisect.bisect_right(nodes.need, 1 + len(mu[0].densities)))
            yield from block_at(lo, hi)
            lo = hi
    return blocks()


def _internal_grid(out_times, steps: int) -> np.ndarray:
    """Marching nodes: graded refinement clustered at t = 0, merged with the
    output times (the drift envelope t^kappa and rough initial data live near
    t = 0; the step integral's own endpoint is handled by the scheme)."""
    base = out_times[-1] * (np.arange(steps + 1) / steps) ** GRADING
    nodes = np.sort(np.round(np.concatenate([base, out_times]), 14))
    return nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]


def _clip_output(vals: np.ndarray, grid: GridSpec, log: dict):
    """Clip negatives at zero and divide by the mass, on outputs only.

    Every output's mass is set here, not in the march: the march keeps the
    zero mode and is linear in its state, and clip and division ignore a positive scale.
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


class _March:
    """One march of the frozen-drift map over a stack of data: its outputs
    written so far, clip logs, the node its state is at, its views of its
    group's arrays and, once done, its flows or the error it stopped at.  In
    a Picard solve it is iterate ``k`` of ``members``, frozen at its
    predecessor's outputs ``frozen``, with per member the gaps to them read
    so far and whether one, weighted, is at or above the tolerance.  It holds
    no reference to its predecessor, its successor or its step generator,
    whose frame holds the march."""

    __slots__ = ("gammas", "k", "members", "frozen", "gaps", "proved", "outs",
                 "logs", "node", "rho", "rho_hat", "prod", "flux", "pred", "pred_hat",
                 "flows", "error")

    def __init__(self, gammas: list, k: int = 0, members: list = (), frozen=None):
        self.gammas, self.k, self.members, self.frozen = gammas, k, members, frozen
        self.outs, self.logs = [_Written(g) for g in gammas], [{"clip_mass": 0.0} for _ in gammas]
        self.gaps, self.proved = [[] for _ in gammas], [False] * len(gammas)
        self.node, self.rho, self.flows, self.error = 0, None, None, None

    def raise_error(self):
        """Raise the error the march stopped at, which it then no longer holds."""
        error, self.error = self.error, None
        try:
            raise error
        finally:
            del error  # the traceback holds this frame


def _transport(m: _March, minus_ixi: list, b, vals: np.ndarray):
    """Spectrum of -div(b vals): one forward transform per component, asked
    of the group; returns a new array."""
    yield _FORWARD, np.multiply(b[0], vals, out=m.prod), m.flux
    out = minus_ixi[0] * m.flux
    for ik, c in zip(minus_ixi[1:], b[1:]):
        yield _FORWARD, np.multiply(c, vals, out=m.prod), m.flux
        out += ik * m.flux
    return out


def _march_steps(m: _March, nodes: _Nodes, grid: GridSpec, drifts):
    """The march ``m`` over the node table ``nodes``, one step per round.

    It yields each transform it needs as ``(kind, input, output)``, the kind
    ``_FORWARD``, ``_PREDICT`` or ``_STATE`` and the output its rows of the
    group's arrays, and ``None`` at the end of every step but the last.
    Outputs are clipped and appended to ``m.outs`` as the march passes them;
    at the end ``m.flows`` holds the flows.  ``drifts`` iterates over the
    drift at each node, or is None for the heat flow.  Raises as
    ``phi_apply`` documents."""
    ixi, xi_sq = rfft_wavenumbers(grid)
    minus_ixi = [-ik for ik in ixi]
    times, out_slot = nodes.times, nodes.slot
    last = len(times) - 1
    b_next = None if drifts is None else next(drifts)
    for i in range(last):
        h = times[i + 1] - times[i]
        mult = np.exp(-0.5 * h * xi_sq)
        rho, rho_hat = m.rho, m.rho_hat
        # in place, each update is the product or sum of the same operands
        rho_hat *= mult
        if drifts is not None:
            b0, b_next = b_next, next(drifts)
            heated_F0 = yield from _transport(m, minus_ixi, b0, rho)
            heated_F0 *= mult
            yield _PREDICT, np.add(rho_hat, h * heated_F0, out=m.pred_hat), m.pred
            corrector = yield from _transport(m, minus_ixi, b_next, m.pred)
            corrector += heated_F0
            corrector *= 0.5 * h
            rho_hat += corrector
        slot = out_slot.get(i + 1)
        if slot is not None or drifts is not None:
            yield _STATE, rho_hat, rho
        if slot is not None:
            if not np.isfinite(rho).all():
                raise ValueError(f"march state is not finite at t={times[i + 1]:.6g}")
            for out, row, log in zip(m.outs, rho, m.logs):
                out.densities.append(ScalarField(grid, _clip_output(row.copy(), grid, log)))
        m.node = i + 1
        if i + 1 < last:
            yield None
    for log in m.logs:
        if log["clip_mass"] > 1e-3:
            raise DegradedAccuracyError(
                f"negative undershoot mass {log['clip_mass']:.2e} exceeds 1e-3")
    m.flows = [MeasureFlow(np.asarray(nodes.knots[1:]), out.densities, g, meta=log)
               for out, g, log in zip(m.outs, m.gammas, m.logs)]


class _Group:
    """Marches in flight, ``marches`` in row order and ``steps`` their step
    generators, whose rows share one set of arrays: the state, its spectrum,
    the predictor and the flux spectrum, and on a 1-d grid, where iterates
    overlap, the flux product and the predictor spectrum, the inputs of their
    transforms.  In 2-d each march has the group alone and its inputs are
    temporaries: at 128^2 two more held arrays make every pass over the
    step's arrays slower.  The arrays are laid out anew when a march starts
    or stops; a continuing march's state is carried over."""

    def __init__(self, grid: GridSpec):
        self.grid, self.marches, self.steps = grid, [], {}
        # marches overlap, and share their transform inputs, on 1-d grids only
        self.overlap = grid.dim == 1

    def start(self, march: _March, steps):
        self.marches.append(march)
        self.steps[march] = steps
        self._layout()

    def stop(self, march: _March):
        self.marches.remove(march)
        del self.steps[march]
        self._layout()

    def _layout(self):
        grid = self.grid
        real = (sum(len(m.gammas) for m in self.marches),) + grid.shape
        half = real[:-1] + (real[-1] // 2 + 1,)
        rho, pred = np.empty(real), np.empty(real)
        rho_hat, flux = np.empty(half, complex), np.empty(half, complex)
        prod, pred_hat = ((np.empty(real), np.empty(half, complex)) if self.overlap
                          else (None, None))
        # per transform kind: the arrays of its input and output
        self.kinds = {_FORWARD: (prod, flux), _PREDICT: (pred_hat, pred), _STATE: (rho_hat, rho)}
        lo = 0
        for m in self.marches:
            hi = lo + len(m.gammas)
            if m.rho is None:  # a new march starts from its data
                rho[lo:hi] = [g.values for g in m.gammas]
                rfft(rho[lo:hi], grid.dim, rho_hat[lo:hi])
            else:
                rho[lo:hi], rho_hat[lo:hi] = m.rho, m.rho_hat
            m.rho, m.rho_hat = rho[lo:hi], rho_hat[lo:hi]
            m.flux, m.pred = flux[lo:hi], pred[lo:hi]
            m.prod, m.pred_hat = (None, None) if prod is None else (prod[lo:hi], pred_hat[lo:hi])
            lo = hi

    def transform(self, kind: int, src: np.ndarray, dst: np.ndarray):
        """The transform ``kind`` of ``src`` into ``dst``, one call."""
        if kind == _FORWARD:
            rfft(src, self.grid.dim, dst)
        else:
            irfft(src, self.grid.shape, dst)

    def advance(self, marches: list):
        """One step of each of ``marches``, given in row order.  A transform
        phase is one call on the group's arrays when every march of the group
        steps, else one call per march on its own rows; the marches of one
        solve ask for the same transforms in the same order.  An error ends its
        march and is kept as ``m.error``, for the caller to raise in the order
        of the loop that runs one iterate after the other; a successor's error
        may never be raised, so none keeps the traceback whose frames hold its
        march."""
        live = list(marches)
        while live:
            asks = []
            for m in live:
                try:
                    asks.append(next(self.steps[m]))
                except StopIteration:
                    asks.append(None)
                except (ValueError, DegradedAccuracyError) as exc:
                    m.error = exc.with_traceback(None)
                    asks.append(None)
            if None in asks:  # steps done, or marches stopped
                live = [m for m, ask in zip(live, asks) if ask is not None]
                asks = [ask for ask in asks if ask is not None]
            if len(asks) > 1 and len(asks) == len(self.marches):
                kind = asks[0][0]
                self.transform(kind, *self.kinds[kind])
            else:
                while asks:  # a temporary input is freed before the step goes on
                    self.transform(*asks.pop(0))


def phi_apply(gammas, mu, drift, params: FlowParams, steps: int = 600) -> list:
    """Law flows of the diffusions whose drifts are frozen from the flows ``mu``.

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

    ``gammas`` is a sequence of densities on one grid and ``mu`` None or a
    sequence of as many flows, each on the densities' grid at the output
    times ``params.time_grid``, as every output of this map is.  The march
    state is a ``(members, *grid.shape)`` stack, one row per density, with
    each step's heat multiplier and the drift interpolation weights shared
    by all rows; each row is marched and clipped as its density alone would
    be, bit for bit.  The step keeps the zero mode and the march never
    projects the mass; ``_clip_output`` sets it at every output time.  The
    state is checked finite at the output times: a NaN or inf spreads to
    every entry at the next transform, so a blow-up is reported at the first
    output time at or after it.  Returns flows in the order of ``gammas``.
    ``picard_solve_many`` runs the same step (``_march_steps``) on several
    marches at once.

    Raises
    ------
    DegradedAccuracyError
        If the accumulated negative undershoot of a member exceeds 1e-3 in mass.
    ValueError
        If ``steps`` is not a positive int, ``params.dim`` is not the
        dimension of the density's grid, the densities do not share one grid
        or number other than the frozen flows, a frozen flow is not on their
        grid at ``params.time_grid``, a frozen density is not a density or
        the march state is non-finite at an output time.
    """
    _require_int("steps", steps)
    gammas = list(gammas)
    if not gammas:
        raise ValueError("phi_apply needs at least one initial density")
    grid = gammas[0].grid
    if any(g.grid != grid for g in gammas):
        raise ValueError("the initial densities must share one grid")
    frozen = None if mu is None else list(mu)
    if frozen is not None and len(frozen) != len(gammas):
        raise ValueError(f"{len(frozen)} frozen flows for {len(gammas)} initial densities")
    if frozen is not None and any(f.grid != grid or f.times.tolist() != list(params.time_grid)
                                  for f in frozen):
        raise ValueError("a frozen flow is off the densities' grid or params.time_grid")
    if params.dim != grid.dim:
        raise ValueError(f"FlowParams.dim = {params.dim}, but the density is on a "
                         f"{grid.dim}-d grid")
    for g in gammas:
        g.require_density()
    nodes = _Nodes(_internal_grid(params.time_grid, steps), (0.0,) + params.time_grid)
    drifts = None
    if frozen is not None and not (isinstance(drift, KernelSpec) and kernel_vanishes(drift)):
        drifts = _frozen_drift(drift, frozen, grid, nodes)
    march, group = _March(gammas), _Group(grid)
    group.start(march, _march_steps(march, nodes, grid, drifts))
    while march.flows is None and march.error is None:
        group.advance([march])
    if march.error:
        march.raise_error()
    return march.flows


def _gap(a: ScalarField, b: ScalarField, idx: SobolevIndex) -> float:
    """Dual-norm distance between two densities at one time."""
    return measure_dual_norm(ScalarField(a.grid, a.values - b.values), idx, "amalgam")


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
    reweight them afterwards.  ``steps`` sets every march's node count.

    Each iterate marches the members that need it as one stack.  A member
    leaves at the iteration where its own distance is below ``tol``, so each
    member sees exactly the iterates, and ends with exactly the flow and
    report, of its solo solve; the loop runs until every member has retired
    or ``max_iter`` iterations are made.

    The schedule: the map is causal, so the iterates march as a pipeline.
    Iterate k + 1 starts, with the same members, once every member of
    iterate k has a weighted gap ``weight[j] * gap_j >= tol`` at an output
    time it has marched: its distance is then at least ``tol``, so the loop
    would run iterate k + 1 for it.  Otherwise iterate k + 1 starts when
    iterate k ends, with the members still above ``tol``.  An iterate steps
    into a node only once its predecessor has written every knot that node
    reads (``_Nodes.need``); each round, every iterate that can steps once.
    A transform phase is one call on the group's arrays when every iterate
    in flight steps, else one call per stepping iterate on its own rows; the
    pointwise arithmetic stays per iterate.  Iterates overlap only on a
    1-d grid: there one call's fixed cost is most of a row's, while at 128^2
    one call already carries 128 rows per member and a stack of iterates
    costs about their sum in time and more in memory.  Errors come in the
    order of the loop that runs one iterate after the other: an iterate's
    own error (a non-finite state or drift, ``DegradedAccuracyError``) is
    raised only once its predecessor has ended and confirmed it, and the
    predecessor's ``NoContractionError`` comes first.

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
        If ``steps`` or ``max_iter`` is not a positive int, ``tol`` is not a
        number in (0, inf), or ``age`` is not a number in [0, inf).
    """
    _require_int("max_iter", max_iter)
    _require_number("tol", tol, 0, strict=True)  # at inf the first residual stops the loop
    _require_number("age", age, 0)
    gammas = list(gammas)
    weight = _weight(params, age + np.asarray(params.time_grid), 0.0)
    current = phi_apply(gammas, None, drift, params, steps)
    gap_series = [[] for _ in gammas]  # per member, per-iteration per-time gaps
    dists = [[] for _ in gammas]  # per member, per-iteration weighted distance
    clip_mass = [flow.meta["clip_mass"] for flow in current]
    grid, idx = gammas[0].grid, params.running_index
    heat = isinstance(drift, KernelSpec) and kernel_vanishes(drift)
    nodes = _Nodes(_internal_grid(params.time_grid, steps), (0.0,) + params.time_grid)
    group = _Group(grid)
    chain = group.marches  # the iterates in flight, oldest first

    def begin(k: int, members: list, frozen: list):
        march = _March([gammas[i] for i in members], k, members, frozen)
        drifts = None if heat else _frozen_drift(drift, frozen, grid, nodes)
        group.start(march, _march_steps(march, nodes, grid, drifts))

    def ready(m: _March) -> bool:
        return m.error is None and (
            heat or len(m.frozen[0].densities) + 1 >= nodes.need[m.node + 1])

    def read_gaps(m: _March):
        """The gaps of the outputs ``m`` wrote since the last call, and whether
        each member's weighted gap has reached ``tol``."""
        for j in range(len(m.gaps[0]), len(m.outs[0].densities)):
            for r, (out, old) in enumerate(zip(m.outs, m.frozen)):
                m.gaps[r].append(_gap(out.densities[j], old.densities[j], idx))
                m.proved[r] = m.proved[r] or weight[j] * m.gaps[r][-1] >= tol

    def finish(m: _March) -> list:
        """Record and stop the ended iterate ``m``; the members still above
        ``tol``.  Nothing of ``m`` and its frozen flows outlives this call."""
        if m.error:
            m.raise_error()
        group.stop(m)
        read_gaps(m)
        for i, flow, gaps in zip(m.members, m.flows, m.gaps):
            clip_mass[i] = max(clip_mass[i], flow.meta["clip_mass"])
            gap_series[i].append(np.asarray(gaps))
            current[i] = flow
            dists[i].append(float(np.max(weight * gap_series[i][-1])))
            if dists[i][-1] < tol:
                continue
            ratios = _ratios(dists[i])[-3:]
            if len(ratios) == 3 and min(ratios) >= 1.0:
                raise NoContractionError(
                    f"no contraction after {m.k} iterations "
                    f"(last ratios {[f'{r:.3f}' for r in ratios]}); "
                    f"weaken the drift or shorten the horizon T")
        return [i for i in m.members if not dists[i][-1] < tol]

    begin(1, list(range(len(gammas))), current)
    while chain:
        group.advance([m for m in chain if ready(m)])
        if group.overlap:  # a successor can start before its predecessor ends
            for m in chain:
                read_gaps(m)
        while chain and (chain[0].error or chain[0].flows):
            k, members = chain[0].k, finish(chain[0])
            if not chain and members and k < max_iter:
                begin(k + 1, members, [current[i] for i in members])
        if chain and group.overlap:
            m = chain[-1]
            if m.k < max_iter and all(m.proved) and m.error is None:
                begin(m.k + 1, m.members, m.outs)
    return [(flow, SolveReport(
                iterations=len(gaps), contraction_ratios=_ratios(dist), lam_used=0.0,
                clip_mass=clipped, residual=dist[-1], gap_series=gaps))
            for flow, gaps, dist, clipped in zip(current, gap_series, dists, clip_mass)]


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
    and ``meta["report"]`` holds its report.  ``r`` must be a number in
    (0, inf); ``steps``, ``max_iter`` and ``tol`` are checked as ``picard_solve`` checks them.
    """
    _require_number("r", r, 0, strict=True)
    if math.sqrt(r) < _RESOLUTION_CELLS * gamma0.grid.spacing:
        raise ValueError(f"shift r={r} below grid resolvability")
    ((flow, report),) = picard_solve_many((heat_apply(gamma0, r),), drift, params, tol,
                                          max_iter, steps, age=r)
    flow.meta["report"] = report
    return flow
