"""Interacting-particle simulator cross-validating the density solver.

Euler-Maruyama with the empirical-measure drift; additive unit noise makes
higher-order schemes pointless.  Each particle owns a counter-based RNG
stream keyed by (master seed, particle index), so any particle's path is
reproducible independently of how many particles run alongside it.  A run
realizes those streams with one Philox generator that it re-keys to
``[seed, index]`` (counter 0) per particle; the draws are bit-identical to a
fresh ``Generator(Philox(key=[seed, index]))`` per particle.  The drift at a
particle is ``kernels.drift_map`` of its ensemble's histogram, built once per
run and interpolated linearly at the particle.  The study batches the
particle counts of one seed, which share one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridSpec, ScalarField, heat_apply
from .kernels import KernelSpec, drift_map
from .metrics import wasserstein_1d_empirical
from .solver import MeasureFlow, _require_int

__all__ = [
    "ParticleEnsemble",
    "SimConfig",
    "simulate_particles",
    "empirical_density",
    "chaos_convergence_study",
]


@dataclass
class ParticleEnsemble:
    dim: int
    positions: np.ndarray  # (N, dim)
    time: float
    wrap_count: int = 0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.positions.shape[0] < 2:
            raise ValueError("need at least 2 particles")
        if self.positions.shape[1] != self.dim:
            raise ValueError(f"positions are {self.positions.shape[1]}-dimensional, "
                             f"expected {self.dim}")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, seed (a non-negative int), kernel and sampling recipe
    for one run."""

    grid: GridSpec
    dt: float
    T: float
    seed: int
    kernel: KernelSpec | None = None
    initial: object = None        # GaussianSpec-like, or None for a point
    checkpoints: tuple = ()

    def __post_init__(self):
        _require_int("seed", self.seed, 0)
        if not (0 < self.dt < math.inf and 0 < self.T < math.inf):
            raise ValueError(f"dt and T must be positive and finite, got dt={self.dt}, "
                             f"T={self.T}")
        n_steps = self.T / self.dt
        if abs(n_steps - round(n_steps)) > 1e-9:
            raise ValueError(f"T={self.T} is not a multiple of dt={self.dt}")
        if self.kernel is not None and self.kernel.mollification_eps > 0 \
                and self.dt > self.kernel.mollification_eps:
            raise ValueError(f"stability heuristic violated: dt={self.dt} > "
                             f"mollification_eps={self.kernel.mollification_eps}")
        for t in self.checkpoints:
            m = t / self.dt
            if abs(m - round(m)) > 1e-9 or not 0 <= round(m) <= self.steps:
                raise ValueError(f"checkpoint {t} is not a step time in [0, T={self.T}] "
                                 f"with dt={self.dt}")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    def checkpoint_steps(self):
        return [int(round(t / self.dt)) for t in self.checkpoints or (self.T,)]


def _particle_increments(seed: int, count: int, steps: int, dim: int) -> np.ndarray:
    """Standard normal increments ``(count, steps, dim)``, one Philox stream per
    particle keyed by (seed, index).

    One generator serves the whole run: before each particle's draw its bit
    generator is reset to counter 0 under key ``[seed, index]``, which is the
    state ``Philox(key=[seed, index])`` starts from.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    key = np.array([seed, 0], dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((count, steps, dim))
    for i in range(count):
        key[1] = i
        bitgen.state = state
        rng.standard_normal((steps, dim), out=out[i])
    return out


def _sample_initial(cfg: SimConfig, N: int, rng) -> np.ndarray:
    init = cfg.initial
    dim = cfg.grid.dim
    if init is None:
        return np.zeros((N, dim))
    if hasattr(init, "mean") and hasattr(init, "variance"):
        mean = np.asarray(init.mean, dtype=float)
        return mean + math.sqrt(init.variance) * rng.standard_normal((N, dim))
    raise TypeError(f"unsupported initial sampler {type(init).__name__}")


def _flat_index(cols, n: int) -> np.ndarray:
    """C-order flat index of per-axis cell indices modulo n, a power of two."""
    k = cols[0] & (n - 1)
    for c in cols[1:]:
        k = k * n + (c & (n - 1))
    return k


def _histograms(s: np.ndarray, grid: GridSpec, ens: np.ndarray) -> np.ndarray:
    """Unit-mass nearest-point histograms ``(E, *shape)`` of ensembles ``ens`` at cells ``s``."""
    counts = np.bincount(ens)
    flat = (_flat_index(np.floor(s + 0.5).astype(int).T, grid.points_per_dim)
            + ens * grid.num_points)
    vals = np.bincount(flat, minlength=counts.size * grid.num_points).reshape((-1,) + grid.shape)
    return vals / (counts * grid.cell_volume).reshape((-1,) + (1,) * grid.dim)


def _bin_positions(positions: np.ndarray, grid: GridSpec) -> ScalarField:
    """Histogram of the ensemble as a unit-mass grid density."""
    s = (positions + 0.5 * grid.extent) / grid.spacing
    return ScalarField(grid, _histograms(s, grid, np.zeros(len(positions), dtype=int))[0])


def _interp_field(values: np.ndarray, grid: GridSpec, s: np.ndarray, base=0) -> np.ndarray:
    """Periodic linear interpolation at cells ``s`` of fields read flat from ``base``."""
    cell = np.floor(s)
    w = s - cell
    weight = (1 - w, w)
    i0 = cell.astype(int)
    index = (i0, i0 + 1)
    out = None
    for corner in (c[::-1] for c in np.ndindex((2,) * grid.dim)):  # first axis fastest
        cols = [index[c][:, j] for j, c in enumerate(corner)]
        term = values.ravel()[_flat_index(cols, grid.points_per_dim) + base]
        for j, c in enumerate(corner):
            term = term * weight[c][:, j]
        out = term if out is None else out + term
    return out


def _empirical_drift(cfg: SimConfig, positions: np.ndarray, t: float,
                     convolve, ens: np.ndarray) -> np.ndarray:
    """Mean-field drift at each particle from the empirical measure of its ensemble."""
    if cfg.kernel is None:
        return np.zeros_like(positions)
    grid = cfg.grid
    factor = cfg.kernel.modulation.factor(t)
    if factor == 0.0:
        return np.zeros_like(positions)
    s = (positions + 0.5 * grid.extent) / grid.spacing
    out = np.empty_like(positions)
    for j, comp in enumerate(convolve(_histograms(s, grid, ens))):
        out[:, j] = _interp_field(comp, grid, s, ens * grid.num_points)
    return factor * out


def simulate_particles(cfg: SimConfig, N: int):
    """Euler-Maruyama trajectory of the interacting ensemble.

    Returns a list of ``ParticleEnsemble`` snapshots at the configured
    checkpoints.  Deterministic given (seed, N, cfg); positions wrap
    periodically with a counter, and a NaN anywhere aborts with step
    diagnostics.
    """
    return _simulate(cfg, [N])[0]


def _simulate(cfg: SimConfig, counts) -> list:
    """Snapshots of ensembles of ``counts`` particles run as one batch; each takes
    the first particles of one draw and wraps alone, as in its own run."""
    if min(counts) < 2:
        raise ValueError("need at least 2 particles")
    grid = cfg.grid
    init_rng = np.random.Generator(np.random.Philox(
        key=[np.uint64(cfg.seed), np.uint64(2**63)]))
    local = np.concatenate([np.arange(N) for N in counts])  # index within the ensemble
    ens = np.repeat(np.arange(len(counts)), counts)
    positions = _sample_initial(cfg, max(counts), init_rng)[local]
    increments = _particle_increments(cfg.seed, max(counts), cfg.steps, grid.dim)
    convolve = None if cfg.kernel is None else drift_map(cfg.kernel, grid)
    half_L = 0.5 * grid.extent
    sqdt = math.sqrt(cfg.dt)
    wrap_count = np.zeros(len(counts), dtype=int)
    taken = []  # (time, positions, wrap counts) at the checkpoints
    checkpoint_at = set(cfg.checkpoint_steps())
    if 0 in checkpoint_at:
        taken.append((0.0, positions.copy(), wrap_count.copy()))
    for m in range(cfg.steps):
        t = m * cfg.dt
        b = _empirical_drift(cfg, positions, t, convolve, ens)
        positions = positions + cfg.dt * b + sqdt * increments[local, m, :]
        if not np.all(np.isfinite(positions)):
            bad = int(np.argwhere(~np.isfinite(positions))[0][0])
            raise RuntimeError(f"non-finite position at step {m + 1} "
                               f"(t={t + cfg.dt:.4f}), particle {local[bad]}")
        out_of_core = np.abs(positions) > half_L
        if out_of_core.any():
            hits = np.bincount(ens, out_of_core.sum(axis=1), len(counts)).astype(int)
            wrap_count += hits
            moved = hits[ens] > 0
            positions[moved] = (positions[moved] + half_L) % grid.extent - half_L
        if m + 1 in checkpoint_at:
            taken.append(((m + 1) * cfg.dt, positions.copy(), wrap_count.copy()))
    return [[ParticleEnsemble(grid.dim, x[ens == e], time, int(w[e])) for time, x, w in taken]
            for e in range(len(counts))]


def empirical_density(ens: ParticleEnsemble, grid: GridSpec,
                      bandwidth: float) -> ScalarField:
    """Gaussian kernel density estimate via heat smoothing of the histogram.

    The histogram has unit mass and heat conserves it, so the output mass is
    exactly one (up to a final exact renormalization against roundoff).
    """
    if bandwidth < grid.spacing:
        raise ValueError(f"bandwidth {bandwidth} below grid spacing {grid.spacing}")
    hist = _bin_positions(ens.positions, grid)
    out = heat_apply(hist, bandwidth**2)
    out.values /= out.mass()
    return out


def chaos_convergence_study(cfg: SimConfig, N_list, pde_flow: MeasureFlow,
                            repeats: int = 10) -> dict:
    """Mean-field convergence table against a solved density flow.

    For each particle count, ``repeats`` seeded runs produce transport and L1
    errors at the checkpoint times, the L1 error of a density estimate with
    bandwidth four grid cells; rows are (N, seed, t, W1, L1) and the
    summary carries mean and standard deviation per N.  The counts of one
    seed run as one batch.  Seed failures propagate as diagnostics under
    their (N, repeat) while the others continue.  The particles must run on
    the flow's grid.
    """
    if cfg.grid.dim != 1:
        raise ValueError("study implemented for dim=1")
    if cfg.grid != pde_flow.grid:
        raise ValueError(f"particles run on {cfg.grid}, the flow lives on {pde_flow.grid}")
    checkpoints = cfg.checkpoints or (cfg.T,)
    flow_at = {}
    for t in checkpoints:
        j = int(np.argmin(np.abs(pde_flow.times - t)))
        if abs(pde_flow.times[j] - t) > 1e-9:
            raise ValueError(f"checkpoint {t} missing from the solved flow")
        flow_at[t] = pde_flow.densities[j]
    bw = 4.0 * cfg.grid.spacing
    rows = []
    failures = []

    run_cfgs = [replace(cfg, seed=cfg.seed + 1000 * rep, checkpoints=tuple(checkpoints))
                for rep in range(repeats)]
    # after a failed batch each N runs alone, so a failure keeps its own (N, rep)
    batches = [dict(zip(N_list, _safe_run(_simulate, (c, N_list), []) or ()))
               for c in run_cfgs]

    def run_one(N, rep):
        snaps = batches[rep].get(N) or simulate_particles(run_cfgs[rep], N)
        out = []
        for ens in snaps:
            target = flow_at[min(flow_at, key=lambda t: abs(t - ens.time))]
            w1 = wasserstein_1d_empirical(ens.positions[:, 0], target, 1.0)
            kde = empirical_density(ens, cfg.grid, bw)
            l1 = float(np.abs(kde.values - target.values).sum()) * cfg.grid.cell_volume
            out.append((N, run_cfgs[rep].seed, ens.time, w1, l1))
        return out

    for N in N_list:
        for rep in range(repeats):
            rows.extend(_safe_run(run_one, (N, rep), failures) or ())
    summary = {}
    for N in N_list:
        w1s = [w for (n, _, t, w, _) in rows if n == N and abs(t - cfg.T) < 1e-9]
        if w1s:
            summary[N] = (float(np.mean(w1s)), float(np.std(w1s)))
    return {"rows": rows, "summary": summary, "failures": failures}


def _safe_run(fn, args, failures):
    try:
        return fn(*args)
    except Exception as exc:  # continue other seeds per the study contract
        failures.append((args, repr(exc)))
        return None
