"""Interacting-particle simulator cross-validating the density solver.

Euler-Maruyama with the empirical-measure drift; additive unit noise makes
higher-order schemes pointless.  Each particle owns a counter-based RNG
stream keyed by (master seed, particle index), so any particle's path is
reproducible independently of how many particles run alongside it.  A run
realizes those streams with one Philox generator that it re-keys to
``[seed, index]`` (counter 0) per particle; the draws are bit-identical to a
fresh ``Generator(Philox(key=[seed, index]))`` per particle.  The binned drift
is ``kernels.drift_map`` of the ensemble histogram, built once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, ScalarField, heat_apply
from .kernels import KernelSpec, drift_map, realize_kernel
from .metrics import wasserstein_1d_empirical
from .solver import MeasureFlow

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

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, seed, kernel and sampling recipe for one run."""

    grid: GridSpec
    dt: float
    T: float
    seed: int
    kernel: KernelSpec | None = None
    initial: object = None        # GaussianSpec-like, or None for a point
    drift_mode: str = "binned"    # "binned" | "pairwise"
    checkpoints: tuple = ()

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        n_steps = self.T / self.dt
        if abs(n_steps - round(n_steps)) > 1e-9:
            raise ValueError(f"T={self.T} is not a multiple of dt={self.dt}")
        if self.kernel is not None and self.kernel.mollification_eps > 0 \
                and self.dt > self.kernel.mollification_eps:
            raise ValueError(f"stability heuristic violated: dt={self.dt} > "
                             f"mollification_eps={self.kernel.mollification_eps}")
        if self.drift_mode not in ("binned", "pairwise"):
            raise ValueError(f"unknown drift_mode {self.drift_mode!r}")
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


def _bin_positions(positions: np.ndarray, grid: GridSpec) -> ScalarField:
    """Histogram of the ensemble as a unit-mass grid density."""
    L, h = grid.extent, grid.spacing
    idx = np.floor((positions + 0.5 * L) / h + 0.5).astype(int)
    # nearest grid point, taken modulo n per axis (index n wraps to 0)
    flat = np.ravel_multi_index(tuple(idx.T), grid.shape, mode="wrap")
    vals = np.bincount(flat, minlength=grid.num_points).reshape(grid.shape)
    return ScalarField(grid, vals / (positions.shape[0] * grid.cell_volume))


def _interp_field(values: np.ndarray, grid: GridSpec, positions: np.ndarray) -> np.ndarray:
    """Periodic linear interpolation of a grid field at particle positions."""
    n, L, h = grid.points_per_dim, grid.extent, grid.spacing
    s = (positions + 0.5 * L) / h
    i0 = np.floor(s).astype(int)
    w = s - i0
    if grid.dim == 1:
        a, b = i0[:, 0] % n, (i0[:, 0] + 1) % n
        return values[a] * (1 - w[:, 0]) + values[b] * w[:, 0]
    ax, bx = i0[:, 0] % n, (i0[:, 0] + 1) % n
    ay, by = i0[:, 1] % n, (i0[:, 1] + 1) % n
    wx, wy = w[:, 0], w[:, 1]
    return (values[ax, ay] * (1 - wx) * (1 - wy) + values[bx, ay] * wx * (1 - wy)
            + values[ax, by] * (1 - wx) * wy + values[bx, by] * wx * wy)


def _empirical_drift(cfg: SimConfig, positions: np.ndarray, t: float,
                     kern_field, convolve) -> np.ndarray:
    """Mean-field drift at each particle from the empirical measure."""
    if cfg.kernel is None:
        return np.zeros_like(positions)
    grid = cfg.grid
    factor = cfg.kernel.modulation.factor(t)
    if factor == 0.0:
        return np.zeros_like(positions)
    N = positions.shape[0]
    if cfg.drift_mode == "pairwise":
        out = np.zeros_like(positions)
        L = grid.extent
        for j, comp in enumerate(kern_field.components):
            for i in range(N):
                z = positions[i] - positions
                z = (z + 0.5 * L) % L - 0.5 * L  # periodic displacement
                vals = _interp_field(comp, grid, z)
                out[i, j] = vals.mean()
        return factor * out
    out = np.empty_like(positions)
    for j, comp in enumerate(convolve(_bin_positions(positions, grid).values)):
        out[:, j] = _interp_field(comp, grid, positions)
    return factor * out


def simulate_particles(cfg: SimConfig, N: int):
    """Euler-Maruyama trajectory of the interacting ensemble.

    Returns a list of ``ParticleEnsemble`` snapshots at the configured
    checkpoints.  Deterministic given (seed, N, cfg); positions wrap
    periodically with a counter, and a NaN anywhere aborts with step
    diagnostics.
    """
    if N < 2:
        raise ValueError("need at least 2 particles")
    grid = cfg.grid
    init_rng = np.random.Generator(np.random.Philox(
        key=[np.uint64(cfg.seed), np.uint64(2**63)]))
    positions = _sample_initial(cfg, N, init_rng)
    steps = cfg.steps
    dim = grid.dim
    increments = _particle_increments(cfg.seed, N, steps, dim)
    kern_field = convolve = None
    if cfg.kernel is not None and cfg.drift_mode == "pairwise":
        kern_field = realize_kernel(cfg.kernel, grid)
    elif cfg.kernel is not None:
        convolve = drift_map(cfg.kernel, grid)
    half_L = 0.5 * grid.extent
    sqdt = math.sqrt(cfg.dt)
    wrap_count = 0
    snapshots = []
    checkpoint_at = set(cfg.checkpoint_steps())
    if 0 in checkpoint_at:
        snapshots.append(ParticleEnsemble(dim, positions.copy(), 0.0, 0))
    for m in range(steps):
        t = m * cfg.dt
        b = _empirical_drift(cfg, positions, t, kern_field, convolve)
        positions = positions + cfg.dt * b + sqdt * increments[:, m, :]
        if not np.all(np.isfinite(positions)):
            bad = int(np.argwhere(~np.isfinite(positions))[0][0])
            raise RuntimeError(f"non-finite position at step {m + 1} "
                               f"(t={t + cfg.dt:.4f}), particle {bad}")
        out_of_core = np.abs(positions) > half_L
        if out_of_core.any():
            wrap_count += int(out_of_core.sum())
            positions = (positions + half_L) % grid.extent - half_L
        if m + 1 in checkpoint_at:
            snapshots.append(ParticleEnsemble(dim, positions.copy(),
                                              (m + 1) * cfg.dt, wrap_count))
    return snapshots


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
    summary carries mean and standard deviation per N.  Seed failures
    propagate as diagnostics while the other seeds continue.
    """
    if cfg.grid.dim != 1:
        raise ValueError("study implemented for dim=1")
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

    def run_one(N, rep):
        run_cfg = SimConfig(grid=cfg.grid, dt=cfg.dt, T=cfg.T,
                            seed=cfg.seed + 1000 * rep, kernel=cfg.kernel,
                            initial=cfg.initial, drift_mode=cfg.drift_mode,
                            checkpoints=tuple(checkpoints))
        snaps = simulate_particles(run_cfg, N)
        out = []
        for ens in snaps:
            target = flow_at[min(flow_at, key=lambda t: abs(t - ens.time))]
            w1 = wasserstein_1d_empirical(ens.positions[:, 0], target, 1.0)
            kde = empirical_density(ens, cfg.grid, bw)
            l1 = float(np.abs(kde.values - target.values).sum()) * cfg.grid.cell_volume
            out.append((N, run_cfg.seed, ens.time, w1, l1))
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


def snapshots_to_flow(snapshots, grid: GridSpec, bandwidth: float) -> MeasureFlow:
    """Smoothed checkpoint densities as a flow, sharing the solver's binary
    layout for trajectory serialization."""
    snaps = [s for s in snapshots if s.time > 0]
    if not snaps:
        raise ValueError("need at least one positive-time checkpoint")
    densities = [empirical_density(s, grid, bandwidth) for s in snaps]
    anchor = (empirical_density(snapshots[0], grid, bandwidth)
              if snapshots[0].time == 0 else densities[0])
    return MeasureFlow(np.array([s.time for s in snaps]), densities, anchor)
