"""Interacting-particle simulator cross-validating the density solver.

Euler-Maruyama with the empirical-measure drift; additive unit noise makes
higher-order schemes pointless.  The noise is keyed per (seed, step): step m
of a run with seed s draws ``Generator(Philox(key=[s, m])).standard_normal((N, d))``,
and the initial sample is keyed ``[s, 2**63]``.  A counter-based draw of N
rows is a prefix of the draw of more, so an ensemble of N particles takes the
first N rows and its path does not depend on how many particles run
alongside it.  A run realizes the keys with one Philox generator that it
re-keys at counter 0, bit-identical to a fresh generator per key.  The drift
at a particle is ``kernels.drift_map`` of its ensemble's histogram,
interpolated linearly at the particle.  A batch runs ensembles of several
counts under several seeds side by side, each bit-identical to its own run
(a coordinate that leaves the torus wraps alone); a convergence study is one
batch.  A snapshot is positions and time.  Buffers are allocated once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridSpec, ScalarField, _require_int, _require_number, heat_apply
from .kernels import KernelSpec, drift_map
from .metrics import GaussianSpec, wasserstein_1d_empirical_many
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
    positions: np.ndarray  # (N, dim)
    time: float

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.positions.shape[0] < 2:
            raise ValueError("need at least 2 particles")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, seed (a non-negative int), kernel and sampling recipe
    for one run, with its snapshot times; no checkpoints means one at ``T``."""

    grid: GridSpec
    dt: float
    T: float
    seed: int
    kernel: KernelSpec | None = None
    initial: GaussianSpec | None = None  # None for a point at the origin
    checkpoints: tuple = ()

    def __post_init__(self):
        _require_int("seed", self.seed, 0)
        if not isinstance(self.kernel, (KernelSpec, type(None))):
            raise ValueError(f"kernel must be a KernelSpec or None, got {self.kernel!r}")
        if not isinstance(self.initial, (GaussianSpec, type(None))):
            raise ValueError(f"initial must be a GaussianSpec or None, got {self.initial!r}")
        if self.initial is not None and len(self.initial.mean) != self.grid.dim:
            raise ValueError(f"initial mean {self.initial.mean} has {len(self.initial.mean)} "
                             f"entries on a {self.grid.dim}-d grid")
        _require_number("dt", self.dt, 0, strict=True)
        _require_number("T", self.T, 0, strict=True)
        n_steps = self.T / self.dt
        if abs(n_steps - round(n_steps)) > 1e-9:
            raise ValueError(f"T={self.T} is not a multiple of dt={self.dt}")
        if self.kernel is not None and self.kernel.mollification_eps > 0 \
                and self.dt > self.kernel.mollification_eps:
            raise ValueError(f"stability heuristic violated: dt={self.dt} > "
                             f"mollification_eps={self.kernel.mollification_eps}")
        object.__setattr__(self, "checkpoints", tuple(self.checkpoints) or (self.T,))
        for t in self.checkpoints:
            _require_number("checkpoint", t, 0)
            m = t / self.dt
            if abs(m - round(m)) > 1e-9 or not 0 <= round(m) <= self.steps:
                raise ValueError(f"checkpoint {t} is not a step time in [0, T={self.T}] "
                                 f"with dt={self.dt}")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))


_INITIAL_WORD = 2**63  # second key word of the initial draw; steps count from 0


def _keyed(rng, seed: int, word: int):
    """``rng`` with its Philox re-keyed to ``[seed, word]`` at counter 0, the state
    ``Philox(key=[seed, word])`` starts from; one generator serves a run."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed, word], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def _step_noise(rng, seed: int, step: int, out: np.ndarray) -> None:
    """Fill ``out`` ``(N, dim)`` with the increments of step ``step`` under ``seed``:
    ``Generator(Philox(key=[seed, step])).standard_normal((N, dim))``."""
    _keyed(rng, seed, step).standard_normal(out=out)


def _sample_initial(cfg: SimConfig, N: int, rng) -> np.ndarray:
    init = cfg.initial
    dim = cfg.grid.dim
    if init is None:
        return np.zeros((N, dim))
    mean = np.asarray(init.mean, dtype=float)
    return mean + math.sqrt(init.variance) * rng.standard_normal((N, dim))


class _Workspace:
    """Buffers for particles labelled by ensemble ``ens``, allocated once.

    Every call writes into them in place, so a step loop allocates nothing
    particle-sized.  ``locate`` takes positions to cell units; ``histograms``
    then bins them per ensemble, and ``corners`` sets up the periodic linear
    interpolation that ``interpolate`` applies to a stack of fields, one per
    ensemble.
    """

    def __init__(self, grid: GridSpec, ens: np.ndarray, kernel: KernelSpec | None = None):
        M, d = len(ens), grid.dim
        self.grid, self.ens = grid, ens
        self.convolve = None if kernel is None else drift_map(kernel, grid)
        self.base = ens * grid.num_points  # each ensemble's block of the stacked fields
        self.mass = (np.bincount(ens) * grid.cell_volume).reshape((-1,) + (1,) * d)
        self.offsets = np.array([c[::-1] for c in np.ndindex((2,) * d)])  # first axis fastest
        self.s = np.empty((M, d))                    # positions in cell units
        self.frac = np.empty((2, M, d))              # weights 1 - w and w along each axis
        self.cell = np.empty((M, d), dtype=np.intp)  # lower interpolation corner
        self.corner = np.empty((M, d), dtype=np.intp)
        self.index = np.empty((len(self.offsets), M), dtype=np.intp)  # flat, per corner
        self.weight = np.empty((len(self.offsets), M))
        self.term = np.empty(M)
        self.drift = np.empty((M, d))

    def locate(self, positions: np.ndarray) -> None:
        np.add(positions, 0.5 * self.grid.extent, out=self.s)
        np.divide(self.s, self.grid.spacing, out=self.s)

    def _flat(self, cells: np.ndarray, out: np.ndarray) -> None:
        """C-order flat index, offset by ``base``, of ``cells`` modulo n, a power
        of two; ``cells`` is overwritten."""
        n = self.grid.points_per_dim
        np.bitwise_and(cells, n - 1, out=cells)
        np.copyto(out, cells[:, 0])
        for j in range(1, self.grid.dim):
            out *= n
            out += cells[:, j]
        out += self.base

    def histograms(self) -> np.ndarray:
        """Unit-mass nearest-point histograms ``(E, *shape)`` of the located particles."""
        grid, nearest = self.grid, self.frac[0]
        np.add(self.s, 0.5, out=nearest)
        np.floor(nearest, out=nearest)
        np.copyto(self.corner, nearest, casting="unsafe")
        self._flat(self.corner, self.index[0])
        vals = np.bincount(self.index[0], minlength=self.mass.size * grid.num_points)
        return vals.reshape((-1,) + grid.shape) / self.mass

    def corners(self) -> None:
        """Flat index and weight of each interpolation corner of the located particles."""
        lo, hi = self.frac
        np.floor(self.s, out=hi)
        np.copyto(self.cell, hi, casting="unsafe")
        np.subtract(self.s, hi, out=hi)
        np.subtract(1.0, hi, out=lo)
        for k, offset in enumerate(self.offsets):
            np.add(self.cell, offset, out=self.corner)
            self._flat(self.corner, self.index[k])
            np.copyto(self.weight[k], self.frac[offset[0], :, 0])
            for j in range(1, self.grid.dim):
                self.weight[k] *= self.frac[offset[j], :, j]

    def interpolate(self, values: np.ndarray, out: np.ndarray) -> None:
        """Write into ``out`` the fields ``values`` ``(E, *shape)`` at the corners
        set up last, each particle reading its own ensemble's field."""
        flat = values.ravel()
        for k, weight in enumerate(self.weight):
            np.take(flat, self.index[k], out=self.term, mode="clip")  # in range; unbuffered
            self.term *= weight
            if k == 0:
                np.copyto(out, self.term)
            else:
                out += self.term


def _bin_positions(positions: np.ndarray, grid: GridSpec) -> ScalarField:
    """Histogram of the ensemble as a unit-mass grid density."""
    work = _Workspace(grid, np.zeros(len(positions), dtype=np.intp))
    work.locate(positions)
    return ScalarField(grid, work.histograms()[0])


def _empirical_drift(cfg: SimConfig, positions: np.ndarray, t: float,
                     work: _Workspace) -> np.ndarray:
    """Mean-field drift at each particle from the empirical measure of its
    ensemble ``work.ens``, written into and returned as ``work.drift``."""
    drift = work.drift
    factor = 0.0 if cfg.kernel is None else cfg.kernel.modulation.factor(t)
    if factor == 0.0:
        drift.fill(0.0)
        return drift
    work.locate(positions)
    fields = work.convolve(work.histograms())
    work.corners()
    for j, comp in enumerate(fields):
        work.interpolate(comp, drift[:, j])
    return np.multiply(drift, factor, out=drift)


def simulate_particles(cfg: SimConfig, N: int):
    """Euler-Maruyama trajectory of the interacting ensemble.

    Returns a list of ``ParticleEnsemble`` snapshots at the configured
    checkpoints.  Deterministic given (seed, N, cfg); each coordinate that
    leaves the torus wraps back on its own, and a NaN anywhere aborts with
    step diagnostics.
    """
    return _simulate(cfg, [cfg.seed], [N])[0][0]


def _simulate(cfg: SimConfig, seeds, counts) -> list:
    """Snapshots ``[seed][count]`` of ensembles of ``counts`` particles under each
    of ``seeds``, which replace ``cfg.seed``, run as one batch.  Each ensemble
    takes the first rows of its seed's draws, and each coordinate wraps alone,
    so every ensemble moves as in its own run."""
    if min(counts) < 2:
        raise ValueError("need at least 2 particles")
    grid, d = cfg.grid, cfg.grid.dim
    big = max(counts)
    sizes = np.tile(counts, len(seeds))  # ensembles seed-major, then by count
    ens = np.repeat(np.arange(sizes.size), sizes)
    # each particle's row in the stacked draws of the seeds, ``big`` rows per seed
    rows = (np.repeat(np.arange(len(seeds)), sum(counts)) * big
            + np.concatenate([np.arange(N) for N in sizes]))
    ends = np.cumsum(sizes)
    rng = np.random.Generator(np.random.Philox(0))
    positions = np.concatenate([_sample_initial(cfg, big, _keyed(rng, s, _INITIAL_WORD))
                                for s in seeds])[rows]
    work = _Workspace(grid, ens, cfg.kernel)
    noise = np.empty((len(seeds), big, d))
    increments = np.empty_like(positions)
    reach = np.empty_like(positions)
    half_L = 0.5 * grid.extent
    sqdt = math.sqrt(cfg.dt)
    taken = []  # (time, positions) at the checkpoints
    checkpoint_at = {int(round(t / cfg.dt)) for t in cfg.checkpoints}
    if 0 in checkpoint_at:
        taken.append((0.0, positions.copy()))
    for m in range(cfg.steps):
        t = m * cfg.dt
        drift = _empirical_drift(cfg, positions, t, work)
        positions += np.multiply(drift, cfg.dt, out=drift)
        for r, s in enumerate(seeds):
            _step_noise(rng, s, m, noise[r])
        np.take(noise.reshape(-1, d), rows, axis=0, out=increments, mode="clip")
        positions += np.multiply(increments, sqdt, out=increments)
        farthest = np.abs(positions, out=reach).max()  # NaN if any position is
        if not math.isfinite(farthest):
            bad = int(np.argwhere(~np.isfinite(positions))[0][0])
            raise RuntimeError(f"non-finite position at step {m + 1} (t={t + cfg.dt:.4f}), "
                               f"particle {rows[bad] % big} of seed {seeds[rows[bad] // big]}")
        if farthest > half_L:
            out = reach > half_L
            positions[out] = (positions[out] + half_L) % grid.extent - half_L
        if m + 1 in checkpoint_at:
            taken.append(((m + 1) * cfg.dt, positions.copy()))
    return [[[ParticleEnsemble(x[ends[e] - sizes[e]:ends[e]], time) for time, x in taken]
             for e in range(r * len(counts), (r + 1) * len(counts))]
            for r in range(len(seeds))]


def empirical_density(ens: ParticleEnsemble, grid: GridSpec,
                      bandwidth: float) -> ScalarField:
    """Gaussian kernel density estimate via heat smoothing of the histogram.

    The histogram has unit mass and heat conserves it, so the output mass is
    exactly one (up to a final exact renormalization against roundoff).
    """
    if ens.dim != grid.dim:
        raise ValueError(f"a {ens.dim}-d ensemble has no density on a {grid.dim}-d grid")
    _require_number("bandwidth", bandwidth, grid.spacing)
    hist = _bin_positions(ens.positions, grid)
    out = heat_apply(hist, bandwidth**2)
    out.values /= out.mass()
    return out


def _check_study_sizes(N_list, repeats) -> None:
    """Raise unless ``repeats`` is a positive int and ``N_list`` a non-empty list of
    distinct ints >= 2."""
    _require_int("repeats", repeats)
    if not (isinstance(N_list, (list, tuple)) and N_list
            and all(isinstance(N, (int, np.integer)) and not isinstance(N, bool) and N >= 2
                    for N in N_list)
            and len(set(N_list)) == len(N_list)):
        raise ValueError(f"N_list must be a list of distinct ints >= 2, got {N_list!r}")


def chaos_convergence_study(cfg: SimConfig, N_list, pde_flow: MeasureFlow,
                            repeats: int = 10) -> dict:
    """Mean-field convergence table against a solved density flow.

    For each particle count, ``repeats`` seeded runs produce transport and L1
    errors at the checkpoint times, the L1 error of a density estimate with
    bandwidth four grid cells; rows are (N, seed, t, W1, L1) and the
    summary carries mean and standard deviation per N.  Every count of every
    seed runs in one batch.  After a failed batch each (N, repeat) runs
    alone, so a seed failure propagates as a diagnostic under its own
    (N, repeat) while the others continue.  ``repeats`` must be a positive
    int and ``N_list`` distinct ints >= 2; the particles must run on the
    flow's grid, and the flow must hold a density at each checkpoint.  The
    W1 of all runs at one checkpoint comes from one quantile table of its
    target.
    """
    _check_study_sizes(N_list, repeats)
    if cfg.grid.dim != 1:
        raise ValueError("study implemented for dim=1")
    if cfg.grid != pde_flow.grid:
        raise ValueError(f"particles run on {cfg.grid}, the flow lives on {pde_flow.grid}")
    flow_at = {}
    for t in cfg.checkpoints:
        j = int(np.argmin(np.abs(pde_flow.times - t)))
        if abs(pde_flow.times[j] - t) > 1e-9:
            raise ValueError(f"checkpoint {t} missing from the solved flow")
        flow_at[t] = pde_flow.densities[j].require_density()
    bw = 4.0 * cfg.grid.spacing
    failures = []

    seeds = [cfg.seed + 1000 * rep for rep in range(repeats)]
    batch = _safe_run(_simulate, (cfg, seeds, N_list), [])

    def run_one(N, rep):
        return (batch[rep][N_list.index(N)] if batch
                else simulate_particles(replace(cfg, seed=seeds[rep]), N))

    def target(ens):
        return flow_at[min(flow_at, key=lambda t: abs(t - ens.time))]

    runs = [(N, rep, _safe_run(run_one, (N, rep), failures))
            for N in N_list for rep in range(repeats)]
    runs = [run for run in runs if run[2] is not None]
    # snapshot k of every run is at one time: one target quantile table
    # serves the W1 of them all
    w1 = [wasserstein_1d_empirical_many([ens.positions[:, 0] for ens in at_k],
                                        target(at_k[0]), 1.0)
          for at_k in zip(*(snaps for *_, snaps in runs))]
    rows = []
    for i, (N, rep, snaps) in enumerate(runs):
        for ens, w1_k in zip(snaps, w1):
            kde = empirical_density(ens, cfg.grid, bw)
            l1 = float(np.abs(kde.values - target(ens).values).sum()) * cfg.grid.cell_volume
            rows.append((N, seeds[rep], ens.time, w1_k[i], l1))
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
