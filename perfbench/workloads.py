"""The benchmark's workloads, built on mkvflow's public API, and their gate.

Each workload has a set-up (inputs, first kernel realizations, reference
solves) and a list of operations that one pass runs.  An operation has a
timed part, which only calls the package, and an untimed check that turns
its output into rows compared with ``reference.json`` plus a list of gate
failures.  Package functions are looked up through their modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
from pathlib import Path

import numpy as np

from mkvflow import experiments, flowio, grids, kernels, particles, solver
from mkvflow.metrics import GaussianSpec

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE.parent / "configs"

MASS_TOL = 1e-9
# bounds against the reference recorded at the seed commit
EXACT = ("rel", 1e-6)          # |m - r| <= 1e-6 |r| + 1e-12: deterministic rows
SAMPLED = ("upper", 2.0)       # m <= 2 r: Monte Carlo errors, seed-dependent
ROW_TOL = "row_tol"            # |m - r| <= the row's own tolerance: seeded probes
PARTICLE_N = (250, 1000, 4000)
PARTICLE_REPEATS = 10


@dataclasses.dataclass
class Outcome:
    rows: list = dataclasses.field(default_factory=list)      # (quantity, value, bound)
    failures: list = dataclasses.field(default_factory=list)  # gate reasons


@dataclasses.dataclass
class Op:
    name: str
    run: object     # tracer -> raw output (timed)
    check: object   # raw output -> Outcome (untimed)


def within(bound, measured: float, ref: float) -> bool:
    kind, x = bound
    if isinstance(measured, float) and math.isnan(measured):
        return isinstance(ref, float) and math.isnan(ref)
    if kind == "rel":
        return measured == ref or abs(measured - ref) <= x * abs(ref) + 1e-12
    if kind == "abs":
        return abs(measured - ref) <= x
    return measured <= x * ref


def gate(ref: dict, outcome: Outcome) -> list:
    """Gate failures of one outcome against its reference rows."""
    failures = list(outcome.failures)
    seen = set()
    for quantity, value, bound in outcome.rows:
        seen.add(quantity)
        if quantity in ref and not within(bound, value, ref[quantity]):
            failures.append(f"{quantity} = {value!r} outside {bound} of reference "
                            f"{ref[quantity]!r}")
    failures += [f"reference row missing: {q}" for q in ref if q not in seen]
    return failures


@contextlib.contextmanager
def captured_solves():
    """Collect the (flow, report) of every solve an experiment makes."""
    inner = experiments.picard_solve
    seen = []

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        seen.append(result)
        return result

    experiments.picard_solve = capture
    try:
        yield seen
    finally:
        experiments.picard_solve = inner


def mass_failures(label: str, flow) -> list:
    out = []
    for t, rho in zip(flow.times, flow.densities):
        m = rho.mass()
        if abs(m - 1.0) > MASS_TOL:
            out.append(f"{label}: mass {m:.15f} at t={t:g} differs from 1 by > {MASS_TOL:g}")
    return out


def solve_outcome(label: str, flow, rep, tol: float) -> Outcome:
    """Rows and gate for a solve the benchmark calls itself."""
    x = flow.grid.axis_coords()
    last = flow.densities[-1].values
    h = flow.grid.spacing
    mean = float((x * last).sum() * h) if flow.grid.dim == 1 else 0.0
    var = float(((x - mean) ** 2 * last).sum() * h) if flow.grid.dim == 1 else 0.0
    ratios = rep.contraction_ratios
    out = Outcome(rows=[
        ("iterations", rep.iterations, ("abs", 0)),
        ("residual", rep.residual, EXACT),
        ("lam_used", rep.lam_used, EXACT),
        ("max_contraction_ratio", max(ratios) if ratios else 0.0, EXACT),
        ("final_mean", mean, EXACT),
        ("final_variance", var, EXACT),
        ("final_max", float(last.max()), EXACT),
    ])
    if not rep.residual < tol:
        out.failures.append(f"{label}: residual {rep.residual:.3e} not below tol {tol:g}")
    out.failures += mass_failures(label, flow)
    return out


def parse_config(path: Path, seed: int):
    cfg = experiments.parse_config(path.read_text())
    return dataclasses.replace(cfg, seed=seed)


def config_grid_kernel(cfg):
    """Grid and kernel a config names, through the public constructors."""
    grid = grids.GridSpec(int(cfg.opt("dim", 1)), int(cfg.opt("grid_n", 1024)),
                          float(cfg.opt("grid_extent", 16.0)))
    kw = {k.split(".", 1)[1]: v for k, v in cfg.options if k.startswith("kernel.")}
    return grid, kernels.make_kernel(str(cfg.opt("kernel", "zero")), grid, **kw)


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.ops: list = []
        self.setup_outcomes: list = []   # (label, Outcome), gated once per process

    def setup(self):
        raise NotImplementedError

    def defect_probe(self):
        """Error text of the confirmed-defect probe, or None if it passes or is absent."""
        return None

    def experiment_op(self, name: str, path: Path, bound) -> Op:
        cfg = parse_config(path, self.seed)
        out_dir = self.scratch / name

        def run(tracer):
            with captured_solves() as solves:
                with tracer.span(f"experiments.run_experiment.{name}"):
                    report = experiments.run_experiment(cfg)
            written = experiments.emit_report(report, str(out_dir), name)
            return report, solves, written

        def check(raw) -> Outcome:
            report, solves, written = raw
            out = Outcome()
            for r in report.rows:
                row_bound = ("abs", r.tol) if bound == ROW_TOL else bound
                out.rows.append((r.quantity, r.measured, row_bound))
                if not r.passed:
                    out.failures.append(f"pass flag false: {r.quantity} = {r.measured:.6g}")
            for j, (flow, _) in enumerate(solves):
                out.failures += mass_failures(f"solve {j}", flow)
            out.failures += [f"report file missing: {p}" for p in written
                             if not os.path.exists(p)]
            return out

        return Op(name, run, check)

    def realize_config_kernels(self, cfgs):
        """First realization of each config's kernel, so calibrations fall in set-up.

        A membership study realizes one kernel per mollification time, so
        each of those is realized here too.
        """
        for cfg in cfgs:
            if cfg.opt("kernel") is None:
                continue
            grid, spec = config_grid_kernel(cfg)
            kernels.realize_kernel(spec, grid)
            if cfg.experiment == "kernel_membership":
                # the experiment's default eps_list and kernel_norm_study's cut
                eps_list = cfg.opt("eps_list") or tuple(0.02 * 2.0**-j for j in range(7))
                for eps in eps_list:
                    if math.sqrt(eps) >= grid.spacing:
                        kernels.realize_kernel(
                            kernels.KernelSpec(spec.variant, eps, spec.modulation), grid)


class Solve1D(Workload):
    """Shipped 1-d Riesz-drift solve configs and a reduced stability config."""

    name = "solve-1d"
    configs = ("contraction", "entropy_kernel")

    def setup(self):
        paths = {c: CONFIG_DIR / f"{c}.cfg" for c in self.configs}
        paths["stability_small"] = HERE / "stability_small.cfg"
        self.realize_config_kernels(parse_config(p, self.seed) for p in paths.values())
        self.ops = [self.experiment_op(c, p, EXACT) for c, p in paths.items()]


class Solve2D(Workload):
    """Benchmark-owned 2-d solve at 128^2: the transform-bound march."""

    name = "solve-2d"

    def setup(self):
        path = HERE / "solve_2d.cfg"
        self.realize_config_kernels([parse_config(path, self.seed)])
        self.ops = [self.experiment_op("solve_2d", path, EXACT)]


class NemytskiiShift1D(Workload):
    """Pointwise density-derivative drift, plain and time-shifted, plus flow I/O."""

    name = "nemytskii-shift-1d"
    tol = 1e-8
    steps = 600
    shift = 0.02

    def setup(self):
        grid = grids.GridSpec(1, 1024, 16.0)
        T = 0.5
        self.params = solver.FlowParams(delta=1.0, k=2.0, kappa=0.75, T=T,
                                        time_grid=tuple(np.linspace(T / 10, T, 10)))
        envelope = kernels.TimeModulation(0.75)
        self.spec = kernels.NemytskiiSpec(2, "linear", (("weights", (0.1, 0.1)),),
                                          envelope)
        self.probe_spec = kernels.NemytskiiSpec(2, "clipped_gradient",
                                                (("cap", 0.2),), envelope)
        self.gauss = grids.gaussian_density(grid, 0.0, 0.04)
        self.spike = grids.grid_delta(grid)
        self.flows = {}
        self.ops = [
            Op("picard_gaussian", self.run_picard, self.check_picard),
            Op("time_shift_delta", self.run_shift, self.check_shift),
            Op("flow_roundtrip", self.run_roundtrip, self.check_roundtrip),
        ]

    def run_picard(self, tracer):
        self.flows.pop("picard", None)
        flow, rep = solver.picard_solve(self.gauss, self.spec, self.params,
                                        tol=self.tol, steps=self.steps)
        self.flows["picard"] = flow
        return flow, rep

    def check_picard(self, raw) -> Outcome:
        return solve_outcome("picard_solve", raw[0], raw[1], self.tol)

    def run_shift(self, tracer):
        self.flows.pop("shift", None)
        flow = solver.time_shift_solve(self.spike, self.shift, self.spec, self.params,
                                       tol=self.tol, steps=self.steps)
        self.flows["shift"] = flow
        return flow

    def check_shift(self, flow) -> Outcome:
        return solve_outcome("time_shift_solve", flow, flow.meta["report"], self.tol)

    def run_roundtrip(self, tracer):
        back = {}
        for label, flow in sorted(self.flows.items()):
            path = self.scratch / f"{label}.mkvf"
            flowio.write_flow(flow, str(path))
            tracer.count("flowio.write_flow.bytes", path.stat().st_size)
            back[label] = flowio.read_flow(str(path))
        return back

    def check_roundtrip(self, back) -> Outcome:
        out = Outcome(rows=[("flows", len(back), ("abs", 0))])
        for label, flow in self.flows.items():
            got = back.get(label)
            if got is None:
                out.failures.append(f"{label}: flow not written")
                continue
            same = (got.grid == flow.grid and np.array_equal(got.times, flow.times)
                    and all(np.array_equal(a.values, b.values)
                            for a, b in zip(got.densities, flow.densities))
                    and len(got.densities) == len(flow.densities))
            if not same:
                out.failures.append(f"{label}: flow binary does not round-trip identically")
        return out

    def defect_probe(self):
        # clipped_gradient at cap 0.2 from the same Gaussian: phi_apply keeps
        # output values down to -1e-6, while the next drift call rejects any
        # density below -1e-8 ("not a density")
        try:
            solver.picard_solve(self.gauss, self.probe_spec, self.params,
                                tol=self.tol, steps=self.steps)
        except Exception as exc:  # the probe records whatever it raises
            return repr(exc)
        return None


class ParticlesNorms1D(Workload):
    """Norm and membership configs, then particle studies against solved flows."""

    name = "particles-norms-1d"
    configs = ("heat_exponent", "membership_dirac", "membership_riesz",
               "membership_riesz_steep")
    studies = ("particles_kernel", "particles_zero")
    ref_tol = 1e-8   # picard_solve's default, as the particles experiment uses it

    def setup(self):
        paths = {c: CONFIG_DIR / f"{c}.cfg" for c in self.configs}
        self.realize_config_kernels(parse_config(p, self.seed) for p in paths.values())
        # heat_exponent draws random probes from the seed; membership is exact
        self.ops = [self.experiment_op(c, p, ROW_TOL if c == "heat_exponent" else EXACT)
                    for c, p in paths.items()]
        for name in self.studies:
            cfg = parse_config(CONFIG_DIR / f"{name}.cfg", self.seed)
            grid, spec = config_grid_kernel(cfg)
            T = float(cfg.opt("T"))
            var = float(cfg.opt("gamma_var"))
            params = solver.FlowParams(
                delta=float(cfg.opt("delta")), k=float(cfg.opt("k")),
                kappa=float(cfg.opt("kappa")), T=T,
                time_grid=tuple(np.linspace(T / 10, T, 10)))
            flow, rep = solver.picard_solve(grids.gaussian_density(grid, 0.0, var),
                                            spec, params, tol=self.ref_tol, steps=400)
            self.setup_outcomes.append(
                (f"reference_{name}", solve_outcome(name, flow, rep, self.ref_tol)))
            zero = cfg.opt("kernel") == "zero"
            sim = particles.SimConfig(grid=grid, dt=float(cfg.opt("dt")), T=T,
                                      seed=self.seed, kernel=None if zero else spec,
                                      initial=GaussianSpec((0.0,), var),
                                      checkpoints=(T,))
            self.ops.append(self.study_op(name, sim, flow))

    def study_op(self, name: str, sim, flow) -> Op:
        def run(tracer):
            return particles.chaos_convergence_study(sim, list(PARTICLE_N), flow,
                                                     repeats=PARTICLE_REPEATS)

        def check(study) -> Outcome:
            out = Outcome()
            for N in PARTICLE_N:
                rows = [r for r in study["rows"] if r[0] == N]
                out.rows.append((f"w1_mean(N={N})", float(np.mean([r[3] for r in rows])),
                                 SAMPLED))
                out.rows.append((f"l1_mean(N={N})", float(np.mean([r[4] for r in rows])),
                                 SAMPLED))
            out.rows.append(("seed_failures", len(study["failures"]), ("abs", 0)))
            out.failures += [f"seed failure {args}: {err}" for args, err in study["failures"]]
            return out

        return Op(f"study_{name}", run, check)


WORKLOADS = {w.name: w for w in (Solve1D, Solve2D, NemytskiiShift1D, ParticlesNorms1D)}
