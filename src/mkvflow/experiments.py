"""Config-driven experiments: exponent fits, inequality checks, reports.

Every experiment computes rows of (quantity, theoretical value or bound,
measured value, tolerance, pass flag); theoretical exponents are always
derived from the flow parameters at run time, never hard-coded per
experiment.  Parameter sets violating the conditions of the estimate an
experiment targets are refused up front with the violated condition named.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .flowio import write_csv_rows
from .grids import GridSpec, ScalarField, gaussian_density
from .kernels import (DiracDerivative, KernelSpec, RieszOrder, kernel_norm_study,
                      kernel_vanishes, make_kernel)
from .metrics import GaussianSpec, relative_entropy, wasserstein_1d
from .norms import (
    SobolevIndex,
    heat_norm_exponent,
    measure_dual_norm,
    operator_exponent_probe,
)
from .particles import SimConfig, _check_study_sizes, chaos_convergence_study
from .solver import (
    FlowParams,
    _require_int,
    contraction_ratios,
    eta_theta_params,
    picard_solve,
)

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "RunReport",
    "AdmissibilityError",
    "run_experiment",
    "fit_exponent",
    "emit_report",
    "parse_report_csv",
    "parse_config",
]

# documented default tolerances; every pass/fail row cites its entry or a
# config override, never a hidden constant
DEFAULT_TOLERANCES = {
    "heat_slope": 0.08,
    "membership_exponent": 0.1,
    "contraction_ratio": 0.9,
    "residual": 1e-6,
    "decay_spread": 0.20,
    "stability_slope": 0.1,
    "stability_linearity": 0.10,
    "entropy_zero_bound": 0.5,
    "entropy_kernel_bound": 1.0,
    "mc_rate_slope": 0.15,
}


class AdmissibilityError(ValueError):
    """Parameter set violates a condition of the targeted estimate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment and its options; ``seed`` must be a non-negative int,
    ``steps`` and ``max_iter``, where given, positive ints, ``N_list`` and
    ``repeats``, where either is given, particle study sizes that
    ``chaos_convergence_study`` accepts, and the grid and kernel keys must name a
    grid and a catalog kernel.  A kernel that does not vanish must carry the
    envelope exponent ``kernel.kappa`` equal to the admissibility exponent
    ``kappa`` (both default to 0)."""

    experiment: str
    seed: int = 0
    output_dir: str = "."
    options: tuple = ()  # flat (key, value) pairs beyond the fixed fields

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {EXPERIMENTS}")
        _require_int("seed", self.seed, 0)
        for key in ("steps", "max_iter"):
            if self.opt(key) is not None:
                _require_int(key, self.opt(key))
        if self.opt("N_list") is not None or self.opt("repeats") is not None:
            _check_study_sizes(self.opt("N_list", _STUDY_N), self.opt("repeats", _STUDY_REPEATS))
        kern = _kernel_from(self, _grid_from(self))
        kappa = float(self.opt("kappa", 0.0))
        if not kernel_vanishes(kern) and kern.modulation.kappa != kappa:
            raise ValueError(f"kernel.kappa = {kern.modulation.kappa:g} differs from kappa = "
                             f"{kappa:g}: the drift envelope must match the admissibility exponent")

    def opt(self, key, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default

    @property
    def text(self) -> str:
        lines = [f"experiment = {self.experiment}", f"seed = {self.seed}",
                 f"output_dir = {self.output_dir}"]
        lines += [f"{k} = {_fmt_value(v)}" for k, v in self.options]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


def _fmt_value(v):
    if isinstance(v, (list, tuple)):
        return ", ".join(_fmt_value(x) for x in v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return tuple(_parse_value(p) for p in raw.split(","))
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("inf", "+inf"):
        return math.inf
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ordered key = value format ('#' starts a comment)."""
    fields = {}
    options = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (p.strip() for p in line.split("=", 1))
        value = _parse_value(raw)
        if key in ("experiment", "seed", "output_dir"):
            fields[key] = value
        else:
            options.append((key, value))
    if "experiment" not in fields:
        raise ValueError("config missing the 'experiment' key")
    return ExperimentConfig(experiment=str(fields["experiment"]),
                            seed=int(fields.get("seed", 0)),
                            output_dir=str(fields.get("output_dir", ".")),
                            options=tuple(options))


@dataclass
class ReportRow:
    quantity: str
    theory: float
    measured: float
    tol: float
    passed: bool


@dataclass
class RunReport:
    rows: list
    provenance: dict
    figures: dict = field(default_factory=dict)  # name -> (t, value) pairs
    tables: dict = field(default_factory=dict)   # name -> (header, rows)
    flow: object = None  # the solved MeasureFlow of a solve experiment

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def add(self, quantity, theory, measured, tol, passed=None):
        if passed is None:
            passed = abs(measured - theory) <= tol
        self.rows.append(ReportRow(quantity, float(theory), float(measured),
                                   float(tol), bool(passed)))


def fit_exponent(pairs):
    """Ordinary least squares on (log t, log value); returns slope, intercept, r2."""
    pairs = list(pairs)
    if len(pairs) < 4:
        raise ValueError(f"need at least 4 points, got {len(pairs)}")
    t = np.array([p[0] for p in pairs], dtype=float)
    v = np.array([p[1] for p in pairs], dtype=float)
    if (t <= 0).any() or (v <= 0).any():
        raise ValueError("fit_exponent needs strictly positive values")
    lt, lv = np.log(t), np.log(v)
    slope, intercept = np.polyfit(lt, lv, 1)
    pred = slope * lt + intercept
    ss_res = float(((lv - pred) ** 2).sum())
    ss_tot = float(((lv - lv.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# shared setup helpers


def _grid_from(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(int(cfg.opt("dim", 1)), int(cfg.opt("grid_n", 1024)),
                    float(cfg.opt("grid_extent", 16.0)))


def _tol(cfg: ExperimentConfig, name: str) -> float:
    return float(cfg.opt(f"tol.{name}", DEFAULT_TOLERANCES[name]))


def _kernel_from(cfg: ExperimentConfig, grid: GridSpec) -> KernelSpec:
    name = str(cfg.opt("kernel", "zero"))
    kw = {}
    for k, v in cfg.options:
        if k.startswith("kernel."):
            kw[k.split(".", 1)[1]] = v
    return make_kernel(name, grid, **kw)


def _require(flag: bool, name: str, detail: str):
    if not flag:
        raise AdmissibilityError(f"{name} violated: {detail}")


def _gate(params: FlowParams, q: float | None = None):
    """Refuse ``params`` outside the smoothing gap, and, when ``q`` is given,
    outside the stability window and the transport-order window for ``q``."""
    info = eta_theta_params(params, q=q)
    _require(info["smoothing_gap_ok"], "smoothing-gap bound eta < 1 + 2*kappa",
             f"eta={info['eta']:.3f}, kappa={params.kappa:.3f}")
    if q is None:
        return
    _require(info["stability_window_ok"],
             "stability window eta < max(1, 1/2 + kappa) with the delta cap",
             f"eta={info['eta']:.3f}, delta={params.delta:.3f}, kappa={params.kappa:.3f}")
    _require(info["q_range_ok"], "transport-order window for q",
             f"q={q}, xi(q)={info['xi_q']:.3f}")


def _report(cfg: ExperimentConfig, grid: GridSpec) -> RunReport:
    return RunReport(rows=[], provenance={
        "config_hash": cfg.digest,
        "seed": cfg.seed,
        "grid": f"dim={grid.dim} n={grid.points_per_dim} extent={grid.extent:g}",
        "version": 1,
        "versions": {"mkvflow": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })


def _solve(cfg: ExperimentConfig, report: RunReport, gamma, kern, params,
           tol=1e-8, max_iter=25, steps=600):
    """``picard_solve`` with the caller's ``tol`` and the config's
    ``max_iter`` and ``steps`` over the given defaults; the settings are
    recorded in the provenance.  ``picard_solve`` is looked up at call time,
    so a caller may substitute it on this module."""
    settings = {"tol": tol, "max_iter": cfg.opt("max_iter", max_iter),
                "steps": cfg.opt("steps", steps)}
    report.provenance["solver"] = settings
    return picard_solve(gamma, kern, params, **settings)


# ---------------------------------------------------------------------------
# experiments


def _exp_heat_exponent(cfg: ExperimentConfig) -> RunReport:
    grid = GridSpec(1, int(cfg.opt("grid_n", 2048)), float(cfg.opt("grid_extent", 16.0)))
    report = _report(cfg, grid)
    # fit below the unit-window saturation scale: 1.5 decades inside [0.01, 1]
    t_lo = float(cfg.opt("t_lo", 0.01))
    t_hi = float(cfg.opt("t_hi", t_lo * 10**1.5))
    t_grid = np.geomspace(t_lo, t_hi, int(cfg.opt("t_points", 12)))
    cases = cfg.opt("cases") or ((0, 1.0, 0.0, 2.0, math.inf),
                                 (1, 0.0, 0.0, math.inf, math.inf),
                                 (0, 0.5, 0.0, 1.0, 2.0))
    tol = _tol(cfg, "heat_slope")
    for case in cases:
        i, delta, eps, k, p = case
        frm, to = SobolevIndex(float(delta), float(k)), SobolevIndex(float(eps), float(p))
        fit = operator_exponent_probe(int(i), frm, to, t_grid,
                                      probes=int(cfg.opt("probes", 24)),
                                      seed=cfg.seed, grid=grid)
        theory = heat_norm_exponent(int(i), frm, to, grid.dim)
        label = f"heat_slope(i={i},delta={delta:g},eps={eps:g},k={k:g},p={p:g})"
        report.add(label, theory, fit.slope, tol)
        report.figures[label] = list(zip(fit.t_values, fit.estimates))
    return report


def _expected_membership(variant, delta, k, dim):
    """Expected verdict of the membership study and the growth exponent.

    A kernel homogeneous of order m, |x|^-(d+m) at the origin, has a
    mollified norm growing like eps^-q* with q* = (d + m - delta - d/k)/2
    when q* >= 0, so a Dirac derivative of order m is bounded iff q* < 0.
    A smooth kernel is bounded, with q* = 0.
    """
    if isinstance(variant, DiracDerivative):
        m = variant.order
    elif isinstance(variant, RieszOrder):
        m = 2 * variant.n0 + variant.eps0 - 1
    else:
        return "bounded", 0.0
    q = (dim + m - delta - dim / k) / 2.0
    if isinstance(variant, DiracDerivative):
        return ("bounded" if q < 0 else "unbounded"), q
    tail = dim + variant.eps0 - 2.0
    bounded = delta >= 1 + 2 * variant.n0 and (tail <= 0 or k < dim / tail)
    return ("bounded" if bounded else "unbounded"), q


def _exp_kernel_membership(cfg: ExperimentConfig) -> RunReport:
    grid = _grid_from(cfg)
    report = _report(cfg, grid)
    spec = _kernel_from(cfg, grid)
    eps_list = cfg.opt("eps_list") or tuple(0.02 * 2.0**-j for j in range(7))
    deltas = cfg.opt("deltas")
    if deltas is None:
        indices = ((1.5, math.inf), (0.5, math.inf))
    else:
        ks = cfg.opt("ks")
        deltas = deltas if isinstance(deltas, tuple) else (deltas,)
        ks = ks if isinstance(ks, tuple) else (ks,) * len(deltas)
        indices = tuple(zip(deltas, ks))
    tol = _tol(cfg, "membership_exponent")
    for delta, k in indices:
        idx = SobolevIndex(float(delta), float(k))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "truncated .* unresolvable mollification times")
            study = kernel_norm_study(spec, idx, list(eps_list), grid)
        expect, q = _expected_membership(spec.variant, idx.delta, idx.k, grid.dim)
        label = f"membership(delta={delta:g},k={k:g})"
        report.add(label + ".verdict", 1.0, 1.0 if study.verdict == expect else 0.0,
                   0.0, study.verdict == expect)
        if expect == "unbounded":
            q = max(q, 0.0)
            if isinstance(spec.variant, DiracDerivative):
                report.add(label + ".growth_slope", -q, -study.growth_exponent, tol)
            else:
                report.add(label + ".growth_exponent", q, study.growth_exponent, tol)
        report.figures[label] = list(zip(study.eps_values, study.norms))
    return report


def _solve_setup(cfg: ExperimentConfig, default_T=0.5, t_lo=None):
    """Grid, flow parameters and kernel; ``n_times`` output times up to T,
    linear from ``t_first`` (T/10), or geometric from ``t_lo`` if given."""
    grid = _grid_from(cfg)
    T = float(cfg.opt("T", default_T))
    if t_lo is None:
        time_grid = np.linspace(float(cfg.opt("t_first", T / 10)), T,
                                int(cfg.opt("n_times", 10)))
    else:
        time_grid = np.geomspace(float(cfg.opt("t_lo", t_lo)), T,
                                 int(cfg.opt("n_times", 8)))
    params = FlowParams(
        delta=float(cfg.opt("delta", 1.0)),
        k=float(cfg.opt("k", 2.0)),
        eps=float(cfg.opt("eps", 0.0)),
        p=float(cfg.opt("p", math.inf)),
        kappa=float(cfg.opt("kappa", 0.0)),
        T=T, time_grid=tuple(time_grid), dim=grid.dim)
    return grid, params, _kernel_from(cfg, grid)


def _exp_solve(cfg: ExperimentConfig) -> RunReport:
    grid, params, kern = _solve_setup(cfg)
    _gate(params)
    report = _report(cfg, grid)
    gamma = gaussian_density(grid, float(cfg.opt("gamma_mean", 0.0)),
                             float(cfg.opt("gamma_var", 0.04)))
    tol_res = _tol(cfg, "residual")
    max_iter = cfg.opt("max_iter", 20)
    report.flow, rep = _solve(cfg, report, gamma, kern, params,
                              tol=tol_res, max_iter=max_iter)
    ratio = max(rep.contraction_ratios) if rep.contraction_ratios else 0.0
    report.add("contraction_ratio", 0.0, ratio, _tol(cfg, "contraction_ratio"),
               ratio < _tol(cfg, "contraction_ratio"))
    report.add("fixed_point_residual", 0.0, rep.residual, tol_res,
               rep.residual < tol_res)
    report.add("iterations", 0.0, rep.iterations, float(max_iter),
               rep.iterations <= max_iter)
    report.add("blowup", 0.0, 1.0 if rep.blowup else 0.0, 0.0, not rep.blowup)
    # lambda sweep from cached per-time gaps: ratios non-increasing in lambda
    lam_list = cfg.opt("lambda_list") or (0.0, 1.0, 10.0, 100.0)
    worst = [max(contraction_ratios(rep.gap_series, params, lam)[:4], default=0.0)
             for lam in lam_list]
    mono = all(b <= a * (1 + 1e-9) for a, b in zip(worst, worst[1:]))
    report.add("lambda_monotone", 1.0, 1.0 if mono else 0.0, 0.0, mono)
    report.figures["contraction_ratio_vs_lambda"] = list(zip(lam_list, worst))
    report.figures["decay_trajectory"] = list(zip(report.flow.times, rep.decay_trajectory))
    return report


def _exp_decay(cfg: ExperimentConfig) -> RunReport:
    grid, params, kern = _solve_setup(cfg)
    _gate(params)
    report = _report(cfg, grid)
    r_list = cfg.opt("r_list") or (0.02, 0.01, 0.005)
    tol = float(cfg.opt("tol", 1e-8))
    sups = []
    for r in r_list:
        gamma = gaussian_density(grid, 0.0, float(r), normalize=True)
        flow, rep = _solve(cfg, report, gamma, kern, params, tol=tol)
        keep = flow.times >= float(r)
        sup = float(np.max(rep.decay_trajectory[keep]))
        sups.append(sup)
        report.figures[f"decay_r={r:g}"] = list(zip(flow.times, rep.decay_trajectory))
        report.add(f"decay_sup(r={r:g})", sups[0], sup, math.inf, True)
    spread = (max(sups) - min(sups)) / np.mean(sups)
    report.add("decay_spread", 0.0, spread, _tol(cfg, "decay_spread"),
               spread <= _tol(cfg, "decay_spread"))
    return report


def _exp_stability(cfg: ExperimentConfig) -> RunReport:
    # the fit window stays below the Bessel length scale: at sqrt(t) ~ 1 the
    # subleading part of the smoothing weight bends the true norm slope away
    # from its short-time exponent (same effect as in the heat-exponent fits)
    grid, params, kern = _solve_setup(cfg, default_T=0.2, t_lo=0.02)
    _gate(params, q=1.0)
    report = _report(cfg, grid)
    r = float(cfg.opt("gamma_var", 0.002))
    h_list = cfg.opt("h_list") or (0.02, 0.05, 0.1)
    tol = float(cfg.opt("tol", 1e-8))
    t_grid = np.asarray(params.time_grid)
    idx = params.running_index
    base_gamma = gaussian_density(grid, 0.0, r, normalize=True)
    base_flow, _ = _solve(cfg, report, base_gamma, kern, params, tol=tol)
    ratios = {}      # amalgam bracket, used for the linearity check
    ratios_lo = {}   # probe bracket, used for the exponent fit
    for h in h_list:
        g2 = gaussian_density(grid, float(h), r, normalize=True)
        flow2, _ = _solve(cfg, report, g2, kern, params, tol=tol)
        w1 = wasserstein_1d(base_gamma, g2, 1.0)
        hi, lo = [], []
        for a, b in zip(base_flow.densities, flow2.densities):
            diff = ScalarField(grid, a.values - b.values)
            hi.append(measure_dual_norm(diff, idx, "amalgam") / w1)
            lo.append(measure_dual_norm(diff, idx, "probe", probes=32,
                                        seed=cfg.seed) / w1)
        ratios[h] = np.asarray(hi)
        ratios_lo[h] = np.asarray(lo)
        report.figures[f"stability_h={h:g}"] = list(zip(t_grid, hi))
    theory_slope = -(1.0 + params.delta) / 2.0 - grid.dim / (2.0 * params.k)
    # exponent from the certified lower bracket: the single-witness pairing
    # tracks the windowed scaling, while the cell-sum surrogate inflates with
    # the spatial spread of the difference (its fit is kept as a diagnostic)
    mean_lo = np.mean([ratios_lo[h] for h in h_list], axis=0)
    slope, _, _ = fit_exponent(list(zip(t_grid, mean_lo)))
    report.add("stability_slope", theory_slope, slope, _tol(cfg, "stability_slope"))
    mean_hi = np.mean([ratios[h] for h in h_list], axis=0)
    slope_hi, _, _ = fit_exponent(list(zip(t_grid, mean_hi)))
    report.add("stability_slope_upper_bracket", theory_slope, slope_hi,
               math.inf, True)
    spreads = []
    for j in range(t_grid.size):
        vals = [ratios[h][j] for h in h_list]
        spreads.append((max(vals) - min(vals)) / np.mean(vals))
    lin = max(spreads)
    report.add("stability_linearity", 0.0, lin, _tol(cfg, "stability_linearity"),
               lin <= _tol(cfg, "stability_linearity"))
    return report


def _exp_entropy_cost(cfg: ExperimentConfig) -> RunReport:
    grid, params, kern = _solve_setup(cfg, t_lo=0.05)
    _gate(params, q=1.0)
    report = _report(cfg, grid)
    r = float(cfg.opt("gamma_var", 0.04))
    h = float(cfg.opt("gamma_shift", 0.1))
    tol = float(cfg.opt("tol", 1e-8))
    t_grid = np.asarray(params.time_grid)
    g1 = gaussian_density(grid, 0.0, r, normalize=True)
    g2 = gaussian_density(grid, h, r, normalize=True)
    w2 = wasserstein_1d(g1, g2, 2.0)
    f1, _ = _solve(cfg, report, g1, kern, params, tol=tol)
    f2, _ = _solve(cfg, report, g2, kern, params, tol=tol)
    measured = []
    for t, a, b in zip(t_grid, f1.densities, f2.densities):
        ent = relative_entropy(a, b)
        measured.append(ent * t / w2**2)
    measured = np.asarray(measured)
    report.figures["entropy_cost_ratio"] = list(zip(t_grid, measured))
    if kernel_vanishes(kern):
        analytic = t_grid / (2.0 * (r + t_grid))
        gap = float(np.max(np.abs(measured - analytic)))
        report.add("entropy_ratio_analytic_gap", 0.0, gap, 0.01, gap <= 0.01)
        bound = _tol(cfg, "entropy_zero_bound")
        report.add("entropy_ratio_bound", bound, float(measured.max()), bound,
                   bool(measured.max() <= bound))
    else:
        bound = _tol(cfg, "entropy_kernel_bound")
        report.add("entropy_envelope", bound, float(measured.max()), bound,
                   bool(measured.max() <= bound))
    return report


_STUDY_N = (250, 1000, 4000)  # particle counts and repeats of the particles study
_STUDY_REPEATS = 10


def _exp_particles(cfg: ExperimentConfig) -> RunReport:
    grid, params, kern = _solve_setup(cfg)
    report = _report(cfg, grid)
    r0 = float(cfg.opt("gamma_var", 0.04))
    gamma = gaussian_density(grid, 0.0, r0)
    N_list = cfg.opt("N_list", _STUDY_N)
    repeats = cfg.opt("repeats", _STUDY_REPEATS)
    flow, _ = _solve(cfg, report, gamma, kern, params, steps=400)
    dt = float(cfg.opt("dt", 0.0025))
    zero = kernel_vanishes(kern)
    sim = SimConfig(grid=grid, dt=dt, T=params.T, seed=cfg.seed,
                    kernel=None if zero else kern,
                    initial=GaussianSpec((0.0,), r0), checkpoints=(params.T,))
    study = chaos_convergence_study(sim, list(N_list), flow, repeats=repeats)
    report.tables["particle_errors"] = (("N", "seed", "t", "W1", "L1"),
                                        study["rows"])
    Ns = sorted(study["summary"])
    means = [study["summary"][N][0] for N in Ns]
    sds = [study["summary"][N][1] for N in Ns]
    report.figures["w1_vs_N"] = list(zip(Ns, means))
    if zero:
        # three N values by design; the 4-point gate of fit_exponent is for
        # time sweeps
        slope = float(np.polyfit(np.log(Ns), np.log(means), 1)[0])
        report.add("mc_rate_slope", -0.5, slope, _tol(cfg, "mc_rate_slope"))
    inversions = sum(1 for j in range(1, len(Ns))
                     if means[j] > means[j - 1] + sds[j - 1])
    report.add("w1_monotone_in_N", 0.0, float(inversions), 1.0, inversions <= 1)
    report.add("seed_failures", 0.0, float(len(study["failures"])), 0.0,
               not study["failures"])
    return report


_RUNNERS = {
    "heat_exponent": _exp_heat_exponent,
    "kernel_membership": _exp_kernel_membership,
    "solve": _exp_solve,
    "decay": _exp_decay,
    "stability": _exp_stability,
    "entropy_cost": _exp_entropy_cost,
    "particles": _exp_particles,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Dispatch one experiment; deterministic given (config, seed)."""
    return _RUNNERS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# emission


_REPORT_HEADER = ["quantity", "theory", "measured", "tol", "pass"]
REPORT_FORMATS = ("csv", "json", "plotdata")


def emit_report(report: RunReport, out_dir, name: str = "report",
                formats=("csv", "json")):
    """Write the report as CSV (fixed column order), a JSON mirror, and
    optional two-column plotdata files per figure; ``formats`` is drawn from
    ``REPORT_FORMATS``."""
    unknown = [f for f in formats if f not in REPORT_FORMATS]
    if unknown:
        raise ValueError(f"unknown report formats {unknown}; choose from {REPORT_FORMATS}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "csv" in formats:
        path = os.path.join(out_dir, f"{name}.csv")
        # labels such as "norm(delta=1, k=2)" carry commas; csv quotes them
        write_csv_rows(path, _REPORT_HEADER,
                       [(r.quantity, r.theory, r.measured, r.tol, r.passed) for r in report.rows])
        written.append(path)
    if "json" in formats:
        path = os.path.join(out_dir, f"{name}.json")
        payload = {
            "rows": [{"quantity": r.quantity, "theory": r.theory,
                      "measured": r.measured, "tol": r.tol, "pass": r.passed}
                     for r in report.rows],
            "provenance": report.provenance,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        written.append(path)
    if "plotdata" in formats:
        for fig, pairs in report.figures.items():
            safe = _safe_name(fig)
            path = os.path.join(out_dir, f"{name}.{safe}.dat")
            with open(path, "w") as fh:
                for t, v in pairs:
                    fh.write(f"{t:.17g} {v:.17g}\n")
            written.append(path)
    for tname, (header, rows) in report.tables.items():
        path = os.path.join(out_dir, f"{name}.{_safe_name(tname)}.csv")
        write_csv_rows(path, header, rows)
        written.append(path)
    return written


def _safe_name(s: str) -> str:
    return "".join(c if c.isalnum() or c in "._-=" else "_" for c in s)


def parse_report_csv(path) -> RunReport:
    """Read a report CSV; any line that is not a report row is a ``ValueError``."""
    rows = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        try:
            header = next(rd, [])
            if header != _REPORT_HEADER:
                raise ValueError(f"unexpected report header {header}")
            for row in rd:
                if len(row) != len(_REPORT_HEADER) or row[-1] not in ("true", "false"):
                    raise ValueError(f"line {rd.line_num}: not a report row: {row}")
                q, th, me, tol, ps = row
                rows.append(ReportRow(q, float(th), float(me), float(tol), ps == "true"))
        except csv.Error as exc:
            raise ValueError(f"line {rd.line_num}: {exc}") from None
    return RunReport(rows=rows, provenance={})
