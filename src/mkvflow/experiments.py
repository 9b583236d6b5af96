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
from .solver import (FlowParams, _require_int, _require_tol, contraction_ratios, picard_solve,
                     picard_solve_many)

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

# documented default tolerances; every pass/fail row cites its entry, or the
# fixed_point_residual row its solves' tol
DEFAULT_TOLERANCES = {
    "heat_slope": 0.08,
    "membership_exponent": 0.1,
    "contraction_ratio": 0.9,
    "residual": 1e-6,
    "decay_sup": 0.05,
    "decay_spread": 0.20,
    "shift_limit_rate": 0.0,  # one-sided: how far the rate may fall below 1/2
    "stability_slope": 0.1,
    "stability_slope_upper_bracket": 0.15,
    "stability_linearity": 0.10,
    "entropy_ratio_analytic_gap": 0.01,
    "entropy_zero_bound": 0.5,
    "entropy_kernel_bound": 1.0,
    "mc_rate_slope": 0.15,
    "w1_monotone_in_N": 1.0,
}

# Every key each experiment reads, with its default, whose type is the key's
# kind: one value of a tuple key reads as a one-element tuple, an int key
# takes a positive int, and t_first (None: T/10) a float.  An experiment that
# reads `kernel` also reads the `kernel.<param>` keys, which make_kernel checks.
_GRID = {"dim": 1, "grid_n": 1024, "grid_extent": 16.0}
_KERNEL = {"kernel": "zero", "kappa": 0.0}
_SOLVER = {"steps": 600, "max_iter": 25, "tol": 1e-8}
_FLOW = {"T": 0.5, "n_times": 8, "delta": 1.0, "k": 2.0}  # geometric output times
_LINEAR_FLOW = {**_FLOW, "t_first": None, "n_times": 10}  # linear from t_first
_OPTIONS = {
    "heat_exponent": {"grid_n": 2048, "grid_extent": 16.0},
    "kernel_membership": {**_GRID, **_KERNEL, "deltas": (1.5, 0.5), "ks": (math.inf,) * 2},
    "solve": {**_GRID, **_KERNEL, **_LINEAR_FLOW, **_SOLVER, "max_iter": 20,
              "tol": DEFAULT_TOLERANCES["residual"], "gamma_var": 0.04},
    "decay": {**_GRID, **_KERNEL, **_LINEAR_FLOW, **_SOLVER, "r_list": (0.02, 0.01, 0.005)},
    "stability": {**_GRID, **_KERNEL, **_FLOW, **_SOLVER, "T": 0.2, "gamma_var": 0.002,
                  "h_list": (0.02, 0.05, 0.1)},
    "entropy_cost": {**_GRID, **_KERNEL, **_FLOW, **_SOLVER, "gamma_var": 0.04,
                     "gamma_shift": 0.1},
    # stops at picard_solve's default tolerance 1e-8
    "particles": {**_GRID, **_KERNEL, **_LINEAR_FLOW, "steps": 400, "max_iter": 25,
                  "gamma_var": 0.04, "dt": 0.0025, "N_list": (250, 1000, 4000), "repeats": 10},
}
EXPERIMENTS = tuple(_OPTIONS)
# settings that no config key sets
_HEAT_CASES = ((0, 1.0, 0.0, 2.0, math.inf),  # (i, delta, eps, k, p) per fit
               (1, 0.0, 0.0, math.inf, math.inf),
               (0, 0.5, 0.0, 1.0, 2.0))
_MEMBERSHIP_EPS = tuple(0.02 * 2.0**-j for j in range(7))
_LAMBDAS = (0.0, 1.0, 10.0, 100.0)


class AdmissibilityError(ValueError):
    """Parameter set violates a condition of the targeted estimate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment and its options, checked as ``_options`` reads them;
    ``seed`` must be a non-negative int, ``tol`` positive and finite, a
    kernel that does not vanish must carry the envelope exponent
    ``kernel.kappa`` equal to the admissibility exponent ``kappa``, a
    particle study two or more counts, and ``ks`` one entry per entry of
    ``deltas``."""

    experiment: str
    seed: int = 0
    output_dir: str = "."
    options: tuple = ()  # flat (key, value) pairs beyond the fixed fields

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {EXPERIMENTS}")
        _require_int("seed", self.seed, 0)
        o = _options(self)
        if "tol" in o:
            _require_tol(o["tol"], "tol")
        grid = _grid(o)
        if "kernel" in o:
            kern = _kernel(o, grid)
            if not kernel_vanishes(kern) and kern.modulation.kappa != o["kappa"]:
                raise ValueError(f"kernel.kappa = {kern.modulation.kappa:g} differs from "
                                 f"kappa = {o['kappa']:g}: the drift envelope must match "
                                 f"the admissibility exponent")
        if "N_list" in o:
            _check_study_sizes(o["N_list"], o["repeats"])
            if len(o["N_list"]) < 2:
                raise ValueError(f"N_list must be a list of distinct ints >= 2, two or more "
                                 f"for a rate, got {o['N_list']!r}")
        if "deltas" in o and len(o["deltas"]) != len(o["ks"]):
            raise ValueError(f"deltas {o['deltas']!r} and ks {o['ks']!r} differ in length")

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


def _options(cfg: ExperimentConfig) -> dict:
    """The experiment's ``_OPTIONS`` entry with the config's values over its
    defaults, each of its default's kind, and the config's ``kernel.<param>``
    keys; a key the experiment does not read, or one set twice, is a ``ValueError``."""
    entry, keys = _OPTIONS[cfg.experiment], [k for k, _ in cfg.options]
    kernel = "kernel" in entry
    unread = [k for k in keys if k not in entry and not (kernel and k.startswith("kernel."))]
    if unread:
        raise ValueError(f"{cfg.experiment} does not read {', '.join(unread)}; it reads "
                         f"{', '.join(entry)}{', kernel.<param>' if kernel else ''}")
    twice = sorted({k for k in keys if keys.count(k) > 1})
    if twice:
        raise ValueError(f"{', '.join(twice)} is set more than once")
    out = {k: d if cfg.opt(k) is None else _of_kind(k, cfg.opt(k), d) for k, d in entry.items()}
    out.update((k, v) for k, v in cfg.options if k.startswith("kernel."))
    return out


def _of_kind(key: str, value, default):
    """``value`` as ``default``'s kind: a tuple of its first entry's kind, a
    positive int, or a float (for a float or None default); the one str key,
    the kernel name, is make_kernel's to check."""
    if isinstance(default, tuple):
        value = value if isinstance(value, (tuple, list)) else (value,)
        return tuple(_of_kind(f"each {key} entry", v, default[0]) for v in value)
    if isinstance(default, int):
        _require_int(key, value)
    elif not isinstance(default, str):
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{key} must be a number, got {value!r}")
        return float(value)
    return value


def _grid(o: dict) -> GridSpec:
    return GridSpec(o.get("dim", 1), o["grid_n"], o["grid_extent"])  # heat_exponent is 1-d


def _kernel(o: dict, grid: GridSpec) -> KernelSpec:
    kw = {k.split(".", 1)[1]: v for k, v in o.items() if k.startswith("kernel.")}
    return make_kernel(o["kernel"], grid, **kw)


def _require(flag: bool, name: str, detail: str):
    if not flag:
        raise AdmissibilityError(f"{name} violated: {detail}")


def _gate(params: FlowParams, window: bool = False):
    """Refuse ``params`` outside the smoothing gap eta < 1 + 2 kappa, and, with
    ``window``, outside the stability window eta < max(1, 1/2 + kappa).  The
    window implies the delta cap delta < min(1, 2 - d/k) + max(2 kappa - eta, 0)
    (for kappa <= 1/2 it gives delta < 1 - d/k; above, 2 eta < 1 + 2 kappa),
    so the cap is not checked apart."""
    eta, kappa = params.eta, params.kappa
    _require(eta < 1.0 + 2.0 * kappa, "smoothing-gap bound eta < 1 + 2*kappa",
             f"eta={eta:.3f}, kappa={kappa:.3f}")
    if window:
        _require(eta < max(1.0, 0.5 + kappa), "stability window eta < max(1, 1/2 + kappa)",
                 f"eta={eta:.3f}, kappa={kappa:.3f}")


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


def _solve(o: dict, report: RunReport, gammas: list, kern, params) -> list:
    """One ``(flow, report)`` per datum of ``gammas``, solved with the
    config's ``steps``, ``max_iter`` and ``tol`` (1e-8 for particles), which
    the provenance records.  Several data march as one stack through
    ``picard_solve_many``, each bit-identical to its own solve; one datum
    goes through ``picard_solve``.  Both are looked up at call time, so a
    caller may substitute them on this module.
    Adds the experiment's one ``fixed_point_residual`` row: the worst
    residual of the solves, passing iff each is below ``tol``."""
    settings = {"tol": o.get("tol", 1e-8),
                "max_iter": o["max_iter"], "steps": o["steps"]}
    report.provenance["solver"] = settings
    solved = (picard_solve_many(gammas, kern, params, **settings) if len(gammas) > 1
              else [picard_solve(gammas[0], kern, params, **settings)])
    tol, res = settings["tol"], max(rep.residual for _, rep in solved)
    report.add("fixed_point_residual", 0.0, res, tol, res < tol)
    return solved


def _decay(flow, params: FlowParams):
    """The decay trajectory ``t^(eta/2) |mu_t|`` on the flow's times, in the
    running index's amalgam norm, and whether a norm blew up past 1e6."""
    norms = np.array([measure_dual_norm(rho, params.running_index, "amalgam")
                      for rho in flow.densities])
    return flow.times**(0.5 * params.eta) * norms, bool((norms > 1e6).any())


# ---------------------------------------------------------------------------
# experiments


def _exp_heat_exponent(cfg: ExperimentConfig) -> RunReport:
    o = _options(cfg)
    grid = _grid(o)
    report = _report(cfg, grid)
    # fit below the unit-window saturation scale: 1.5 decades inside [0.01, 1]
    t_grid = np.geomspace(0.01, 0.01 * 10**1.5, 12)
    for i, delta, eps, k, p in _HEAT_CASES:
        frm, to = SobolevIndex(float(delta), float(k)), SobolevIndex(float(eps), float(p))
        fit = operator_exponent_probe(i, frm, to, t_grid, grid=grid)
        theory = heat_norm_exponent(i, frm, to, grid.dim)
        label = f"heat_slope(i={i},delta={delta:g},eps={eps:g},k={k:g},p={p:g})"
        report.add(label, theory, fit.slope, DEFAULT_TOLERANCES["heat_slope"])
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
    o = _options(cfg)
    grid = _grid(o)
    report = _report(cfg, grid)
    spec = _kernel(o, grid)
    tol = DEFAULT_TOLERANCES["membership_exponent"]
    for delta, k in zip(o["deltas"], o["ks"]):
        idx = SobolevIndex(delta, k)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "truncated .* unresolvable mollification times")
            study = kernel_norm_study(spec, idx, list(_MEMBERSHIP_EPS), grid)
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


def _solve_setup(cfg: ExperimentConfig, t_lo=None):
    """Options, grid, flow parameters and kernel; ``n_times`` output times up
    to T, linear from ``t_first``, or geometric from ``t_lo`` if given."""
    o = _options(cfg)
    grid = _grid(o)
    T = o["T"]
    if t_lo is None:
        t_first = T / 10 if o["t_first"] is None else o["t_first"]
        time_grid = np.linspace(t_first, T, o["n_times"])
    else:
        time_grid = np.geomspace(t_lo, T, o["n_times"])
    params = FlowParams(delta=o["delta"], k=o["k"], kappa=o["kappa"], T=T,
                        time_grid=tuple(time_grid), dim=grid.dim)
    return o, grid, params, _kernel(o, grid)


def _exp_solve(cfg: ExperimentConfig) -> RunReport:
    o, grid, params, kern = _solve_setup(cfg)
    _gate(params)
    report = _report(cfg, grid)
    gamma = gaussian_density(grid, 0.0, o["gamma_var"])
    ((report.flow, rep),) = _solve(o, report, [gamma], kern, params)
    ratio = max(rep.contraction_ratios) if rep.contraction_ratios else 0.0
    tol_ratio = DEFAULT_TOLERANCES["contraction_ratio"]
    report.add("contraction_ratio", 0.0, ratio, tol_ratio, ratio < tol_ratio)
    report.add("iterations", 0.0, rep.iterations, float(o["max_iter"]),
               rep.iterations <= o["max_iter"])
    trajectory, blowup = _decay(report.flow, params)
    report.add("blowup", 0.0, 1.0 if blowup else 0.0, 0.0, not blowup)
    # lambda sweep from cached per-time gaps: ratios non-increasing in lambda
    worst = [max(contraction_ratios(rep.gap_series, params, lam)[:4], default=0.0)
             for lam in _LAMBDAS]
    mono = all(b <= a * (1 + 1e-9) for a, b in zip(worst, worst[1:]))
    report.add("lambda_monotone", 1.0, 1.0 if mono else 0.0, 0.0, mono)
    report.figures["contraction_ratio_vs_lambda"] = list(zip(_LAMBDAS, worst))
    report.figures["decay_trajectory"] = list(zip(report.flow.times, trajectory))
    return report


def _exp_decay(cfg: ExperimentConfig) -> RunReport:
    o, grid, params, kern = _solve_setup(cfg)
    _gate(params)
    report = _report(cfg, grid)
    sups = []
    r_list = o["r_list"]
    gammas = [gaussian_density(grid, 0.0, r, normalize=True) for r in r_list]
    flows = [flow for flow, _ in _solve(o, report, gammas, kern, params)]
    for r, flow in zip(r_list, flows):
        trajectory, _ = _decay(flow, params)
        sup = float(np.max(trajectory[flow.times >= r]))
        sups.append(sup)
        report.figures[f"decay_r={r:g}"] = list(zip(flow.times, trajectory))
        report.add(f"decay_sup(r={r:g})", sups[0], sup, DEFAULT_TOLERANCES["decay_sup"])
    spread = (max(sups) - min(sups)) / np.mean(sups)
    report.add("decay_spread", 0.0, spread, DEFAULT_TOLERANCES["decay_spread"])
    if len(r_list) >= 3:
        # Cauchy rate as r -> 0: the log-log slope of the L1 distances at T
        # between the flows from consecutive r.  Wasserstein stability gives
        # at least 1/2, since W1(N(0, r), N(0, r/2)) is proportional to sqrt(r);
        # a zero distance has no logarithm and fails the row
        finals = [flow.densities[-1].values for flow in flows]
        dists = [np.abs(a - b).sum() * grid.cell_volume for a, b in zip(finals, finals[1:])]
        rate = (float(np.polyfit(np.log(r_list[:-1]), np.log(dists), 1)[0])
                if min(dists) > 0 else math.nan)
        tol = DEFAULT_TOLERANCES["shift_limit_rate"]
        report.add("shift_limit_rate", 0.5, rate, tol, rate >= 0.5 - tol)
    return report


def _exp_stability(cfg: ExperimentConfig) -> RunReport:
    # the fit window stays below the Bessel length scale: at sqrt(t) ~ 1 the
    # subleading part of the smoothing weight bends the true norm slope away
    # from its short-time exponent (same effect as in the heat-exponent fits)
    o, grid, params, kern = _solve_setup(cfg, t_lo=0.02)
    _gate(params, window=True)
    report = _report(cfg, grid)
    r, h_list = o["gamma_var"], o["h_list"]
    t_grid = np.asarray(params.time_grid)
    idx = params.running_index
    base_gamma = gaussian_density(grid, 0.0, r, normalize=True)
    shifted = [gaussian_density(grid, h, r, normalize=True) for h in h_list]
    (base_flow, _), *solved = _solve(o, report, [base_gamma] + shifted, kern, params)
    his, los = [], []  # per shift: amalgam (linearity) and probe (exponent) brackets
    for h, g2, (flow2, _) in zip(h_list, shifted, solved):
        w1 = wasserstein_1d(base_gamma, g2, 1.0)
        diffs = [ScalarField(grid, a.values - b.values)
                 for a, b in zip(base_flow.densities, flow2.densities)]
        his.append([measure_dual_norm(d, idx, "amalgam") / w1 for d in diffs])
        los.append([measure_dual_norm(d, idx, "probe") / w1 for d in diffs])
        report.figures[f"stability_h={h:g}"] = list(zip(t_grid, his[-1]))
    theory_slope = -(1.0 + params.delta) / 2.0 - grid.dim / (2.0 * params.k)
    # exponent from the certified lower bracket: the single-witness pairing
    # tracks the windowed scaling, while the cell-sum surrogate inflates with
    # the spatial spread of the difference (its fit is a looser check)
    slope, _, _ = fit_exponent(list(zip(t_grid, np.mean(los, axis=0))))
    report.add("stability_slope", theory_slope, slope,
               DEFAULT_TOLERANCES["stability_slope"])
    his = np.array(his)
    mean_hi = his.mean(axis=0)
    slope_hi, _, _ = fit_exponent(list(zip(t_grid, mean_hi)))
    report.add("stability_slope_upper_bracket", theory_slope, slope_hi,
               DEFAULT_TOLERANCES["stability_slope_upper_bracket"])
    lin = np.max((his.max(axis=0) - his.min(axis=0)) / mean_hi)
    report.add("stability_linearity", 0.0, lin, DEFAULT_TOLERANCES["stability_linearity"])
    return report


def _exp_entropy_cost(cfg: ExperimentConfig) -> RunReport:
    o, grid, params, kern = _solve_setup(cfg, t_lo=0.05)
    _gate(params, window=True)
    report = _report(cfg, grid)
    r, h = o["gamma_var"], o["gamma_shift"]
    t_grid = np.asarray(params.time_grid)
    g1 = gaussian_density(grid, 0.0, r, normalize=True)
    g2 = gaussian_density(grid, h, r, normalize=True)
    w2 = wasserstein_1d(g1, g2, 2.0)
    (f1, _), (f2, _) = _solve(o, report, [g1, g2], kern, params)
    measured = np.array([relative_entropy(a, b) * t / w2**2
                         for t, a, b in zip(t_grid, f1.densities, f2.densities)])
    report.figures["entropy_cost_ratio"] = list(zip(t_grid, measured))
    zero = kernel_vanishes(kern)
    if zero:
        gap = float(np.max(np.abs(measured - t_grid / (2.0 * (r + t_grid)))))
        report.add("entropy_ratio_analytic_gap", 0.0, gap,
                   DEFAULT_TOLERANCES["entropy_ratio_analytic_gap"])
    bound = DEFAULT_TOLERANCES["entropy_zero_bound" if zero else "entropy_kernel_bound"]
    report.add("entropy_ratio_bound" if zero else "entropy_envelope", bound,
               float(measured.max()), bound, bool(measured.max() <= bound))
    return report


def _exp_particles(cfg: ExperimentConfig) -> RunReport:
    o, grid, params, kern = _solve_setup(cfg)
    report = _report(cfg, grid)
    r0 = o["gamma_var"]
    ((flow, _),) = _solve(o, report, [gaussian_density(grid, 0.0, r0)], kern, params)
    zero = kernel_vanishes(kern)
    sim = SimConfig(grid=grid, dt=o["dt"], T=params.T, seed=cfg.seed,
                    kernel=None if zero else kern,
                    initial=GaussianSpec((0.0,), r0), checkpoints=(params.T,))
    study = chaos_convergence_study(sim, list(o["N_list"]), flow, repeats=o["repeats"])
    report.tables["particle_errors"] = (("N", "seed", "t", "W1", "L1"),
                                        study["rows"])
    Ns = sorted(study["summary"])
    means = [study["summary"][N][0] for N in Ns]
    sds = [study["summary"][N][1] for N in Ns]
    report.figures["w1_vs_N"] = list(zip(Ns, means))
    if zero:
        # few N values by design; the 4-point gate of fit_exponent is for time sweeps
        slope = float(np.polyfit(np.log(Ns), np.log(means), 1)[0])
        report.add("mc_rate_slope", -0.5, slope, DEFAULT_TOLERANCES["mc_rate_slope"])
    inversions = sum(1 for j in range(1, len(Ns))
                     if means[j] > means[j - 1] + sds[j - 1])
    report.add("w1_monotone_in_N", 0.0, inversions, DEFAULT_TOLERANCES["w1_monotone_in_N"])
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


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Dispatch one experiment; deterministic given (config, seed)."""
    return _RUNNERS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# emission


_REPORT_HEADER = ["quantity", "theory", "measured", "tol", "pass"]


def emit_report(report: RunReport, out_dir, name: str = "report"):
    """Write ``<name>.csv``, the rows in fixed column order, and ``<name>.json``,
    the rows with the provenance block, the figures (label -> ``[[t, value], ...]``)
    and the tables (name -> ``{"header", "rows"}``); return both paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    # labels such as "norm(delta=1, k=2)" carry commas; csv quotes them
    write_csv_rows(csv_path, _REPORT_HEADER,
                   [(r.quantity, r.theory, r.measured, r.tol, r.passed) for r in report.rows])
    json_path = os.path.join(out_dir, f"{name}.json")
    payload = {
        "rows": [{"quantity": r.quantity, "theory": r.theory,
                  "measured": r.measured, "tol": r.tol, "pass": r.passed}
                 for r in report.rows],
        "provenance": report.provenance,
        "figures": {label: [[float(t), float(v)] for t, v in pairs]
                    for label, pairs in report.figures.items()},
        "tables": {tname: {"header": list(header), "rows": [list(row) for row in rows]}
                   for tname, (header, rows) in report.tables.items()},
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return [csv_path, json_path]


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
