"""Command-line front end.

Subcommands expose the norm calculator, kernel membership studies,
configuration-driven experiments and report reprinting.  ``solve`` runs the
solve experiment built from its flags and can dump the solved flow.  Each
run writes its report as one row CSV and one JSON with the provenance,
figures and tables.  The exit code is zero exactly when every pass flag in
the produced report is true.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .experiments import (
    AdmissibilityError,
    ExperimentConfig,
    emit_report,
    parse_config,
    parse_report_csv,
    run_experiment,
)
from .flowio import flow_density_table, write_csv_rows, write_flow
from .grids import GridSpec, gaussian_density
from .kernels import kernel_norm_study, make_kernel
from .norms import SobolevIndex, local_neg_norm, measure_dual_bracket
from .solver import DegradedAccuracyError, NoContractionError


def _add_grid(p, n=1024, extent=16.0, note=""):
    p.add_argument("--grid", type=int, default=n, help="points per axis" + note)
    p.add_argument("--extent", type=float, default=extent, help="torus side" + note)


def build_parser():
    ap = argparse.ArgumentParser(prog="mkvflow",
                                 description="windowed-norm / mean-field flow toolbox")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="windowed norm and dual bracket of a Gaussian datum")
    _add_grid(p)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--var", type=float, default=0.04)
    p.add_argument("--mean", type=float, default=0.0)

    p = sub.add_parser("kernel-study", help="membership norm study for a catalog kernel")
    _add_grid(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--kernel", default="dirac")
    p.add_argument("--delta", type=float, default=1.5)
    p.add_argument("--k", type=float, default=math.inf)
    p.add_argument("--eps-list", default="0.02,0.01,0.005,0.0025,0.00125")

    p = sub.add_parser("solve", help="the solve experiment for a catalog kernel")
    _add_grid(p)
    p.add_argument("--out", default=".", help="report directory")
    p.add_argument("--kernel", default="riesz")
    p.add_argument("--c", type=float, default=0.2)
    p.add_argument("--kappa", type=float, default=0.75)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--gamma-var", type=float, default=0.04)
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--dump-flow", default=None, help="write the flow binary here")
    p.add_argument("--dump-csv", default=None, help="write per-time density tables here")

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: the config's, else 0)")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    _add_grid(p, None, None, " (overrides config; default: the experiment's, 1024 points "
              "or heat_exponent's 2048, extent 16)")

    p = sub.add_parser("report", help="reprint a report CSV; exit 0 iff all rows pass")
    p.add_argument("path")
    return ap


def _cmd_norm(args, grid: GridSpec) -> int:
    idx = SobolevIndex(args.delta, args.k)
    f = gaussian_density(grid, args.mean, args.var, normalize=True)
    nrm, br = local_neg_norm(f, idx), measure_dual_bracket(f, idx)
    print(f"local_neg_norm  = {nrm:.6g}")
    print(f"dual bracket    = [{br['probe']:.6g}, {br['amalgam']:.6g}] "
          f"(ratio {br['ratio']:.3f})")
    return 0


def _cmd_kernel_study(args, grid: GridSpec) -> int:
    spec = make_kernel(args.kernel, grid, eps=1.0)
    eps_list = [float(x) for x in args.eps_list.split(",")]
    study = kernel_norm_study(spec, SobolevIndex(args.delta, args.k), eps_list, grid)
    rows = study.rows()
    path = os.path.join(args.out, "kernel_study.csv")
    write_csv_rows(path, ["eps", "norm", "verdict"], rows)
    for eps, nrm, verdict in rows:
        print(f"eps={eps:<10g} norm={nrm:<12.6g} {verdict}")
    print(f"verdict: {study.verdict} (growth exponent {study.growth_exponent:.3f})")
    print(f"wrote {path}")
    return 0


def _solve_config(args) -> ExperimentConfig:
    """The solve experiment of the flags.  It stops at residual 1e-8 or after
    25 iterations, as ``picard_solve`` does by default."""
    options = (("grid_n", args.grid), ("grid_extent", args.extent),
               ("kernel", args.kernel), ("kernel.c", args.c),
               ("kernel.kappa", args.kappa), ("kappa", args.kappa),
               ("delta", args.delta), ("k", args.k), ("T", args.T),
               ("gamma_var", args.gamma_var), ("steps", args.steps),
               ("tol.residual", 1e-8), ("max_iter", 25))
    return ExperimentConfig("solve", output_dir=args.out, options=options)


def _experiment_config(args) -> ExperimentConfig:
    """The config file's experiment, or the named one with its defaults;
    explicit flags override either."""
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    elif args.name is None:
        raise SystemExit("experiment name or --config required")
    else:
        cfg = ExperimentConfig(args.name)
    flags = {k: v for k, v in (("grid_n", args.grid), ("grid_extent", args.extent))
             if v is not None}
    options = tuple((k, flags.get(k, v)) for k, v in cfg.options)
    options += tuple((k, v) for k, v in flags.items() if cfg.opt(k) is None)
    seed = cfg.seed if args.seed is None else args.seed
    out = cfg.output_dir if args.out is None else args.out
    return ExperimentConfig(cfg.experiment, seed, out, options)


def _print_rows(report) -> int:
    for r in report.rows:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.quantity}: measured {r.measured:.6g} "
              f"(theory {r.theory:.6g}, tol {r.tol:.3g})")
    return 0 if report.all_passed else 1


def _cmd_experiment(args, cfg: ExperimentConfig) -> int:
    """Run and emit; a refusal exits 2, an unconverged solve 1, other errors reach ``main``."""
    try:
        report = run_experiment(cfg)
    except AdmissibilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (NoContractionError, DegradedAccuracyError) as exc:
        print(f"mkvflow {args.command}: error: {exc}", file=sys.stderr)
        return 1
    written = emit_report(report, cfg.output_dir or ".", name=f"{cfg.experiment}_{cfg.digest}")
    if getattr(args, "dump_flow", None):
        write_flow(report.flow, args.dump_flow)
        written.append(args.dump_flow)
    if getattr(args, "dump_csv", None):
        flow_density_table(report.flow, args.dump_csv)
        written.append(args.dump_csv)
    rc = _print_rows(report)
    for path in written:
        print(f"wrote {path}")
    return rc


def main(argv=None) -> int:
    """Run one subcommand; a rejected input or a file error is one line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _print_rows(parse_report_csv(args.path))
        if args.command == "norm":
            return _cmd_norm(args, GridSpec(1, args.grid, args.extent))
        if args.command == "kernel-study":
            return _cmd_kernel_study(args, GridSpec(1, args.grid, args.extent))
        setup = _solve_config(args) if args.command == "solve" else _experiment_config(args)
        return _cmd_experiment(args, setup)
    except (OSError, ValueError) as exc:
        print(f"mkvflow {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
