"""Command-line front end.

Subcommands expose the norm calculator, kernel membership studies, the
density solver, the particle simulator, configuration-driven experiments and
report reprinting.  The exit code is zero exactly when every pass flag in
the produced report is true.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

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
from .solver import FlowParams, picard_solve


def _add_common(p):
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: the config's, else 0)")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--grid", type=int, default=1024, help="points per axis")
    p.add_argument("--extent", type=float, default=16.0)
    p.add_argument("--threads", type=int, default=1)


def build_parser():
    ap = argparse.ArgumentParser(prog="mkvflow",
                                 description="windowed-norm / mean-field flow toolbox")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="windowed norm and dual bracket of a Gaussian datum")
    _add_common(p)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--var", type=float, default=0.04)
    p.add_argument("--mean", type=float, default=0.0)

    p = sub.add_parser("kernel-study", help="membership norm study for a catalog kernel")
    _add_common(p)
    p.add_argument("--kernel", default="dirac")
    p.add_argument("--delta", type=float, default=1.5)
    p.add_argument("--k", type=float, default=math.inf)
    p.add_argument("--eps-list", default="0.02,0.01,0.005,0.0025,0.00125")

    p = sub.add_parser("solve", help="fixed-point solve for a catalog kernel")
    _add_common(p)
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

    p = sub.add_parser("particles", help="particle run via the experiment harness")
    _add_common(p)
    p.add_argument("--config", default=None)

    p = sub.add_parser("experiment", help="run a named experiment")
    _add_common(p)
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--formats", default="csv,json")

    p = sub.add_parser("report", help="reprint a report CSV; exit 0 iff all rows pass")
    p.add_argument("path")
    return ap


def _cmd_norm(args) -> int:
    grid = GridSpec(1, args.grid, args.extent)
    idx = SobolevIndex(args.delta, args.k)
    f = gaussian_density(grid, args.mean, args.var, normalize=True)
    print(f"local_neg_norm  = {local_neg_norm(f, idx):.6g}")
    br = measure_dual_bracket(f, idx, seed=args.seed or 0)
    print(f"dual bracket    = [{br['probe']:.6g}, {br['amalgam']:.6g}] "
          f"(ratio {br['ratio']:.3f})")
    return 0


def _cmd_kernel_study(args) -> int:
    grid = GridSpec(1, args.grid, args.extent)
    spec = make_kernel(args.kernel, grid, eps=1.0)
    eps_list = [float(x) for x in args.eps_list.split(",")]
    study = kernel_norm_study(spec, SobolevIndex(args.delta, args.k), eps_list, grid)
    rows = study.rows()
    path = os.path.join(args.out or ".", "kernel_study.csv")
    write_csv_rows(path, ["eps", "norm", "verdict"], rows)
    for eps, nrm, verdict in rows:
        print(f"eps={eps:<10g} norm={nrm:<12.6g} {verdict}")
    print(f"verdict: {study.verdict} (growth exponent {study.growth_exponent:.3f})")
    print(f"wrote {path}")
    return 0


def _cmd_solve(args) -> int:
    grid = GridSpec(1, args.grid, args.extent)
    kern = make_kernel(args.kernel, grid, c=args.c, kappa=args.kappa)
    tg = tuple(np.linspace(args.T / 10, args.T, 10))
    params = FlowParams(delta=args.delta, k=args.k, kappa=args.kappa,
                        T=args.T, time_grid=tg)
    gamma = gaussian_density(grid, 0.0, args.gamma_var)
    flow, rep = picard_solve(gamma, kern, params, steps=args.steps)
    print(f"iterations          = {rep.iterations}")
    if rep.contraction_ratios:
        print(f"max contraction     = {max(rep.contraction_ratios):.4f}")
    print(f"residual            = {rep.residual:.3e}")
    print(f"decay sup           = {rep.decay_sup():.6g}")
    print(f"fitted envelope B   = {rep.fitted_B:.6g} (rate {rep.fitted_rate:.3g})")
    print(f"blowup              = {rep.blowup}")
    if args.dump_flow:
        write_flow(flow, args.dump_flow)
        print(f"wrote {args.dump_flow}")
    if args.dump_csv:
        flow_density_table(flow, args.dump_csv)
        print(f"wrote {args.dump_csv}")
    return 0 if (not rep.blowup and rep.residual < 1e-6) else 1


def _experiment_config(args, default_name) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        seed = cfg.seed if args.seed is None else args.seed
        out = args.out if args.out is not None else cfg.output_dir
        options = cfg.options
        if args.threads > 1 and cfg.opt("threads") is None:
            options = options + (("threads", args.threads),)
        return ExperimentConfig(cfg.experiment, seed, out, options)
    name = getattr(args, "name", None) or default_name
    if name is None:
        raise SystemExit("experiment name or --config required")
    options = [("grid_n", args.grid), ("grid_extent", args.extent),
               ("threads", args.threads)]
    return ExperimentConfig(name, args.seed or 0, args.out or ".", tuple(options))


def _cmd_experiment(args, default_name=None) -> int:
    cfg = _experiment_config(args, default_name)
    try:
        report = run_experiment(cfg)
    except AdmissibilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    formats = tuple(args.formats.split(",")) if hasattr(args, "formats") else ("csv", "json")
    written = emit_report(report, cfg.output_dir or ".",
                          name=f"{cfg.experiment}_{cfg.digest}", formats=formats)
    for r in report.rows:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.quantity}: measured {r.measured:.6g} "
              f"(theory {r.theory:.6g}, tol {r.tol:.3g})")
    for path in written:
        print(f"wrote {path}")
    return 0 if report.all_passed else 1


def _cmd_report(args) -> int:
    report = parse_report_csv(args.path)
    for r in report.rows:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.quantity}: measured {r.measured:.6g} "
              f"(theory {r.theory:.6g}, tol {r.tol:.3g})")
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "norm":
        return _cmd_norm(args)
    if args.command == "kernel-study":
        return _cmd_kernel_study(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "particles":
        return _cmd_experiment(args, default_name="particles")
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "report":
        return _cmd_report(args)
    raise SystemExit(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
