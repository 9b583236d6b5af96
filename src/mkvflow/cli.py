"""Command-line front end.

Subcommands expose the norm calculator, configuration-driven experiments
and report reprinting.  ``experiment`` is the one way to run an experiment;
a ``solve`` experiment can also dump its solved flow.  Each run writes its
report as one row CSV and one JSON with the provenance, figures and tables.
The exit code is zero exactly when every pass flag in the produced report is
true.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ExperimentConfig,
    emit_report,
    parse_config,
    parse_report_csv,
    run_experiment,
)
from .flowio import flow_density_table, write_flow
from .grids import GridSpec, gaussian_density
from .norms import SobolevIndex, local_neg_norm, measure_dual_bracket
from .solver import DegradedAccuracyError, NoContractionError


def build_parser():
    ap = argparse.ArgumentParser(prog="mkvflow",
                                 description="windowed-norm / mean-field flow toolbox")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="windowed norm and dual bracket of a Gaussian datum")
    p.add_argument("--grid", type=int, default=1024, help="points per axis")
    p.add_argument("--extent", type=float, default=16.0, help="torus side")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--var", type=float, default=0.04)
    p.add_argument("--mean", type=float, default=0.0)

    p = sub.add_parser("experiment", help="run an experiment from a config file or by name")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--out", default=".", help="report directory (default: .)")
    p.add_argument("--dump-flow", default=None, help="write a solve's flow binary here")
    p.add_argument("--dump-csv", default=None, help="write a solve's density tables here")

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


def _experiment_config(args) -> ExperimentConfig:
    """The config file's experiment, or the named one with its defaults; a
    name given beside a config must be the config's.  Only a solve dumps its
    flow."""
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.name not in (None, cfg.experiment):
            raise ValueError(f"experiment {args.name!r} differs from {args.config}'s "
                             f"experiment {cfg.experiment!r}")
    elif args.name is None:
        raise ValueError("experiment name or --config required")
    else:
        cfg = ExperimentConfig(args.name)
    if (args.dump_flow or args.dump_csv) and cfg.experiment != "solve":
        raise ValueError(f"--dump-flow and --dump-csv need the solve experiment, "
                         f"not {cfg.experiment}")
    return cfg


def _print_rows(report) -> int:
    for r in report.rows:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.quantity}: measured {r.measured:.6g} "
              f"(theory {r.theory:.6g}, tol {r.tol:.3g})")
    return 0 if report.all_passed else 1


def _cmd_experiment(args, cfg: ExperimentConfig) -> int:
    """Run and emit; an unconverged solve exits 1, other errors, a refusal
    included, reach ``main``."""
    try:
        report = run_experiment(cfg)
    except (NoContractionError, DegradedAccuracyError) as exc:
        print(f"mkvflow {args.command}: error: {exc}", file=sys.stderr)
        return 1
    written = emit_report(report, args.out, name=f"{cfg.experiment}_{cfg.digest}")
    if args.dump_flow:
        write_flow(report.flow, args.dump_flow)
        written.append(args.dump_flow)
    if args.dump_csv:
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
        return _cmd_experiment(args, _experiment_config(args))
    except (OSError, ValueError) as exc:
        print(f"mkvflow {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
