"""One benchmark process: set up a workload, then run its passes.

Started by ``run.py`` with the package on ``PYTHONPATH``.  Modes:

- ``setup``: set up, report the time since the parent spawned this process,
  exit;
- ``run``: set up, then run untraced passes for ``--seconds`` (at least
  ``MIN_PASSES``) and report each pass's time and the gate's verdicts;
- ``trace``: as ``run``, then one more pass with the tracer installed.

In ``setup`` and ``run`` the speed sampler (``speed.py``) runs during set-up
and passes, and both raw and speed-normalized times are reported; ``trace``
runs without it, so the tracer sees only the package's own calls.

Messages to the parent are single stdout lines prefixed with ``MARK``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

MARK = "@@perfbench "
MIN_PASSES = 3
HERE = Path(__file__).resolve().parent


def emit(event: str, **payload):
    print(MARK + json.dumps({"event": event, **payload}), flush=True)


def run_pass(wl, tracer, sampler=None):
    """Timed part of every operation.

    Returns (raw seconds, speed factor, [(op, raw output, error)]); the raw
    seconds exclude the sampler's handler time.
    """
    raws = []
    if sampler is not None:
        sampler.take()
        sampler.start()
    start = time.perf_counter()
    for op in wl.ops:
        try:
            raws.append((op, op.run(tracer), None))
        except Exception as exc:  # a failed operation is counted, never retried
            raws.append((op, None, f"{op.name} raised {exc!r}"))
            traceback.print_exc(file=sys.stderr)
    seconds = time.perf_counter() - start
    factor = 1.0
    if sampler is not None:
        sampler.stop()
        factor, overhead, _ = sampler.take()
        seconds -= overhead
    return seconds, factor, raws


def check_pass(reference: dict, raws) -> list:
    """Untimed gate of one pass: a record per operation."""
    from workloads import gate

    out = []
    for op, raw, err in raws:
        rows = {}
        if err is not None:
            failures = [err]
        else:
            try:
                outcome = op.check(raw)
                rows = {q: v for q, v, _ in outcome.rows}
                failures = gate(reference.get(op.name, {}), outcome)
            except Exception as exc:  # a check that cannot run fails the op
                failures = [f"{op.name} check raised {exc!r}"]
        out.append({"op": op.name, "failures": failures, "rows": rows})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    import numpy

    from speed import SpeedSampler

    sampler = None if args.mode == "trace" else SpeedSampler()
    if sampler is not None:
        sampler.start()

    import scipy

    from tracer import DEFECT_METRIC, NullTracer, Tracer
    from workloads import WORKLOADS, gate

    wl = WORKLOADS[args.workload](args.seed, Path(args.scratch))
    wl.setup()
    setup_raw = time.monotonic() - args.spawned
    setup_factor = 1.0
    if sampler is not None:
        sampler.stop()
        setup_factor, overhead, _ = sampler.take()
        setup_raw -= overhead
    reference = json.loads((HERE / "reference.json").read_text()).get(wl.name, {})
    setup_records = []
    for label, outcome in wl.setup_outcomes:
        setup_records.append({"op": label, "rows": {q: v for q, v, _ in outcome.rows},
                              "failures": gate(reference.get(label, {}), outcome)})
    emit("ready", setup_s=setup_raw * setup_factor, setup_raw_s=setup_raw)
    if args.mode == "setup":
        return 0

    pass_seconds, pass_factors = [], []
    records = [setup_records]
    start = time.perf_counter()
    while len(pass_seconds) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        seconds, factor, raws = run_pass(wl, NullTracer(), sampler)
        pass_seconds.append(seconds)
        pass_factors.append(factor)
        records.append(check_pass(reference, raws))

    result = {"pass_seconds": pass_seconds, "pass_speed_factors": pass_factors,
              "pass_normalized_s": [s * f for s, f in zip(pass_seconds, pass_factors)],
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.mode == "trace":
        tracer = Tracer().open()
        try:
            traced_s, _, raws = run_pass(wl, tracer)
        finally:
            tracer.close()
        records.append(check_pass(reference, raws))
        spans_path = Path(args.scratch).parent / f"{wl.name}-seed{args.seed}.spans.npz"
        tracer.save(spans_path)
        metrics = tracer.metrics()
        untraced = statistics.median(pass_seconds)
        metrics.update({"trace.untraced_wall_s": untraced,
                        "trace.traced_wall_s": traced_s,
                        "trace.overhead_s": traced_s - untraced,
                        "trace.coverage": tracer.root_seconds() / traced_s})
        result.update(trace_metrics=metrics, spans_file=spans_path.name)

    probe_error = wl.defect_probe()
    if args.mode == "trace":
        result["trace_metrics"][DEFECT_METRIC] = int(probe_error is not None)
    ops = [r for rec in records for r in rec]
    result.update(
        attempted=len(ops),
        failed=sum(1 for r in ops if r["failures"]),
        failures=[f"{r['op']}: {f}" for r in ops for f in r["failures"]],
        last_pass=records[-1], setup_ops=setup_records,
        defect_probe_error=probe_error,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
