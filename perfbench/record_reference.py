"""Record ``reference.json``: every gated row of every workload at one seed.

    PYTHONPATH=src python3 perfbench/record_reference.py [--check-seed 1]

Runs each workload's set-up and one untraced pass at seed 0 and stores the
rows.  With ``--check-seed`` it also runs that seed and lists every row that
falls outside its bound there, which shows whether the bounds hold across
seeds.  Record only at a commit whose outputs are the accepted baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import warnings
from pathlib import Path

from tracer import NullTracer
from worker import check_pass, run_pass
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def rows_at(name: str, seed: int, reference: dict):
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        wl = WORKLOADS[name](seed, Path(scratch))
        wl.setup()
        _, _, raws = run_pass(wl, NullTracer())
        records = check_pass(reference.get(name, {}), raws)
        setup = {label: {q: v for q, v, _ in o.rows} for label, o in wl.setup_outcomes}
        setup_failures = [f"{label}: {f}" for label, o in wl.setup_outcomes
                          for f in o.failures]
    rows = {**setup, **{r["op"]: r["rows"] for r in records}}
    failures = setup_failures + [f"{r['op']}: {f}" for r in records for f in r["failures"]]
    return rows, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--check-seed", type=int, action="append", default=[])
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    path = HERE / "reference.json"
    reference = {}
    status = 0
    for name in sorted(WORKLOADS):
        rows, failures = rows_at(name, 0, {})
        for line in failures:
            print(f"{name} seed 0: gate failure {line}")
            status = 1
        reference[name] = rows
        for seed in args.check_seed:
            _, failures = rows_at(name, seed, reference)
            for line in failures:
                print(f"{name} seed {seed}: {line}")
                status = 1
        print(f"{name}: recorded {sum(len(r) for r in rows.values())} rows", flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
