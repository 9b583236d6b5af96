"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload solve-1d --seeds 0-9 [--trace 1]

Each run measures for ``run_seconds`` of ``BENCHMARK.json``.  For each
metric: the median of the runs and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
the figure the benchmark's bounds are checked against.  With ``--trace 1``
every exact-repeat counter that differs between the runs is flagged, and the
exit code is 1.  Each run's JSON line is appended to
``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTERS

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values, status = {}, 0
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    for seed in seed_list(args.seeds):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds",
                               str(seconds), "--trace", args.trace],
                              cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with log.open("a") as fh:
            fh.write(json.dumps({"seed": seed, "elapsed_s": elapsed, **result}) + "\n")
        print(f"seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name}: median {med:.6g}, quartile spread {(q3 - q1) / med:.4f}, "
                  f"n={len(vals)}")
    for name in EXACT_COUNTERS:
        if len(set(values.get(name, []))) > 1:
            print(f"exact-repeat counter differs between runs: {name} {values[name]}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
