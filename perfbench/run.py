"""mkvflow benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload solve-1d --seed 0 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``, ``ok_frac``); with ``--trace 1`` they are the per-layer
metrics of one traced pass.  Every operation's output passes the correctness
gate in ``workloads.py``.  A result file with the machine's provenance is
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import DEFECT_METRIC, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3       # fresh processes timed to "ready"; the median is setup_s
DEADLINE_S = 170.0      # whole run, all processes included
MARK = "@@perfbench "
WORKLOAD_NAMES = ("solve-1d", "solve-2d", "nemytskii-shift-1d", "particles-norms-1d")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args, mode: str, scratch: Path, deadline: float) -> dict:
    """Run one worker process to completion; return its messages by event."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--scratch", str(scratch), "--spawned", repr(time.monotonic())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before all processes ran")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the time budget") from exc
    events = {}
    for line in proc.stdout.splitlines():
        if line.startswith(MARK):
            msg = json.loads(line[len(MARK):])
            events[msg.pop("event")] = msg
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or "ready" not in events:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    if mode != "setup" and "result" not in events:
        raise BenchError(f"{mode} process printed no result")
    return events


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def provenance(args, versions: dict) -> dict:
    cpuinfo = _read(Path("/proc/cpuinfo"))
    fields = {}
    for line in cpuinfo.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields.setdefault(key.strip(), value.strip())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    rev = "unknown (not a git checkout)"
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        rev = _read(ROOT / ".git" / head[5:]).strip() or rev
    elif head:
        rev = head
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": fields.get("model name", ""),
        "cpuinfo_cache_size": fields.get("cache size", ""),
        "caches": caches, "machine": platform.machine(),
        "kernel": platform.release(),
        **versions,
        "thread_env": {var: "1" for var in THREAD_VARS},
        "git_rev": rev, "src_sha256": digest.hexdigest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mkvflow" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SRC / 'mkvflow'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT))
    try:
        if args.trace:
            res = spawn(args, "trace", scratch, deadline)["result"]
        else:
            ready = [spawn(args, "setup", scratch, deadline)["ready"]
                     for _ in range(SETUP_SAMPLES - 1)]
            events = spawn(args, "run", scratch, deadline)
            ready.append(events["ready"])
            res = events["result"]
            samples = [r["setup_s"] for r in ready]
            res["setup_raw_samples"] = [r["setup_raw_s"] for r in ready]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values = res["trace_metrics"]
        units = metric_units()
    else:
        values = {"wall_s": statistics.median(res["pass_normalized_s"]),
                  "setup_s": statistics.median(samples),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"]}
        units = END_TO_END_UNITS
        res["setup_samples"] = samples
    for line in res["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if res["defect_probe_error"]:
        print(f"perfbench: {DEFECT_METRIC} = 1: {res['defect_probe_error']}",
              file=sys.stderr)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    record = {"provenance": provenance(args, res.pop("versions")), **summary,
              "details": res}
    kind = "trace" if args.trace else "timed"
    (OUT / f"{args.workload}-seed{args.seed}-{kind}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
