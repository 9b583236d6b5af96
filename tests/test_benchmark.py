"""The benchmark's gate on the solves it pins, run as a test.

``perfbench/workloads.py`` gates the 1-d solve configs of its solve-1d
workload, the Picard and time-shift solves of its nemytskii-shift-1d
workload and the 2-d Riesz solve of its solve-2d workload against
``perfbench/reference.json``; a change to any of these routes shows here
before a benchmark run does.  The tests only read ``perfbench/``.
"""

import contextlib
import json
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class NullTracer:
    """Stands in for the benchmark's tracer: spans that record nothing."""

    def span(self, name):
        return contextlib.nullcontext()


@pytest.fixture(scope="module")
def workloads():
    # executed from its source, so no bytecode cache is written beside it, and
    # registered first: its dataclasses look their module up by name
    path = PERFBENCH / "workloads.py"
    module = sys.modules["perfbench_workloads"] = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    yield module
    del sys.modules["perfbench_workloads"]


@pytest.mark.parametrize("op", ["contraction", "entropy_kernel", "stability_small"])
def test_solve_1d_configs_pass_the_benchmark_gate(workloads, op, tmp_path):
    wl = workloads.Solve1D(0, tmp_path)
    wl.setup()
    (chosen,) = [o for o in wl.ops if o.name == op]
    reference = json.loads((PERFBENCH / "reference.json").read_text())[wl.name][op]
    outcome = chosen.check(chosen.run(NullTracer()))
    assert {q for q, _, _ in outcome.rows} >= set(reference)
    assert workloads.gate(reference, outcome) == []


@pytest.mark.parametrize("op", ["picard_gaussian", "time_shift_delta"])
def test_nemytskii_shift_solves_pass_the_benchmark_gate(workloads, op, tmp_path):
    wl = workloads.NemytskiiShift1D(0, tmp_path)
    wl.setup()
    (chosen,) = [o for o in wl.ops if o.name == op]
    reference = json.loads((PERFBENCH / "reference.json").read_text())[wl.name][op]
    outcome = chosen.check(chosen.run(None))
    assert {q for q, _, _ in outcome.rows} >= set(reference)
    assert workloads.gate(reference, outcome) == []


def test_2d_riesz_solve_passes_the_benchmark_gate(workloads, tmp_path):
    wl = workloads.Solve2D(0, tmp_path)
    wl.setup()
    (op,) = wl.ops
    reference = json.loads((PERFBENCH / "reference.json").read_text())[wl.name][op.name]
    outcome = op.check(op.run(NullTracer()))
    assert {q for q, _, _ in outcome.rows} >= set(reference)
    assert workloads.gate(reference, outcome) == []
