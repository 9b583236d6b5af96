"""Outside-in tracing of mkvflow: spans around the package's public functions.

The tracer replaces each traced function in every mkvflow module that binds
it (``solver.drift_from_kernel``, ``norms.bessel_apply``, ...) with a wrapper
that records a span, and restores the originals on ``close``.  Spans live in
memory as (name id, start, end, parent index) and are written out once, after
the traced pass.  FFT entry points of numpy and scipy are counted, not
spanned: one solve makes tens of thousands of transforms.

A name that a later version of the package no longer defines is skipped; its
metrics then read 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute); "Class.attr" wraps a method
SPANS = (
    ("solver.picard_solve", "solver", "picard_solve"),
    ("solver.time_shift_solve", "solver", "time_shift_solve"),
    ("solver.phi_apply", "solver", "phi_apply"),
    ("solver.MeasureFlow.density_at", "solver", "MeasureFlow.density_at"),
    ("kernels.drift_from_kernel", "kernels", "drift_from_kernel"),
    ("kernels.nemytskii_drift", "kernels", "nemytskii_drift"),
    ("kernels.realize_kernel", "kernels", "realize_kernel"),
    ("kernels.kernel_norm_study", "kernels", "kernel_norm_study"),
    ("grids.field_derivative", "grids", "field_derivative"),
    ("grids.heat_apply", "grids", "heat_apply"),
    ("grids.bessel_apply", "grids", "bessel_apply"),
    ("grids.bessel_sharpen", "grids", "bessel_sharpen"),
    ("grids.ScalarField.new", "grids", "ScalarField.__init__"),
    ("grids.VectorField.new", "grids", "VectorField.__init__"),
    ("norms.measure_dual_norm", "norms", "measure_dual_norm"),
    ("norms.local_neg_norm", "norms", "local_neg_norm"),
    ("norms.operator_exponent_probe", "norms", "operator_exponent_probe"),
    ("particles.chaos_convergence_study", "particles", "chaos_convergence_study"),
    ("particles.simulate_particles", "particles", "simulate_particles"),
    ("particles.empirical_density", "particles", "empirical_density"),
    ("metrics.wasserstein_1d_empirical", "metrics", "wasserstein_1d_empirical"),
    ("metrics.wasserstein_1d", "metrics", "wasserstein_1d"),
    ("metrics.relative_entropy", "metrics", "relative_entropy"),
    ("experiments.emit_report", "experiments", "emit_report"),
    ("flowio.write_flow", "flowio", "write_flow"),
    ("flowio.read_flow", "flowio", "read_flow"),
)

# measure_dual_norm is reported per method; run_experiment per config (the
# benchmark opens that span itself, around its own call)
DUAL_NORM_METHODS = ("amalgam", "probe")
CONFIGS = ("contraction", "entropy_kernel", "stability_small", "solve_2d",
           "heat_exponent", "membership_dirac", "membership_riesz",
           "membership_riesz_steep")

FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

COUNTS = ("solver.picard.iterations", "grids.fft.calls", "grids.fft.points",
          "particles.particle_steps", "flowio.write_flow.bytes")

# the confirmed defect probed outside the gate (workloads.py); 1 while it fails
DEFECT_METRIC = "defects.nemytskii_clipped_gradient.failed"

# counters that must read the same on every run of one workload
EXACT_COUNTERS = ("grids.fft.calls", "grids.fft.points", "grids.ScalarField.new.calls",
                  "grids.VectorField.new.calls", "solver.picard.iterations",
                  "solver.phi_apply.calls", "particles.particle_steps")


def span_names() -> list:
    names = []
    for name, _, _ in SPANS:
        if name == "norms.measure_dual_norm":
            names += [f"{name}.{m}" for m in DUAL_NORM_METHODS]
        else:
            names.append(name)
    names += [f"experiments.run_experiment.{c}" for c in CONFIGS]
    return names


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["kernels.realize_kernel.distinct_frac"] = "ratio"
    units["grids.fft.gflop_computed"] = "GFLOP"
    units["grids.fft.gbytes_computed"] = "GB"
    units["particles.particle_steps_per_s"] = "1/s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.traced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    units[DEFECT_METRIC] = "count"
    return units


def _fft_axes_length(a, out, kwargs, func: str) -> int:
    """Product of the transformed axis lengths, taken on the real side."""
    shape = a.shape if a.size >= out.size else out.shape
    axes = kwargs.get("axes", kwargs.get("axis"))
    if axes is None:
        if func.endswith("n"):
            axes = range(len(shape))
        elif func.endswith("2"):
            axes = (-2, -1)
        else:
            axes = (-1,)
    elif isinstance(axes, int):
        axes = (axes,)
    return int(np.prod([shape[ax] for ax in axes]))


class Tracer:
    """Span recorder; install with ``open()``, remove with ``close()``."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []   # (name id, start, end, parent index or -1)
        self._stack: list = []
        self.counts = defaultdict(float)
        self._kernel_keys: set = set()
        self._patches: list = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str):
        return _Span(self, self._id(name))

    def count(self, name: str, value: float = 1.0):
        self.counts[name] += value

    def _wrap(self, fn, name: str, name_of=None, after=None):
        spans, stack, nid = self.spans, self._stack, self._id(name)
        ids = {}
        if name_of is not None:
            ids = {m: self._id(f"{name}.{m}") for m in DUAL_NORM_METHODS}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = ids.get(name_of(args, kwargs), nid) if name_of else nid
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _fft_counter(self, fn, func: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            a = np.asarray(a)
            n = max(a.size, out.size)
            length = _fft_axes_length(a, out, kwargs, func)
            counts["grids.fft.calls"] += 1
            counts["grids.fft.points"] += n
            counts["grids.fft.flop"] += 5.0 * n * math.log2(max(length, 2))
            counts["grids.fft.bytes"] += a.nbytes + out.nbytes
            return out

        return counted

    # -- hooks that read work counts off results --------------------------

    def _after_picard(self, args, kwargs, result):
        self.counts["solver.picard.iterations"] += result[1].iterations

    def _after_realize(self, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self._kernel_keys.add((spec.variant, spec.mollification_eps, grid))

    def _after_simulate(self, args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        n = args[1] if len(args) > 1 else kwargs["N"]
        self.counts["particles.particle_steps"] += n * cfg.steps

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def open(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mkvflow" or n.startswith("mkvflow.")]
        hooks = {"solver.picard_solve": self._after_picard,
                 "kernels.realize_kernel": self._after_realize,
                 "particles.simulate_particles": self._after_simulate}
        for name, modname, attr in SPANS:
            home = importlib.import_module(f"mkvflow.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._patch(cls, meth, self._wrap(cls.__dict__[meth], name))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            name_of = _dual_norm_method if name == "norms.measure_dual_norm" else None
            wrapped = self._wrap(fn, name, name_of, hooks.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._patch(mod, attr, wrapped)
        for lib in ("numpy.fft", "scipy.fft"):
            mod = importlib.import_module(lib)
            for func in FFT_FUNCS:
                fn = getattr(mod, func, None)
                if fn is not None:
                    self._patch(mod, func, self._fft_counter(fn, func))
        return self

    def close(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reduction ------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for sid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i, (sid, t0, t1, parent) in enumerate(self.spans):
            calls[sid] += 1
            incl[sid] += t1 - t0
            self_s[sid] += t1 - t0 - child[i]
        return {self.names[s]: (calls[s], incl[s], self_s[s]) for s in calls}

    def root_seconds(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def metrics(self) -> dict:
        """Per-layer metric values (units from ``metric_units``)."""
        out = {}
        totals = self.totals()
        for name in span_names():
            calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        for name in COUNTS:
            out[name] = self.counts.get(name, 0.0)
        realize_calls = out["kernels.realize_kernel.calls"]
        out["kernels.realize_kernel.distinct_frac"] = (
            len(self._kernel_keys) / realize_calls if realize_calls else 0.0)
        out["grids.fft.gflop_computed"] = self.counts.get("grids.fft.flop", 0.0) / 1e9
        out["grids.fft.gbytes_computed"] = self.counts.get("grids.fft.bytes", 0.0) / 1e9
        sim_s = out["particles.simulate_particles.s"]
        out["particles.particle_steps_per_s"] = (
            out["particles.particle_steps"] / sim_s if sim_s else 0.0)
        return out

    def save(self, path):
        arr = np.array([s for s in self.spans if s is not None], dtype=float)
        arr = arr.reshape(-1, 4)
        np.savez(path, name_id=arr[:, 0].astype(np.int32), start=arr[:, 1],
                 end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                 names=np.array(self.names))


class _Span:
    """Span opened by the benchmark around its own call into a layer."""

    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append((self.nid, time.perf_counter(), 0.0,
                         tr._stack[-1] if tr._stack else -1))
        tr._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr._stack.pop()
        nid, t0, _, parent = tr.spans[self.idx]
        tr.spans[self.idx] = (nid, t0, time.perf_counter(), parent)
        return False


class NullTracer:
    """Stand-in for untraced passes: spans and counts cost one call."""

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, value: float = 1.0):
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def _dual_norm_method(args, kwargs) -> str:
    return kwargs.get("method", args[2] if len(args) > 2 else "amalgam")
