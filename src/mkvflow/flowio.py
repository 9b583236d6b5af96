"""Serialization: flow binaries and CSV tables.

Binary layout (documented, little-endian throughout):

    magic   4 bytes  b"MKVF"
    version u32      currently 2
    dim     u32
    n       u32      points per axis
    extent  f64      torus side length
    m       u32      number of stored times
    times   m * f64
    data    (m + 1) * n**dim * f64   the initial datum, then the densities,
                                     C order, time-major

Version 1 files, which lack the initial datum, are refused.
"""

from __future__ import annotations

import csv
import os
import struct

import numpy as np

from .grids import GridSpec, ScalarField
from .solver import MeasureFlow

__all__ = ["write_flow", "read_flow", "write_csv_rows", "flow_density_table"]

MAGIC = b"MKVF"
VERSION = 2


def _create(path, mode: str, **kw):
    """Open ``path`` for writing, creating its parent directory if missing."""
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    return open(path, mode, **kw)


def write_flow(flow: MeasureFlow, path):
    grid = flow.grid
    with _create(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", VERSION, grid.dim, grid.points_per_dim))
        fh.write(struct.pack("<d", grid.extent))
        fh.write(struct.pack("<I", flow.times.size))
        fh.write(flow.times.astype("<f8").tobytes())
        for rho in [flow.initial, *flow.densities]:
            fh.write(np.ascontiguousarray(rho.values, dtype="<f8").tobytes())


def read_flow(path) -> MeasureFlow:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path} is not a flow binary")

        def read(size: int, what: str) -> bytes:
            buf = fh.read(size)
            if len(buf) != size:
                raise ValueError(f"truncated flow binary {path}: {what} needs "
                                 f"{size} bytes, {len(buf)} left")
            return buf

        version, dim, n = struct.unpack("<III", read(12, "header"))
        if version != VERSION:
            raise ValueError(f"unsupported flow binary version {version}")
        (extent,) = struct.unpack("<d", read(8, "header"))
        (m,) = struct.unpack("<I", read(4, "header"))
        if m == 0:
            raise ValueError(f"flow binary {path} stores no times")
        times = np.frombuffer(read(8 * m, "times"), dtype="<f8").copy()
        grid = GridSpec(dim, n, extent)
        count = n**dim
        initial, *densities = [
            ScalarField(grid, np.frombuffer(read(8 * count, "data"), dtype="<f8")
                        .reshape(grid.shape).copy()) for _ in range(m + 1)]
        if fh.read(1):
            raise ValueError(f"flow binary {path} has trailing bytes after the initial "
                             f"datum and {m} densities of {n}**{dim} points: the header "
                             f"does not match the data")
    return MeasureFlow(times, densities, initial)


def flow_density_table(flow: MeasureFlow, path):
    """Per-time CSV density table: columns t, x[, y], density."""
    coords = [c.ravel() for c in flow.grid.coords()]
    write_csv_rows(path, ["t", *"xy"[: flow.grid.dim], "density"],
                   ([f"{t:.12g}", *(f"{x:.12g}" for x in xs), v]
                    for t, rho in zip(flow.times, flow.densities)
                    for *xs, v in zip(*coords, rho.values.ravel())))


def write_csv_rows(path, header, rows):
    """The package's one CSV dialect: lines end in ``\n``, floats are written
    in ``.17g`` and booleans as ``true``/``false``; other values as given."""
    with _create(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        wr.writerows([_fmt(v) for v in row] for row in rows)


def _fmt(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return v
