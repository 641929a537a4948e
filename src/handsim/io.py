"""Flat-file artifacts: trace CSV, summary JSON, and gnuplot scripts.

Everything written here is deterministic: no timestamps, no environment
echoes, floats at 17 significant digits (shortest round-trip wins ties via
%.17g), JSON with sorted keys, LF line endings on every platform. Rerunning
a scenario with the same config must reproduce each artifact byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .analysis import lyapunov
from .core import TAG_NAMES, CostFunction, Trace

__all__ = [
    "format_float",
    "write_trace_csv",
    "read_trace_csv",
    "TraceTable",
    "write_summary_json",
    "read_summary_json",
    "write_table_csv",
    "write_text",
]

def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips every finite double."""
    return "%.17g" % float(x)


def _open_lf(path: str):
    # newline="" + explicit lineterminator below pins LF on every platform
    return open(path, "w", newline="", encoding="utf-8")


def write_trace_csv(path: str, trace: Trace, f: CostFunction, c: float,
                    dist_fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Write a recorded run with columns

        t, j, tau, x1_0..x1_{n-1}, x2_0..x2_{n-1}, f_gap, V, dist_A, event

    f_gap is f.gap(x1), V is analysis.lyapunov at weight c (for
    velocity-form ODE traces the x2 block is a velocity, and V reads the
    same formula), and dist_A is dist_fn of the packed state. Each of the
    three is computed once for the whole trace: dist_fn takes the block of
    packed rows (rows, 2n+1) and returns one distance per row. No field
    ever needs CSV quoting, so each row is one format string.
    """
    n = trace.dim
    if f.dim != n:
        raise ValueError("cost dimension %d does not match trace dimension %d" % (f.dim, n))
    if f.xstar is None or f.fstar is None:
        raise ValueError("trace CSV needs a cost with known minimizer and value")
    header = (["t", "j", "tau"]
              + ["x1_%d" % i for i in range(n)]
              + ["x2_%d" % i for i in range(n)]
              + ["f_gap", "V", "dist_A", "event"])
    # %.17g is format_float's form
    row = ",".join(["%.17g", "%d"] + ["%.17g"] * (2 * n + 4) + ["%s"]) + "\n"
    zs = trace.zs
    cols = zip(trace.ts.tolist(), trace.js.tolist(), zs[:, -1].tolist(), zs[:, :-1].tolist(),
               f.gap(zs[:, :n]).tolist(), lyapunov(zs, f, c).tolist(), dist_fn(zs).tolist(),
               trace.tags.tolist())
    with _open_lf(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % (t, j, tau, *x, gap, v, dist, TAG_NAMES[tag])
                      for t, j, tau, x, gap, v, dist, tag in cols)


@dataclass
class TraceTable:
    """Columns of a trace CSV read back for offline bound checking."""

    t: np.ndarray
    j: np.ndarray
    tau: np.ndarray
    x1: np.ndarray  # (rows, n)
    x2: np.ndarray
    f_gap: np.ndarray
    v: np.ndarray
    dist_a: np.ndarray
    event: List[str]


def read_trace_csv(path: str) -> TraceTable:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ValueError("%s: empty trace file" % path)
        rows = list(r)
    n = sum(1 for name in header if name.startswith("x1_"))
    expected = ["t", "j", "tau"] + ["x1_%d" % i for i in range(n)] \
        + ["x2_%d" % i for i in range(n)] + ["f_gap", "V", "dist_A", "event"]
    if header != expected:
        raise ValueError("%s: unexpected trace header %r" % (path, header))
    m = len(rows)
    t = np.empty(m)
    j = np.empty(m, dtype=np.int64)
    tau = np.empty(m)
    x1 = np.empty((m, n))
    x2 = np.empty((m, n))
    gap = np.empty(m)
    v = np.empty(m)
    dist = np.empty(m)
    events = []
    labels = tuple(TAG_NAMES.values())
    for k, row in enumerate(rows):
        if len(row) != len(expected):
            raise ValueError("%s: row %d has %d fields, expected %d"
                             % (path, k + 2, len(row), len(expected)))
        t[k] = float(row[0])
        j[k] = int(row[1])
        tau[k] = float(row[2])
        for i in range(n):
            x1[k, i] = float(row[3 + i])
            x2[k, i] = float(row[3 + n + i])
        gap[k] = float(row[3 + 2 * n])
        v[k] = float(row[4 + 2 * n])
        dist[k] = float(row[5 + 2 * n])
        if row[6 + 2 * n] not in labels:
            raise ValueError("%s: row %d has event %r, expected one of %s"
                             % (path, k + 2, row[6 + 2 * n], "/".join(labels)))
        events.append(row[6 + 2 * n])
    return TraceTable(t=t, j=j, tau=tau, x1=x1, x2=x2, f_gap=gap, v=v,
                      dist_a=dist, event=events)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no Infinity/NaN literals; keep artifacts standard
        return None
    return obj


def write_summary_json(path: str, summary: dict) -> None:
    text = json.dumps(_jsonable(summary), indent=2, sort_keys=True)
    with _open_lf(path) as fh:
        fh.write(text)
        fh.write("\n")


def read_summary_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_table_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Small result tables (sweeps, probes). Floats via format_float, the
    rest via str; column count enforced against the header."""
    with _open_lf(path) as fh:
        w = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        w.writerow(list(header))
        for row in rows:
            if len(row) != len(header):
                raise ValueError("table row %r does not match header %r" % (row, header))
            out = []
            for val in row:
                if isinstance(val, (bool, np.bool_)):
                    out.append("true" if val else "false")
                elif isinstance(val, (int, np.integer)):
                    out.append(str(int(val)))
                elif isinstance(val, (float, np.floating)):
                    out.append(format_float(val))
                elif val is None:
                    out.append("")
                else:
                    out.append(str(val))
            w.writerow(out)


def write_text(path: str, text: str) -> None:
    with _open_lf(path) as fh:
        fh.write(text)
