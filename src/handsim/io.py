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

from .analysis import energy
from .core import TAG_NAMES, CostFunction, Trace

__all__ = [
    "format_float",
    "trace_header",
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


def trace_header(n: int) -> List[str]:
    """A trace CSV's columns: t, j, tau, x1_0..x1_{n-1}, x2_0..x2_{n-1},
    f_gap, V, dist_A, event."""
    return (["t", "j", "tau"] + ["x1_%d" % i for i in range(n)] + ["x2_%d" % i for i in range(n)]
            + ["f_gap", "V", "dist_A", "event"])


def write_trace_csv(path: str, trace: Trace, f: CostFunction, c: float,
                    dist_fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Write a recorded run with the columns of trace_header. f_gap is
    f.gap(x1), V is analysis.lyapunov's V at weight c, its energy taken on
    that gap (for velocity-form ODE traces the x2 block is a velocity, and
    V reads the same formula), and dist_A is dist_fn of the packed state.
    Each of the three is computed once for the whole trace: dist_fn takes
    the block of packed rows (rows, 2n+1) and returns one distance per row.
    No field ever needs CSV quoting, so each row is one format string.
    """
    n = trace.dim
    if f.dim != n:
        raise ValueError("cost dimension %d does not match trace dimension %d" % (f.dim, n))
    if f.xstar is None or f.fstar is None:
        raise ValueError("trace CSV needs a cost with known minimizer and value")
    # %.17g is format_float's form
    row = ",".join(["%.17g", "%d"] + ["%.17g"] * (2 * n + 4) + ["%s"]) + "\n"
    zs = trace.zs
    tau, gap = zs[:, -1], f.gap(zs[:, :n])
    cols = zip(trace.ts.tolist(), trace.js.tolist(), tau.tolist(), zs[:, :-1].tolist(), gap.tolist(),
               energy(zs[:, n:2 * n].T, f.xstar.tolist(), c * tau * tau, gap).tolist(), dist_fn(zs).tolist(),
               trace.tags.tolist())
    with _open_lf(path) as fh:
        fh.write(",".join(trace_header(n)) + "\n")
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
    event: np.ndarray  # labels, as fixed-width strings


_LABELS = tuple(TAG_NAMES.values())
# loadtxt cuts a string cell to the field's width: one more than the
# longest label keeps every cut cell other than a label unequal to all of them
_EVENT_WIDTH = max(map(len, _LABELS)) + 1


def _parse_rows(lines: List[str], dtype) -> np.ndarray:
    # comments=None: "#" is a cell that does not parse, not a comment
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _row_fault(line: str, names: List[str], dtype) -> str:
    """Why one data line is not a trace row; "" when it is one."""
    cells = line.split(",")
    if len(cells) != len(names):
        return "has %d fields, expected %d" % (len(cells) if line else 0, len(names))
    if cells[-1] not in _LABELS:
        return "has event %r, expected one of %s" % (cells[-1], "/".join(_LABELS))
    if "\0" in line:
        return "holds a NUL character"
    try:
        _parse_rows([line], dtype)
        return ""
    except ValueError:
        pass
    for name, cell in zip(names[:-1], cells):
        kind = "i8" if name == "j" else "f8"
        try:
            # an empty cell would read as a skipped blank line
            if cell and len(_parse_rows([cell], kind)) == 1:
                continue
        except ValueError:
            pass
        return "has %s %r, expected %s" % (name, cell, "an integer" if kind == "i8" else "a float")
    return "does not parse"


def read_trace_csv(path: str) -> TraceTable:
    """Read a trace CSV written by write_trace_csv.

    All rows are parsed in one np.loadtxt pass. numpy's float parser is
    correctly rounded and ignores the locale, so each %.17g cell reads back
    as the double that was written; j must be an integer ("7.0" is not). A
    blank line, a row with the wrong number of fields, a cell that does not
    parse or an event other than a known label is a ValueError naming the
    file row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise ValueError("%s: empty trace file" % path)
    header, *lines = text.split("\n")
    if lines and not lines[-1]:
        lines.pop()  # the last row's line terminator
    names = header.split(",")
    n = sum(1 for name in names if name.startswith("x1_"))
    if names != trace_header(n):
        raise ValueError("%s: unexpected trace header %r" % (path, names))
    dtype = np.dtype([("t", "f8"), ("j", "i8"), ("tau", "f8"), ("x", "f8", (2 * n,)),
                      ("f_gap", "f8"), ("V", "f8"), ("dist_A", "f8"), ("event", "U%d" % _EVENT_WIDTH)])
    try:
        rows = _parse_rows(lines, dtype) if lines else np.empty(0, dtype)
        # loadtxt skips blank lines, and a string field drops trailing NULs
        ok = len(rows) == len(lines) and "\0" not in text \
            and bool(np.isin(rows["event"], _LABELS).all())
    except ValueError:
        ok = False
    if not ok:
        for k, line in enumerate(lines):
            fault = _row_fault(line, names, dtype)
            if fault:
                raise ValueError("%s: row %d %s" % (path, k + 2, fault))
        raise ValueError("%s: rows do not parse" % path)
    x = rows["x"]
    return TraceTable(t=rows["t"], j=rows["j"], tau=rows["tau"], x1=x[:, :n], x2=x[:, n:],
                      f_gap=rows["f_gap"], v=rows["V"], dist_a=rows["dist_A"], event=rows["event"])


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
