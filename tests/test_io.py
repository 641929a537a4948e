"""Deterministic CSV/JSON artifact round trips."""

import csv
import io
import json
import math

import numpy as np
import pytest

from handsim import (
    HandParams,
    SolverConfig,
    corpus,
    hand1,
    hand2,
    lyapunov,
    read_summary_json,
    read_trace_csv,
    simulate,
    sphere_cost,
    target_distance_fn,
    write_summary_json,
    write_trace_csv,
)
from handsim.core import TAG_FAULT, TAG_NAMES
from handsim.io import format_float, write_table_csv, write_text


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def _run(dim=1, t_end=4.0):
    f = sphere_cost(dim)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    sys = hand2(f, params)
    x0 = f.xstar + 3.0
    z0 = np.concatenate([x0, x0, [1.0]])
    tr = simulate(sys, z0, SolverConfig(h=1e-2, t_end=t_end, integrator="rk4", record_stride=5))
    return f, params, tr


def test_format_float_roundtrips_exactly():
    rng = np.random.default_rng(51)
    vals = [0.1, 1.0, -0.0, 1e-300, 1e300, math.pi]
    vals += [float(v) for v in rng.standard_normal(200) * 10.0 ** rng.integers(-10, 10, 200)]
    for v in vals:
        assert float(format_float(v)) == v


def test_format_float_compact_integers():
    assert format_float(1.0) == "1"
    assert format_float(-4.0) == "-4"


def test_trace_csv_roundtrip(tmp_path):
    f, params, tr = _run()
    path = str(tmp_path / "trace_roundtrip.csv")
    write_trace_csv(path, tr, f, params.c, target_distance_fn(f, params))
    table = read_trace_csv(path)
    assert table.x1.shape[1] == 1
    assert np.array_equal(table.t, tr.ts)
    assert np.array_equal(table.j, tr.js)
    assert np.array_equal(table.tau, tr.zs[:, -1])
    assert np.array_equal(table.x1[:, 0], tr.zs[:, 0])
    assert np.array_equal(table.x2[:, 0], tr.zs[:, 1])
    # gap and energy columns recompute from the state exactly
    for k in (0, 3, len(tr) - 1):
        assert table.f_gap[k] == f.gap(tr.zs[k, :1])
    assert set(table.event) <= {"flow", "jump", "fault"}
    assert list(table.event).count("jump") == len(tr.events)


def test_trace_csv_gap_and_energy_are_the_monitors(tmp_path):
    # in dimension 2 as in 1, the f_gap and V columns are f.gap and the
    # energy that the monotonicity monitor certifies, bit for bit
    params = HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0)
    rng = np.random.default_rng(5)
    for name in ("sphere2", "aniso2", "coupled2"):
        f = corpus()[name]
        x0 = f.xstar + rng.standard_normal(2)
        tr = simulate(hand1(f, params), np.concatenate([x0, x0, [params.t_min]]),
                      SolverConfig(h=1e-2, t_end=20.0, integrator="rk4", record_stride=2))
        assert len(tr.events) > 0
        path = str(tmp_path / ("trace_%s.csv" % name))
        write_trace_csv(path, tr, f, params.c, target_distance_fn(f, params))
        table = read_trace_csv(path)
        assert np.array_equal(table.f_gap, [f.gap(x1) for x1 in tr.zs[:, :2]]), name
        assert np.array_equal(table.v, [lyapunov(z, f, params.c) for z in tr.zs]), name


def test_trace_csv_rows_match_csv_writer_reference(tmp_path):
    # each row is one format string; the bytes are those of csv.writer with
    # minimal quoting over format_float cells and per-row certificate calls
    f = corpus()["coupled2"]
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    x0 = f.xstar + 1.0
    tr = simulate(hand2(f, params), np.concatenate([x0, x0, [1.0]]),
                  SolverConfig(h=1e-2, t_end=5.0, integrator="rk4", record_stride=7))
    assert len(tr.events) > 0
    tr.zs[3, 1] = -0.0
    # a closing fault row, as the engine records one: the last state, tagged
    tr.ts = np.append(tr.ts, tr.ts[-1])
    tr.js = np.append(tr.js, tr.js[-1])
    tr.zs = np.vstack([tr.zs, tr.zs[-1] * 1e50])
    tr.tags = np.append(tr.tags, TAG_FAULT)
    dist_fn = target_distance_fn(f, params)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), tr, f, params.c, dist_fn)

    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    w.writerow(["t", "j", "tau", "x1_0", "x1_1", "x2_0", "x2_1", "f_gap", "V", "dist_A", "event"])
    for k in range(len(tr)):
        z = tr.zs[k]
        w.writerow([format_float(tr.ts[k]), str(int(tr.js[k])), format_float(z[-1])]
                   + [format_float(v) for v in z[:-1]]
                   + [format_float(f.gap(z[:2])), format_float(lyapunov(z, f, params.c)),
                      format_float(dist_fn(z)), TAG_NAMES[int(tr.tags[k])]])
    expected = buf.getvalue().encode()
    assert path.read_bytes() == expected
    text = expected.decode()
    assert ",-0," in text and text.endswith(",fault\n") and ",jump\n" in text and ",flow\n" in text


def test_trace_csv_multidim_headers(tmp_path):
    f, params, tr = _run(dim=2)
    path = str(tmp_path / "trace_dim2.csv")
    write_trace_csv(path, tr, f, params.c, target_distance_fn(f, params))
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[:3] == ["t", "j", "tau"]
    assert "x1_0" in header and "x1_1" in header and "x2_1" in header
    table = read_trace_csv(path)
    assert table.x1.shape[1] == 2
    assert table.x1.shape == (len(tr), 2)


def test_trace_csv_lf_only(tmp_path):
    f, params, tr = _run()
    path = str(tmp_path / "trace_lf.csv")
    write_trace_csv(path, tr, f, params.c, target_distance_fn(f, params))
    raw = _read(path, "rb")
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "bad_header.csv")
    write_text(path, "a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_trace_csv_byte_identical_rewrites(tmp_path):
    f, params, tr = _run()
    p1, p2 = str(tmp_path / "trace_a.csv"), str(tmp_path / "trace_b.csv")
    write_trace_csv(p1, tr, f, params.c, target_distance_fn(f, params))
    write_trace_csv(p2, tr, f, params.c, target_distance_fn(f, params))
    assert _read(p1, "rb") == _read(p2, "rb")


def test_summary_json_sorted_and_normalized(tmp_path):
    path = str(tmp_path / "summary.json")
    write_summary_json(
        path,
        {
            "zeta": np.float64(0.5),
            "alpha": np.bool_(True),
            "count": np.int64(7),
            "vec": np.array([1.0, 2.0]),
            "bad": math.inf,
            "nested": {"b": 2, "a": 1},
        },
    )
    raw = _read(path)
    assert raw.endswith("\n")
    data = json.loads(raw)
    assert data["alpha"] is True
    assert data["count"] == 7
    assert data["vec"] == [1.0, 2.0]
    assert data["bad"] is None
    # keys serialized in sorted order
    assert raw.index('"alpha"') < raw.index('"count"') < raw.index('"zeta"')
    assert read_summary_json(path) == data


def test_summary_json_no_timestamps(tmp_path):
    path = str(tmp_path / "summary_repeat.json")
    payload = {"x": 1.0, "note": "fixed"}
    write_summary_json(path, payload)
    first = _read(path, "rb")
    write_summary_json(path, payload)
    assert _read(path, "rb") == first


def test_table_csv_cell_conventions(tmp_path):
    path = str(tmp_path / "table.csv")
    write_table_csv(path, ["name", "ok", "val"], [["a", True, 0.5], ["b", False, None]])
    lines = _read(path).splitlines()
    assert lines[0] == "name,ok,val"
    assert lines[1] == "a,true,0.5"
    assert lines[2] == "b,false,"


def _corrupt(path, edit):
    """Rewrite a trace CSV with edit applied to its list of lines (no
    terminators; index 0 is the header)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    edit(lines)
    write_text(path, "\n".join(lines))


def _set_cell(lines, k, col, value):
    cells = lines[k].split(",")
    cells[col] = value
    lines[k] = ",".join(cells)


# each edit damages data row 6, line 7 of the file; the reader that
# parses the rest of the trace must still refuse the whole file
DAMAGED_ROWS = {
    "blank-line": lambda lines: lines.insert(6, ""),
    "hash-cell": lambda lines: _set_cell(lines, 6, 3, "#"),
    "hash-in-label": lambda lines: _set_cell(lines, 6, -1, "flow#"),
    "faulty-label": lambda lines: _set_cell(lines, 6, -1, "faulty"),
    "float-j": lambda lines: _set_cell(lines, 6, 1, "7.0"),
    "short-row": lambda lines: _set_cell(lines, 6, slice(3, 5), ["1"]),
    "unknown-label": lambda lines: _set_cell(lines, 6, -1, "banana"),
    "nul-in-label": lambda lines: _set_cell(lines, 6, -1, "flow\0"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_ROWS))
def test_trace_csv_rejects_damaged_row(damage, tmp_path):
    f, params, tr = _run(dim=2)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, tr, f, params.c, target_distance_fn(f, params))
    assert len(read_trace_csv(path).t) == len(tr)
    _corrupt(path, DAMAGED_ROWS[damage])
    with pytest.raises(ValueError) as err:
        read_trace_csv(path)
    if damage in ("blank-line", "short-row", "faulty-label", "hash-in-label", "unknown-label",
                  "nul-in-label"):
        assert "row 7 " in str(err.value)


def test_trace_csv_roundtrips_every_double_bit_for_bit(tmp_path):
    # %.17g cells read back as the very doubles written: sign of zero,
    # subnormals, the largest finite double, nan and both infinities
    rng = np.random.default_rng(11)
    specials = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0]
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
    cols = 9  # t, tau, x1_0, x1_1, x2_0, x2_1, f_gap, V, dist_A: every float column
    # each special value in every column, then the random doubles row by row
    rest = np.concatenate([bits[np.isfinite(bits)], scaled])
    grid = np.vstack([np.repeat(specials, cols).reshape(-1, cols),
                      np.resize(rest, (len(rest) // cols, cols))])
    m = len(grid)
    header = ["t", "j", "tau", "x1_0", "x1_1", "x2_0", "x2_1", "f_gap", "V", "dist_A", "event"]
    lines = [",".join(header)]
    for k, row in enumerate(grid.tolist()):
        cells = ["%.17g" % v for v in row]
        lines.append(",".join(cells[:1] + ["%d" % k] + cells[1:] + [("flow", "jump", "fault")[k % 3]]))
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    table = read_trace_csv(str(path))
    read = np.column_stack([table.t, table.tau, table.x1, table.x2, table.f_gap, table.v, table.dist_a])
    assert read.shape == grid.shape == (m, cols)
    assert np.ascontiguousarray(read).tobytes() == np.ascontiguousarray(grid).tobytes()
    assert table.j.tolist() == list(range(m))
    assert list(table.event) == [("flow", "jump", "fault")[k % 3] for k in range(m)]
