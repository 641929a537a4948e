"""Config plumbing and the hand-sim command line."""

import copy
import json
import os

import pytest

from handsim import ConfigError, SCENARIOS, default_config, parse_config, run_scenario
from handsim.cli import _parse_values, _thread_cap, main
from handsim.scenarios import apply_override, load_config

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def _write_config(tmp_path, name, **extra):
    cfg = {"scenario": name, "out_dir": str(tmp_path / "out")}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _fast_hand2(tmp_path, **solver_extra):
    solver = {"t_end": 10.0, "record_stride": 50}
    solver.update(solver_extra)
    return _write_config(tmp_path, "hand2-rate", solver=solver)


def test_default_configs_parse_unchanged():
    for name in SCENARIOS:
        cfg = default_config(name)
        assert parse_config(copy.deepcopy(cfg)) == cfg


def test_parse_config_requires_scenario():
    with pytest.raises(ConfigError):
        parse_config({"out_dir": "x"})
    with pytest.raises(ConfigError):
        parse_config({"scenario": "warp-drive"})


def test_parse_config_rejects_unknown_keys():
    cfg = {"scenario": "hand2-rate", "solver": {"dt": 0.1}}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "solver.dt" in str(err.value)


def test_parse_config_rejects_wrong_types():
    with pytest.raises(ConfigError):
        parse_config({"scenario": "hand2-rate", "solver": {"h": "small"}})
    with pytest.raises(ConfigError):
        parse_config({"scenario": "restart-sweep", "params": {"n_grid": 2.5}})


def test_apply_override_dotted_paths():
    cfg = default_config("hand2-rate")
    out = apply_override(cfg, "solver.h", 5e-3)
    assert out["solver"]["h"] == 5e-3
    with pytest.raises(ConfigError):
        apply_override(cfg, "solver.dt", 0.1)
    with pytest.raises(ConfigError):
        apply_override(cfg, "solver", {})


def test_load_config_reports_json_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": "hand2-rate",}')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "line" in str(err.value)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = parse_config({"scenario": "hand2-rate", "out_dir": str(tmp_path / "o"), "solver": {"t_end": 10.0}})
    code = run_scenario(cfg, quiet=True)
    assert code == 0
    files = sorted(os.listdir(tmp_path / "o"))
    assert "summary.json" in files and "trace.csv" in files and "plot.gp" in files
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["config"]["scenario"] == "hand2-rate"


def test_cli_run_exit_codes(tmp_path):
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_cli_run_out_override_keeps_bytes(tmp_path):
    # --out redirects artifacts without perturbing their content
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    assert main(["run", path, "--out", str(tmp_path / "o2"), "--quiet"]) == 0
    a = (tmp_path / "out" / "trace.csv").read_bytes()
    b = (tmp_path / "o2" / "trace.csv").read_bytes()
    assert a == b
    sa = (tmp_path / "out" / "summary.json").read_bytes()
    sb = (tmp_path / "o2" / "summary.json").read_bytes()
    assert sa == sb


def test_cli_run_h_override(tmp_path):
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--h", "0.002", "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["solver"]["h"] == 0.002


def test_cli_check_roundtrip(tmp_path):
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    trace = str(tmp_path / "out" / "trace.csv")
    assert main(["check", trace, "--bound", "exponential"]) == 0
    # wrong bound kind for this artifact
    assert main(["check", trace, "--bound", "inverse-square"]) == 2


def test_cli_check_flags_tampered_trace(tmp_path):
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    lines = trace.read_text().splitlines(keepends=True)
    header = lines[0].split(",")
    gap_col = header.index("f_gap")
    cells = lines[40].rstrip("\n").split(",")
    cells[gap_col] = "1e9"
    lines[40] = ",".join(cells) + "\n"
    trace.write_text("".join(lines))
    assert main(["check", str(trace), "--bound", "exponential"]) == 1


def test_cli_check_missing_summary(tmp_path):
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    trace = str(tmp_path / "out" / "trace.csv")
    assert main(["check", trace, "--bound", "exponential", "--summary", str(tmp_path / "no.json")]) == 2


def test_parse_values_tokens():
    assert _parse_values("0.002,0.001") == [0.002, 0.001]
    assert _parse_values("7, true, rk4") == [7, True, "rk4"]
    assert _parse_values("") == []


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("HAND_SIM_THREADS", "2")
    assert _thread_cap(8) == 2
    monkeypatch.setenv("HAND_SIM_THREADS", "zero")
    with pytest.raises(ConfigError):
        _thread_cap(8)
    monkeypatch.setenv("HAND_SIM_THREADS", "0")
    with pytest.raises(ConfigError):
        _thread_cap(8)
    monkeypatch.delenv("HAND_SIM_THREADS")
    assert _thread_cap(3) >= 1


def test_cli_sweep_merges_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("HAND_SIM_THREADS", "1")
    path = _fast_hand2(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", path, "--param", "solver.h", "--values", "0.002,0.001", "--out", out, "--quiet"]) == 0
    merged = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
    assert merged["param"] == "solver.h"
    assert merged["values"] == ["0.002", "0.001"]
    for token, entry in merged["runs"].items():
        assert entry["exit_status"] == 0
        assert entry["pass"] is True
        sub = tmp_path / "sweep" / entry["out_dir"]
        assert (sub / "summary.json").exists()


def test_cli_sweep_unknown_param(tmp_path):
    path = _fast_hand2(tmp_path)
    assert main(["sweep", path, "--param", "solver.dt", "--values", "0.01", "--quiet"]) == 2


def test_cli_sweep_empty_values(tmp_path):
    path = _fast_hand2(tmp_path)
    out = str(tmp_path / "sweep0")
    assert main(["sweep", path, "--param", "solver.h", "--values", "", "--out", out, "--quiet"]) == 0
    merged = json.loads((tmp_path / "sweep0" / "sweep_summary.json").read_text())
    assert merged["runs"] == {}


def _set_cells(trace, rows, value, column="f_gap"):
    """Overwrite one column's cell in the given data rows (1-based after the header)."""
    lines = trace.read_text().splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index(column)
    for k in rows:
        cells = lines[k].rstrip("\n").split(",")
        cells[col] = value
        lines[k] = ",".join(cells) + "\n"
    trace.write_text("".join(lines))


def test_cli_check_rejects_nan_gaps(tmp_path, capsys):
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    pristine = trace.read_text()
    assert main(["check", str(trace), "--bound", "exponential"]) == 0
    assert "holds" in capsys.readouterr().out
    # every cell nan: no margin is finite, so no row may count as passing
    _set_cells(trace, range(1, len(pristine.splitlines())), "nan")
    assert main(["check", str(trace), "--bound", "exponential"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "worst margin nan" in out
    # one nan cell among finite ones is enough
    trace.write_text(pristine)
    _set_cells(trace, [40], "nan")
    assert main(["check", str(trace), "--bound", "exponential"]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_cli_sweep_rejects_duplicate_values(tmp_path):
    path = _fast_hand2(tmp_path)
    out = tmp_path / "sweep"
    # 0.02 and 0.020 are the same value and would share one run directory
    assert main(["sweep", path, "--param", "solver.h", "--values", "0.02,0.020",
                 "--out", str(out), "--quiet"]) == 2
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("token", ["../../x", "a/b", ".", ".."])
def test_cli_sweep_rejects_unsafe_values(tmp_path, token):
    path = _fast_hand2(tmp_path)
    out = tmp_path / "sweep" / "inner"
    assert main(["sweep", path, "--param", "solver.integrator", "--values", "rk4," + token,
                 "--out", str(out), "--quiet"]) == 2
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_cli_check_rejects_fault_label_before_last_row(tmp_path, capsys):
    path = _fast_hand2(tmp_path, t_end=20.0)
    assert main(["run", path, "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    assert main(["check", str(trace), "--bound", "exponential"]) == 0
    assert "holds" in capsys.readouterr().out
    _set_cells(trace, [40], "1e9")
    assert main(["check", str(trace), "--bound", "exponential"]) == 1
    assert "VIOLATED" in capsys.readouterr().out
    # relabelling the violating row as a fault must not hide it: a run
    # writes its one fault row last
    _set_cells(trace, [40], "fault", column="event")
    assert main(["check", str(trace), "--bound", "exponential"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "fault" in out


@pytest.mark.parametrize("scenario, overrides", [
    ("hand1-rate", {}),
    ("hand2-rate", {}),
    ("hand2-rate", {"cost": "coupled2", "params.x0": [1.1, 0.4]}),
], ids=["hand1-rate", "hand2-rate", "hand2-rate-coupled2"])
def test_cli_check_verdict_matches_run_monitor(scenario, overrides, tmp_path, monkeypatch, capsys):
    # the offline audit re-verifies the monitor's own constants over the rows
    # the monitor checked, and reaches the run's verdict and worst margin
    import handsim.scenarios as scenarios

    name = "check_inverse_square_rate" if scenario == "hand1-rate" else "check_exponential_rate"
    monitor = getattr(scenarios, name)
    checked = []

    def recording(*args, **kwargs):
        rep = monitor(*args, **kwargs)
        if kwargs.get("use_clock", True):
            checked.append(rep.checked)
        return rep

    monkeypatch.setattr(scenarios, name, recording)
    config = apply_override(load_config(os.path.join(CONFIGS, scenario + ".json")), "solver.h", 0.01)
    for key, value in overrides.items():
        config = apply_override(config, key, value)
    code = run_scenario(config, out_dir=str(tmp_path), quiet=True)
    summary = json.loads((tmp_path / "summary.json").read_text())
    if scenario == "hand1-rate":
        runs = [summary["traces"][c] for c in sorted(summary["traces"])]
        verdicts = [run["quadratic_bound_satisfied"] for run in runs]
        worst = [run["worst_margin"] for run in runs]
    else:
        verdicts = [summary["checks"]["exponential_bound"]]
        worst = [summary["results"]["worst_bound_margin"]]
        bc, constants = summary["bound_checks"]["trace.csv"], summary["constants"]
        assert [bc[k] for k in ("k_a", "k_b", "delta_t", "r0_sq")] == \
            [constants[k] for k in ("k_a", "k_b", "dT", "r0sq")]
    # the bundled configs pass; the coupled2 run violates its bound once the
    # gap reaches its rounding floor, and the audit must say so too
    assert (code == 0) == (not overrides) == all(verdicts)
    traces = sorted(summary["bound_checks"])
    assert len(traces) == len(checked) == len(worst) == (5 if scenario == "hand1-rate" else 1)
    capsys.readouterr()
    for trace, count, margin, ok in zip(traces, checked, worst, verdicts):
        kind = summary["bound_checks"][trace]["kind"]
        assert main(["check", str(tmp_path / trace), "--bound", kind]) == (0 if ok else 1)
        assert "%s (%d samples, worst margin %.6g)" % ("holds" if ok else "VIOLATED", count, 0.0 - margin) \
            in capsys.readouterr().out
