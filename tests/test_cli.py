"""Config plumbing and the hand-sim command line."""

import copy
import errno
import json
import math
import os
import shutil
import warnings

import numpy as np
import pytest

from handsim import ConfigError, SCENARIOS, core, default_config, parse_config, run_scenario
from handsim.analysis import check_jump_identity
from handsim.cli import _build_parser, _parse_values, main
from handsim.core import Trace, hybrid_time_fault, sphere_cost
from handsim.hands import HandParams
from handsim.io import read_trace_csv
from handsim.scenarios import (
    _fan_out,
    _leaf,
    _resolve,
    _thread_cap,
    apply_override,
    load_config,
)

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
    # an integer leaf takes no float, even a whole one, and a list is never empty
    with pytest.raises(ConfigError, match="solver.max_jumps must be an integer"):
        parse_config({"scenario": "hand2-rate", "solver": {"max_jumps": 1e6}})
    with pytest.raises(ConfigError, match="params.t0_values must be a non-empty list"):
        parse_config({"scenario": "uniformity-probe", "params": {"t0_values": []}})


def _leaves(node, key=""):
    for name, value in node.items():
        here = key + "." + name if key else name
        if isinstance(value, dict):
            yield from _leaves(value, here)
        else:
            yield here, value


def _nested(dotted, value):
    """The config fragment that sets one dotted key."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


# The leaf rule: a leaf takes its default's JSON type (an int default takes
# no float or bool, a float default takes any number), null where the default
# is null or the number is optional, and a list of numbers where the default
# is a list or the key names a vector.
_NULLABLE = {"hand.t_med", "ode.ell", "disturbance.period", "disturbance.value",
             "disturbance.hold", "params.phases"}
_VECTOR = {"params.x0", "params.phases", "disturbance.axis"}
_BAD_VALUES = {
    "null": (None, lambda key, d: d is None or key in _NULLABLE),
    "string": ("oops", lambda key, d: isinstance(d, str)),
    "list": ([1, 2], lambda key, d: isinstance(d, list) or key in _VECTOR),
    "true": (True, lambda key, d: isinstance(d, bool)),
}


_LEAF_CASES = [(name, key) for name in SCENARIOS for key, _ in _leaves(default_config(name))]


def test_settable_value_count_is_pinned():
    # every settable value, scenario included, over the seven default trees:
    # a new config key changes this number, and so has to say why it runs
    assert len(_LEAF_CASES) == 151


def test_src_line_count_is_capped():
    # the lines of src/handsim/*.py, as wc -l counts them, which the roadmap
    # tracks as a size metric (lower is better): a change that grows src/
    # raises this ceiling in its own diff, and says why
    src = os.path.dirname(os.path.abspath(core.__file__))
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += fh.read().count("\n")
    assert total <= 3854


@pytest.mark.parametrize("scenario, key", _LEAF_CASES)
def test_every_leaf_refuses_values_of_another_type(scenario, key):
    default = dict(_leaves(default_config(scenario)))[key]
    tried = 0
    for label, (value, accepts) in _BAD_VALUES.items():
        if accepts(key, default):
            continue
        tried += 1
        cfg = {"scenario": scenario}
        cfg.update(_nested(key, value))
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert key in str(err.value), (label, str(err.value))
    assert tried >= 2


@pytest.mark.parametrize("scenario, key", _LEAF_CASES)
def test_every_leaf_keeps_its_default_and_bounds_numbers(scenario, key):
    # a default is inside its own leaf's rule, so a key cannot be added with
    # a default the rule refuses; a number at either end of the float range
    # either resolves or is refused by a message naming the key, before
    # anything runs
    default = dict(_leaves(default_config(scenario)))[key]
    kept = _leaf(default, default, key)
    assert kept == default and type(kept) is type(default)
    if isinstance(default, (bool, str)) or (default is None and key not in _NULLABLE):
        return
    section, _, name = key.rpartition(".")
    vector = isinstance(default, list) or key == "params.phases"
    for value in (0, -1, 1e300, 1e-300):
        cfg = {"scenario": scenario}
        cfg.update(_nested(key, [value] * len(default or [0]) if vector else value))
        try:
            parse_config(cfg)
        except ConfigError as err:
            # the leaf rule and the rules across keys name the dotted key;
            # the object a hand, ode, solver or disturbance section builds
            # names the section and its field
            text = str(err)
            assert key in text or (section != "params" and text.startswith(section + ": ")
                                   and name in text), (value, text)


def test_leaf_rule_stores_numbers_as_floats():
    cfg = parse_config({"scenario": "uniformity-probe", "solver": {"h": 1, "max_jumps": 7},
                        "params": {"x0": 2, "phases": [1, 2.5], "s_values": [10, 100]}})
    assert type(cfg["solver"]["h"]) is float and type(cfg["solver"]["max_jumps"]) is int
    assert type(cfg["params"]["x0"]) is float
    assert [type(v) for v in cfg["params"]["phases"] + cfg["params"]["s_values"]] == [float] * 4


@pytest.mark.parametrize("scenario, key, value", [
    ("hand2-rate", "params.tol", None),
    ("hand1-rate", "params.seed", True),
    ("restart-sweep", "params.n_grid", 15.0),
    ("instability", "ode.ell", [1, 2]),
    ("robustness-margin", "disturbance.axis", True),
    ("discretization-order", "solver.max_jumps", 1e6),
    ("uniformity-probe", "params.s_values", "oops"),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_cli_run_leaf_type_error_leaves_no_output(scenario, key, value, tmp_path, capsys):
    path = _write_config(tmp_path, scenario, **_nested(key, value))
    assert main(["run", path, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: %s must be" % key)
    assert not (tmp_path / "out").exists()


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


def test_cli_run_h_on_discretization_order_is_refused(tmp_path, capsys):
    # discretization-order sets its own steps from params.k_min and k_max,
    # so it has no solver.h for --h to override
    path = _write_config(tmp_path, "discretization-order")
    assert main(["run", path, "--h", "0.01", "--quiet"]) == 2
    assert "config error: unknown override key 'solver.h'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("cpus, cap", [({0}, 1), ({0, 2, 5}, 3)])
def test_thread_cap_counts_the_cpus_this_process_may_use(monkeypatch, cpus, cap):
    # under taskset the affinity mask, not the machine's CPU count, bounds
    # the default
    monkeypatch.delenv("HAND_SIM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert _thread_cap(8) == cap
    assert _thread_cap(2) == min(2, cap)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value", ["zero", "0", "-2"])
def test_cli_bad_thread_cap_leaves_no_output(tmp_path, monkeypatch, capsys, command, value):
    monkeypatch.setenv("HAND_SIM_THREADS", value)
    path = _fast_hand2(tmp_path)
    out = tmp_path / "given"
    argv = [command, path, "--out", str(out), "--quiet"]
    if command == "sweep":
        argv += ["--param", "solver.h", "--values", "0.002,0.001"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: HAND_SIM_THREADS")
    assert not out.exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_fan_out_returns_results_in_item_order(monkeypatch, workers):
    # the job, a closure, is never pickled: the workers are forks of this
    # process
    monkeypatch.setenv("HAND_SIM_THREADS", str(workers))
    assert _fan_out(lambda x: x * x, range(11)) == [x * x for x in range(11)]
    assert _fan_out(lambda x: x * x, []) == []


class _Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__("%s and %s" % (a, b))


@pytest.mark.parametrize("failing, error, match", [
    ({0, 4}, ValueError, "item 0"),  # the parent's own share
    ({4, 8}, ConfigError, "item 4"),  # worker 1's, the first failure in item order
    ({5, 7}, ValueError, "item 5"),  # worker 2's
    ({7}, RuntimeError, "_Unpicklable: a and b"),
], ids=["parent", "worker-config-error", "worker-value-error", "unpicklable"])
def test_fan_out_reraises_the_first_failure_and_reaps_every_worker(monkeypatch, failing, error, match):
    monkeypatch.setenv("HAND_SIM_THREADS", "3")

    def job(x):
        if x in failing:
            if error is RuntimeError:
                raise _Unpicklable("a", "b")
            raise error("item %d" % x)
        return x

    with pytest.raises(error, match=match) as info:
        _fan_out(job, range(10))
    assert type(info.value) is error
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_reissues_a_workers_warning(monkeypatch):
    monkeypatch.setenv("HAND_SIM_THREADS", "2")

    def job(x):
        if x == 1:
            warnings.warn("from item %d" % x, UserWarning)
        return x

    with pytest.warns(UserWarning, match="from item 1"):
        assert _fan_out(job, range(4)) == [0, 1, 2, 3]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_runs_the_shares_of_workers_that_did_not_start(monkeypatch):
    # a fork that fails (EAGAIN under a process limit) leaves its share and
    # every later one to this process: the results, and the first failure in
    # item order, are those of any worker count, and the started worker is
    # reaped; no real process limit is reached
    monkeypatch.setenv("HAND_SIM_THREADS", "4")
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert _fan_out(lambda x: x * x, range(11)) == [x * x for x in range(11)]

    def job(x):
        if x in (6, 9):  # shares 2 and 1: share 2 never started
            raise ValueError("item %d" % x)
        return x

    forks.clear()
    with pytest.raises(ValueError, match="item 6"):
        _fan_out(job, range(11))
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_run_survives_a_failing_fork(tmp_path, monkeypatch, capsys):
    # hand-sim run at three workers whose second fork fails writes the
    # artifacts of a serial run and exits 0, with no traceback
    path = _write_config(tmp_path, "restart-sweep", solver={"h": 0.02, "t_end": 20.0})
    trees = {}
    for workers in ("1", "3"):
        monkeypatch.setenv("HAND_SIM_THREADS", workers)
        if workers == "3":
            real_fork, forks = os.fork, []

            def fork():
                forks.append(1)
                if len(forks) == 2:
                    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
                return real_fork()

            monkeypatch.setattr(os, "fork", fork)
        out = tmp_path / workers
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        trees[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(forks) == 2 and trees["1"] == trees["3"]
    assert capsys.readouterr().err == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the bundled scenarios that fan out, shrunk
_FANNED = {
    "restart-sweep": {"solver.h": 0.02, "solver.t_end": 20.0},
    "hand1-rate": {"solver.h": 0.01, "solver.t_end": 10.0},
    "discretization-order": {"solver.t_end": 2.0, "params.k_max": 9, "params.ref_factor": 16},
    "instability": {"solver.h": 0.04, "params.hand_t_end": 3000.0},
    "uniformity-probe": {"params.t0_values": [1.0, 10.0], "solver.t_end": 20.0},
}


@pytest.mark.parametrize("scenario", sorted(_FANNED))
def test_fanned_out_artifacts_do_not_depend_on_the_worker_count(scenario, tmp_path, monkeypatch, capsys):
    # the artifacts, and the progress lines the caller prints, in run order
    config = load_config(os.path.join(CONFIGS, scenario + ".json"))
    for key, value in _FANNED[scenario].items():
        config = apply_override(config, key, value)
    files, stdout = {}, {}
    for workers in ("1", "3"):
        monkeypatch.setenv("HAND_SIM_THREADS", workers)
        out = tmp_path / workers
        assert run_scenario(config, out_dir=str(out)) == 0
        files[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        stdout[workers] = capsys.readouterr().out.replace(str(out), "<out>")
    assert files["1"] == files["3"]
    assert len(files["1"]) == len(json.loads(files["1"]["summary.json"])["artifacts"])
    assert stdout["1"] == stdout["3"]
    assert stdout["1"].count("\n") > 1 + len(json.loads(files["1"]["summary.json"])["checks"])


def test_a_repeated_fanned_out_run_compiles_no_source_in_any_process(tmp_path, monkeypatch):
    # every timer window shares one kernel of each shape, so after one
    # restart-sweep the calling process holds every kernel the next needs,
    # and the workers it forks inherit them: the second run compiles no
    # generated text in any process. The spy records each compile, with the
    # compiling process, in a file, which the forked workers append to
    monkeypatch.setenv("HAND_SIM_THREADS", "2")
    config = load_config(os.path.join(CONFIGS, "restart-sweep.json"))
    for key, value in _FANNED["restart-sweep"].items():
        config = apply_override(config, key, value)
    assert run_scenario(config, out_dir=str(tmp_path / "a"), quiet=True) == 0
    log = tmp_path / "compiled.log"
    real = core._compiled

    def spy(text, name):
        misses = real.cache_info().misses
        code = real(text, name)
        if real.cache_info().misses > misses:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write("%d %s\n" % (os.getpid(), name))
        return code

    monkeypatch.setattr(core, "_compiled", spy)
    assert run_scenario(config, out_dir=str(tmp_path / "b"), quiet=True) == 0
    assert not log.exists()
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
    # the spy sees a new text in each process: here and in a forked worker
    pids = _fan_out(lambda k: (core.compile_source("def probe():\n    return %d\n" % k, "probe")(), os.getpid()),
                    [hash(str(tmp_path)) + k for k in range(2)])
    assert len({pid for _, pid in pids}) == 2
    assert sorted(log.read_text().split("\n")[:-1]) == sorted("%d probe" % pid for _, pid in pids)


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


def test_cli_sweep_on_workers_matches_a_serial_sweep(tmp_path, monkeypatch):
    # each restart-sweep runs serially inside its sweep worker: the one fork
    # is the sweep's own, and a fork in a worker fails the run
    path = _write_config(tmp_path, "restart-sweep", solver={"h": 0.02, "t_end": 20.0})
    parent, real_fork = os.getpid(), os.fork
    forks = []

    def fork():
        if os.getpid() != parent:
            raise AssertionError("a worker started a worker")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    trees = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("HAND_SIM_THREADS", workers)
        out = tmp_path / ("sweep" + workers)
        assert main(["sweep", path, "--param", "params.n_grid", "--values", "5,7", "--out", str(out),
                     "--quiet"]) == 0
        trees[workers] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert len(forks) == 1
    assert trees["1"] == trees["2"]
    assert sorted(trees["1"]) == ["params-n_grid=%d/%s" % (n, name) for n in (5, 7)
                                  for name in ("plot.gp", "summary.json", "sweep.csv")] + ["sweep_summary.json"]


def test_cli_sweep_unknown_param(tmp_path):
    path = _fast_hand2(tmp_path)
    assert main(["sweep", path, "--param", "solver.dt", "--values", "0.01", "--quiet"]) == 2


def test_cli_sweep_bad_value_writes_nothing(tmp_path, capsys):
    # every value's config is resolved before the first run starts
    path = _fast_hand2(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", path, "--param", "solver.h", "--values", "0.01,-1", "--out", str(out),
                 "--quiet"]) == 2
    assert "config error: solver: h must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_empty_values(tmp_path, capsys):
    # a sweep over no value runs nothing, so it cannot pass
    path = _fast_hand2(tmp_path)
    out = tmp_path / "sweep0"
    for values in ("", ",,"):
        assert main(["sweep", path, "--param", "solver.h", "--values", values, "--out", str(out), "--quiet"]) == 2
        assert "config error: --values names no value" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_an_out_that_cannot_be_a_directory_is_a_config_error(sub, tmp_path, capsys):
    # a file at the output path or at one of its parents
    path = _fast_hand2(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = str(blocker / sub) if sub else str(blocker)
    assert main(["run", path, "--out", out, "--quiet"]) == 2
    assert main(["sweep", path, "--param", "solver.h", "--values", "0.01", "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: cannot make output directory %s: " % out) == 2
    assert blocker.read_text() == "kept\n"


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
    pristine = trace.read_text()
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
    # nor as the last row: a fault row repeats the row before it
    trace.write_text(pristine)
    last = len(pristine.splitlines()) - 1
    _set_cells(trace, [last], "1e9")
    assert main(["check", str(trace), "--bound", "exponential"]) == 1
    assert "VIOLATED" in capsys.readouterr().out
    _set_cells(trace, [last], "fault", column="event")
    assert main(["check", str(trace), "--bound", "exponential"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "fault row on data row %d of %d differs" % (last, last) in out
    # a fault row as the engine writes it, at its own (t, j) with the state
    # cells of the row before it, passes
    lines = pristine.splitlines()
    lines[last] = ",".join(lines[last].split(",")[:2] + lines[last - 1].split(",")[2:-1] + ["fault"])
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), "--bound", "exponential"]) == 0
    assert "holds" in capsys.readouterr().out


@pytest.mark.parametrize("scenario, overrides", [
    ("hand1-rate", {}),
    ("hand2-rate", {}),
    ("hand2-rate", {"cost": "coupled2", "params.x0": [1.1, 0.4]}),
], ids=["hand1-rate", "hand2-rate", "hand2-rate-coupled2"])
def test_cli_check_verdict_matches_run_monitor(scenario, overrides, tmp_path, monkeypatch, capsys):
    # the offline audit re-verifies the monitor's own constants over the rows
    # the monitor checked, and reaches the run's verdict and worst margin;
    # the runs stay in this process, where the spy records them
    import handsim.scenarios as scenarios

    monkeypatch.setenv("HAND_SIM_THREADS", "1")

    name = "check_inverse_square_rate" if scenario == "hand1-rate" else "check_exponential_rate"
    monitor = getattr(scenarios, name)
    checked = []

    def recording(*args, **kwargs):
        rep = monitor(*args, **kwargs)
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
        assert "%s (%d samples, worst margin %.6g)" % ("holds" if ok else "VIOLATED", count, margin) \
            in capsys.readouterr().out


def test_cli_check_rejects_unknown_event_label(tmp_path, capsys):
    path = _fast_hand2(tmp_path, t_end=20.0)
    assert main(["run", path, "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    # a label the writer never emits is a damaged trace, not a sample
    _set_cells(trace, [40, 41], "banana", column="event")
    assert main(["check", str(trace), "--bound", "exponential"]) == 2
    err = capsys.readouterr().err
    assert "row 41" in err and "banana" in err


def test_cli_check_unreadable_inputs(tmp_path, capsys):
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    out = tmp_path / "out"
    trace = str(out / "trace.csv")
    # a summary that is not JSON
    broken = tmp_path / "broken.json"
    broken.write_text('{"bound_checks": ')
    assert main(["check", trace, "--bound", "exponential", "--summary", str(broken)]) == 2
    assert "broken.json" in capsys.readouterr().err
    # a summary with no entry for the trace
    (out / "other.csv").write_bytes((out / "trace.csv").read_bytes())
    assert main(["check", str(out / "other.csv"), "--bound", "exponential"]) == 2
    assert "'other.csv'" in capsys.readouterr().err
    # a trace that cannot be read
    assert main(["check", str(tmp_path / "gone" / "trace.csv"), "--bound", "exponential",
                 "--summary", str(out / "summary.json")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


@pytest.mark.parametrize("edit, bound, key", [
    (lambda bc: [], "exponential", "'trace.csv'"),
    (lambda bc: {"bound_checks": {"trace.csv": 5}}, "exponential", "'trace.csv'"),
    (lambda bc: {"bound_checks": {"trace.csv": {k: v for k, v in bc.items() if k != "k_a"}}},
     "exponential", "'k_a'"),
    (lambda bc: {"bound_checks": {"trace.csv": {"kind": "inverse-square", "tol": 0.0}}},
     "inverse-square", "'beta'"),
    # the summary writer records a constant that is not finite as null
    (lambda bc: {"bound_checks": {"trace.csv": dict(bc, k_a=None)}}, "exponential", "'k_a'"),
    (lambda bc: {"bound_checks": {"trace.csv": dict(bc, tol=[0.0])}}, "exponential", "'tol'"),
    (lambda bc: {"bound_checks": {"trace.csv": {"kind": "inverse-square", "beta": "x", "tol": 0.0,
                                                "t_min": 1.0}}},
     "inverse-square", "'beta'"),
], ids=["root-list", "entry-number", "exponential-no-k_a", "inverse-square-no-beta",
        "exponential-null-k_a", "exponential-list-tol", "inverse-square-string-beta"])
def test_cli_check_malformed_summary_exits_2(edit, bound, key, tmp_path, capsys):
    # a summary of the wrong shape is a usage error naming the summary and
    # the key, not a traceback that reads as a failed check
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    bc = json.loads((tmp_path / "out" / "summary.json").read_text())["bound_checks"]["trace.csv"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(edit(bc)))
    assert main(["check", str(trace), "--bound", bound, "--summary", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "broken.json" in err and key in err


def test_cli_robustness_margin_rejects_constant_disturbance(tmp_path, capsys):
    # the bisection scales eps, which a constant disturbance ignores: every
    # amplitude would run the same signal and report a margin it never
    # tested. The scenario has no disturbance.value, so a constant given
    # none is refused by its kind, before the perturbation is built.
    base = {"solver": {"t_end": 10.0}, "params": {"settle": 5.0, "bisect_steps": 1}}
    for section, message in (({"kind": "constant", "value": 1e-6}, "unknown key 'disturbance.value'"),
                             ({"kind": "constant"}, "config error: disturbance.kind: "),
                             ({"kind": "zero"}, "config error: disturbance.kind: ")):
        path = _write_config(tmp_path, "robustness-margin", disturbance=section, **base)
        assert main(["run", path, "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    path = _write_config(tmp_path, "robustness-margin", disturbance={"kind": "square_wave", "period": 1.0}, **base)
    assert main(["run", path, "--quiet"]) in (0, 1)
    assert (tmp_path / "out" / "bisection.csv").exists()


_NARROW = "hand: timer window [1.0, 1.0000000001] is no wider than the jump band"


@pytest.mark.parametrize("scenario, extra, message", [
    ("hand2-rate", {"params": {"x0": [1.0, 2.0]}}, "params.x0"),
    ("hand2-rate", {"params": {"x0": None}}, "params.x0"),
    ("uniformity-probe", {"params": {"x0": [1.0, 2.0]}}, "params.x0"),
    ("instability", {"params": {"hand_t_end": -1.0}}, "params.hand_t_end"),
    ("instability", {"params": {"x0": 0.0}}, "params.x0"),
    ("hand2-rate", {"params": {"x0": math.nan}}, "params.x0"),
    ("restart-sweep", {"params": {"x0": math.inf}}, "params.x0"),
    ("uniformity-probe", {"params": {"eps": math.nan}}, "params.eps"),
    ("restart-sweep", {"params": {"factor_budget": 0.0}}, "params.factor_budget"),
    ("restart-sweep", {"params": {"t_min": 0.0}}, "params.t_min"),
    ("restart-sweep", {"params": {"c": -1.0}}, "params.c"),
    ("restart-sweep", {"params": {"eps": 0.0}}, "params.eps"),
    ("restart-sweep", {"params": {"x0": 0.0}}, "params.x0"),
    ("uniformity-probe", {"params": {"eps": 0.0}}, "params.eps"),
    ("uniformity-probe", {"params": {"ell2": 1.0}}, "params.ell2"),
    ("uniformity-probe", {"params": {"r": -1.0}}, "params.r"),
    ("robustness-margin", {"params": {"eps_lo": -1.0}}, "params.eps_lo"),
    ("robustness-margin", {"params": {"eps_hi": -1.0}}, "params.eps_hi"),
    ("discretization-order", {"params": {"ref_factor": 0}}, "params.ref_factor"),
    ("discretization-order", {"params": {"euler_order": [1.0, 1.1, 1.2]}}, "params.euler_order"),
    # a negative seed, which numpy's generator refuses only once a run draws from it
    ("hand1-rate", {"params": {"seed": -1}}, "params.seed"),
    ("hand2-rate", {"solver": {"policy_seed": -1, "jump_policy": "uniform"}}, "solver.policy_seed"),
    ("instability", {"disturbance": {"seed": -1, "kind": "uniform_random", "hold": 1.0}}, "disturbance.seed"),
    # ranges the probes checked only while they ran
    ("uniformity-probe", {"params": {"t0_values": [-1.0]}}, "params.t0_values"),
    ("uniformity-probe", {"params": {"phases": [0.5]}}, "params.phases"),
    # an inverted bracket, and configs on which a certificate passed without testing anything:
    # a growth factor of 1 is reached at t = 0, and every bisection midpoint from 0 is 0
    ("robustness-margin", {"params": {"eps_lo": 2.0, "eps_hi": 1.0}}, "params.eps_lo"),
    ("instability", {"params": {"growth_factor": 1.0}}, "params.growth_factor"),
    ("robustness-margin", {"params": {"eps_lo": 0.0}}, "params.eps_lo"),
    # runs from the minimizer and equal damping masses, which measure nothing
    ("discretization-order", {"params": {"x0": 0.0}}, "params.x0"),
    ("uniformity-probe", {"params": {"x0": 0.0}}, "params.x0"),
    # offsets whose cost gap is already within eps (1.25e-3 and an underflowed
    # 0 against 1e-2): every time to eps reads 0
    ("uniformity-probe", {"params": {"x0": 0.1}}, "params.x0 must start outside params.eps"),
    ("uniformity-probe", {"params": {"x0": 1e-170}}, "params.x0 must start outside params.eps"),
    ("uniformity-probe", {"params": {"s_values": [0.0, 0.0, 0.0, 0.0]}}, "params.s_values"),
    # start times out of order or repeated, which read as a failed claim
    ("uniformity-probe", {"params": {"t0_values": [10.0, 1.0]}, "solver": {"t_end": 5.0}},
     "params.t0_values must strictly increase"),
    ("uniformity-probe", {"params": {"t0_values": [1.0, 1.0]}, "solver": {"t_end": 5.0}},
     "params.t0_values must strictly increase"),
    # mu c underflows to 0, so 1/(mu c) is inf and no window meets the dwell condition
    ("hand2-rate", {"cost": "example1", "hand": {"c": 5e-324}}, "hand: t_min, t_max and c must meet the dwell"),
    # a sweep started inside eps (gaps 5e-7 and 5e-9 against 1e-6): its
    # certified time is 0, but its end-of-period samples read one period
    ("restart-sweep", {"params": {"x0": 1e-3}, "solver": {"h": 0.02}}, "params.x0 must start outside params.eps"),
    ("restart-sweep", {"params": {"x0": 1e-4}, "solver": {"h": 0.02}}, "params.x0 must start outside params.eps"),
    # a budget below 1 bands a max/min ratio into an empty [1/b, b]
    ("restart-sweep", {"params": {"factor_budget": 0.5}}, "params.factor_budget must be at least 1"),
    ("uniformity-probe", {"params": {"ratio_budget": 0.5}}, "params.ratio_budget must be at least 1"),
    # a momentum-reset system jumps only at t_max, so it has no t_med
    ("hand2-rate", {"hand": {"t_med": 1.5}}, "unknown key 'hand.t_med'"),
    ("instability", {"hand": {"t_med": 1.5}}, "unknown key 'hand.t_med'"),
    ("discretization-order", {"hand": {"t_med": 1.5}}, "unknown key 'hand.t_med'"),
    ("robustness-margin", {"hand": {"t_med": 1.5}}, "unknown key 'hand.t_med'"),
    # a run from the minimizer scores no period and no jump
    ("hand2-rate", {"params": {"x0": 0.0}}, "params.x0 must give a nonzero initial offset"),
    # keys no run read: a runner set them itself, or only a run that never
    # jumps saw them; and uniformity-probe's offset is params.x0, as elsewhere
    ("instability", {"solver": {"max_jumps": 5}}, "unknown key 'solver.max_jumps'"),
    ("instability", {"solver": {"jump_policy": "earliest"}}, "unknown key 'solver.jump_policy'"),
    ("discretization-order", {"solver": {"h": 0.01}}, "unknown key 'solver.h'"),
    ("discretization-order", {"solver": {"integrator": "euler"}}, "unknown key 'solver.integrator'"),
    ("discretization-order", {"solver": {"jump_policy": "earliest"}}, "unknown key 'solver.jump_policy'"),
    ("discretization-order", {"solver": {"record_stride": 3}}, "unknown key 'solver.record_stride'"),
    ("restart-sweep", {"solver": {"record_stride": 3}}, "unknown key 'solver.record_stride'"),
    ("robustness-margin", {"disturbance": {"eps": 0.1}}, "unknown key 'disturbance.eps'"),
    ("robustness-margin", {"disturbance": {"value": 0.1}}, "unknown key 'disturbance.value'"),
    ("uniformity-probe", {"ode": {"t0": 2.0}}, "unknown key 'ode.t0'"),
    ("uniformity-probe", {"params": {"x_offset": 1.0}}, "unknown key 'params.x_offset'"),
    # a timer window no wider than the jump band around t_max: a jump's timer
    # t_min lies in the jump set, and the run jumps again without a flow step
    ("hand1-rate", {"hand": {"t_min": 1.0, "t_max": 1.0000000001, "t_med": None}}, _NARROW),
    ("hand2-rate", {"hand": {"t_min": 1.0, "t_max": 1.0000000001}}, _NARROW),
    ("instability", {"hand": {"t_min": 1.0, "t_max": 1.0000000001}}, _NARROW),
    ("discretization-order", {"hand": {"t_min": 1.0, "t_max": 1.0000000001}}, _NARROW),
    ("robustness-margin", {"hand": {"t_min": 1.0, "t_max": 1.0000000001}}, _NARROW),
    ("uniformity-probe", {"hand": {"t_min": 1.0, "t_max": 1.0000000001}}, _NARROW),
    # restart-sweep builds its windows from params.span; the narrowest is
    # span[0] times the optimal period
    ("restart-sweep", {"params": {"span": [1e-12, 2.0]}}, "params.span: timer window"),
], ids=["hand2-x0-length", "hand2-x0-null", "uniformity-x-offset-length", "instability-hand-t-end",
        "instability-zero-offset", "hand2-x0-nan", "restart-sweep-x0-inf", "uniformity-eps-nan",
        "restart-sweep-zero-budget", "restart-sweep-zero-t-min", "restart-sweep-negative-c",
        "restart-sweep-zero-eps", "restart-sweep-zero-offset", "uniformity-zero-eps",
        "uniformity-ell2-one", "uniformity-negative-r", "robustness-negative-eps-lo",
        "robustness-negative-eps-hi", "discretization-zero-ref-factor", "discretization-order-triple",
        "hand1-negative-seed", "hand2-negative-policy-seed", "instability-negative-disturbance-seed",
        "uniformity-negative-t0", "uniformity-phase-outside-window", "robustness-inverted-bracket",
        "instability-growth-factor-one", "robustness-zero-eps-lo", "discretization-zero-offset",
        "uniformity-zero-offset", "uniformity-offset-inside-eps", "uniformity-tiny-offset",
        "uniformity-equal-s-values", "uniformity-unsorted-t0-values", "uniformity-repeated-t0-values",
        "hand2-c-subnormal", "restart-sweep-offset-inside-eps", "restart-sweep-tiny-offset",
        "restart-sweep-budget-below-one", "uniformity-budget-below-one", "hand2-t-med",
        "instability-t-med", "discretization-t-med", "robustness-t-med", "hand2-zero-offset",
        "instability-max-jumps", "instability-jump-policy", "discretization-h", "discretization-integrator",
        "discretization-jump-policy", "discretization-record-stride", "restart-sweep-record-stride",
        "robustness-disturbance-eps", "robustness-disturbance-value", "uniformity-ode-t0",
        "uniformity-x-offset", "hand1-narrow-window", "hand2-narrow-window", "instability-narrow-window",
        "discretization-narrow-window", "robustness-narrow-window", "uniformity-narrow-window",
        "restart-sweep-narrow-span"])
def test_cli_run_param_errors_leave_no_output(scenario, extra, message, tmp_path, capsys):
    # checked while the config resolves, before the output directory exists
    path = _write_config(tmp_path, scenario, **extra)
    assert main(["run", path, "--quiet"]) == 2
    assert "config error: %s" % message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, extra, code", [
    ("instability", {"hand": {"t_max": 1e300}, "solver": {"t_end": 20.0}, "params": {"hand_t_end": 20.0}}, 1),
    # no period ends before the horizon, so contraction and the jump identity score nothing
    ("hand2-rate", {"hand": {"t_max": 1e300}, "solver": {"t_end": 10.0}}, 1),
    ("robustness-margin", {"hand": {"t_max": 1e300}, "solver": {"t_end": 10.0},
                           "params": {"settle": 5.0, "bisect_steps": 1}}, 0),
    ("hand2-rate", {"hand": {"t_min": 1e-300}}, 2),
    ("discretization-order", {"hand": {"t_min": 1e-300}}, 2),
    ("restart-sweep", {"params": {"t_min": 1e300}}, 2),
    ("restart-sweep", {"params": {"x0": 1e300}}, 2),
    ("hand2-rate", {"hand": {"c": 1e-300}}, 2),
    ("discretization-order", {"hand": {"c": 1e-300}}, 2),
    ("hand1-rate", {"solver": {"h": 1e300}}, 1),
    ("hand1-rate", {"solver": {"t_end": 1e-300}}, 1),
    ("hand1-rate", {"hand": {"c": 1e300}}, 1),
    # the dwell warning's 1/(mu c) with mu c underflowed to 0; hand2 barely
    # feels the gradient and fails hand2_bounded
    ("instability", {"hand": {"c": 5e-324}, "solver": {"h": 0.04}, "params": {"hand_t_end": 3000.0}}, 1),
    # a horizon before the first jump at t = 1 scores no period and no jump
    ("hand2-rate", {"solver": {"t_end": 0.5}}, 1),
], ids=["instability-t-max-huge", "hand2-t-max-huge", "robustness-t-max-huge", "hand2-t-min-tiny",
        "discretization-t-min-tiny", "restart-sweep-t-min-huge", "restart-sweep-x0-huge",
        "hand2-c-tiny", "discretization-c-tiny", "hand1-h-huge", "hand1-t-end-tiny", "hand1-c-huge",
        "instability-c-subnormal", "hand2-t-end-short"])
def test_cli_run_boundary_values_exit_cleanly(scenario, extra, code, tmp_path, capsys):
    # values at the ends of the float range that once ended in a traceback
    # (a float ** that overflows, a timer window squared to 0, an infinite
    # restart period) or in exit 2 after the output directory existed: what
    # the config alone decides is refused before the directory is made, and
    # a run that goes ahead writes its summary. A hand1 run that takes no
    # first-flow sample, or faults on its first step, fails its rate check.
    path = _write_config(tmp_path, scenario, **extra)
    assert main(["run", path, "--quiet"]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error: ") and not (tmp_path / "out").exists()
    else:
        assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("scenario, extra", [
    ("hand1-rate", {"solver": {"t_end": 1e-300}}),
    ("hand1-rate", {"solver": {"h": 1e300}}),
    ("hand1-rate", {"hand": {"c": 1e300}}),
    ("hand2-rate", {"solver": {"t_end": 1e-300}}),
], ids=["hand1-t-end-tiny", "hand1-h-huge", "hand1-c-huge", "hand2-t-end-tiny"])
def test_rate_check_with_nothing_after_the_start_fails_in_run_and_check(scenario, extra, tmp_path, capsys):
    # the start row holds by how beta and k_a are built, so a run that
    # records no covered sample after t = 0 (its horizon is shorter than a
    # step, or it faults on its first step) proves nothing: the run's
    # monitor and the offline audit read the one rule and both fail
    path = _write_config(tmp_path, scenario, **extra)
    assert main(["run", path, "--quiet"]) == 1
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    if scenario == "hand1-rate":
        verdicts = [entry["quadratic_bound_satisfied"] for entry in summary["traces"].values()]
    else:
        verdicts = [summary["checks"]["exponential_bound"]]
    assert verdicts and not any(verdicts)
    capsys.readouterr()
    for name, bc in sorted(summary["bound_checks"].items()):
        table = read_trace_csv(str(out / name))
        covered = int(np.sum((table.event != "fault") & ((table.j == 0) | (bc["kind"] != "inverse-square"))))
        assert main(["check", str(out / name), "--bound", bc["kind"]]) == 1
        text = capsys.readouterr().out
        assert "VIOLATED (%d samples" % covered in text and "no covered sample after t = 0" in text, text


@pytest.mark.parametrize("cost, x0", [("example1", 1e-170), ("sphere2", [1e-170, -3e-171])])
def test_instability_tiny_offset_reaches_a_verdict(cost, x0, tmp_path):
    # an offset whose squares underflow is still nonzero: the run goes ahead
    # and measures its growth against the offset's own size, not against 0
    path = _write_config(tmp_path, "instability", cost=cost, solver={"h": 0.04, "t_end": 400.0},
                         params={"x0": x0, "hand_t_end": 100.0})
    assert main(["run", path, "--quiet"]) in (0, 1)
    with open(tmp_path / "out" / "summary.json", encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    for rep in ("rep1", "rep2"):
        assert runs[rep]["diverged"] and runs[rep]["termination"] == "condition"
        assert 100.0 <= runs[rep]["growth_reached"] < math.inf


def test_discretization_order_tiny_offset_fits_its_orders(tmp_path):
    # the global errors of an offset of 1e-170 square below the smallest
    # normal double: each is scaled before its norm, so no error reads 0 and
    # both fitted orders land in their bands. Its cost gaps underflow to 0,
    # so the stability runs score no period and no jump, and fail.
    path = _write_config(tmp_path, "discretization-order", params={"x0": 1e-170}, solver={"t_end": 10.0})
    assert main(["run", path, "--quiet"]) == 1
    with open(tmp_path / "out" / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    fitted, p = summary["results"]["fitted_order"], summary["config"]["params"]
    for scheme in ("euler", "rk4"):
        lo, hi = p["%s_order" % scheme]
        assert lo <= fitted[scheme] <= hi
    assert summary["checks"] == {"euler_order_near_one": True, "rk4_order_near_four": True,
                                 "stability_for_all_smaller_h": False}


@pytest.mark.parametrize("extra, jumps", [
    ({"solver": {"t_end": 0.5}}, 0),
    ({"solver": {"t_end": 10.0}, "params": {"x0": 1e-170}}, 9),
], ids=["t-end-short", "x0-tiny"])
def test_hand2_checks_that_score_nothing_fail(extra, jumps, tmp_path, capsys):
    # a horizon before the first jump leaves contraction and the jump
    # identity nothing to score; so does an offset whose gaps underflow to
    # 0, over nine jumps. Each fails, says why, and counts 0 periods.
    path = _write_config(tmp_path, "hand2-rate", **extra)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "per_period_contraction: no periods scored" in out and "jump_identity_matches: no jumps scored" in out
    with open(tmp_path / "out" / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["checks"] == {"exponential_bound": True, "per_period_contraction": False,
                                 "energy_monotone": True, "jump_identity_matches": False}
    assert summary["results"]["periods_checked"] == 0 and summary["results"]["jumps"] == jumps
    assert summary["results"]["closed_form_worst_rel_err"] is None
    assert summary["results"]["worst_contraction_ratio"] is None


def test_hand2_jump_identity_fails_on_non_finite_energy(tmp_path):
    # at x0 1e200 every energy overflows to inf, so each jump's change is
    # inf - inf = nan: the closed-form identity fails instead of passing
    # over jumps it never scored
    path = _write_config(tmp_path, "hand2-rate", params={"x0": 1e200}, solver={"t_end": 20.0, "h": 0.01})
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["run", path, "--quiet"]) == 1
    with open(tmp_path / "out" / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["checks"]["jump_identity_matches"] is False
    assert summary["results"]["jumps"] == 19
    assert summary["results"]["closed_form_worst_rel_err"] is None


def test_hand2_jump_identity_scores_a_non_finite_energy_change_at_zero_form():
    # a closed-form change of 0 leaves a jump unscored only while the
    # simulated change is finite: here the post-jump energy is inf * 0
    f = sphere_cost(1)
    tr = Trace(dim=1, ts=np.array([0.0, 1.0, 1.0]), js=np.array([0, 0, 1]),
               zs=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 1e200]]),
               tags=np.array([0, 0, 1], dtype=np.int8), meta={"h": 0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ident = check_jump_identity(tr, f, HandParams(t_min=1.0, t_max=2.0, c=1.0),
                                    default_config("hand2-rate")["params"]["closed_form_tol"])
    assert math.isnan(ident.detail["worst_rel_err"])
    assert not ident.satisfied and ident.checked == 1 and ident.violation_times == [tr.time(2)]


def _resolved_pert(**section):
    """The perturbation resolved from an instability config on sphere2 (packed length 5)."""
    return _resolve({"scenario": "instability", "cost": "sphere2", "disturbance": section})[1].pert


_X2 = np.array([0.0, 0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)


@pytest.mark.parametrize("channel", ["e1", "e2", "e3", "e4", "e5", "e6"])
@pytest.mark.parametrize("kind", ["constant", "square_wave", "sinusoid", "uniform_random"])
def test_disturbance_section_kinds_and_channels(kind, channel):
    section = {"constant": {"value": 0.5},
               "square_wave": {"eps": 0.1, "period": 3.0},
               "sinusoid": {"eps": 0.1, "period": 3.0},
               "uniform_random": {"eps": 0.1, "hold": 2.0, "seed": 5}}[kind]
    pert = _resolved_pert(kind=kind, channel=channel, **section)
    assert [c for c in ("e1", "e2", "e3", "e4", "e5", "e6") if getattr(pert, c) is not None] == [channel]
    spec = getattr(pert, channel)
    assert (spec.kind, spec.dim) == (kind, 5)
    if kind == "constant":
        assert np.array_equal(spec.value, 0.5 * _X2) and spec.eps == pytest.approx(0.5, rel=1e-15)
    elif kind == "uniform_random":
        assert (spec.eps, spec.hold, spec.seed) == (0.1, 2.0, 5)
    else:
        assert (spec.eps, spec.period) == (0.1, 3.0) and np.array_equal(spec.axis, _X2)


def test_disturbance_section_zero_is_no_perturbation():
    assert _resolved_pert(kind="zero", eps=0.1, period=3.0) is None


@pytest.mark.parametrize("axis, vector", [
    ("x1", [1.0, 1.0, 0.0, 0.0, 0.0]),
    ("x2", [0.0, 0.0, 1.0, 1.0, 0.0]),
    ("clock", [0.0, 0.0, 0.0, 0.0, 1.0]),
    ([0.6, 0.0, 0.0, 0.8, 0.0], [0.6, 0.0, 0.0, 0.8, 0.0]),
], ids=["x1", "x2", "clock", "vector"])
def test_disturbance_section_axis_forms(axis, vector):
    unit = np.array(vector) / np.linalg.norm(vector)
    wave = _resolved_pert(kind="square_wave", eps=0.1, period=3.0, axis=axis).e2
    assert np.array_equal(wave.axis, unit)
    const = _resolved_pert(kind="constant", value=2.0, axis=axis).e2
    assert np.array_equal(const.value, 2.0 * unit)


@pytest.mark.parametrize("section", [
    {"kind": "banana"},
    {"kind": ["square_wave"]},
    {"channel": "e7"},
    {"axis": "x3"},
    {"axis": [1.0, 0.0]},
    {"axis": ["a", 0.0, 0.0]},
    {"axis": [1.0, 1.0, 0.0]},
    {"period": None},
    {"period": 0.0},
    {"period": "long"},
    {"eps": -1.0},
    {"eps": None},
    {"eps": "big"},
    {"kind": "sinusoid", "period": None},
    {"kind": "constant"},
    {"kind": "constant", "value": "x"},
    {"kind": "constant", "value": [1.0]},
    {"kind": "uniform_random"},
    {"kind": "uniform_random", "hold": 0.0},
    {"kind": "uniform_random", "hold": 1.0, "seed": "x"},
    {"kind": "uniform_random", "hold": 1.0, "seed": None},
], ids=lambda section: json.dumps(section))
def test_disturbance_section_malformed_exits_2(section, tmp_path, capsys):
    # over instability's default square wave on e2 (example1, packed length 3)
    path = _write_config(tmp_path, "instability", disturbance=section)
    assert main(["run", path, "--quiet"]) == 2
    assert "config error: disturbance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, extra, fields", [
    ("hand1-rate", {"cost": "sphere1", "hand": {"t_max": 2.0, "t_med": 1.5},
                    "solver": {"t_end": 5.0, "jump_policy": "uniform", "max_jumps": 100}},
     ["solver.policy_seed", "params.seed"]),
    ("instability", {"solver": {"t_end": 5.0}, "params": {"hand_t_end": 5.0},
                     "disturbance": {"kind": "uniform_random", "eps": 1e-3, "hold": 0.5}},
     ["solver.policy_seed", "disturbance.seed"]),
])
def test_cli_run_seed_sets_every_seed_field(scenario, extra, fields, tmp_path):
    path = _write_config(tmp_path, scenario, **extra)
    runs = {}
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        out = tmp_path / name
        assert main(["run", path, "--seed", str(seed), "--out", str(out), "--quiet"]) in (0, 1)
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        echo = json.loads(runs[name]["summary.json"])["config"]
        assert [echo[section][key] for section, key in (f.split(".") for f in fields)] == [seed] * len(fields)
    # the same seed reproduces every artifact byte for byte; another seed does not
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def _damage_row(trace, k, edit):
    """Apply edit to the cells of line k of a trace CSV (0 is the header)."""
    lines = trace.read_text().split("\n")
    cells = lines[k].split(",")
    edit(cells)
    lines[k] = ",".join(cells)
    trace.write_text("\n".join(lines))


@pytest.mark.parametrize("damage", [
    lambda cells: cells.__setitem__(1, "7.0"),
    lambda cells: cells.__setitem__(3, "#"),
    lambda cells: cells.__setitem__(-1, "faulty"),
    lambda cells: cells.__setitem__(-1, "banana"),
    lambda cells: cells.pop(4),
], ids=["float-j", "hash-cell", "faulty-label", "unknown-label", "short-row"])
def test_cli_check_exits_2_on_damaged_row(damage, tmp_path, capsys):
    path = _fast_hand2(tmp_path, t_end=20.0)
    assert main(["run", path, "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    _damage_row(trace, 40, damage)
    assert main(["check", str(trace), "--bound", "exponential"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_check_exits_2_on_blank_line(tmp_path, capsys):
    path = _fast_hand2(tmp_path, t_end=20.0)
    assert main(["run", path, "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    lines = trace.read_text().split("\n")
    trace.write_text("\n".join(lines[:40] + [""] + lines[40:]))
    assert main(["check", str(trace), "--bound", "exponential"]) == 2
    assert "row 41 " in capsys.readouterr().err


def test_cli_check_rejects_hybrid_time_out_of_order(tmp_path, capsys):
    # a run starts with a flow row at (0, 0); then t never decreases, and j
    # never decreases and steps by 1 only between two rows at the same t,
    # while along a flow t strictly increases; the bound alone misses a j of
    # 7, a first row moved, relabelled or deleted, and a repeated row
    path = _fast_hand2(tmp_path, t_end=20.0)
    assert main(["run", path, "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    pristine = trace.read_text()
    lines = pristine.splitlines(keepends=True)
    rows = [line.split(",") for line in pristine.splitlines()[1:]]
    jump = next(k for k, row in enumerate(rows) if row[-1] == "jump")
    assert 5 < jump < len(rows) - 2 and rows[jump][0] == rows[jump - 1][0]
    assert main(["check", str(trace), "--bound", "exponential"]) == 0
    assert "out of order" not in capsys.readouterr().out
    mid = next(k for k in range(len(rows) // 2, len(rows)) if rows[k][-1] == "flow")
    assert rows[mid][1] != "7"
    early = "%.17g" % (float(rows[mid - 1][0]) - 0.25)
    late_jump = "%.17g" % ((float(rows[jump][0]) + float(rows[jump + 1][0])) / 2.0)
    # count is the change in the number of rows: a row deleted or repeated
    for line, value, column, row, count in [
        (mid + 1, "7", "j", mid, 0),  # j steps by more than one
        (mid + 1, early, "t", mid, 0),  # t decreases
        (jump + 1, late_jump, "t", jump, 0),  # j steps while t advances
        (jump + 2, rows[jump - 1][1], "j", jump + 1, 0),  # j decreases
        (1, "jump", "event", 0, 0),  # the first row labelled jump
        (1, "-5", "t", 0, 0),  # the first row's t not 0
        (1, None, None, 0, -1),  # the first row deleted
        (mid + 1, None, None, mid + 1, 1),  # a flow row repeated
    ]:
        if column is None:
            trace.write_text("".join(lines[:line] + lines[line:line + 1] * (count + 1) + lines[line + 1:]))
        else:
            trace.write_text(pristine)
            _set_cells(trace, [line], value, column=column)
        assert main(["check", str(trace), "--bound", "exponential"]) == 1
        out = capsys.readouterr().out
        assert "hybrid time out of order on data row %d of %d" % (row + 1, len(rows) + count) in out, \
            (line, column, value)
        assert "VIOLATED" in out


def test_cli_check_rejects_j_steps_off_jump_rows(tmp_path, capsys):
    # j steps exactly onto the rows labelled jump. On the bundled hand2-rate
    # trace, relabelling its first jump row (data row 102) as flow, or the
    # flow row five rows on (107) as jump, changes no time and no bound
    assert run_scenario(load_config(os.path.join(CONFIGS, "hand2-rate.json")),
                        out_dir=str(tmp_path / "out"), quiet=True) == 0
    trace = tmp_path / "out" / "trace.csv"
    pristine = trace.read_text()
    events = [line.rsplit(",", 1)[1] for line in pristine.splitlines()[1:]]
    jump = events.index("jump") + 1
    assert events[jump + 4] == "flow"
    for row, label in [(jump, "flow"), (jump + 5, "jump")]:
        trace.write_text(pristine)
        _set_cells(trace, [row], label, column="event")
        assert main(["check", str(trace), "--bound", "exponential"]) == 1
        out = capsys.readouterr().out
        assert "hybrid time out of order on data row %d of %d" % (row, len(events)) in out, label
        assert "labelled %s" % label in out and "VIOLATED" in out


@pytest.mark.parametrize("scenario, traces", [("hand1-rate", 5), ("hand2-rate", 1), ("instability", 3)])
def test_bundled_traces_step_j_exactly_on_jump_rows(scenario, traces, tmp_path, capsys):
    # every trace of the bundled runs keeps its hybrid time in order, j
    # stepping onto exactly its jump rows, and check holds on each bound
    assert run_scenario(load_config(os.path.join(CONFIGS, scenario + ".json")),
                        out_dir=str(tmp_path), quiet=True) == 0
    names = sorted(name for name in os.listdir(tmp_path) if name.startswith("trace"))
    assert len(names) == traces
    for name in names:
        table = read_trace_csv(str(tmp_path / name))
        assert hybrid_time_fault(table.t, table.j, table.event == "jump", table.event == "fault") is None, name
    bound_checks = json.loads((tmp_path / "summary.json").read_text()).get("bound_checks", {})
    for name, bc in sorted(bound_checks.items()):
        assert main(["check", str(tmp_path / name), "--bound", bc["kind"]]) == 0
        assert "holds" in capsys.readouterr().out


def _main_outputs(calls, capsys, fresh):
    """(exit status, stdout, stderr) of main on each argv in turn, on the
    process's one parser or, fresh, on a parser built for each call."""
    outputs = []
    for argv in calls:
        if fresh:
            _build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        outputs.append((code,) + tuple(capsys.readouterr()))
    return outputs


def test_cli_main_reuses_one_parser(tmp_path, capsys):
    path = _fast_hand2(tmp_path)
    assert main(["run", path, "--quiet"]) == 0
    trace = str(tmp_path / "out" / "trace.csv")
    shutil.copytree(tmp_path / "out", tmp_path / "tampered")
    tampered = tmp_path / "tampered" / "trace.csv"
    _set_cells(tampered, [40], "1e9")
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"scenario": "hand2-rate", "solver": {"dt": 0.1}}))
    calls = [["check", trace, "--bound", "exponential"],
             ["check", str(tampered), "--bound", "exponential"],
             ["run", str(bad_config), "--quiet"],
             ["check", trace],  # a usage error: --bound is required
             ["check", trace, "--bound", "exponential"]]
    capsys.readouterr()
    parser = _build_parser()
    reused = _main_outputs(calls, capsys, fresh=False)
    assert _build_parser() is parser
    assert [out[0] for out in reused] == [0, 1, 2, 2, 0]
    assert "holds" in reused[0][1] and "VIOLATED" in reused[1][1] and "solver.dt" in reused[2][2]
    assert reused[4] == reused[0]
    assert _main_outputs(calls, capsys, fresh=True) == reused


def test_cli_help_text_survives_parser_reuse(tmp_path, capsys):
    helps = [["--help"], ["run", "--help"], ["sweep", "--help"], ["check", "--help"]]
    _build_parser.cache_clear()
    fresh = _main_outputs(helps, capsys, fresh=True)
    assert all(code == 0 and "usage: hand-sim" in out and not err for code, out, err in fresh)
    # the same parser, after a run, a check and a usage error
    _main_outputs([["run", str(tmp_path / "missing.json")], ["check", "x.csv"],
                   ["check", "x.csv", "--bound", "exponential"]], capsys, fresh=False)
    assert _main_outputs(helps, capsys, fresh=False) == fresh
