"""Canned experiments behind the command line: instability reproduction,
non-uniformity probes, rate-certificate runs for both restarting systems,
the restart-period sweep, discretization-order measurement, and empirical
robustness margins.

A scenario is a JSON config resolved against per-scenario defaults (unknown
keys rejected with their dotted path; every default echoed back into the
summary), run deterministically, and reduced to flat-file artifacts: trace
or table CSVs, one summary JSON embedding the resolved config and every
check result, and a gnuplot script. The process exit status is a pure
function of the checks: 0 when every check passes, 1 otherwise, 2 reserved
for config errors (raised here as ConfigError).
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import (
    _settled_from,
    beta_constant,
    check_monotonicity,
    check_inverse_square_rate,
    check_period_contraction,
    check_exponential_rate,
    check_jump_identity,
    convergence_time_estimate,
    k1_constant,
    optimal_restart,
    settling_bound,
    time_to_epsilon,
)
from .core import CostFunction, SolverConfig, Trace, corpus, per_row, row_dot, scaled_norm
from .dynamics import (
    DisturbanceSpec,
    OdeParams,
    limiting_integral,
    make_rep1_flow,
    make_rep2_flow,
)
from .engine import HybridSystem, PerturbationSet, flow_only_system, simulate
from .hands import HandParams, hand1, hand2, target_distance_fn, validate_dwell
from .io import (
    format_float,
    trace_header,
    write_summary_json,
    write_table_csv,
    write_text,
    write_trace_csv,
)

__all__ = [
    "ConfigError",
    "SCENARIOS",
    "default_config",
    "parse_config",
    "load_config",
    "apply_override",
    "run_scenario",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration; maps to process exit status 2."""


_SOLVER_DEFAULT = {
    "h": 1e-3,
    "t_end": 100.0,
    "max_jumps": 1000000,
    "integrator": "rk4",
    "jump_policy": "latest",
    "policy_seed": 0,
    "record_stride": 10,
}


# Default trees. Every key a config file may set appears here, and only
# what its runner reads: anything else is rejected by name. t_max = 2e for
# the bounded-contrast run keeps the restart window well inside the dwell
# condition for example1's mu.
_DEFAULTS = {
    "instability": {
        "scenario": "instability",
        "cost": "example1",
        "out_dir": "out",
        "ode": {"p": 2, "c": 0.25, "ell": None, "t0": 1.0},
        "hand": {"t_min": 1.0, "t_max": 2.0 * math.e, "c": 0.25},
        "solver": {"h": 1e-2, "t_end": 2e5, "integrator": "euler", "policy_seed": 0, "record_stride": 500},
        "disturbance": {"kind": "square_wave", "eps": 1e-3, "period": 1e4, "axis": "x2", "value": None, "seed": 0,
                        "hold": None, "channel": "e2"},
        "params": {
            "x0": 1e-3,
            "growth_factor": 100.0,
            "bounded_threshold": 0.1,
            "bounded_after": 50.0,
            "hand_t_end": 3e4,
        },
    },
    "uniformity-probe": {
        "scenario": "uniformity-probe",
        "cost": "example1",
        "out_dir": "out",
        "ode": {"p": 2, "c": 0.25, "ell": None},
        "hand": {"t_min": 1.0, "t_max": 4.0, "c": 0.25, "t_med": None},
        "solver": dict(_SOLVER_DEFAULT, h=1e-2, t_end=400.0, record_stride=5, max_jumps=100000),
        "params": {
            "t0_values": [1.0, 10.0, 100.0, 1000.0],
            "phases": None,
            "x0": 1.0,
            "eps": 1e-2,
            "t_end_scale": 6.0,
            "ratio_budget": 1.5,
            "ell2": 3.0,
            "s_values": [10.0, 100.0, 1000.0, 10000.0],
            "r": 1.0,
            "tail_budget": 3e-4,
        },
    },
    "hand1-rate": {
        "scenario": "hand1-rate",
        "cost": "all",
        "out_dir": "out",
        "hand": {"t_min": 1.0, "t_max": 50.0, "c": 1.0, "t_med": 50.0},
        "solver": dict(_SOLVER_DEFAULT, h=1e-3, t_end=49.0, max_jumps=3, record_stride=20),
        "params": {
            "seed": 7,
            "tol_abs": 1e-6,
            "tol_scale": 10.0,
            "mono_slack_scale": 10.0,
        },
    },
    "hand2-rate": {
        "scenario": "hand2-rate",
        "cost": "sphere1",
        "out_dir": "out",
        "hand": {"t_min": 1.0, "t_max": 2.0, "c": 1.0},
        "solver": dict(_SOLVER_DEFAULT, h=1e-3, t_end=100.0, record_stride=10),
        "params": {
            "x0": 5.0,
            "tol": 0.0,
            "contraction_slack": 1e-3,
            "closed_form_tol": 1e-12,
            "mono_slack_scale": 10.0,
        },
    },
    "restart-sweep": {
        "scenario": "restart-sweep",
        "cost": "sphere1",
        "out_dir": "out",
        "solver": {"h": 1e-3, "t_end": 80.0, "max_jumps": 100000, "integrator": "rk4", "jump_policy": "latest",
                   "policy_seed": 0},
        "params": {
            "t_min": 0.1,
            "c": 1.0,
            "x0": 1.0,
            "eps": 1e-6,
            "n_grid": 15,
            "span": [0.5, 2.0],
            "factor_budget": 2.0,
        },
    },
    "discretization-order": {
        "scenario": "discretization-order",
        "cost": "sphere1",
        "out_dir": "out",
        "hand": {"t_min": 1.0, "t_max": 2.0, "c": 1.0},
        "solver": {"t_end": 100.0, "max_jumps": 1000000, "policy_seed": 0},
        "params": {
            "x0": 5.0,
            "k_min": 6,
            "k_max": 10,
            "ref_factor": 128,
            "euler_order": [0.8, 1.2],
            "rk4_order": [3.2, 4.8],
            "tol": 0.0,
            "contraction_slack": 1e-3,
            "closed_form_tol": 1e-12,
            "mono_slack_scale": 10.0,
        },
    },
    "robustness-margin": {
        "scenario": "robustness-margin",
        "cost": "example1",
        "out_dir": "out",
        "hand": {"t_min": 1.0, "t_max": 2.0 * math.e, "c": 0.25},
        "solver": dict(_SOLVER_DEFAULT, h=1e-2, t_end=1e4, integrator="euler", max_jumps=1000000,
                       record_stride=100),
        # the margin bisection sets the amplitude
        "disturbance": {"kind": "square_wave", "period": 100.0, "axis": "x2", "seed": 0, "hold": None,
                        "channel": "e2"},
        "params": {
            "x0": 1e-3,
            "delta": 0.1,
            "settle": 50.0,
            "eps_lo": 1e-4,
            "eps_hi": 1.0,
            "bisect_steps": 8,
        },
    },
}

SCENARIOS = tuple(_DEFAULTS)


def default_config(scenario: str) -> dict:
    if not isinstance(scenario, str) or scenario not in _DEFAULTS:
        raise ConfigError("unknown scenario %r (one of: %s)" % (scenario, ", ".join(SCENARIOS)))
    return copy.deepcopy(_DEFAULTS[scenario])


def _merge(default: dict, user: dict, path: str) -> dict:
    out = copy.deepcopy(default)
    for key, val in user.items():
        here = (path + "." + key) if path else key
        if key not in default:
            allowed = ", ".join(sorted(default))
            raise ConfigError("unknown key %r (allowed here: %s)" % (here, allowed))
        if isinstance(default[key], dict):
            if not isinstance(val, dict):
                raise ConfigError("key %r must be an object" % here)
            out[key] = _merge(default[key], val, here)
        else:
            out[key] = _leaf(default[key], val, here)
    return out


# The leaves that take more than their default's type: an offset is one
# number for every coordinate or a list of them, null phases are three points
# of the timer window, an axis is a block name or a vector, and the optional
# numbers may be null in every tree that has them.
_LEAF_FORMS = {
    "params.x0": ("number", "list"), "params.phases": ("null", "list"), "disturbance.axis": ("str", "list"),
    **dict.fromkeys(("hand.t_med", "ode.ell", "disturbance.period", "disturbance.value",
                     "disturbance.hold"), ("null", "number")),
}

_FORM_NAMES = {"null": "null", "str": "a string", "int": "an integer",
               "number": "a number", "list": "a non-empty list of numbers"}

# the field each disturbance kind cannot do without
_DISTURBANCE_NEEDS = {"constant": "value", "square_wave": "period", "sinusoid": "period",
                      "uniform_random": "hold"}

# A leaf's domain beyond its type: the names a string may take, the lower end
# of each params number or seed (a list's elements one by one; >= 0 unless
# _RANGES names it, None for any sign: an offset, or a tolerance that a
# negative value makes stricter; the objects built bound the other numbers),
# and the bands [lo, hi] with lo < hi.
_CHOICES = {"disturbance.kind": ("zero", *_DISTURBANCE_NEEDS),
            "disturbance.channel": ("e1", "e2", "e3", "e4", "e5", "e6"),
            "disturbance.axis": ("x1", "x2", "clock")}
_RANGES = {
    **dict.fromkeys(("eps", "t0_values", "phases", "t_end_scale", "tail_budget", "delta",
                     "bounded_threshold", "t_min", "c", "span", "hand_t_end", "eps_lo"), (">", 0)),
    # a budget b bands a max/min ratio, at least 1, into [1/b, b]: empty for b < 1
    **dict.fromkeys(("ratio_budget", "factor_budget"), (">=", 1)),
    "growth_factor": (">", 1), "ell2": (">", 1), "ref_factor": (">=", 2), "n_grid": (">=", 3),
    **dict.fromkeys(("x0", "tol", "tol_abs", "tol_scale", "contraction_slack",
                     "closed_form_tol", "mono_slack_scale"), None),
}
_PAIRS = ("span", "euler_order", "rk4_order")
_BOUND_WORDS = {">": "above", ">=": "at least"}


def _form(value) -> Optional[str]:
    """The JSON type of a config value, as the leaf rule names it: an int is
    never a bool, a float is a number, and a list holds at least one number
    and nothing else."""
    if isinstance(value, list):
        return "list" if value and all(_form(v) in ("int", "number") for v in value) else None
    for form, kind in (("null", type(None)), ("bool", bool), ("str", str), ("int", int), ("number", float)):
        if isinstance(value, kind):
            return form
    return None


def _leaf(default, value, key: str):
    """value, a config's setting of the leaf at dotted key, typed against the
    leaf's default (its JSON type, or a form _LEAF_FORMS names for it, an int
    being a number too) and bounded by _CHOICES, _RANGES and _PAIRS. Every
    number is finite and stored as a float, but an integer leaf keeps its int."""
    forms = _LEAF_FORMS.get(key) or (_form(default),)
    form = _form(value)
    if form == "int" and "number" in forms:
        form = "number"
    if form not in forms:
        raise ConfigError("%s must be %s" % (key, " or ".join(_FORM_NAMES[f] for f in forms)))
    if form == "str" and value not in _CHOICES.get(key, (value,)):
        raise ConfigError("%s must be one of %s" % (key, ", ".join(_CHOICES[key])))
    if form not in ("int", "number", "list"):
        return value
    try:
        nums = [float(v) for v in (value if form == "list" else [value])]
    except OverflowError:  # an integer too large for a float
        nums = [math.inf]
    if not all(map(math.isfinite, nums)):
        raise ConfigError("%s must be finite" % key)
    name = key.rpartition(".")[2]
    bound = _RANGES.get(name, (">=", 0)) if key.startswith("params.") or name.endswith("seed") else None
    if bound and not all(v > bound[1] if bound[0] == ">" else v >= bound[1] for v in nums):
        raise ConfigError("%s must be %s %s" % (key, _BOUND_WORDS[bound[0]], bound[1]))
    if name in _PAIRS and not (len(nums) == 2 and nums[0] < nums[1]):
        raise ConfigError("%s must be [lo, hi] with lo < hi" % key)
    return value if form == "int" else nums if form == "list" else nums[0]


def parse_config(data: dict) -> dict:
    """Resolve a raw config dict against the scenario defaults and validate
    it. Returns the fully resolved config (suitable for echoing and for
    byte-identical round-trips through JSON)."""
    return _resolve(data)[0]


def load_config(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e.strerror or e))
    except ValueError as e:
        # JSONDecodeError carries line/column
        raise ConfigError("%s: %s" % (path, e))
    return parse_config(data)


def apply_override(config: dict, dotted_key: str, value) -> dict:
    """Return a copy of config with one dotted key replaced; the key must
    already exist (overrides never invent keys)."""
    parts = dotted_key.split(".")
    out = copy.deepcopy(config)
    node = out
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError("unknown override key %r" % dotted_key)
        node = node[p]
    last = parts[-1]
    if not isinstance(node, dict) or last not in node:
        raise ConfigError("unknown override key %r" % dotted_key)
    if isinstance(node[last], dict):
        raise ConfigError("override key %r names a section, not a value" % dotted_key)
    node[last] = value
    return out


# ---------------------------------------------------------------------------
# resolution: every check on a config, and its runtime objects built once

_SECTIONS = {"hand": HandParams, "ode": OdeParams, "solver": SolverConfig}


def _axis_vector(axis, n: int) -> np.ndarray:
    dim = 2 * n + 1
    if isinstance(axis, str):
        v = np.zeros(dim)
        block = _CHOICES["disturbance.axis"].index(axis)  # x1, x2 or the clock, in packed order
        v[block * n:(block + 1) * n] = 1.0
        return v / math.sqrt(row_dot(v, v))
    v = np.asarray(axis)
    if v.shape != (dim,):
        raise ConfigError("disturbance.axis: expected %d components, got %r" % (dim, list(np.shape(axis))))
    return v


def _perturbation_from(section: dict, n: int) -> Optional[PerturbationSet]:
    kind = section["kind"]
    if kind == "zero":
        return None
    if section[_DISTURBANCE_NEEDS[kind]] is None:
        raise ConfigError("disturbance.%s is required for kind=%r" % (_DISTURBANCE_NEEDS[kind], kind))
    dim = 2 * n + 1
    axis = _axis_vector(section["axis"], n)
    try:
        if kind == "uniform_random":
            spec = DisturbanceSpec.uniform_random(dim, section["eps"], section["seed"], section["hold"])
        elif kind == "constant":
            spec = DisturbanceSpec.constant(axis * section["value"])
        else:
            spec = getattr(DisturbanceSpec, kind)(dim, section["eps"], section["period"], axis=axis)
    except ValueError as e:
        raise ConfigError("disturbance: %s" % e)
    return PerturbationSet(**{section["channel"]: spec})


def _resolve(data: dict) -> Tuple[dict, SimpleNamespace]:
    """Resolve a raw config dict against its scenario's defaults, run every
    check on it, and build its runtime objects once. Returns (config, run):
    the resolved config, and run with f (the cost; None for hand1-rate's
    "all"), costs (name -> cost, the whole corpus for "all"), hand, ode,
    solver and pert (None where the scenario has no such section, or for a
    zero disturbance), offset (params.x0, the initial offset from the
    minimizer, one number per coordinate), hand_solver
    (instability's hand2 run), integrals (uniformity-probe's damping masses,
    one per params.s_values), gap0 (the initial cost gap) and restart-sweep's
    dstar, t_eps, grid and windows (optimal period, time estimate, periods, windows)."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if "scenario" not in data:
        raise ConfigError("missing required key 'scenario'")
    config = _merge(default_config(data["scenario"]), data, "")
    scenario = config["scenario"]
    name = config["cost"]
    table = corpus()
    allow_all = scenario == "hand1-rate"
    if name not in table and not (allow_all and name == "all"):
        allowed = ", ".join(sorted(table) + (["all"] if allow_all else []))
        raise ConfigError("unknown key value cost=%r (allowed: %s)" % (name, allowed))
    f = table.get(name)
    run = SimpleNamespace(f=f, costs=table if f is None else {name: f},
                          hand=None, ode=None, solver=None, pert=None, offset=None, hand_solver=None)
    for key, build in _SECTIONS.items():
        if key in config:
            try:
                setattr(run, key, build(**config[key]))
            except ValueError as e:
                raise ConfigError("%s: %s" % (key, e))
    section = config.get("disturbance")
    if scenario == "robustness-margin":
        # the margin bisection scales eps: zero has no shape to scale, and a
        # constant's size is its value, which eps leaves alone. The shape is
        # built at eps 0, and each bisection run sets its own amplitude.
        if section["kind"] in ("zero", "constant"):
            raise ConfigError("disturbance.kind: the margin bisection needs a disturbance shape scaled by eps")
        section = dict(section, eps=0.0)
    if section is not None:
        run.pert = _perturbation_from(section, f.dim)
    p = config.get("params", {})
    if "x0" in p:
        run.offset = np.asarray(p["x0"]) if isinstance(p["x0"], list) else np.full(f.dim, p["x0"])
        if run.offset.shape != (f.dim,):
            raise ConfigError("params.x0: expected %d components" % f.dim)
    # a run from the minimizer measures nothing: every gap, error and time
    # to eps is 0, and hand2-rate's checks score no period and no jump
    if scenario in ("instability", "discretization-order", "uniformity-probe", "hand2-rate"):
        if not np.any(run.offset):
            raise ConfigError("params.x0 must give a nonzero initial offset")
    if scenario == "instability":
        run.hand_solver = replace(run.solver, t_end=p["hand_t_end"], max_jumps=_SOLVER_DEFAULT["max_jumps"])
    if scenario in ("uniformity-probe", "restart-sweep"):
        # an offset like 1e300 overflows the gap to inf, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            run.gap0 = f.gap(f.xstar + run.offset)
        # a run started inside eps reads 0 for every time to eps, where a
        # run that reads only end-of-period samples reads one period
        if not run.gap0 > p["eps"]:
            raise ConfigError("params.x0 must start outside params.eps, at a cost gap above it")
    if scenario == "uniformity-probe":
        if not all(run.hand.t_min <= tau0 <= run.hand.t_max for tau0 in p["phases"] or ()):
            raise ConfigError("params.phases must lie in the timer window [hand.t_min, hand.t_max]")
        for key in ("t0_values", "s_values"):
            if not all(a < b for a, b in zip(p[key], p[key][1:])):
                raise ConfigError("params.%s must strictly increase" % key)
        run.integrals = [limiting_integral(p["ell2"], s, p["r"]) for s in p["s_values"]]
    if scenario in ("hand2-rate", "discretization-order"):
        hp = run.hand
        if not (validate_dwell(hp, f.mu) and hp.t_min * hp.t_min > 0.0
                and math.isfinite(k1_constant(hp.c, f.mu, hp.t_min, hp.t_min))):
            raise ConfigError("hand: t_min, t_max and c must meet the dwell condition and give a finite k_a")
    if scenario == "discretization-order" and p["k_min"] >= p["k_max"]:
        raise ConfigError("params.k_min must be below params.k_max")
    if scenario == "restart-sweep":
        run.dstar = optimal_restart(p["c"], f.mu, p["t_min"])
        run.t_eps = convergence_time_estimate(p["c"], f.mu, p["t_min"], run.gap0, p["eps"])
        if not math.isfinite(run.dstar + run.t_eps):
            raise ConfigError("params.t_min, params.c, params.x0 and params.eps must give a finite "
                              "restart period and time estimate")
        run.grid = np.exp(np.linspace(*[math.log(s * run.dstar) for s in p["span"]], p["n_grid"]))
        try:
            run.windows = [HandParams(t_min=p["t_min"], t_max=p["t_min"] + float(dT), c=p["c"]) for dT in run.grid]
        except ValueError as e:
            raise ConfigError("params.span: %s" % e)
    if scenario == "robustness-margin" and p["eps_lo"] > p["eps_hi"]:
        raise ConfigError("params.eps_lo must not exceed params.eps_hi")
    return config, run


# ---------------------------------------------------------------------------
# shared pieces

def _hand_z0(f: CostFunction, offset: np.ndarray, tau0: float) -> np.ndarray:
    x = f.xstar + offset
    return np.concatenate([x, x, [tau0]])


def _gnuplot_header(title: str) -> str:
    return ("# gnuplot script; run from this directory\n"
            "set datafile separator ','\n"
            "set key left top\n"
            "set title '%s'\n" % title)


def _finish(out_dir: str, summary: dict, plot: str, quiet: bool) -> int:
    checks = summary["checks"]
    summary["pass"] = all(bool(v) for v in checks.values())
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    write_text(os.path.join(out_dir, "plot.gp"), plot)
    if not quiet:
        for name, ok in checks.items():
            print("  check %-32s %s" % (name, "pass" if ok else "FAIL"))
    return 0 if summary["pass"] else 1


def _hand2_checks(trace: Trace, f: CostFunction, hp: HandParams, p: dict, h: float):
    """The momentum-reset certificate reports on one run: exponential rate,
    per-period contraction, energy monotonicity and the jump identity."""
    return (check_exponential_rate(trace, f, hp, tol=p["tol"]),
            check_period_contraction(trace, f, hp, slack=p["contraction_slack"]),
            check_monotonicity(trace, f, hp.c, slack_per_step=p["mono_slack_scale"] * f.lipschitz * h),
            check_jump_identity(trace, f, hp, tol=p["closed_form_tol"]))


def _settled_run(system: HybridSystem, z0, cfg: SolverConfig, f: CostFunction, params, eps: float):
    """simulate(system, z0, cfg), ended at the first state the engine hands
    its stop condition whose settling bound (analysis.settling_bound) is at
    most eps, so the gap stays within eps for good: (the trace, the run's
    settling record: certified, and the stop's (t, j) or the reason there
    was none). The bound holds for continuous time; on the discrete run the
    stop trusts it only while it stayed finite and never rose between the
    states handed to it, with no slack, and a rise turns the stop off."""
    bound, reason = settling_bound(system.meta["kind"], f, params)
    settling = {"certified": False, "t": None, "j": None, "reason": reason}
    last = math.inf

    def stop(t, j, z):
        nonlocal bound, last
        if bound is None:
            return False
        b = bound(z)
        if b <= last and math.isfinite(b):
            last = b
            if b <= eps:
                settling.update(certified=True, t=t, j=j)
                return True
            return False
        settling["reason"] = "the bound %s at (t, j) = (%r, %d)" % (
            "rose" if math.isfinite(b) else "was %r" % b, t, j)
        bound = None
        return False

    trace = simulate(system, z0, cfg, stop_condition=None if bound is None else stop)
    if not settling["certified"] and settling["reason"] is None:
        settling["reason"] = ("the bound stayed above params.eps to the end of the run"
                              if trace.termination == "horizon" else
                              "the run ended by %s before the bound reached params.eps" % trace.termination)
    return trace, settling


def _ode_run(rep: str, params: OdeParams, f: CostFunction, offset: np.ndarray) -> Tuple[HybridSystem, np.ndarray]:
    """One ODE form's flow-only system and its start at the clock params.t0,
    x1 = xstar + offset: at rest for rep1, with equal blocks for rep2."""
    flow = make_rep1_flow(params, f) if rep == "rep1" else make_rep2_flow(params, f)
    x1 = f.xstar + offset
    x2 = np.zeros(f.dim) if rep == "rep1" else x1
    return (flow_only_system(flow, f.dim, meta={"kind": "ode-" + rep, "t0": params.t0}),
            np.concatenate([x1, x2, [params.t0]]))


# ---------------------------------------------------------------------------
# fan-out: independent runs on forked workers

# True in a forked worker, and in the parent while it runs its own share: a
# fan-out there runs serially, so a worker never starts workers of its own
_in_worker = False


def _thread_cap(n_jobs: int) -> int:
    """The number of workers for n_jobs independent runs: HAND_SIM_THREADS
    when it is set (a ConfigError unless it is an integer of at least 1),
    else the number of CPUs this process may run on; at most n_jobs, and at
    least 1."""
    cap = os.environ.get("HAND_SIM_THREADS")
    if cap is None:
        cap_n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    else:
        try:
            cap_n = int(cap)
        except ValueError:
            raise ConfigError("HAND_SIM_THREADS must be an integer, got %r" % cap)
        if cap_n < 1:
            raise ConfigError("HAND_SIM_THREADS must be at least 1")
    return min(cap_n, max(1, n_jobs))


def _run_share(job: Callable, share: Sequence):
    """job over share in order, up to the first run that raises: (the
    results, that exception or None)."""
    results = []
    try:
        for x in share:
            results.append(job(x))
    except Exception as e:
        return results, e
    return results, None


def _worker(job: Callable, share: Sequence, fd: int, inherited: Sequence[int]) -> None:
    """A forked worker: close the pipe ends it inherited, run its share and
    send the parent one pickle of (results, exception or None, its
    traceback text, the warnings it recorded) through the pipe end fd. It
    ends in os._exit, so it never returns into the caller's stack and never
    flushes the stdio it inherited."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        for other in inherited:
            os.close(other)
        with warnings.catch_warnings(record=True) as caught:
            results, error = _run_share(job, share)
        tb = ""
        if error is not None:
            import traceback

            tb = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        try:
            if error is not None:
                pickle.loads(pickle.dumps(error))
            data = pickle.dumps((results, error, tb,
                                 [(w.message, w.category, w.filename, w.lineno) for w in caught]))
        except Exception as e:
            data = pickle.dumps(([], RuntimeError("a forked worker's outcome cannot be pickled (%r)\n%s"
                                                  % (e, tb)), "", []))
        with open(fd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, fd: int):
    """Read worker pid's pickle from the pipe end fd and reap it; re-issue
    the warnings it recorded. Returns (results, exception or None, its
    traceback text)."""
    try:
        with open(fd, "rb") as fh:
            data = fh.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError("a forked worker ended with exit code %d" % status)
    results, error, tb, caught = pickle.loads(data)
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)
    return results, error, tb


def _fan_out(job: Callable, items: Sequence) -> List:
    """[job(x) for x in items], the runs spread over W = _thread_cap(len(items))
    processes: worker k runs items[k::W], the calling process being worker 0
    and the others os.fork()ed, so job is never pickled; each result is. The
    results come back in item order, the same for every W. A run that raises
    stops its worker; the exception of the first such item is raised here,
    with its type and message (a RuntimeError with the worker's traceback
    where it cannot be pickled), after every worker has ended. Warnings a
    worker records are issued again here; a job prints nothing, as its
    caller prints what it reports, in item order. Runs serially for W = 1,
    inside a worker, and where fork is missing or unsafe (not Linux); where
    a fork fails (OSError), this process runs the shares of the workers
    that did not start."""
    global _in_worker
    items = list(items)
    if _in_worker or not (sys.platform.startswith("linux") and hasattr(os, "fork")):
        return [job(x) for x in items]
    w = _thread_cap(len(items))
    if w == 1:
        return [job(x) for x in items]
    pending = {}  # worker index -> (pid, read end of its pipe)
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # no process to spare (EAGAIN, ENOMEM): this process runs
                # the shares of the workers that did not start
                os.close(r)
                os.close(wr)
                break
            if pid == 0:
                _worker(job, items[k::w], wr, [r] + [other for _, other in pending.values()])
            os.close(wr)
            pending[k] = (pid, r)
        _in_worker = True
        try:
            shares = {k: (*_run_share(job, items[k::w]), "") for k in range(w) if k not in pending}
        finally:
            _in_worker = False
        for k in sorted(pending):
            shares[k] = _collect(*pending.pop(k))
    finally:
        # reached with workers left only when this process raised: end them
        if pending:
            import signal

            for pid, r in pending.values():
                os.close(r)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [(k + w * len(res), error, tb) for k, (res, error, tb) in shares.items() if error is not None]
    if failures:
        _, error, tb = min(failures, key=lambda f: f[0])
        if tb:
            raise error from RuntimeError("raised in a forked worker:\n" + tb)
        raise error
    out = [None] * len(items)
    for k, (res, _, _) in shares.items():
        out[k::w] = res
    return out


# ---------------------------------------------------------------------------
# scenario runners

def _run_instability(config: dict, run: SimpleNamespace, out_dir: str, quiet: bool) -> int:
    f, ode, hp = run.f, run.ode, run.hand
    p = config["params"]
    offset = run.offset
    r0 = scaled_norm(offset)
    threshold = p["growth_factor"] * r0
    xstar = f.xstar
    after = p["bounded_after"]
    # built here, so its dwell warning is this process's
    hsys = hand2(f, hp)

    def escaped(t, j, z):
        return scaled_norm(z[:f.dim] - xstar) >= threshold

    def one(rep: str):
        """One run and its trace CSV: its summary["runs"] entry."""
        if rep == "hand2":
            trace = simulate(hsys, _hand_z0(f, offset, hp.t_min), run.hand_solver, run.pert)
            dist_fn = target_distance_fn(f, hp)
            write_trace_csv(os.path.join(out_dir, "trace_hand2.csv"), trace, f, hp.c, dist_fn=dist_fn)
            dists = dist_fn(trace.zs[trace.ts >= after])
            worst = float(dists.max()) if dists.size else float("nan")
            return {
                "termination": trace.termination,
                "jumps": len(trace.events),
                "worst_distance_after_settle": worst,
                "bounded": trace.termination == "horizon" and dists.size > 0 and worst <= p["bounded_threshold"],
            }
        trace = simulate(*_ode_run(rep, ode, f, offset), run.solver, run.pert, stop_condition=escaped)

        # distance to the ODE's rest point (xstar, rest2): rep1's second
        # block is a velocity, at rest 0; rep2's is a position, at xstar
        def dist(z, _rest2=np.zeros(f.dim) if rep == "rep1" else xstar, _n=f.dim):
            d1 = z[..., :_n] - xstar
            d2 = z[..., _n:2 * _n] - _rest2
            return per_row(np.sqrt(row_dot(d1, d1) + row_dot(d2, d2)))

        write_trace_csv(os.path.join(out_dir, "trace_%s.csv" % rep), trace, f, ode.c, dist_fn=dist)
        return {
            "termination": trace.termination,
            "stopped_at_t": float(trace.ts[-1]),
            "growth_reached": scaled_norm(trace.zs[-1][:f.dim] - xstar) / r0,
            "diverged": trace.termination == "condition" or trace.termination == "fault",
        }

    # at two workers this process runs rep1 and rep2, the worker hand2 and its longer CSV
    runs = dict(zip(("rep1", "hand2", "rep2"), _fan_out(one, ("rep1", "hand2", "rep2"))))
    summary = {"config": config, "runs": runs,
               "checks": {"rep1_diverges": runs["rep1"]["diverged"], "rep2_diverges": runs["rep2"]["diverged"],
                          "hand2_bounded": runs["hand2"]["bounded"]},
               "artifacts": ["trace_rep1.csv", "trace_rep2.csv", "trace_hand2.csv", "summary.json", "plot.gp"]}
    if not quiet:
        for rep in ("rep1", "rep2"):
            print("  %s: %s at t=%.6g (growth %.3g x)"
                  % (rep, runs[rep]["termination"], runs[rep]["stopped_at_t"], runs[rep]["growth_reached"]))
        print("  hand2: %s, worst distance after t=%g: %.3g"
              % (runs["hand2"]["termination"], after, runs["hand2"]["worst_distance_after_settle"]))

    plot = (_gnuplot_header("disturbed runs: distance to the target set")
            + "set logscale y\nset xlabel 't'\nset ylabel 'dist_A'\n"
            + "plot 'trace_rep1.csv' using 1:{0} with lines title 'ODE (velocity form)', \\\n"
              "     'trace_rep2.csv' using 1:{0} with lines title 'ODE (averaged form)', \\\n"
              "     'trace_hand2.csv' using 1:{0} with lines title 'restarting run'\n"
            .format(trace_header(f.dim).index("dist_A") + 1))
    return _finish(out_dir, summary, plot, quiet)


def _run_uniformity(config: dict, run: SimpleNamespace, out_dir: str, quiet: bool) -> int:
    f, hp = run.f, run.hand
    p = config["params"]
    phases = p["phases"]
    if phases is None:
        phases = [hp.t_min, 0.5 * (hp.t_min + hp.t_max), hp.t_max]
    # built here, so a forked worker inherits it
    sys1 = hand1(f, hp)

    def one(start: Tuple[str, float]):
        """One probe row: the flow time for the cost gap to settle within
        eps (None if never) of the velocity-form ODE from the clock t0 at
        rest, over max(20, t_end_scale * t0), or of hand1 from the timer
        phase tau0, each run ending where its settling is certified. rk4 is
        the default, as forward Euler at h = 1e-2 pumps the oscillatory mode
        faster than the 3/t damping drains it once t > ~3/(h w^2): late t0
        runs would time that artifact."""
        key, s = start
        if key == "t0":
            params = replace(run.ode, t0=s)
            system, z0 = _ode_run("rep1", params, f, run.offset)
            cfg = replace(run.solver, t_end=max(20.0, p["t_end_scale"] * s))
        else:
            params, system, z0, cfg = hp, sys1, _hand_z0(f, run.offset, s), run.solver
        trace, settling = _settled_run(system, z0, cfg, f, params, p["eps"])
        hit = time_to_epsilon(trace, f, p["eps"])
        return {key: s, "time": None if hit is None else hit.t, "termination": trace.termination,
                "settling": settling}

    n_ode = len(p["t0_values"])
    rows = _fan_out(one, [("t0", t0) for t0 in p["t0_values"]] + [("tau0", tau0) for tau0 in phases])
    rows, rows2 = rows[:n_ode], rows[n_ode:]
    write_table_csv(os.path.join(out_dir, "probe_ode.csv"),
                    ["t0", "time_to_eps", "termination"],
                    [[r["t0"], r["time"], r["termination"]] for r in rows])
    times = [r["time"] for r in rows]
    increasing = (all(t is not None for t in times)
                  and all(times[i] < times[i + 1] for i in range(len(times) - 1)))

    write_table_csv(os.path.join(out_dir, "probe_hand1.csv"),
                    ["tau0", "time_to_eps", "termination"],
                    [[r["tau0"], r["time"], r["termination"]] for r in rows2])
    times2 = [r["time"] for r in rows2]
    if all(t is not None for t in times2) and min(times2) > 0:
        ratio = max(times2) / min(times2)
        phase_ok = ratio <= p["ratio_budget"]
    else:
        ratio = None
        phase_ok = False

    s_values, ints = p["s_values"], run.integrals
    write_table_csv(os.path.join(out_dir, "limiting_integral.csv"),
                    ["s_k", "integral"], list(zip(s_values, ints)))
    tail_ok = (all(ints[i] > ints[i + 1] for i in range(len(ints) - 1))
               and ints[-1] <= p["tail_budget"] * p["ell2"])

    summary = {
        "config": config,
        "checks": {
            "ode_times_strictly_increasing": increasing,
            "hand1_phase_ratio_within_budget": phase_ok,
            "limiting_integral_tail_vanishes": tail_ok,
        },
        "results": {
            "ode_probe": rows,
            "hand1_probe": rows2,
            "hand1_phase_ratio": ratio,
            "limiting_integral": [{"s_k": s, "value": v} for s, v in zip(s_values, ints)],
        },
        "artifacts": ["probe_ode.csv", "probe_hand1.csv", "limiting_integral.csv",
                      "summary.json", "plot.gp"],
    }
    if not quiet:
        print("  ODE probe times: %s" % ["%g" % t if t is not None else "none" for t in times])
        print("  phase probe times: %s (ratio %s)"
              % (["%g" % t if t is not None else "none" for t in times2],
                 "%.3f" % ratio if ratio is not None else "undefined"))
    plot = (_gnuplot_header("time to reach the epsilon sublevel set")
            + "set logscale xy\nset xlabel 'start time t0'\nset ylabel 'time to eps'\n"
            + "plot 'probe_ode.csv' using 1:2 with linespoints title 'time-varying flow'\n")
    return _finish(out_dir, summary, plot, quiet)


def _run_hand1_rate(config: dict, run: SimpleNamespace, out_dir: str, quiet: bool) -> int:
    costs, hp, cfg = run.costs, run.hand, run.solver
    p = config["params"]

    def one(cname: str):
        """One cost's run, its monitors and its trace CSV: (the summary's
        trace entry, its bound_checks entry, the check verdict)."""
        f = costs[cname]
        sys = hand1(f, hp)
        rng = np.random.default_rng(p["seed"])
        x0 = f.xstar + rng.standard_normal(f.dim)
        z0 = np.concatenate([x0, x0, [hp.t_min]])
        trace = simulate(sys, z0, cfg)
        r = math.sqrt(row_dot(x0 - f.xstar, x0 - f.xstar))
        beta = beta_constant(r, hp.c, hp.t_min, f.gap(x0))
        tol = p["tol_abs"] + p["tol_scale"] * f.lipschitz * cfg.h
        rep = check_inverse_square_rate(trace, f, beta, tol=tol)
        mono = check_monotonicity(trace, f, hp.c, slack_per_step=p["mono_slack_scale"] * f.lipschitz * cfg.h)
        ok = rep.satisfied and mono.satisfied
        fname = "trace_%s.csv" % cname
        write_trace_csv(os.path.join(out_dir, fname), trace, f, hp.c,
                        dist_fn=target_distance_fn(f, hp))
        entry = {
            "file": fname,
            "beta": beta,
            "tolerance": tol,
            "quadratic_bound_satisfied": rep.satisfied,
            "worst_margin": rep.worst_margin,
            "energy_monotone": mono.satisfied,
        }
        return entry, dict(rep.bound, t_min=hp.t_min), ok

    summary = {"config": config, "checks": {}, "traces": {}, "bound_checks": {}}
    artifacts = []
    names = sorted(costs)
    for cname, (entry, bc, ok) in zip(names, _fan_out(one, names)):
        artifacts.append(entry["file"])
        summary["traces"][cname] = entry
        summary["bound_checks"][entry["file"]] = bc
        summary["checks"][cname] = ok
        if not quiet:
            print("  %-10s bound %s (margin %.3g), energy monotone %s"
                  % (cname, "holds" if entry["quadratic_bound_satisfied"] else "VIOLATED",
                     entry["worst_margin"], entry["energy_monotone"]))
    summary["artifacts"] = artifacts + ["summary.json", "plot.gp"]
    first = sorted(costs)[0]
    bc = summary["bound_checks"]["trace_%s.csv" % first]
    plot = (_gnuplot_header("quadratic decay of the cost gap")
            + "set logscale y\nset xlabel 't'\nset ylabel 'f gap'\n"
            + "beta=%s\ntmin=%s\n" % (format_float(bc["beta"]), format_float(bc["t_min"]))
            + "plot 'trace_%s.csv' using 1:%d with lines title 'measured gap', \\\n"
              "     beta/((x+tmin)**2) with lines dashtype 2 title 'certified bound'\n"
            % (first, trace_header(costs[first].dim).index("f_gap") + 1))
    return _finish(out_dir, summary, plot, quiet)


def _run_hand2_rate(config: dict, run: SimpleNamespace, out_dir: str, quiet: bool) -> int:
    f, hp, cfg = run.f, run.hand, run.solver
    p = config["params"]
    sys = hand2(f, hp)
    z0 = _hand_z0(f, run.offset, hp.t_min)
    trace = simulate(sys, z0, cfg)
    reports = _hand2_checks(trace, f, hp, p, cfg.h)
    rep, con, mono, ident = reports
    fname = "trace.csv"
    write_trace_csv(os.path.join(out_dir, fname), trace, f, hp.c,
                    dist_fn=target_distance_fn(f, hp))
    summary = {
        "config": config,
        "constants": dict(rep.detail),
        "checks": {
            "exponential_bound": rep.satisfied,
            "per_period_contraction": con.satisfied,
            "energy_monotone": mono.satisfied,
            "jump_identity_matches": ident.satisfied,
        },
        "results": {
            "worst_bound_margin": rep.worst_margin,
            "worst_contraction_ratio": con.detail["worst_ratio"],
            "periods_checked": con.checked,
            "jumps": len(trace.events),
            "closed_form_worst_rel_err": ident.detail["worst_rel_err"],
        },
        # the record the monitor scored, which the audit re-verifies
        "bound_checks": {fname: rep.bound},
        "artifacts": [fname, "summary.json", "plot.gp"],
    }
    if not quiet:
        print("  exponential bound %s (margin %.3g), contraction worst ratio %.4g over %d periods"
              % ("holds" if rep.satisfied else "VIOLATED", rep.worst_margin,
                 con.detail["worst_ratio"], con.checked))
        for name, report in zip(summary["checks"], reports):
            if not report.satisfied:
                print("  %s: %s" % (name, report.reason))
    plot = (_gnuplot_header("exponential decay of the cost gap")
            + "set logscale y\nset xlabel 't'\nset ylabel 'f gap'\n"
            + "ka=%s\nkb=%s\ndT=%s\nr0sq=%s\n"
            % tuple(format_float(rep.bound[k]) for k in ("k_a", "k_b", "delta_t", "r0_sq"))
            + "alpha(t)=(t-dT > 0 ? t-dT : 0)/(dT+1)\n"
            + "plot 'trace.csv' using 1:%d with lines title 'measured gap', \\\n"
              "     'trace.csv' using 1:(ka*exp(-kb*alpha($1+$2))*r0sq) with lines dashtype 2 title 'certified bound'\n"
            % (trace_header(f.dim).index("f_gap") + 1))
    return _finish(out_dir, summary, plot, quiet)


def _run_restart_sweep(config: dict, run: SimpleNamespace, out_dir: str, quiet: bool) -> int:
    f = run.f
    p = config["params"]
    t_min, c, eps, n = p["t_min"], p["c"], p["eps"], p["n_grid"]
    dstar, t_eps, gap0, grid = run.dstar, run.t_eps, run.gap0, run.grid

    rows = []
    measured = np.full(n, math.inf)
    bound = np.full(n, math.inf)
    # one independent hand2 run per grid period, all from the same state;
    # the systems are built here, so their dwell warnings are this process's
    z0 = _hand_z0(f, run.offset, t_min)
    systems = [(hand2(f, hp), hp) for hp in run.windows]

    # the pre-jump rows, which every jump records, are all a run is read for
    cfg = replace(run.solver, record_stride=2 ** 62)

    def one(job: Tuple[HybridSystem, HandParams]):
        """One period's run, up to its certified settling: (the jump count
        at which the gap is within eps for good, or None, the run's jump
        count, its settling record)."""
        system, hp = job
        trace, settling = _settled_run(system, z0, cfg, f, hp, eps)
        # end-of-period samples: the gap just before each reset, which x1
        # carries unchanged through the jump to hybrid time (t, j) = ((k+1)dT, k+1)
        gaps = f.gap(trace.zs[trace.events - 1, :f.dim])
        first = _settled_from(gaps, eps)
        return (first + 1 if first < len(gaps) else None), len(trace.events), settling

    settling = []
    for i, (dT, (hit_j, jumps, settled)) in enumerate(zip(grid, _fan_out(one, systems))):
        settling.append(settled)
        k1 = k1_constant(c, f.mu, t_min, float(dT))
        if hit_j is not None:
            measured[i] = hit_j * float(dT)
        if k1 < 1.0:
            bj = int(math.ceil(math.log(gap0 / eps) / (-math.log(k1))))
            bound[i] = bj * float(dT)
        rows.append([i, float(dT), k1,
                     None if hit_j is None else measured[i],
                     None if hit_j is None else hit_j,
                     None if not np.isfinite(bound[i]) else bound[i],
                     jumps])
        if not quiet:
            print("  dT=%-8.4f k1=%.4f measured t=%-8s bound t=%-8s"
                  % (dT, k1,
                     "%.3f" % measured[i] if np.isfinite(measured[i]) else "none",
                     "%.3f" % bound[i] if np.isfinite(bound[i]) else "none"))
    write_table_csv(os.path.join(out_dir, "sweep.csv"),
                    ["index", "delta_t", "k1", "measured_t", "measured_periods",
                     "bound_t", "jumps"], rows)

    nearest = int(np.argmin(np.abs(grid - dstar)))
    m_arg = int(np.argmin(measured))
    b_arg = int(np.argmin(bound))
    guarantee_ok = bool(np.all(measured <= bound + 1e-9))
    at_opt_ratio = measured[nearest] / t_eps if np.isfinite(measured[nearest]) else math.inf
    budget = p["factor_budget"]
    at_opt_ok = (1.0 / budget) <= at_opt_ratio <= budget
    bound_min_adjacent = abs(b_arg - nearest) <= 1
    k1_star = k1_constant(c, f.mu, t_min, dstar)
    k1_star_ok = abs(k1_star - math.exp(-2.0)) <= 1e-12

    summary = {
        "config": config,
        "constants": {
            "delta_t_star": dstar,
            "t_eps_estimate": t_eps,
            "initial_gap": gap0,
            "k1_at_delta_t_star": k1_star,
        },
        "checks": {
            "measured_within_certified_time": guarantee_ok,
            "time_at_optimal_period_within_factor": at_opt_ok,
            "certified_minimizer_adjacent_to_formula": bound_min_adjacent,
            "k1_at_star_is_e_minus_2": k1_star_ok,
        },
        # raw observations, not gated: the measured minimizer of a single
        # smooth cost sits at a resonance of the restart map (the flow's
        # first zero crossing), below the period that minimizes the
        # certified time; both are reported for comparison.
        "results": {
            "grid": [float(v) for v in grid],
            "measured_argmin_index": m_arg,
            "measured_argmin_delta_t": float(grid[m_arg]),
            "measured_optimum_t": measured[m_arg] if np.isfinite(measured[m_arg]) else None,
            "certified_argmin_index": b_arg,
            "nearest_index_to_delta_t_star": nearest,
            "measured_argmin_adjacent_to_star": bool(abs(m_arg - nearest) <= 1),
            "measured_optimum_over_t_eps": (measured[m_arg] / t_eps
                                            if np.isfinite(measured[m_arg]) else None),
            "time_at_nearest_over_t_eps": (at_opt_ratio if np.isfinite(at_opt_ratio) else None),
            "settling": settling,
        },
        "artifacts": ["sweep.csv", "summary.json", "plot.gp"],
    }
    plot = (_gnuplot_header("restart period sweep: measured vs certified time")
            + "set logscale x\nset xlabel 'restart period'\nset ylabel 'time to eps'\n"
            + "plot 'sweep.csv' using 2:4 with linespoints title 'measured', \\\n"
              "     'sweep.csv' using 2:6 with linespoints title 'certified'\n")
    return _finish(out_dir, summary, plot, quiet)


def _run_discretization_order(config: dict, run: SimpleNamespace, out_dir: str, quiet: bool) -> int:
    f, hp = run.f, run.hand
    p = config["params"]
    probe, z0 = _ode_run("rep2", OdeParams(c=hp.c, t0=hp.t_min), f, run.offset)
    period = hp.t_max - hp.t_min

    def final_state(h: float, integ: str) -> np.ndarray:
        cfg = replace(run.solver, h=h, t_end=period, integrator=integ, record_stride=2 ** 62)
        return simulate(probe, z0, cfg).zs[-1]

    h_grid = [2.0 ** (-k) for k in range(p["k_min"], p["k_max"] + 1)]
    # the order part measures each step's global error over one flow period
    # against a run at h / ref_factor; the stability part asks the
    # exponential-rate and energy checks of the restarting run to keep
    # passing for every step below the largest passing one
    sys2 = hand2(f, hp)
    runs = [(integ, h) for integ in ("euler", "rk4") for h in h_grid]

    def one(pair: Tuple[str, float]):
        """One (scheme, h): (its global error, its stability row's checks)."""
        integ, h = pair
        zh = final_state(h, integ)
        zr = final_state(h / p["ref_factor"], integ)
        d = zh[:2 * f.dim] - zr[:2 * f.dim]
        # an error whose squares fall below the normal range is scaled first
        dd = row_dot(d, d)
        err = math.sqrt(dd) if dd >= sys.float_info.min else scaled_norm(d)
        cfg = replace(run.solver, h=h, integrator=integ, record_stride=max(1, int(round(0.01 / h))))
        trace = simulate(sys2, z0, cfg)
        reports = _hand2_checks(trace, f, hp, p, h)
        return err, ([r.satisfied for r in reports], reports[3].detail["worst_rel_err"])

    outcomes = _fan_out(one, runs)
    order_rows = [[integ, h, err] for (integ, h), (err, _) in zip(runs, outcomes)]
    fitted = {}
    for integ in ("euler", "rk4"):
        errs = [err for scheme, _, err in order_rows if scheme == integ]
        slope = float(np.polyfit(np.log(h_grid), np.log(errs), 1)[0])
        fitted[integ] = slope
        if not quiet:
            print("  %s: fitted order %.3f" % (integ, slope))
    write_table_csv(os.path.join(out_dir, "orders.csv"),
                    ["scheme", "h", "global_error"], order_rows)
    lo_e, hi_e = p["euler_order"]
    lo_r, hi_r = p["rk4_order"]
    euler_ok = lo_e <= fitted["euler"] <= hi_e
    rk4_ok = lo_r <= fitted["rk4"] <= hi_r

    stab_rows = []
    pass_h = {}
    for (integ, h), (_, ((rate_ok, con_ok, mono_ok, ident_ok), worst_rel)) in zip(runs, outcomes):
        ok = rate_ok and con_ok and mono_ok and ident_ok
        pass_h[(integ, h)] = ok
        stab_rows.append([integ, h, rate_ok, con_ok, mono_ok, worst_rel, ok])
    write_table_csv(os.path.join(out_dir, "stability.csv"),
                    ["scheme", "h", "rate_ok", "contraction_ok", "monotone_ok",
                     "jump_identity_rel_err", "all_ok"], stab_rows)
    largest = None
    for h in h_grid:  # descending
        if pass_h[("euler", h)] and pass_h[("rk4", h)]:
            largest = h
            break
    below_all_pass = largest is not None and all(
        pass_h[(integ, h)] for integ in ("euler", "rk4") for h in h_grid if h < largest)

    summary = {
        "config": config,
        "results": {
            "fitted_order": fitted,
            "h_grid": h_grid,
            "largest_passing_h": largest,
        },
        "checks": {
            "euler_order_near_one": euler_ok,
            "rk4_order_near_four": rk4_ok,
            "stability_for_all_smaller_h": bool(below_all_pass),
        },
        "artifacts": ["orders.csv", "stability.csv", "summary.json", "plot.gp"],
    }
    plot = (_gnuplot_header("global error over one flow period")
            + "set logscale xy\nset xlabel 'step size h'\nset ylabel 'error at period end'\n"
            + "plot '< grep euler orders.csv' using 2:3 with linespoints title 'euler', \\\n"
              "     '< grep rk4 orders.csv' using 2:3 with linespoints title 'rk4'\n")
    return _finish(out_dir, summary, plot, quiet)


def _run_robustness_margin(config: dict, run: SimpleNamespace, out_dir: str, quiet: bool) -> int:
    f, hp, cfg = run.f, run.hand, run.solver
    p = config["params"]
    channel = config["disturbance"]["channel"]
    delta, settle, eps_lo, eps_hi = p["delta"], p["settle"], p["eps_lo"], p["eps_hi"]
    sys = hand2(f, hp)
    z0 = _hand_z0(f, run.offset, hp.t_min)
    dist_fn = target_distance_fn(f, hp)
    spec = getattr(run.pert, channel)

    def worst_dist(amp: float) -> float:
        pert = PerturbationSet(**{channel: replace(spec, eps=amp)})
        trace = simulate(sys, z0, cfg, pert)
        if trace.termination != "horizon":
            return math.inf
        vals = dist_fn(trace.zs[trace.ts >= settle])
        return float(vals.max()) if vals.size else math.inf

    rows = []
    d_lo = worst_dist(eps_lo)
    rows.append([eps_lo, d_lo, d_lo <= delta])
    if d_lo > delta:
        lo, hi = 0.0, eps_lo
    else:
        d_hi = worst_dist(eps_hi)
        rows.append([eps_hi, d_hi, d_hi <= delta])
        if d_hi <= delta:
            lo, hi = eps_hi, math.inf
        else:
            lo, hi = eps_lo, eps_hi
            for _ in range(p["bisect_steps"]):
                mid = math.sqrt(lo * hi)
                d_mid = worst_dist(mid)
                rows.append([mid, d_mid, d_mid <= delta])
                if d_mid <= delta:
                    lo = mid
                else:
                    hi = mid
    rows.sort(key=lambda r: r[0])
    write_table_csv(os.path.join(out_dir, "bisection.csv"),
                    ["amplitude", "worst_distance", "bounded"], rows)
    margin_ok = lo >= eps_lo
    summary = {
        "config": config,
        "results": {
            "margin_lower": lo if math.isfinite(lo) else None,
            "margin_upper": hi if math.isfinite(hi) else None,
            "h": cfg.h,
            "horizon": cfg.t_end,
            "evaluations": len(rows),
        },
        "checks": {"positive_margin": bool(margin_ok)},
        "artifacts": ["bisection.csv", "summary.json", "plot.gp"],
    }
    if not quiet:
        print("  margin bracket: [%.6g, %s] (threshold %.3g on distance after t=%g)"
              % (lo, "%.6g" % hi if math.isfinite(hi) else "open", delta, settle))
    plot = (_gnuplot_header("empirical disturbance margin")
            + "set logscale xy\nset xlabel 'disturbance amplitude'\nset ylabel 'worst distance'\n"
            + "delta=%s\n" % format_float(delta)
            + "plot 'bisection.csv' using 1:2 with points pt 7 title 'runs', \\\n"
              "     delta with lines dashtype 2 title 'threshold'\n")
    return _finish(out_dir, summary, plot, quiet)


_RUNNERS = {
    "instability": _run_instability,
    "uniformity-probe": _run_uniformity,
    "hand1-rate": _run_hand1_rate,
    "hand2-rate": _run_hand2_rate,
    "restart-sweep": _run_restart_sweep,
    "discretization-order": _run_discretization_order,
    "robustness-margin": _run_robustness_margin,
}


def _make_out_dir(path: str) -> None:
    """os.makedirs(path, exist_ok=True), a ConfigError where a file is in the way."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError("cannot make output directory %s: %s" % (path, e.strerror or e))


def run_scenario(config: dict, out_dir: Optional[str] = None, quiet: bool = False) -> int:
    """Run one resolved scenario config; writes artifacts, returns the exit
    status (0 all checks pass, 1 otherwise)."""
    config, run = _resolve(config)
    out = out_dir if out_dir is not None else config["out_dir"]
    _make_out_dir(out)
    if not quiet:
        print("scenario %s -> %s" % (config["scenario"], out))
    return _RUNNERS[config["scenario"]](config, run, out, quiet)
