"""Certified settling changes no answer.

restart-sweep and uniformity-probe end each run once its settling bound
(analysis.settling_bound) keeps the cost gap within eps for good. Here every
such run is made again over its full horizon with no stop condition, and
every time, period count and certified time the runner reports must be the
one the full run gives, bit for bit. A run without a certificate, or whose
bound rises, goes to its horizon and says why.
"""

import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from handsim import HandParams, corpus, hand1, hand2, lyapunov, settling_bound, simulate, sphere_cost
from handsim.analysis import _settled_from, time_to_epsilon
from handsim.core import row_dot
from handsim.dynamics import OdeParams, make_rep1_flow
from handsim.io import format_float
from handsim.scenarios import _hand_z0, _ode_run, _resolve, run_scenario


def _run(tmp_path, scenario, **sections):
    config = {"scenario": scenario}
    config.update(sections)
    code = run_scenario(config, out_dir=str(tmp_path), quiet=True)
    with open(tmp_path / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    return code, summary, _resolve(summary["config"])[1]


def _sweep_rows(tmp_path):
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _full_sweep_row(run, p, dT):
    """measured_t, measured_periods, bound_t and the jump count of one grid
    period's run over the whole horizon, as the sweep writes them."""
    f = run.f
    trace = simulate(hand2(f, HandParams(t_min=p["t_min"], t_max=p["t_min"] + dT, c=p["c"])),
                     _hand_z0(f, run.offset, p["t_min"]), dataclasses.replace(run.solver, record_stride=2 ** 62))
    assert trace.termination == "horizon"
    gaps = f.gap(trace.zs[trace.events - 1, :f.dim])
    first = _settled_from(gaps, p["eps"])
    periods = first + 1 if first < len(gaps) else None
    k1 = (1.0 / (p["c"] * f.mu) + p["t_min"] ** 2) / (dT * dT)
    bound = math.ceil(math.log(run.gap0 / p["eps"]) / -math.log(k1)) * dT if k1 < 1.0 else None
    cells = [None if periods is None else periods * dT, periods, bound]
    return ["" if v is None else format_float(v) if isinstance(v, float) else str(v) for v in cells], len(trace.events)


@pytest.mark.parametrize("sections", [{"solver": {"h": 0.02}}, {"params": {"n_grid": 3}},
                                      {"solver": {"h": 0.02, "integrator": "euler"}}],
                         ids=["every-period-h-0.02", "three-periods-h-1e-3", "every-period-euler-h-0.02"])
def test_restart_sweep_stop_changes_no_answer(sections, tmp_path):
    code, summary, run = _run(tmp_path, "restart-sweep", **sections)
    assert code == 0
    p = summary["config"]["params"]
    rows = _sweep_rows(tmp_path)
    settling = summary["results"]["settling"]
    assert len(rows) == len(settling) == p["n_grid"]
    for row, settled in zip(rows, settling):
        cells, full_jumps = _full_sweep_row(run, p, float(row["delta_t"]))
        assert [row["measured_t"], row["measured_periods"], row["bound_t"]] == cells, row["index"]
        # the run stopped at the certified jump, short of the horizon
        assert settled["certified"] and settled["reason"] is None
        assert settled["j"] == int(row["jumps"]) < full_jumps
        assert int(row["measured_periods"]) <= settled["j"]


# forward Euler pumps the velocity-form ODE's oscillatory mode once
# t > ~3/(h w^2), t0 = 300 starts near there: the guard sees that energy
# rise and lets those runs go to their horizon
@pytest.mark.parametrize("t0_values, solver, every_run_certified",
                         [([1.0, 10.0, 100.0], {}, True), ([1.0, 100.0, 300.0], {"integrator": "euler"}, False)],
                         ids=["rk4", "euler"])
def test_uniformity_probe_stop_changes_no_answer(t0_values, solver, every_run_certified, tmp_path):
    code, summary, run = _run(tmp_path, "uniformity-probe", params={"t0_values": t0_values}, solver=solver)
    assert code == 0
    p = summary["config"]["params"]
    f, hp = run.f, run.hand
    results = summary["results"]
    assert [r["t0"] for r in results["ode_probe"]] == t0_values
    assert [r["tau0"] for r in results["hand1_probe"]] == [hp.t_min, 0.5 * (hp.t_min + hp.t_max), hp.t_max]
    full = []
    for r in results["ode_probe"]:
        system, z0 = _ode_run("rep1", dataclasses.replace(run.ode, t0=r["t0"]), f, run.offset)
        full.append((r, simulate(system, z0, dataclasses.replace(run.solver, t_end=max(20.0, p["t_end_scale"] * r["t0"])))))
    sys1 = hand1(f, hp)
    full += [(r, simulate(sys1, _hand_z0(f, run.offset, r["tau0"]), run.solver)) for r in results["hand1_probe"]]
    for r, trace in full:
        assert trace.termination == "horizon"
        assert r["time"] == time_to_epsilon(trace, f, p["eps"]).t
        settled = r["settling"]
        if settled["certified"]:
            assert r["termination"] == "condition" and settled["reason"] is None
            assert r["time"] <= settled["t"] < trace.ts[-1]
        else:
            assert r["termination"] == "horizon" and settled["reason"].startswith("the bound rose at")
    certified = [r["settling"]["certified"] for r, _ in full]
    assert all(certified) if every_run_certified else any(certified)


def test_hand2_window_failing_dwell_gets_no_certificate(tmp_path, monkeypatch):
    # the shortest period's window misses the dwell condition: its run has
    # no certificate, goes to its horizon and says why
    monkeypatch.setenv("HAND_SIM_THREADS", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, summary, run = _run(tmp_path, "restart-sweep", params={"span": [0.2, 2.0], "n_grid": 3},
                               solver={"h": 0.02})
        p = summary["config"]["params"]
        rows = _sweep_rows(tmp_path)
        short = float(rows[0]["delta_t"])
        assert (p["t_min"] + short) ** 2 - p["t_min"] ** 2 <= 1.0 / (p["c"] * run.f.mu)
        cells, full_jumps = _full_sweep_row(run, p, short)
    settled = summary["results"]["settling"][0]
    assert not settled["certified"] and settled["t"] is None and settled["j"] is None
    assert "dwell condition" in settled["reason"]
    assert int(rows[0]["jumps"]) == full_jumps
    assert [rows[0]["measured_t"], rows[0]["measured_periods"], rows[0]["bound_t"]] == cells
    # the longer periods meet it and stop
    assert all(s["certified"] for s in summary["results"]["settling"][1:])


def test_a_rising_bound_turns_the_stop_off(tmp_path, monkeypatch):
    # a velocity-form field with c 1.5 times the certificate's: the energy
    # the stop watches rises, so the run is not stopped and goes to its horizon
    import handsim.scenarios as scenarios

    monkeypatch.setenv("HAND_SIM_THREADS", "1")
    monkeypatch.setattr(scenarios, "make_rep1_flow",
                        lambda params, f: make_rep1_flow(dataclasses.replace(params, c=1.5 * params.c), f))
    _, summary, _ = _run(tmp_path, "uniformity-probe", params={"t0_values": [1.0], "phases": [1.0]})
    row = summary["results"]["ode_probe"][0]
    assert row["termination"] == "horizon"
    assert not row["settling"]["certified"] and row["settling"]["reason"].startswith("the bound rose at (t, j) = (")
    # hand1's field is untouched and stops
    assert summary["results"]["hand1_probe"][0]["settling"]["certified"]


def test_a_run_without_a_stop_says_how_it_ended(tmp_path, monkeypatch):
    import handsim.scenarios as scenarios

    monkeypatch.setenv("HAND_SIM_THREADS", "1")
    # a jump cap ends every period's run before its bound reaches eps
    _, summary, _ = _run(tmp_path, "restart-sweep", params={"n_grid": 3}, solver={"h": 0.02, "max_jumps": 2})
    for settled in summary["results"]["settling"]:
        assert not settled["certified"]
        assert settled["reason"] == "the run ended by jump_cap before the bound reached params.eps"
    # a bound that is not a number turns the stop off, and is not read as a rise
    monkeypatch.setattr(scenarios, "settling_bound", lambda *args: (lambda z: math.nan, None))
    _, summary, _ = _run(tmp_path, "restart-sweep", params={"n_grid": 3}, solver={"h": 0.02})
    for settled in summary["results"]["settling"]:
        assert not settled["certified"] and settled["reason"] == "the bound was nan at (t, j) = (0.0, 0)"


def _states(f, rows=40, seed=3):
    rng = np.random.default_rng(seed)
    x = np.tile(f.xstar, 2) + rng.standard_normal((rows, 2 * f.dim))
    return np.concatenate([x, rng.uniform(1.0, 3.0, (rows, 1))], axis=1)


def test_settling_bound_is_the_energy_over_its_weight():
    hp = HandParams(t_min=1.0, t_max=4.0, c=0.5)
    costs = list(corpus().values())
    # a cost whose value has no float form takes the numpy gap
    costs.append(dataclasses.replace(costs[3], value=lambda x, _v=costs[3].value: _v(x)))
    for f in costs:
        for kind in ("hand1", "hand2"):
            bound, reason = settling_bound(kind, f, hp)
            assert reason is None
            for z in _states(f):
                # bit for bit: the float gap sums as the cost's numpy value does
                assert bound(z.tolist()) == lyapunov(z, f, hp.c) / (hp.c * hp.t_min * hp.t_min)
                assert bound(z.tolist()) >= f.gap(z[:f.dim])
        bound, reason = settling_bound("ode-rep1", f, OdeParams(c=0.5))
        assert reason is None
        cp2 = 0.5 * 2.0 * 2.0
        for z in _states(f):
            v = z[f.dim:2 * f.dim]
            # bit for bit: the energy at target 0 and weight c p^2
            assert bound(z.tolist()) == (0.5 * row_dot(v, v) + cp2 * f.gap(z[:f.dim])) / cp2
            assert bound(z.tolist()) >= f.gap(z[:f.dim])


def test_settling_bound_refuses_where_the_theory_does_not_apply():
    f = sphere_cost(1)
    cases = [
        (("ode-rep1", f, OdeParams(p=3.0)), "p = 2 only"),
        (("ode-rep2", f, OdeParams()), "no certificate for a 'ode-rep2' run"),
        (("hand2", f, HandParams(t_min=1.0, t_max=1.2, c=1.0)), "dwell condition"),
        (("hand2", dataclasses.replace(f, mu=None), HandParams()), "no mu"),
        (("hand1", dataclasses.replace(f, xstar=None), HandParams()), "no xstar"),
        (("hand1", dataclasses.replace(f, fstar=None), HandParams()), "no fstar"),
    ]
    for args, reason in cases:
        bound, why = settling_bound(*args)
        assert bound is None and reason in why, args
