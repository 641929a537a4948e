"""Integrator steps, jump handling, and the hybrid simulation loop."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from handsim import (
    DisturbanceSpec,
    HandParams,
    OdeParams,
    PerturbationSet,
    SolverConfig,
    hand2,
    jump_policy_decide,
    make_quadratic,
    simulate,
    simulate_batch,
    sphere_cost,
    tableau,
    validate_trace,
)
from handsim.core import TAG_JUMP
from handsim.dynamics import make_hand_flow, make_rep1_flow
from handsim.engine import flow_only_system
from handsim.hands import hand1


def _steps(F, z0, h, n=1, integrator="euler"):
    """n integrator steps through simulate: a flow-only system run to t_end = n h."""
    z0 = np.asarray(z0, dtype=float)
    sys = flow_only_system(F, (len(z0) - 1) // 2)
    tr = simulate(sys, z0, SolverConfig(h=h, t_end=n * h, integrator=integrator))
    assert tr.termination == "horizon" and tr.meta["flow_steps"] == n
    return tr.zs[-1]


def test_euler_step_hand_values():
    f = sphere_cost(1)
    F = make_hand_flow(1.0, f)
    z1 = _steps(F, [1.0, 3.0, 2.0], 0.1)
    assert np.allclose(z1, [1.2, 2.6, 2.1], atol=1e-14)


def test_euler_step_zero_field():
    def F(z):
        return [0.0] * len(z)

    z = np.array([2.0, -1.0, 0.5])
    assert np.array_equal(_steps(F, z, 0.3), z)


def test_euler_step_faults_on_nonfinite():
    def F(z):
        return [math.inf] * len(z)

    tr = simulate(flow_only_system(F, 1), np.zeros(3), SolverConfig(h=0.1, t_end=0.1))
    assert tr.termination == "fault"
    assert tr.fault.kind == "blowup"
    # the fault row keeps the last finite state
    assert np.array_equal(tr.zs[-1], np.zeros(3))


@pytest.mark.parametrize("case", ["timer-zero", "negative-clock-power", "overflowing-power"])
def test_float_step_ends_in_the_numpy_fault(case):
    # Python floats raise (x / 0.0, an overflowing **) or turn complex (a
    # negative base to a fractional power) where numpy scalars give inf or
    # nan; the run must still end as the recorded fault the numpy engine gave
    f = sphere_cost(1)
    cfg = SolverConfig(h=0.01, t_end=1.0, integrator="euler", record_stride=10)
    pert = None
    if case == "timer-zero":
        # the flow sees tau + e1 = 0 at the first step
        sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
        z0, cfg = [1.0, 1.0, 1.0], dataclasses.replace(cfg, integrator="rk4")
        pert = PerturbationSet(e1=DisturbanceSpec.constant([0.0, 0.0, -1.0]))
        t_fault, steps = 0.01, 1
    elif case == "negative-clock-power":
        sys = flow_only_system(make_rep1_flow(OdeParams(p=2.5), f), 1)
        z0 = [1.0, 0.0, 1.0]
        pert = PerturbationSet(e1=DisturbanceSpec.constant([0.0, 0.0, -3.0]))
        t_fault, steps = 0.02, 2
    else:
        sys = flow_only_system(make_rep1_flow(OdeParams(p=4.0, t0=1e200), f), 1)
        z0 = [1.0, 0.0, 1e200]
        t_fault, steps = 0.02, 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tr = simulate(sys, np.array(z0), cfg, pert)
    assert tr.termination == "fault"
    assert tr.fault.kind == "blowup"
    assert (tr.fault.t, tr.fault.j) == (t_fault, 0)
    assert tr.meta["flow_steps"] == steps
    assert len(tr) == 2
    assert np.array_equal(tr.fault.z_last, z0) and np.array_equal(tr.zs, [z0, z0])


def test_euler_half_steps_differ_second_order():
    # two h/2 steps vs one h step on a linear field: gap scales like h^2
    rng = np.random.default_rng(13)
    A = rng.standard_normal((3, 3))

    def F(z):
        return (A @ np.asarray(z)).tolist()

    z0 = rng.standard_normal(3)
    gaps = []
    for h in (0.1, 0.05, 0.025):
        one = _steps(F, z0, h)
        two = _steps(F, z0, h / 2, n=2)
        gaps.append(float(np.linalg.norm(one - two)))
    # halving h shrinks the gap by ~4
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.15)


def test_degenerate_tableau_is_euler():
    tab = tableau("euler")
    assert tab.stages == 1
    f = sphere_cost(1)
    F = make_hand_flow(1.0, f)
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.standard_normal(3)
        z[-1] = abs(z[-1]) + 0.1
        dz = np.array(F(z.tolist()))
        assert np.allclose(_steps(F, z, 0.05), z + 0.05 * dz, atol=1e-15)


def test_rk4_exponential_value():
    # zdot = z from 1 over one step h=0.1 matches the truncated Taylor value
    def F(z):
        return list(z)

    z1 = _steps(F, np.ones(3), 0.1, integrator="rk4")
    assert z1 == pytest.approx(np.full(3, 1.1051708333333332), abs=1e-12)
    # local truncation error h^5/5! ~ 8.3e-8
    assert np.all(np.abs(z1 - math.exp(0.1)) < 1e-7)
    # the generic tableau path: both second-order schemes give 1 + h + h^2/2
    for integrator in ("heun", "midpoint"):
        z1 = _steps(F, np.ones(3), 0.1, integrator=integrator)
        assert z1 == pytest.approx(np.full(3, 1.105), abs=1e-12), integrator


def test_rk4_global_error_fourth_order():
    # Richardson on the flow over a fixed horizon: halving h gains ~2^4
    f = sphere_cost(1)
    sys = flow_only_system(make_hand_flow(1.0, f), f.dim)
    z0 = np.array([2.0, 2.0, 1.0])
    ref = simulate(sys, z0, SolverConfig(h=1e-4, t_end=2.0, integrator="rk4", record_stride=10**9)).zs[-1]
    errs = []
    for h in (0.02, 0.01):
        tr = simulate(sys, z0, SolverConfig(h=h, t_end=2.0, integrator="rk4", record_stride=10**9))
        errs.append(float(np.linalg.norm(tr.zs[-1] - ref)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)


def test_unknown_tableau_rejected():
    with pytest.raises(ValueError):
        tableau("rk9")


def test_dh_membership_cases():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=0.006, t_end=0.012, jump_policy="earliest")
    # in D: the jump fires before any flow
    tr = simulate(sys, np.array([0.5, 0.5, 2.0]), cfg)
    assert tr.events[0].t == 0.0 and tr.events[0].z_pre[-1] == 2.0
    # one flow step from C overshoots the deadline to tau = 2.003, outside C
    # and off the D slice: the step's provenance puts it in D_h, jump fires next
    tr = simulate(sys, np.array([0.5, 0.5, 1.997]), cfg)
    assert tr.events[0].t == pytest.approx(0.006)
    assert tr.events[0].z_pre[-1] == pytest.approx(2.003)
    # the same state without flow-step provenance is outside C union D_h
    with pytest.raises(ValueError):
        simulate(sys, np.array([0.5, 0.5, 2.003]), cfg)
    # a flow step that stays inside C does not jump
    tr = simulate(sys, np.array([0.5, 0.5, 1.194]), cfg)
    assert tr.events == [] and tr.termination == "horizon"


def test_jump_policy_decide_basics():
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    z = np.array([0.5, 0.5, 2.5])  # inside C and D
    assert jump_policy_decide("earliest", z, sys, 1e-2) is True
    assert jump_policy_decide("latest", z, sys, 1e-2, flow_exits=False) is False
    assert jump_policy_decide("latest", z, sys, 1e-2, flow_exits=True) is True
    with pytest.raises(ValueError):
        jump_policy_decide("latest", z, sys, 1e-2)
    rng = np.random.default_rng(0)
    decisions = [jump_policy_decide("uniform", z, sys, 1e-2, rng=rng) for _ in range(200)]
    assert any(decisions) and not all(decisions)


def test_flow_only_trace_never_jumps():
    f = sphere_cost(1)
    sys = flow_only_system(make_hand_flow(1.0, f), f.dim)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), SolverConfig(h=1e-2, t_end=5.0))
    assert np.all(tr.js == 0)
    assert tr.termination == "horizon"
    validate_trace(tr)


def test_hand2_jump_cadence():
    # timer from t_min=1 to t_max=2: jumps at t = 1, 2, 3, ... within h
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=1e-3, t_end=5.5, integrator="rk4", record_stride=100)
    tr = simulate(sys, np.array([5.0, 5.0, 1.0]), cfg)
    jump_times = [rec.t for rec in tr.events]
    assert len(jump_times) == 5
    for k, t in enumerate(jump_times):
        assert abs(t - (k + 1.0)) <= cfg.h + 1e-12
    # j increments by one at each event
    assert [rec.j_pre for rec in tr.events] == [0, 1, 2, 3, 4]
    validate_trace(tr)


def test_zero_perturbation_is_bitwise_identical():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=1e-2, t_end=4.0, integrator="rk4")
    z0 = np.array([3.0, 3.0, 1.0])
    plain = simulate(sys, z0, cfg)
    pert = PerturbationSet(e2=DisturbanceSpec.zero(3))
    routed = simulate(sys, z0, cfg, pert=pert)
    assert np.array_equal(plain.zs, routed.zs)
    assert np.array_equal(plain.ts, routed.ts)
    assert np.array_equal(plain.js, routed.js)


def test_simulate_is_deterministic_by_seed():
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    cfg = SolverConfig(h=1e-2, t_end=12.0, jump_policy="uniform", policy_seed=42)
    z0 = np.array([4.0, 4.0, 1.0])
    a = simulate(sys, z0, cfg)
    b = simulate(sys, z0, cfg)
    assert np.array_equal(a.zs, b.zs) and np.array_equal(a.ts, b.ts)
    c = simulate(sys, z0, SolverConfig(h=1e-2, t_end=12.0, jump_policy="uniform", policy_seed=43))
    # different seed moves at least one jump time
    assert len(a.events) > 0 and len(c.events) > 0
    assert a.events[0].t != c.events[0].t


def test_max_jumps_termination():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=1e-2, t_end=50.0, max_jumps=3)
    tr = simulate(sys, np.array([5.0, 5.0, 1.0]), cfg)
    assert tr.termination == "jump_cap"
    assert len(tr.events) == 3


def test_stop_condition_termination():
    f = sphere_cost(1)
    sys = flow_only_system(make_hand_flow(1.0, f), f.dim)

    def past_two(t, j, z):
        return t >= 2.0

    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), SolverConfig(h=1e-2, t_end=50.0), stop_condition=past_two)
    assert tr.termination == "condition"
    assert 2.0 <= tr.ts[-1] < 2.5


def test_fault_recorded_on_blowup():
    # field grows super-exponentially until the step overflows
    def F(z):
        z = np.asarray(z)
        with np.errstate(over="ignore"):
            return (z * np.exp(np.minimum(np.abs(z), 500.0))).tolist()

    sys = flow_only_system(F, 1)
    tr = simulate(sys, np.array([1.0, 1.0, 1.0]), SolverConfig(h=0.5, t_end=1e3))
    assert tr.termination == "fault"
    assert tr.fault is not None
    assert np.all(np.isfinite(tr.zs))


def test_latest_policy_on_hand1_window():
    # with t_med=2 and t_max=3 the latest policy holds jumps until tau = 3
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    cfg = SolverConfig(h=1e-3, t_end=9.0, integrator="rk4", jump_policy="latest", record_stride=200)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), cfg)
    assert len(tr.events) >= 3
    for rec in tr.events:
        assert rec.z_pre[-1] == pytest.approx(3.0, abs=cfg.h + 1e-9)
        assert rec.z_post[-1] == pytest.approx(1.0, abs=1e-12)


def test_earliest_policy_jumps_at_window_entry():
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    cfg = SolverConfig(h=1e-3, t_end=9.0, integrator="rk4", jump_policy="earliest", record_stride=200)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), cfg)
    assert len(tr.events) >= 3
    for rec in tr.events:
        assert rec.z_pre[-1] == pytest.approx(2.0, abs=cfg.h + 1e-9)


def test_jump_rows_tagged():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    tr = simulate(sys, np.array([5.0, 5.0, 1.0]), SolverConfig(h=1e-2, t_end=3.0))
    jump_rows = np.flatnonzero(tr.tags == TAG_JUMP)
    assert len(jump_rows) == len(tr.events)
    for k in jump_rows:
        assert tr.zs[k, -1] == pytest.approx(1.0, abs=1e-12)  # post-jump timer


def _assert_same_trace(a, b):
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.js, b.js)
    assert np.array_equal(a.zs, b.zs)
    assert np.array_equal(a.tags, b.tags)
    assert a.termination == b.termination
    assert a.meta == b.meta
    assert len(a.events) == len(b.events)
    for x, y in zip(a.events, b.events):
        assert (x.t, x.j_pre) == (y.t, y.j_pre)
        assert np.array_equal(x.z_pre, y.z_pre) and np.array_equal(x.z_post, y.z_post)
    assert (a.fault is None) == (b.fault is None)
    if a.fault is not None:
        assert tuple(a.fault[:4]) == tuple(b.fault[:4])
        assert np.array_equal(a.fault.z_last, b.fault.z_last)


@pytest.mark.parametrize("integrator", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("policy", ["earliest", "latest", "uniform"])
@pytest.mark.parametrize("f", [sphere_cost(1), make_quadratic([[1.3, 0.2], [0.2, 0.7]], [0.1, -0.3], name="q2")],
                         ids=["dim1", "dim2"])
def test_simulate_batch_equals_single_runs(integrator, policy, f):
    # hand1 and hand2 members with different timer windows share one flow
    # closure; short periods hit the jump budget, the last member starts at
    # the edge of the floats and blows up a few steps in, the rest run on
    flow = make_hand_flow(1.0, f)
    systems, z0s = [], []
    for k, t_max in enumerate((1.5, 2.3, 2.9, 3.5, 4.4, 1.8)):
        hp = HandParams(t_min=0.5, t_max=t_max, c=1.0, t_med=None if k % 2 else 0.5 * (0.5 + t_max))
        systems.append(dataclasses.replace((hand2 if k % 2 else hand1)(f, hp), F=flow))
        x = f.xstar + (1.5e308 if k == 5 else 1.0 + 0.25 * k)
        z0s.append(np.concatenate([x, x, [0.5]]))
    cfg = SolverConfig(h=0.01, t_end=12.0, max_jumps=5, integrator=integrator, jump_policy=policy,
                       policy_seed=3, record_stride=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = simulate_batch(systems, z0s, cfg)
        singles = [simulate(sys, z0, cfg) for sys, z0 in zip(systems, z0s)]
    for tr, ref in zip(batch, singles):
        _assert_same_trace(tr, ref)
        validate_trace(tr)
    endings = [tr.termination for tr in batch]
    assert "jump_cap" in endings and "horizon" in endings
    assert endings[5] == "fault" and batch[5].fault.kind == "blowup"
    assert 0 < batch[5].meta["flow_steps"] < min(tr.meta["flow_steps"] for tr in batch[:5])


def test_simulate_batch_rejects_mixed_systems():
    f = sphere_cost(1)
    hp = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    cfg = SolverConfig(h=0.01, t_end=1.0)
    z0 = np.array([1.0, 1.0, 1.0])
    # each hand2 call builds its own flow closure
    with pytest.raises(ValueError, match="flow closure"):
        simulate_batch([hand2(f, hp), hand2(f, hp)], [z0, z0], cfg)
    a = hand2(f, hp)
    b = dataclasses.replace(hand2(sphere_cost(2), hp), F=a.F)
    with pytest.raises(ValueError, match="packed length"):
        simulate_batch([a, b], [z0, np.ones(5)], cfg)
    with pytest.raises(ValueError):
        simulate_batch([a], [z0, z0], cfg)
    assert simulate_batch([], [], cfg) == []
