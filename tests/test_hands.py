"""Restarting jump maps, dwell conditions, and target-set distance."""

import math
import warnings

import numpy as np
import pytest

from handsim import (
    HandParams,
    SolverConfig,
    hand1,
    hand2,
    simulate,
    sphere_cost,
    target_distance,
    target_distance_fn,
    validate_dwell,
)
from handsim.core import compile_source
from handsim.hands import _band, _timer_test


def test_hand1_jump_resets_only_the_timer():
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    z_plus = sys.G(np.array([5.0, -3.0, 2.7]))
    assert np.allclose(z_plus, [5.0, -3.0, 1.0], atol=1e-15)


def test_hand1_jump_window():
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    assert sys.in_D(np.array([1.0, 1.0, 2.0]), 0.0)
    assert sys.in_D(np.array([1.0, 1.0, 3.0]), 0.0)
    assert not sys.in_D(np.array([1.0, 1.0, 1.5]), 0.0)
    assert sys.in_C(np.array([1.0, 1.0, 1.5]), 0.0)
    assert not sys.in_C(np.array([1.0, 1.0, 3.5]), 0.0)


def test_hand1_target_set_jump_invariant():
    f = sphere_cost(2)
    params = HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=3.0)
    sys = hand1(f, params)
    z = np.concatenate([f.xstar, f.xstar, [3.0]])
    z_plus = sys.G(z)
    assert target_distance(z_plus, f.xstar, params) == pytest.approx(0.0, abs=1e-15)


def test_hand1_periodic_when_t_med_equals_t_max():
    # degenerate window: jumps land exactly every t_max - t_min seconds
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=3.0)
    sys = hand1(f, params)
    cfg = SolverConfig(h=1e-3, t_end=9.0, integrator="rk4", record_stride=100)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), cfg)
    times = tr.ts[tr.events].tolist()
    assert len(times) == 4
    for k, t in enumerate(times):
        # each period overshoots by at most one step on the h grid
        assert t == pytest.approx(2.0 * (k + 1), abs=(k + 1) * cfg.h + 1e-9)


def test_hand2_jump_snaps_momentum():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    z_plus = sys.G(np.array([5.0, -3.0, 2.0]))
    assert np.allclose(z_plus, [5.0, 5.0, 1.0], atol=1e-15)


def test_hand2_fixed_point_at_optimizer():
    f = sphere_cost(2)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    sys = hand2(f, params)
    z = np.concatenate([f.xstar, [4.0, -4.0], [2.0]])
    z_plus = sys.G(z)
    assert target_distance(z_plus, f.xstar, params) == pytest.approx(0.0, abs=1e-15)


def test_hand2_jump_set_is_deadline_only():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    assert sys.in_D(np.array([1.0, 1.0, 2.0]), 0.0)
    assert not sys.in_D(np.array([1.0, 1.0, 1.9]), 0.0)
    # tolerance band absorbs one-ulp timer drift at the deadline
    assert sys.in_D(np.array([1.0, 1.0, 2.0 - 1e-12]), 0.0)
    assert sys.in_D(np.array([1.0, 1.0, 2.0 + 1e-12]), 0.0)


def test_hand2_rejects_interior_t_med():
    f = sphere_cost(1)
    with pytest.raises(ValueError):
        hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0, t_med=1.5))
    # explicit t_med == t_max is accepted
    hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0, t_med=2.0))


def test_hand2_warns_when_dwell_fails():
    f = sphere_cost(1)
    with pytest.warns(UserWarning):
        hand2(f, HandParams(t_min=1.0, t_max=1.2, c=1.0))


def test_hand_params_validation():
    with pytest.raises(ValueError):
        HandParams(t_min=2.0, t_max=1.0, c=1.0)
    with pytest.raises(ValueError):
        HandParams(t_min=1.0, t_max=2.0, c=0.0)
    with pytest.raises(ValueError):
        HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=0.5)
    with pytest.raises(ValueError):
        HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=3.5)
    with pytest.raises(ValueError):
        HandParams(t_min=0.0, t_max=1.0, c=1.0)


@pytest.mark.parametrize("t_min, t_max, ok", [(1.0, 1.0 + 1e-10, False), (1.0, 1.0 + 1e-8, True),
                                              (5e-324, 1e-320, False), (1e6 - 5e-4, 1e6, False),
                                              (1e6 - 2e-3, 1e6, True)])
def test_a_window_no_wider_than_the_jump_band_is_refused(t_min, t_max, ok):
    # a jump sets the timer to t_min; in a window no wider than the band
    # around t_max that lies in the jump set, and a run would jump there
    # again and again without a flow step
    assert (t_max - t_min > _band(t_max)) == ok
    if ok:
        sys = hand1(sphere_cost(1), HandParams(t_min=t_min, t_max=t_max, c=1.0))
        assert sys.in_D([1.0, 1.0, t_max]) and not sys.in_D(sys.G([1.0, 1.0, t_max]))
    else:
        with pytest.raises(ValueError, match="no wider than the jump band"):
            HandParams(t_min=t_min, t_max=t_max, c=1.0)


def test_validate_dwell_boundary_cases():
    # t_max^2 - t_min^2 must exceed 1/(mu c)
    assert validate_dwell(HandParams(t_min=1.0, t_max=2.0, c=1.0), mu=1.0) is True
    assert validate_dwell(HandParams(t_min=1.0, t_max=1.2, c=1.0), mu=1.0) is False
    # mu c underflows to 0: 1/(mu c) is inf, which no window exceeds
    assert validate_dwell(HandParams(t_min=1.0, t_max=1e150, c=5e-324), mu=0.25) is False


def test_strong_dwell_implies_dwell():
    # the stronger window condition (t_max - t_min)^2 - t_min^2 > 1/(mu c)
    # implies the dwell condition t_max^2 - t_min^2 > 1/(mu c) on a grid
    rng = np.random.default_rng(17)
    seen_strong = 0
    for _ in range(300):
        t_min = float(rng.uniform(0.05, 3.0))
        t_max = t_min + float(rng.uniform(0.01, 4.0))
        c = float(rng.uniform(0.1, 3.0))
        mu = float(rng.uniform(0.1, 3.0))
        params = HandParams(t_min=t_min, t_max=t_max, c=c)
        if (t_max - t_min) ** 2 - t_min**2 > 1.0 / (mu * c):
            seen_strong += 1
            assert validate_dwell(params, mu)
    assert seen_strong > 10


def test_target_distance_values():
    params = HandParams(t_min=1.0, t_max=3.0, c=1.0)
    xstar = np.zeros(1)
    assert target_distance(np.array([0.0, 0.0, 1.0]), xstar, params) == 0.0
    # timer inside its window contributes nothing
    assert target_distance(np.array([3.0, 4.0, 2.0]), xstar, params) == pytest.approx(5.0, abs=1e-12)


def test_target_distance_penalizes_timer_outside_window():
    params = HandParams(t_min=1.0, t_max=3.0, c=1.0)
    xstar = np.zeros(1)
    at_set = target_distance(np.array([3.0, 4.0, 2.0]), xstar, params)
    outside = target_distance(np.array([3.0, 4.0, 4.0]), xstar, params)
    assert outside > at_set


def test_jumps_never_increase_target_distance():
    # timer-only reset leaves x alone; momentum reset with x1 at the
    # optimizer pulls x2 onto it
    rng = np.random.default_rng(23)
    f = sphere_cost(2)
    params1 = HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0)
    params2 = HandParams(t_min=1.0, t_max=3.0, c=1.0)
    sys_a = hand1(f, params1)
    sys_b = hand2(f, params2)
    for _ in range(200):
        x2 = rng.standard_normal(2) * 2.0
        z1 = np.concatenate([rng.standard_normal(2) * 2.0, x2, [3.0]])
        before = target_distance(z1, f.xstar, params1)
        after = target_distance(sys_a.G(z1), f.xstar, params1)
        assert after <= before + 1e-12
        z2 = np.concatenate([f.xstar, x2, [3.0]])
        before = target_distance(z2, f.xstar, params2)
        after = target_distance(sys_b.G(z2), f.xstar, params2)
        assert after <= before + 1e-12


def test_target_distance_fn_matches_direct_call():
    f = sphere_cost(2)
    params = HandParams(t_min=1.0, t_max=3.0, c=1.0)
    dist = target_distance_fn(f, params)
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = rng.standard_normal(5)
        z[-1] = abs(z[-1]) + 0.2
        assert dist(z) == target_distance(z, f.xstar, params)


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
@pytest.mark.parametrize("policy", ["earliest", "latest", "uniform"])
@pytest.mark.parametrize("t_max, whole", [(4.0, True), (4.005, False)])
def test_hand1_restarts_on_the_step_hand2_does(t_max, whole, policy, integrator):
    # hand1 at its default t_med = t_max and hand2 share one jump set, so on
    # one window, start and solver they restart at the same hybrid times. A
    # window a whole number of steps long reaches t_max up to roundoff, and
    # the jump fires there, inside the band; otherwise the timer steps over
    # the band and both jump from that overshoot state
    f = sphere_cost(1)
    hp = HandParams(t_min=1.0, t_max=t_max, c=0.25)
    cfg = SolverConfig(h=0.01, t_end=10.0, integrator=integrator, jump_policy=policy, policy_seed=3)
    traces = [simulate(hand(f, hp), np.array([1.0, 1.0, 1.0]), cfg) for hand in (hand1, hand2)]
    times = [[tr.time(k) for k in tr.events] for tr in traces]
    assert len(times[0]) == 3 and times[0] == times[1]
    band = _band(t_max)
    for tr in traces:
        pre = tr.zs[tr.events - 1, -1]
        assert (np.abs(pre - t_max) <= band).all() if whole else (pre > t_max + band).all(), pre


@pytest.mark.parametrize("t_min, t_med, t_max", [(1.0, 2.0, 3.0), (0.5, None, 0.9), (0.25, 1.1, 1.4),
                                                 (5e-324, 1e-322, 1e-320), (1.0, 1e300, 1e300)])
def test_timer_tests_decide_as_the_inflation_formulas(t_min, t_med, t_max):
    # the {lo} and {hi} markers, read as " - inflation" and " + inflation" by
    # the membership closures and as nothing by the engine's exit test, give
    # the decisions of the conditions written out in inflation, at every
    # clock value and inflation on the grid: bounds, their neighbours and
    # their inflated values, +-0, subnormals, +-inf and nan. hand1 and hand2
    # share one jump set rule, [min(t_med, t_max - tol), t_max + tol]. A
    # window no wider than the band (the subnormal row) builds no system, so
    # its tests are compiled from the systems' condition texts directly
    f = sphere_cost(1)
    tol = _band(t_max)
    med = t_max if t_med is None else t_med
    shape = hand1(f, HandParams())
    tests = [(_timer_test("in_C", shape.in_C.condition, t_min=t_min, t_max=t_max), med),
             (_timer_test("in_D", shape.in_D.condition, t_lo=min(med, t_max - tol), t_hi=t_max + tol), med)]
    if t_max - t_min > tol:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            systems = [hand1(f, HandParams(t_min=t_min, t_max=t_max, c=1.0, t_med=t_med)),
                       hand2(f, HandParams(t_min=t_min, t_max=t_max, c=1.0))]
        tests += [(test, sys.meta["t_med"]) for sys in systems for test in (sys.in_C, sys.in_D)]
    else:
        with pytest.raises(ValueError, match="no wider than the jump band"):
            HandParams(t_min=t_min, t_max=t_max, c=1.0)
    reference = {
        "in_C": lambda tau, i, med: t_min - i <= tau <= t_max + i,
        "in_D": lambda tau, i, med: min(med, t_max - tol) - i <= tau <= t_max + tol + i,
    }
    inflations = [0.0, -0.0, 5e-324, 1e-300, tol, 0.25, math.inf, math.nan]
    edges = [t_min, med, t_max, t_max - tol, t_max + tol]
    near = [v for e in edges for i in inflations for v in (e - i, e + i)]
    taus = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]
    taus += [x for v in near for x in (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf))]
    for test, med in tests:
        name = test.__name__
        exit_test = compile_source("def exit_test(tau):\n    return %s\n"
                                   % test.condition.format(tau="tau", lo="", hi=""), "exit_test", **test.bounds)
        for tau in taus:
            z = [0.0, 0.0, tau]
            for i in inflations:
                assert test(z, i) == reference[name](tau, i, med), (name, med, tau, i)
            assert exit_test(tau) == reference[name](tau, 0.0, med), (name, med, tau)
