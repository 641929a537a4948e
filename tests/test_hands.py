"""Restarting jump maps, dwell conditions, and target-set distance."""

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
    times = [rec.t for rec in tr.events]
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
