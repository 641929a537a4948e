"""Energy function, rate constants, and trace monitors."""

import math

import numpy as np
import pytest

from handsim import (
    HandParams,
    SolverConfig,
    beta_constant,
    check_monotonicity,
    check_inverse_square_rate,
    check_period_contraction,
    check_exponential_rate,
    convergence_time_estimate,
    corpus,
    example1_cost,
    flow_derivative,
    hand1,
    hand2,
    jump_decrease_hand1,
    jump_decrease_hand2,
    k0_constant,
    k1_constant,
    lyapunov,
    lyapunov_curve,
    make_quadratic,
    optimal_restart,
    simulate,
    sphere_cost,
    time_to_epsilon,
)


def test_lyapunov_hand_value():
    # f(x)=x^2/8, c=0.25, z=(2,1,2): 0.5*1 + 0.25*4*0.5 = 1.0
    f = example1_cost()
    assert lyapunov(np.array([2.0, 1.0, 2.0]), f, 0.25) == pytest.approx(1.0, abs=1e-12)


def test_lyapunov_zero_on_target_set():
    f = sphere_cost(2)
    z = np.concatenate([f.xstar, f.xstar, [1.3]])
    assert lyapunov(z, f, 1.0) == 0.0


def test_flow_derivative_nonpositive_for_convex_costs():
    rng = np.random.default_rng(31)
    for f in corpus().values():
        for _ in range(60):
            z = np.concatenate(
                [
                    f.xstar + rng.standard_normal(f.dim) * 3.0,
                    rng.standard_normal(f.dim) * 3.0,
                    [rng.uniform(0.1, 5.0)],
                ]
            )
            assert flow_derivative(z, f, c=0.5) <= 1e-10


def test_jump_decrease_hand1_closed_form():
    # energy drop of a timer reset: -c gap(x1) (tau^2 - t_min^2)
    rng = np.random.default_rng(37)
    f = make_quadratic(np.diag([1.0, 4.0]), np.array([1.0, 0.0]))
    params = HandParams(t_min=1.0, t_max=3.0, c=0.8, t_med=2.0)
    sys = hand1(f, params)
    for _ in range(100):
        z = np.concatenate([rng.standard_normal(2) * 2.0, rng.standard_normal(2) * 2.0, [rng.uniform(2.0, 3.0)]])
        predicted = jump_decrease_hand1(z, f, params)
        actual = lyapunov(sys.G(z), f, params.c) - lyapunov(z, f, params.c)
        assert predicted <= 1e-15
        assert actual == pytest.approx(predicted, abs=1e-10 * max(1.0, abs(predicted)))


def test_jump_decrease_hand2_closed_form():
    rng = np.random.default_rng(41)
    f = make_quadratic(np.diag([1.0, 4.0]), np.array([1.0, 0.0]))
    params = HandParams(t_min=1.0, t_max=3.0, c=0.8)
    sys = hand2(f, params)
    for _ in range(100):
        z = np.concatenate([rng.standard_normal(2) * 2.0, rng.standard_normal(2) * 2.0, [3.0]])
        predicted = jump_decrease_hand2(z, f, params)
        actual = lyapunov(sys.G(z), f, params.c) - lyapunov(z, f, params.c)
        assert actual == pytest.approx(predicted, abs=1e-10 * max(1.0, abs(predicted)))


def test_beta_constant_values():
    assert beta_constant(0.0, 1.0, 1.0, 0.0) == 0.0
    assert beta_constant(2.0, 1.0, 1.0, 0.5) == pytest.approx(2.5)
    # r^2/(2c) + t_min^2 gap0 with c=0.25
    assert beta_constant(1.0, 0.25, 1.0, 0.125) == pytest.approx(2.125)


def test_rate_constants():
    assert k0_constant(1.0, 1.0, 1.0, 2.0) == pytest.approx(0.5)
    k1 = k1_constant(1.0, 1.0, 1.0, 1.0)
    assert k1 == pytest.approx(2.0)
    assert k1 > k0_constant(1.0, 1.0, 1.0, 2.0)


def test_k1_at_optimal_restart_is_e_minus_2():
    assert optimal_restart(1.0, 1.0, 0.1) == pytest.approx(math.e * math.sqrt(1.01), rel=1e-12)
    # holds for any parameters, not just the reference ones
    rng = np.random.default_rng(43)
    for _ in range(50):
        c = float(rng.uniform(0.1, 4.0))
        mu = float(rng.uniform(0.1, 4.0))
        t_min = float(rng.uniform(0.01, 2.0))
        dT = optimal_restart(c, mu, t_min)
        assert k1_constant(c, mu, t_min, dT) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_convergence_time_estimate():
    # (e/2) sqrt(1/(c mu) + t_min^2) ln(gap0/eps)
    t = convergence_time_estimate(1.0, 1.0, 0.1, 0.5, 1e-6)
    expected = 0.5 * math.e * math.sqrt(1.01) * math.log(0.5 / 1e-6)
    assert t == pytest.approx(expected, rel=1e-12)
    # already below the target: no time needed
    assert convergence_time_estimate(1.0, 1.0, 0.1, 1e-8, 1e-6) == 0.0


def _hand2_trace(f, params, x0, t_end=30.0, h=1e-3):
    sys = hand2(f, params)
    z0 = np.concatenate([x0, x0, [params.t_min]])
    cfg = SolverConfig(h=h, t_end=t_end, integrator="rk4", record_stride=20)
    return simulate(sys, z0, cfg)


def test_check_monotonicity_on_simulated_run():
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([5.0]))
    rep = check_monotonicity(tr, f, params.c, slack_per_step=10.0 * f.lipschitz * 1e-3)
    assert rep.satisfied
    assert rep.checked > 100


def test_check_monotonicity_flags_energy_injection():
    # corrupt one recorded sample upward: the monitor must notice
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([5.0]))
    tr.zs[40, 0] += 2.0
    rep = check_monotonicity(tr, f, params.c, slack_per_step=10.0 * f.lipschitz * 1e-3)
    assert not rep.satisfied
    assert len(rep.violation_times) >= 1


def test_check_monotonicity_constant_at_target_set():
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, f.xstar.copy(), t_end=6.0)
    rep = check_monotonicity(tr, f, params.c, slack_per_step=0.0)
    assert rep.satisfied
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)


def test_lyapunov_curve_matches_pointwise():
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([3.0]), t_end=5.0)
    V = lyapunov_curve(tr, f, params.c)
    for k in (0, 7, len(tr) - 1):
        assert V[k] == pytest.approx(lyapunov(tr.zs[k], f, params.c), rel=1e-12)


def test_check_inverse_square_rate_on_first_flow():
    # single long flow with the timer frozen far from its deadline
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=50.0, c=1.0, t_med=50.0)
    sys = hand1(f, params)
    x0 = np.array([4.0])
    z0 = np.concatenate([x0, x0, [params.t_min]])
    tr = simulate(sys, z0, SolverConfig(h=1e-3, t_end=49.0, integrator="rk4", record_stride=20, max_jumps=0))
    r = float(np.linalg.norm(x0 - f.xstar))
    beta = beta_constant(r, params.c, params.t_min, f.gap(x0))
    rep = check_inverse_square_rate(tr, f, beta, tol=1e-6 + 10.0 * f.lipschitz * 1e-3)
    assert rep.satisfied
    # the clock-free form reads the bound off hybrid time instead of the timer
    rep_t = check_inverse_square_rate(tr, f, beta, tol=1e-6 + 10.0 * f.lipschitz * 1e-3, use_clock=False)
    assert rep_t.satisfied


def test_check_inverse_square_rate_trivial_from_target_set():
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=50.0, c=1.0, t_med=50.0)
    sys = hand1(f, params)
    z0 = np.concatenate([f.xstar, f.xstar, [params.t_min]])
    tr = simulate(sys, z0, SolverConfig(h=1e-2, t_end=10.0, max_jumps=0))
    rep = check_inverse_square_rate(tr, f, beta=0.0, tol=1e-12)
    assert rep.satisfied


def test_check_exponential_rate_and_contraction():
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([5.0]), t_end=40.0)
    rep = check_exponential_rate(tr, f, params)
    assert rep.satisfied
    assert rep.detail["k0"] == pytest.approx(0.5)
    assert rep.detail["k_a"] == pytest.approx(1.0)
    assert rep.detail["r0sq"] == pytest.approx(25.0)
    con = check_period_contraction(tr, f, params, slack=1e-3)
    assert con.satisfied
    # one contraction ratio per completed flow period
    assert con.checked >= 30


def test_nonfinite_sample_is_a_violation():
    # a nan state must fail the monitors, not slip past the running minimum
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([5.0]), t_end=5.0)
    assert check_exponential_rate(tr, f, params).satisfied
    tr.zs[5, 0] = math.nan
    rep = check_exponential_rate(tr, f, params)
    assert not rep.satisfied and math.isnan(rep.worst_margin)
    assert rep.violation_times == [tr.time(5)]
    mono = check_monotonicity(tr, f, params.c, slack_per_step=1.0)
    assert not mono.satisfied and math.isnan(mono.worst_margin)
    assert mono.violation_times == [tr.time(5), tr.time(6)]


def test_check_exponential_rate_needs_strong_convexity_metadata():
    f = sphere_cost(1)
    bare = make_quadratic([[1.0]], [0.0])
    object.__setattr__(bare, "mu", None)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([2.0]), t_end=5.0)
    with pytest.raises(ValueError):
        check_exponential_rate(tr, bare, params)


def test_time_to_epsilon_finds_first_settled_sample():
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([5.0]), t_end=40.0)
    ht = time_to_epsilon(tr, f, 1e-6)
    assert ht is not None
    # the gap at that sample and at the trace end are both below eps
    n = f.dim
    assert f.gap(tr.zs[-1, :n]) <= 1e-6
    assert 0.0 < ht.t < 40.0
    # a target below the last sample's gap is never settled
    short = _hand2_trace(f, params, np.array([5.0]), t_end=4.0)
    gap_last = f.gap(short.zs[-1, :n])
    assert gap_last > 0.0
    assert time_to_epsilon(short, f, 0.5 * gap_last) is None


def test_time_to_epsilon_rejects_nonpositive_eps():
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([2.0]), t_end=4.0)
    with pytest.raises(ValueError):
        time_to_epsilon(tr, f, 0.0)
