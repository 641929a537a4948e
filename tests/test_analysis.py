"""Energy function, rate constants, and trace monitors."""

import dataclasses
import math
import struct

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
    check_jump_identity,
    convergence_time_estimate,
    corpus,
    example1_cost,
    hand1,
    hand2,
    jump_decrease_hand1,
    jump_decrease_hand2,
    k1_constant,
    lyapunov,
    make_quadratic,
    optimal_restart,
    simulate,
    sphere_cost,
    target_distance,
    target_distance_fn,
    time_to_epsilon,
    write_summary_json,
    write_trace_csv,
)
from handsim.analysis import _scan, bound_margins
from handsim.core import TAG_FAULT, TAG_JUMP, row_dot
from handsim.cli import main


def test_lyapunov_hand_value():
    # f(x)=x^2/8, c=0.25, z=(2,1,2): 0.5*1 + 0.25*4*0.5 = 1.0
    f = example1_cost()
    assert lyapunov(np.array([2.0, 1.0, 2.0]), f, 0.25) == pytest.approx(1.0, abs=1e-12)


def test_lyapunov_zero_on_target_set():
    f = sphere_cost(2)
    z = np.concatenate([f.xstar, f.xstar, [1.3]])
    assert lyapunov(z, f, 1.0) == 0.0


def test_flow_derivative_nonpositive_for_convex_costs():
    # energy derivative along the restarting flow,
    # -2 c tau (grad f(x1)'(x1 - xstar) - (f(x1) - fstar)), is <= 0 for convex f
    c = 0.5
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
            x1, tau = z[: f.dim], z[-1]
            g = np.array(f.gradient(x1))
            assert -2.0 * c * tau * (float(g.dot(x1 - f.xstar)) - f.gap(x1)) <= 1e-10


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
    # k0, the per-period contraction factor, is k1 at dT = t_max
    k0 = k1_constant(1.0, 1.0, 1.0, 2.0)
    assert k0 == pytest.approx(0.5)
    k1 = k1_constant(1.0, 1.0, 1.0, 1.0)
    assert k1 == pytest.approx(2.0)
    assert k1 > k0


def test_certificate_constants_square_t_min_by_product():
    # t_min^2 is t_min * t_min, correctly rounded, in every constant: at
    # this t_min a libm pow can round t_min ** 2 the other way, and the
    # other inputs carry that last bit through to each result
    t = 1.604021
    c, mu, t_max, r, gap0 = 0.7, 1.3, 5.5, 0.3, 0.37
    assert k1_constant(c, mu, t, t_max) == (1.0 / (c * mu) + t * t) / (t_max * t_max)
    assert beta_constant(r, c, t, gap0) == r * r / (2.0 * c) + t * t * gap0
    f = sphere_cost(2)
    params = HandParams(t_min=t, t_max=t_max, c=c)
    z = np.array([0.3, -1.1, 0.8, 0.2, 2.0])
    x1, x2, tau = z[:2], z[2:4], float(z[-1])
    gap = f.gap(x1)
    assert jump_decrease_hand1(z, f, params) == -c * gap * (tau * tau - t * t)
    d1, d2 = x1 - f.xstar, x2 - f.xstar
    dv = 0.5 * (d1[0] * d1[0] + d1[1] * d1[1]) - 0.5 * (d2[0] * d2[0] + d2[1] * d2[1]) - c * gap * (tau * tau - t * t)
    assert jump_decrease_hand2(z, f, params) == dv


def test_jump_decrease_hand2_adds_the_timer_term_bit_for_bit():
    # hand2's jump drop is the momentum reset's 0.5|d1|^2 - 0.5|d2|^2 plus
    # hand1's timer term; adding -c gap (...) rounds as subtracting c gap
    # (...) does, so the sum has the bits of the formula written out, over
    # the corpus at random states, at the t_min where a libm pow rounds
    # t_min ** 2 the other way
    rng = np.random.default_rng(53)
    for f in corpus().values():
        for t_min, c in ((1.604021, 0.7), (0.5, 1.3)):
            params = HandParams(t_min=t_min, t_max=5.5, c=c)
            for scale in (1e-8, 1.0, 3.0, 1e6):
                for _ in range(25):
                    x1 = f.xstar + rng.standard_normal(f.dim) * scale
                    x2 = f.xstar + rng.standard_normal(f.dim) * scale
                    tau = float(rng.uniform(t_min, 5.5))
                    z = np.concatenate([x1, x2, [tau]])
                    d1, d2 = x1 - f.xstar, x2 - f.xstar
                    want = (0.5 * row_dot(d1, d1) - 0.5 * row_dot(d2, d2)
                            - c * f.gap(x1) * (tau * tau - t_min * t_min))
                    assert _same(jump_decrease_hand2(z, f, params), want), (f.name, t_min, scale, z)


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


def test_lyapunov_rows_match_pointwise():
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([3.0]), t_end=5.0)
    V = lyapunov(tr.zs, f, params.c)
    for k in (0, 7, len(tr) - 1):
        assert V[k] == pytest.approx(lyapunov(tr.zs[k], f, params.c), rel=1e-12)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_row_wise_certificates_match_per_row_calls_bitwise():
    # gap, energy, target distance and the closed-form jump changes of a
    # block of packed rows are the per-row calls bit for bit, on random
    # states from 1e-8 to 10 and on the rows of a hand2 run with jumps
    params = HandParams(t_min=1.0, t_max=2.5, c=1.0)
    rng = np.random.default_rng(59)
    for f in corpus().values():
        m = 2 * f.dim + 1
        scales = 10.0 ** rng.uniform(-8.0, 1.0, (400, 1))
        states = np.concatenate([np.tile(f.xstar, 2), [1.5]]) + rng.standard_normal((400, m)) * scales
        trace = _hand2_trace(f, params, f.xstar + 1.5, t_end=8.0, h=1e-2)
        assert len(trace.events) > 0
        for zs in (states, trace.zs):
            gaps = f.gap(zs[:, : f.dim])
            assert np.array_equal(_bits(gaps), _bits([f.gap(z[: f.dim]) for z in zs])), f.name
            V = lyapunov(zs, f, params.c)
            assert np.array_equal(_bits(V), _bits([lyapunov(z, f, params.c) for z in zs])), f.name
            d = target_distance(zs, f.xstar, params)
            assert np.array_equal(_bits(d), _bits([target_distance(z, f.xstar, params) for z in zs])), f.name
            for closed_form in (jump_decrease_hand1, jump_decrease_hand2):
                dv = closed_form(zs, f, params)
                assert np.array_equal(_bits(dv), _bits([closed_form(z, f, params) for z in zs])), f.name
        assert isinstance(f.gap(states[0, : f.dim]), float)
        assert isinstance(lyapunov(states[0], f, params.c), float)
        assert isinstance(jump_decrease_hand2(states[0], f, params), float)
        assert isinstance(target_distance(states[0], f.xstar, params), float)
        for bad in (states[:, :-1], np.concatenate([states, states[:, :1]], axis=1)):
            with pytest.raises(ValueError):
                lyapunov(bad, f, params.c)
            with pytest.raises(ValueError):
                target_distance(bad, f.xstar, params)
        with pytest.raises(ValueError):
            f.gap(states[:, : f.dim + 1])


def test_check_inverse_square_rate_on_first_flow(tmp_path):
    # single long flow with the timer frozen far from its deadline
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=50.0, c=1.0, t_med=50.0)
    sys = hand1(f, params)
    x0 = np.array([4.0])
    z0 = np.concatenate([x0, x0, [params.t_min]])
    tr = simulate(sys, z0, SolverConfig(h=1e-3, t_end=49.0, integrator="rk4", record_stride=20, max_jumps=0))
    r = float(np.linalg.norm(x0 - f.xstar))
    beta = beta_constant(r, params.c, params.t_min, f.gap(x0))
    tol = 1e-6 + 10.0 * f.lipschitz * 1e-3
    rep = check_inverse_square_rate(tr, f, beta, tol=tol)
    assert rep.satisfied
    # the start row holds by how beta is built, so a run cut to it proves
    # nothing and fails, with its one row checked
    start = dataclasses.replace(tr, ts=tr.ts[:1], js=tr.js[:1], zs=tr.zs[:1], tags=tr.tags[:1])
    rep_0 = check_inverse_square_rate(start, f, beta, tol=tol)
    assert not rep_0.satisfied and rep_0.checked == 1 and rep_0.violation_times == []
    # a first-flow row whose timer reads 0 has no finite bound: the monitor
    # and the offline check both flag it rather than skip it
    tr.zs[7, -1] = 0.0
    rep = check_inverse_square_rate(tr, f, beta, tol=tol)
    assert not rep.satisfied and math.isnan(rep.worst_margin)
    assert rep.violation_times == [tr.time(7)]
    write_trace_csv(str(tmp_path / "trace.csv"), tr, f, params.c, target_distance_fn(f, params))
    write_summary_json(str(tmp_path / "summary.json"),
                       {"bound_checks": {"trace.csv": {"kind": "inverse-square", "beta": beta, "tol": tol}}})
    assert main(["check", str(tmp_path / "trace.csv"), "--bound", "inverse-square"]) == 1


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


def test_period_contraction_scores_each_block_of_rows():
    # one ratio per period: the gap at the row before each jump row over the
    # gap at the period's first row (the initial or the previous jump row),
    # a violation at the pre-jump row's hybrid time; a period started on
    # the minimizer is not scored, so not counted
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    tr = _hand2_trace(f, params, np.array([5.0]), t_end=8.0)
    jumps = np.flatnonzero(tr.tags == TAG_JUMP).tolist()
    starts = [0] + jumps[:-1]
    k0 = k1_constant(params.c, f.mu, params.t_min, params.t_max)
    con = check_period_contraction(tr, f, params, slack=1e-3)
    margins = [(k0 + 1e-3) - f.gap(tr.zs[k - 1, :1]) / f.gap(tr.zs[s, :1]) for s, k in zip(starts, jumps)]
    assert con.satisfied and con.checked == len(jumps) >= 6 and con.worst_margin == min(margins)
    # a pre-jump row far from the minimizer fails its own period only
    tr.zs[jumps[1] - 1, 0] *= 10.0
    con = check_period_contraction(tr, f, params, slack=1e-3)
    assert con.violation_times == [tr.time(jumps[1] - 1)]
    assert con.worst_margin == (k0 + 1e-3) - f.gap(tr.zs[jumps[1] - 1, :1]) / f.gap(tr.zs[jumps[0], :1])
    tr.zs[jumps[2], 0] = f.xstar[0]
    con = check_period_contraction(tr, f, params, slack=-1.0)
    assert con.checked == len(jumps) - 1
    assert con.violation_times == [tr.time(k - 1) for k in jumps if k != jumps[3]]


def test_a_check_that_scores_nothing_fails_and_says_why():
    # the rule bound_margins applies holds for every monitor: no scored
    # sample is a failure, and checked counts only what was scored
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    short = _hand2_trace(f, params, np.array([5.0]), t_end=0.5)
    assert len(short.events) == 0
    con = check_period_contraction(short, f, params, slack=1e-3)
    ident = check_jump_identity(short, f, params, tol=1e-12)
    for rep, reason in ((con, "no periods scored"), (ident, "no jumps scored")):
        assert not rep.satisfied and rep.reason == reason and rep.checked == 0
        assert rep.worst_margin == math.inf and rep.violation_times == []
    assert math.isnan(ident.detail["worst_rel_err"])
    mono = check_monotonicity(short, f, params.c, slack_per_step=1.0)
    assert mono.satisfied and mono.reason is None and mono.checked == len(short) - 1
    short.tags[1:] = TAG_FAULT
    mono = check_monotonicity(short, f, params.c, slack_per_step=1.0)
    assert not mono.satisfied and mono.reason == "no row pairs scored" and mono.checked == 0
    # an offset whose gaps underflow to 0 jumps, but scores no period or jump
    tiny = _hand2_trace(f, params, np.array([1e-170]), t_end=5.0)
    assert len(tiny.events) == 4
    for rep in (check_period_contraction(tiny, f, params), check_jump_identity(tiny, f, params, tol=1e-12)):
        assert not rep.satisfied and rep.checked == 0
    # a scored run holds with no reason, and a violation says how many
    run = _hand2_trace(f, params, np.array([5.0]), t_end=8.0)
    ident = check_jump_identity(run, f, params, tol=1e-12)
    assert ident.satisfied and ident.reason is None and ident.checked == len(run.events)
    assert ident.detail["worst_rel_err"] <= 1e-12
    ident = check_jump_identity(run, f, params, tol=-1.0)
    assert ident.reason == "violated on %d jumps" % len(run.events)
    assert ident.violation_times == [run.time(k) for k in run.events]


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


def _scan_reference(margins):
    # the per-sample loop that the block _scan replaces
    worst, bad = math.inf, []
    for i, margin in enumerate(margins):
        if math.isfinite(margin):
            if margin < worst:
                worst = margin
            if margin >= 0.0:
                continue
        else:
            worst = math.nan
        bad.append(i)
    return worst, bad


def _same(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


def test_block_scan_matches_per_sample_loop():
    rng = np.random.default_rng(3)
    cases = [[], [0.0, -0.0], [-0.0, 0.0], [1.0, math.inf], [2.0, math.nan, -1.0], [-math.inf]]
    for _ in range(200):
        m = rng.standard_normal(rng.integers(1, 30)) * 10.0 ** rng.integers(-20, 5)
        specials = rng.integers(0, len(m), 3)
        m[specials] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf, m[0]], 3)
        cases.append(m.tolist())
    for margins in cases:
        worst, bad = _scan(np.array(margins))
        ref_worst, ref_bad = _scan_reference(margins)
        assert _same(worst, ref_worst) and bad == ref_bad, margins


def _bound_margins_reference(bc, t, j, tau, gap, fault):
    # the per-row generators that the numpy blocks replace
    covered = ~fault
    if bc["kind"] == "inverse-square":
        covered &= j == 0
        bounds = [bc["beta"] / (s * s) if s > 0.0 else math.nan for s in tau[covered].tolist()]
    else:
        k_a, k_b, d_t, r0_sq = (bc[key] for key in ("k_a", "k_b", "delta_t", "r0_sq"))
        bounds = [k_a * math.exp(-k_b * (max(s - d_t, 0.0) / (d_t + 1.0))) * r0_sq
                  for s in (t[covered] + j[covered]).tolist()]
    rows = np.flatnonzero(covered).tolist()
    worst, bad = _scan_reference([b + bc["tol"] - g for b, g in zip(bounds, gap[covered].tolist())])
    # a bound holds with no violation and a covered row after t = 0
    if bad:
        why = "violated on %d covered rows" % len(bad)
    else:
        why = None if any(t[k] > 0.0 for k in rows) else "no covered sample after t = 0"
    return worst, [rows[i] for i in bad], rows, why


@pytest.mark.parametrize("kind", ["inverse-square", "exponential"])
def test_bound_margins_blocks_match_per_row_bounds(kind):
    # bit for bit, on random rows with zero, negative and non-finite timers,
    # times and gaps, and gaps that hit the bound exactly
    rng = np.random.default_rng(17)
    bc = {"kind": kind, "beta": 2.5, "k_a": 1.7, "k_b": 0.6, "delta_t": 1.5, "r0_sq": 3.0, "tol": 1e-12}
    for _ in range(50):
        m = int(rng.integers(20, 400))
        t = np.sort(rng.uniform(0.0, 60.0, m))
        j = np.cumsum(rng.random(m) < 0.05).astype(np.int64)
        tau = rng.uniform(-0.5, 3.0, m)
        gap = np.abs(rng.standard_normal(m)) * 10.0 ** rng.integers(-25, 1, m)
        for arr in (t, tau, gap):
            arr[rng.integers(0, m, 2)] = rng.choice([0.0, -0.0, math.nan, math.inf], 2)
        fault = rng.random(m) < 0.02
        got = bound_margins(bc, t, j, tau, gap, fault)
        ref = _bound_margins_reference(bc, t, j, tau, gap, fault)
        assert _same(got[0], ref[0]) and got[1:] == ref[1:]
        # a gap equal to its bound plus tol is a margin of exactly +0
        candidates = np.flatnonzero(np.isfinite(t) & (tau > 0.0) & np.isfinite(tau) & (j == 0))
        if not len(candidates):
            continue
        k = candidates[0]
        only_k = np.arange(m) != k
        exact = np.zeros(m)
        exact[k] = bound_margins(bc, t, j, tau, exact, only_k)[0]
        assert _same(bound_margins(bc, t, j, tau, exact, only_k)[0], 0.0)
    # the start row holds by construction: with the later row a fault row,
    # nothing after t = 0 is covered and the bound fails with no violation
    rows = (np.array([0.0, 0.5]), np.zeros(2, dtype=np.int64), np.array([1.0, 1.5]), np.zeros(2))
    assert bound_margins(bc, *rows, np.array([False, False]))[1:] == ([], [0, 1], None)
    assert bound_margins(bc, *rows, np.array([False, True]))[1:] == ([], [0], "no covered sample after t = 0")


def _monotonicity_reference(trace, f, c, slack_per_step):
    # the per-row loop that the block check_monotonicity replaces
    V = np.full(len(trace), math.nan)
    live = trace.tags != TAG_FAULT
    V[live] = lyapunov(trace.zs[live], f, c)
    V, live, ts, js = V.tolist(), live.tolist(), trace.ts.tolist(), trace.js.tolist()
    h = trace.meta["h"]
    rows, margins = [], []
    for k in range(1, len(ts)):
        if not (live[k] and live[k - 1]):
            continue
        dv = V[k] - V[k - 1]
        if js[k] == js[k - 1]:
            margins.append(slack_per_step * max(1, int(round((ts[k] - ts[k - 1]) / h))) - dv)
        else:
            margins.append(0.0 - dv)
        rows.append(k)
    worst, bad = _scan_reference(margins)
    return worst, [rows[i] for i in bad], len(rows)


def test_check_monotonicity_blocks_match_per_row_loop():
    # bit for bit on runs with jumps, a partial last stride, a closing fault
    # row, a nan state and an energy injection, at zero and positive slack
    f = corpus()["coupled2"]
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    x0 = f.xstar + 1.0
    for stride, damage in [(1, None), (7, None), (7, "nan"), (3, "inject"), (7, "fault")]:
        tr = simulate(hand2(f, params), np.concatenate([x0, x0, [1.0]]),
                      SolverConfig(h=1e-2, t_end=5.003, integrator="rk4", record_stride=stride))
        assert len(tr.events) > 0
        if damage == "nan":
            tr.zs[9, 0] = math.nan
        elif damage == "inject":
            tr.zs[12, 0] += 0.5
        elif damage == "fault":
            tr.tags[-1] = TAG_FAULT
        for slack in (0.0, 1e-3):
            rep = check_monotonicity(tr, f, params.c, slack)
            worst, bad, checked = _monotonicity_reference(tr, f, params.c, slack)
            assert _same(rep.worst_margin, worst) and rep.checked == checked
            assert rep.violation_times == [tr.time(k) for k in bad] and rep.satisfied == (not bad)
