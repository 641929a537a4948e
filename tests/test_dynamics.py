"""Flow fields, disturbance signals, and the vanishing-damping integral."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from handsim import (
    DisturbanceSpec,
    HandParams,
    OdeParams,
    PerturbationSet,
    SolverConfig,
    coupled_cost,
    example1_cost,
    hand2,
    limiting_integral,
    make_quadratic,
    simulate,
    sphere_cost,
)
from handsim.core import compile_source
from handsim.dynamics import make_hand_flow, make_rep1_flow, make_rep2_flow, make_signal
from handsim.engine import flow_only_system


def _field(flow, z):
    """Evaluate a flow closure at packed state z = [x1, x2, tau or clock],
    handed over as simulate does: a list of floats."""
    return np.array(flow([float(v) for v in z]))


def test_rep1_field_hand_values():
    # second-order form at t=1, x=2, xdot=0 with f(x)=x^2/8, c=1
    f = make_quadratic([[0.25]], [0.0])
    params = OdeParams(p=2.0, c=1.0, t0=1.0)
    dz = _field(make_rep1_flow(params, f), [2.0, 0.0, 1.0])
    assert dz[0] == pytest.approx(0.0, abs=1e-15)
    assert dz[1] == pytest.approx(-2.0, abs=1e-12)


def test_rep1_damping_only():
    # at the minimizer the gradient term drops; -(3/t) xdot remains
    f = make_quadratic([[0.25]], [0.0])
    params = OdeParams(p=2.0, c=1.0, t0=1.0)
    dz = _field(make_rep1_flow(params, f), [0.0, 1.0, 10.0])
    assert dz[0] == pytest.approx(1.0)
    assert dz[1] == pytest.approx(-0.3, abs=1e-12)


def test_rep1_equilibrium():
    f = sphere_cost(2)
    params = OdeParams(p=2.0, c=1.0, t0=1.0)
    dz = _field(make_rep1_flow(params, f), np.concatenate([f.xstar, np.zeros(2), [7.0]]))
    assert np.all(dz[:2] == 0.0)
    assert np.all(dz[2:4] == 0.0)


def test_rep2_field_hand_values():
    # averaged form at t=2, x1=1, x2=3 with f(x)=x^2/2, c=1
    f = sphere_cost(1)
    params = OdeParams(p=2.0, c=1.0, t0=1.0)
    dz = _field(make_rep2_flow(params, f), [1.0, 3.0, 2.0])
    assert dz[0] == pytest.approx(2.0, abs=1e-12)
    assert dz[1] == pytest.approx(-4.0, abs=1e-12)


def test_rep2_equilibrium():
    f = sphere_cost(2)
    params = OdeParams(p=2.0, c=1.0, t0=1.0)
    dz = _field(make_rep2_flow(params, f), np.concatenate([f.xstar, f.xstar, [3.0]]))
    assert np.all(dz[:2] == 0.0)
    assert np.all(dz[2:4] == 0.0)


def test_rep_equivalence_along_trajectory():
    """rep2 is rep1 under x2 = x + (t/(l-1)) xdot; integrated x1 paths agree."""
    f = example1_cost()
    params = OdeParams(p=2.0, c=0.25, t0=1.0)
    x0, v0 = 2.0, 0.5
    cfg = SolverConfig(h=1e-3, t_end=8.0, integrator="rk4", record_stride=100)
    sys1 = flow_only_system(make_rep1_flow(params, f), f.dim)
    sys2 = flow_only_system(make_rep2_flow(params, f), f.dim)
    z1 = np.array([x0, v0, params.t0])
    # l(2) - 1 = 2
    z2 = np.array([x0, x0 + params.t0 * v0 / 2.0, params.t0])
    tr1 = simulate(sys1, z1, cfg)
    tr2 = simulate(sys2, z2, cfg)
    assert np.array_equal(tr1.ts, tr2.ts)
    assert np.max(np.abs(tr1.zs[:, :f.dim] - tr2.zs[:, :f.dim])) < 1e-8


def test_hand_flow_hand_values():
    f = sphere_cost(1)
    dz = _field(make_hand_flow(1.0, f), [1.0, 3.0, 2.0])
    assert np.allclose(dz, [2.0, -4.0, 1.0], atol=1e-12)


def test_hand_flow_equilibrium_clock_still_runs():
    f = sphere_cost(2)
    z = np.concatenate([f.xstar, f.xstar, [1.7]])
    dz = _field(make_hand_flow(1.0, f), z)
    assert np.all(dz[:-1] == 0.0)
    assert dz[-1] == 1.0


def test_hand_flow_matches_rep2_with_clock():
    # timer-augmented field equals the averaged nominal field at t = tau
    rng = np.random.default_rng(5)
    f = make_quadratic(np.diag([1.0, 4.0]), np.array([1.0, 0.0]))
    params = OdeParams(p=2.0, c=0.7, t0=1.0)
    hand = make_hand_flow(0.7, f)
    rep2 = make_rep2_flow(params, f)
    for _ in range(1000):
        x1 = rng.standard_normal(2) * 3.0
        x2 = rng.standard_normal(2) * 3.0
        tau = float(rng.uniform(0.2, 9.0))
        z = np.concatenate([x1, x2, [tau]])
        dz = _field(hand, z)
        dz2 = _field(rep2, z)
        assert np.allclose(dz[:2], dz2[:2], atol=1e-12)
        assert np.allclose(dz[2:4], dz2[2:4], atol=1e-12)
        assert dz[-1] == 1.0


@pytest.mark.parametrize("make", [lambda f: make_hand_flow(1.0, f),
                                  lambda f: make_rep1_flow(OdeParams(), f),
                                  lambda f: make_rep2_flow(OdeParams(p=2.5, c=0.7), f)],
                         ids=["hand", "rep1", "rep2"])
@pytest.mark.parametrize("f", [sphere_cost(1), make_quadratic([[1.3, 0.2], [0.2, 0.7]], [0.1, -0.3]),
                               coupled_cost()],
                         ids=["dim1", "dim2", "coupled2"])
def test_flow_closures_on_column_block(make, f):
    # each column of a block of states, handed over as a list of floats,
    # gets float components, bit for bit those of the same column as an
    # array (numpy scalars, as in the engine's fallback step); dim2 has
    # non-power-of-two Q entries, so its gradient products round
    flow = make(f)
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((2 * f.dim + 1, 5)) * 10.0 ** rng.integers(-4, 4, size=5)
    Z[-1] = rng.uniform(0.5, 3.0, size=5)
    for i in range(5):
        single = flow(Z[:, i].tolist())
        assert len(single) == 2 * f.dim + 1
        assert all(type(v) is float for v in single)
        assert np.array_equal(single, flow(Z[:, i]))


def test_make_hand_flow_returns_components():
    f = sphere_cost(1)
    F = make_hand_flow(1.0, f)
    z = [1.0, 3.0, 2.0]
    out = F(z)
    assert isinstance(out, list) and len(out) == 3
    assert np.allclose(out, [2.0, -4.0, 1.0], atol=1e-12)
    assert z == [1.0, 3.0, 2.0]


def test_square_wave_levels():
    spec = DisturbanceSpec.square_wave(dim=3, eps=1e-3, period=10.0, axis=[0.0, 1.0, 0.0])
    sig = make_signal(spec)
    e = sig(2.0)
    assert e.shape == (3,)
    assert np.max(np.abs(e)) == pytest.approx(1e-3)
    e_late = sig(7.0)
    assert np.allclose(e_late, -e)
    # period boundary wraps back to the high level
    assert np.allclose(sig(10.0), e)


def test_zero_signal():
    spec = DisturbanceSpec(kind="zero", dim=4)
    sig = make_signal(spec)
    for t in (0.0, 1.3, 99.0):
        assert np.all(sig(t) == 0.0)
    assert spec.is_zero()


def test_tiny_constant_disturbance_is_kept():
    # a constant is zero only when every component is 0.0: its bound is
    # taken scaled by the largest component, so a tiny one does not
    # underflow to 0 and the engine does not drop the signal
    for value in ([1e-170, 1e-170], [-2.5e-320]):
        spec = DisturbanceSpec.constant(value)
        assert not spec.is_zero() and spec.eps > 0.0, value
    assert DisturbanceSpec.constant([1e-170, 1e-170]).eps == 1e-170 * math.sqrt(2.0)
    assert DisturbanceSpec.constant([0.0, -0.0]).is_zero()
    # as e2, it moves a hand2 run off the minimizer, where the undisturbed
    # run stays
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    z0 = np.array([0.0, 0.0, 1.0])
    cfg = SolverConfig(h=0.01, t_end=3.0, integrator="euler")
    assert np.all(simulate(sys, z0, cfg).zs[:, :2] == f.xstar)
    for e2 in ([1e-170, 1e-170, 0.0], [-2.5e-320, 0.0, 0.0]):
        moved = simulate(sys, z0, cfg, PerturbationSet(e2=DisturbanceSpec.constant(e2)))
        assert np.any(moved.zs[:, :2] != f.xstar), e2


def test_uniform_random_signal_deterministic_and_bounded():
    spec = DisturbanceSpec.uniform_random(dim=2, eps=0.05, seed=7)
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = float(rng.uniform(0.0, 1e4))
        # two independent closures: the draw is a pure function of (seed, t)
        a = make_signal(spec)(t)
        b = make_signal(spec)(t)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) <= 0.05 + 1e-12


def test_piecewise_constant_signals_carry_their_next_switch():
    # until is the next time the key can change: the next multiple of P/2
    # for the square wave, of hold for uniform draws, never for constants
    square = make_signal(DisturbanceSpec.square_wave(dim=1, eps=1e-3, period=10.0, axis=[1.0]))
    uniform = make_signal(DisturbanceSpec.uniform_random(dim=1, eps=0.05, seed=7, hold=0.5))
    for sig, t, want in [(square, 0.0, 5.0), (square, 2.0, 5.0), (square, 5.0, 10.0), (square, 7.5, 10.0),
                         (square, 10.0, 15.0), (uniform, 0.0, 0.5), (uniform, 1.2, 1.5), (uniform, 1.5, 2.0)]:
        until = compile_source("def until(t):\n    return %s\n" % sig.until, "until")
        assert until(t) == want, (sig.until, t)
    for spec in (DisturbanceSpec(kind="zero", dim=2), DisturbanceSpec.constant([0.1, 0.0])):
        assert make_signal(spec).until == "inf"


def test_sinusoid_period():
    spec = DisturbanceSpec.sinusoid(dim=1, eps=0.2, period=4.0, axis=[1.0])
    rng = np.random.default_rng(1)
    sig = make_signal(spec)
    for _ in range(50):
        t = float(rng.uniform(0.0, 40.0))
        a = sig(t)
        b = sig(t + 4.0)
        assert np.allclose(a, b, atol=1e-9)
        assert np.linalg.norm(a) <= 0.2 + 1e-12


def _run(f, z0, h, n, pert=None):
    """Recorded states of n euler steps of the restarting flow via simulate."""
    sys = flow_only_system(make_hand_flow(1.0, f), f.dim)
    cfg = SolverConfig(h=h, t_end=n * h, integrator="euler")
    return simulate(sys, np.asarray(z0, dtype=float), cfg, pert=pert)


def test_perturbed_flow_zero_is_identity():
    f = sphere_cost(2)
    zero = PerturbationSet(e1=DisturbanceSpec(kind="zero", dim=5), e2=DisturbanceSpec(kind="zero", dim=5))
    rng = np.random.default_rng(9)
    for _ in range(25):
        z = rng.standard_normal(5)
        z[-1] = abs(z[-1]) + 0.1
        assert np.array_equal(_run(f, z, 0.01, 3, zero).zs, _run(f, z, 0.01, 3).zs)


def test_perturbed_flow_additive_shift():
    # additive channel shifts the field by the signal value on its axis,
    # read at each step's start time
    f = sphere_cost(1)
    F = make_hand_flow(1.0, f)
    e_a = DisturbanceSpec.square_wave(dim=3, eps=1e-3, period=0.4, axis=[0.0, 1.0, 0.0])
    h = 0.1
    tr = _run(f, [1.0, 3.0, 2.0], h, 4, PerturbationSet(e2=e_a))
    assert len(tr) == 5
    for k, sign in enumerate((1.0, 1.0, -1.0, -1.0)):
        shift = (tr.zs[k + 1] - tr.zs[k]) / h - _field(F, tr.zs[k])
        # second half-period flips the sign
        assert np.allclose(shift, [0.0, sign * 1e-3, 0.0], atol=1e-12)


def test_perturbed_flow_state_shift_moves_gradient_argument():
    # state channel on x1 evaluates the field at x1 + delta
    f = sphere_cost(1)
    F = make_hand_flow(1.0, f)
    delta = 0.25
    e_s = DisturbanceSpec.constant(np.array([delta, 0.0, 0.0]))
    z = np.array([1.0, 3.0, 2.0])
    h = 0.1
    z1 = _run(f, z, h, 1, PerturbationSet(e1=e_s)).zs[-1]
    shifted = np.array([1.0 + delta, 3.0, 2.0])
    assert np.allclose((z1 - z) / h, _field(F, shifted), atol=1e-12)


def test_limiting_integral_empty_window():
    assert limiting_integral(3.0, 5.0, 0.0) == 0.0


def test_limiting_integral_closed_form():
    assert limiting_integral(3.0, 0.0, 1.0) == pytest.approx(3.0 * math.log(2.0), rel=1e-12)


def test_limiting_integral_matches_quadrature():
    # oracle: numeric quadrature of ell2/(1+t) over [s, s+r]
    rng = np.random.default_rng(21)
    for _ in range(30):
        ell2 = float(rng.uniform(1.1, 6.0))
        s = float(rng.uniform(0.0, 1e3))
        r = float(rng.uniform(0.01, 50.0))
        ref, _ = quad(lambda u: ell2 / (1.0 + u), s, s + r)
        assert limiting_integral(ell2, s, r) == pytest.approx(ref, rel=1e-9)


def test_limiting_integral_vanishes_along_sequence():
    # fixed window length, growing start: strictly decreasing toward zero
    vals = [limiting_integral(3.0, s, 1.0) for s in (10.0, 100.0, 1e3, 1e4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 3e-4 * 3.0
    assert vals[-1] > 0.0


def test_limiting_integral_rejects_bad_arguments():
    with pytest.raises(ValueError):
        limiting_integral(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        limiting_integral(3.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        limiting_integral(3.0, 0.0, -0.5)


def test_ode_params_validation():
    with pytest.raises(ValueError):
        OdeParams(p=1.0, c=1.0, t0=1.0)
    with pytest.raises(ValueError):
        OdeParams(p=2.0, c=0.0, t0=1.0)
    with pytest.raises(ValueError):
        OdeParams(p=2.0, c=1.0, t0=0.0)
