"""Cost corpus, gradient checking, and trace bookkeeping."""

import math

import numpy as np
import pytest

from handsim import (
    CostFunction,
    HybridTime,
    SolverConfig,
    Trace,
    aniso_cost,
    corpus,
    coupled_cost,
    example1_cost,
    grad_check,
    make_quadratic,
    sphere_cost,
    validate_trace,
)


def test_quadratic_example1_constants():
    # f(x) = x^2/8: gradient at 2 is 0.5, minimizer 0, mu = L = 0.25
    f = make_quadratic([[0.25]], [0.0])
    assert f.gradient(np.array([2.0]))[0] == pytest.approx(0.5, abs=1e-15)
    assert f.xstar[0] == 0.0
    assert f.mu == pytest.approx(0.25)
    assert f.lipschitz == pytest.approx(0.25)


def test_quadratic_centered_identity():
    f = make_quadratic(np.eye(2), np.zeros(2))
    x = np.zeros(2)
    assert f.value(x) == 0.0
    assert np.all(np.asarray(f.gradient(x)) == 0.0)


def test_quadratic_shifted_minimizer():
    # Q = diag(1, 4), b = (1, 0): xstar solves Qx = -b
    f = make_quadratic(np.diag([1.0, 4.0]), np.array([1.0, 0.0]))
    assert np.allclose(f.xstar, [-1.0, 0.0], atol=1e-12)
    assert f.mu == pytest.approx(1.0)
    assert f.lipschitz == pytest.approx(4.0)
    assert f.value(f.xstar) == pytest.approx(-0.5, abs=1e-12)
    assert grad_check(f, f.xstar + 0.3) < 1e-8


def test_quadratic_gap_bounds_random():
    # mu/2 |x - x*|^2 <= gap(x) <= L/2 |x - x*|^2 for every corpus quadratic
    rng = np.random.default_rng(11)
    for f in corpus().values():
        for _ in range(40):
            x = f.xstar + rng.standard_normal(f.dim) * rng.uniform(0.1, 10.0)
            d2 = float(np.sum((x - f.xstar) ** 2))
            gap = f.gap(x)
            assert gap >= 0.5 * f.mu * d2 - 1e-9 * max(1.0, d2)
            assert gap <= 0.5 * f.lipschitz * d2 + 1e-9 * max(1.0, d2)


def test_quadratic_gradient_on_column_block():
    # the rows of a (n, B) block of states get b added per column and every
    # column bit for bit as a single state, handed over as a list of
    # floats, gets it, also at B = n
    rng = np.random.default_rng(8)
    for f in (coupled_cost(), make_quadratic([[1.3, 0.2], [0.2, 0.7]], [0.1, -0.3])):
        for B in (2, 3, 15):
            X = rng.standard_normal((2, B)) * 10.0 ** rng.integers(-6, 6, size=B)
            G = np.array(f.gradient(X))
            assert G.shape == (2, B)
            for i in range(B):
                assert np.array_equal(G[:, i], f.gradient(X[:, i]))
                assert np.array_equal(G[:, i], f.gradient(X[:, i].tolist()))


def test_quadratic_gradient_equals_matrix_product():
    # the component formula sum_j Q[i][j] x[j] + b[i] is Q.dot(x) + b bit
    # for bit on every corpus cost (its products are exact), which keeps
    # the artifacts of the numpy engine
    terms = {
        "example1": ([[0.25]], [0.0]),
        "sphere1": ([[1.0]], [0.0]),
        "sphere2": (np.eye(2), [0.0, 0.0]),
        "aniso2": (np.diag([1.0, 4.0]), [1.0, 0.0]),
        "coupled2": ([[2.0, 0.5], [0.5, 1.0]], [-1.0, 2.0]),
    }
    assert sorted(terms) == sorted(corpus())
    rng = np.random.default_rng(17)
    for f in corpus().values():
        Q, b = (np.array(v, dtype=float) for v in terms[f.name])
        for _ in range(2000):
            x = rng.standard_normal(f.dim) * 10.0 ** rng.integers(-8, 8, size=f.dim)
            g = f.gradient(x.tolist())
            assert all(type(v) is float for v in g)
            assert np.array_equal(np.array(g), Q.dot(x) + b), f.name


def test_grad_check_exact_for_quadratic():
    f = make_quadratic(np.eye(2), np.zeros(2))
    assert grad_check(f, np.array([1.0, 1.0]), fd_step=1e-5) <= 1e-8


def test_grad_check_quartic():
    f = CostFunction(
        dim=1,
        value=lambda x: float(x[0] ** 4),
        gradient=lambda x: np.array([4.0 * x[0] ** 3]),
        xstar=np.zeros(1),
        fstar=0.0,
        name="quartic",
    )
    assert grad_check(f, np.array([2.0]), fd_step=1e-4) <= 1e-6


def test_grad_check_flags_wrong_gradient():
    # gradient provider scaled by 2 yields a relative error near 0.5
    f = CostFunction(
        dim=1,
        value=lambda x: 0.5 * float(x[0] ** 2),
        gradient=lambda x: np.array([2.0 * x[0]]),
        name="wrong",
    )
    err = grad_check(f, np.array([1.5]), fd_step=1e-6)
    assert 0.4 < err < 0.6


def test_corpus_contents():
    costs = corpus()
    assert len(costs) == 5
    for name, f in costs.items():
        assert f.name == name
        assert f.mu is not None and f.lipschitz is not None
        assert 0.0 < f.mu <= f.lipschitz
        assert f.gap(f.xstar) == pytest.approx(0.0, abs=1e-12)
        assert grad_check(f, f.xstar + 0.7) < 1e-7


def test_named_costs_dimensions():
    assert example1_cost().dim == 1
    assert sphere_cost(1).dim == 1
    assert sphere_cost(2).dim == 2
    assert aniso_cost().dim == 2
    assert coupled_cost().dim == 2
    # example 1 is x^2/8
    f = example1_cost()
    assert f.value(np.array([2.0])) == pytest.approx(0.5)


def test_solver_config_validation():
    SolverConfig(h=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(h=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(integrator="rk5")
    with pytest.raises(ValueError):
        SolverConfig(jump_policy="sometimes")
    with pytest.raises(ValueError):
        SolverConfig(max_jumps=-1)


def _tiny_trace():
    # two flow samples then a jump then one more flow sample, dim 1
    ts = np.array([0.0, 0.5, 0.5, 1.0])
    js = np.array([0, 0, 1, 1])
    zs = np.array(
        [
            [1.0, 1.0, 1.0],
            [0.9, 0.8, 1.5],
            [0.9, 0.9, 1.0],
            [0.8, 0.7, 1.5],
        ]
    )
    tags = np.array([0, 0, 1, 0])
    return Trace(dim=1, ts=ts, js=js, zs=zs, tags=tags, events=[], meta={"h": 0.5})


def test_trace_accessors():
    tr = _tiny_trace()
    assert len(tr) == 4
    assert tr.time(2) == HybridTime(0.5, 1)
    assert tr.tag_name(2) == "jump"
    assert np.array_equal(tr.x1s()[:, 0], [1.0, 0.9, 0.9, 0.8])
    assert np.array_equal(tr.taus(), [1.0, 1.5, 1.0, 1.5])
    assert tr.x1s()[0, 0] == 1.0 and tr.x2s()[0, 0] == 1.0 and tr.taus()[0] == 1.0


def test_validate_trace_accepts_well_formed():
    validate_trace(_tiny_trace())


def test_validate_trace_rejects_time_going_backward():
    tr = _tiny_trace()
    tr.ts[3] = 0.25
    with pytest.raises(ValueError):
        validate_trace(tr)


def test_validate_trace_rejects_nonfinite_state():
    tr = _tiny_trace()
    tr.zs[1, 0] = math.nan
    with pytest.raises(ValueError):
        validate_trace(tr)


def test_validate_trace_rejects_jump_count_skip():
    tr = _tiny_trace()
    tr.js[3] = 3
    with pytest.raises(ValueError):
        validate_trace(tr)
