"""Cost corpus, gradient checking, and trace bookkeeping."""

import ast
import math
import os

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
    make_quadratic,
    sphere_cost,
)
from handsim.core import (TAG_FAULT, TAG_JUMP, TAG_NAMES, _compiled, compile_components, compile_source, hybrid_time_fault,
                          row_dot)
from handsim.scenarios import parse_config, run_scenario

from trace_checks import assert_recorded


def grad_check(f, x, fd_step=1e-6):
    """Worst relative mismatch between f.gradient and central differences
    at x: per coordinate |cd_i - g_i| / max(1, |g_i|)."""
    x = np.asarray(x, dtype=float).reshape(f.dim)
    g = np.asarray(f.gradient(x), dtype=float).reshape(f.dim)
    worst = 0.0
    for i in range(f.dim):
        e = np.zeros(f.dim)
        e[i] = fd_step
        cd = (f.value(x + e) - f.value(x - e)) / (2.0 * fd_step)
        worst = max(worst, abs(cd - g[i]) / max(1.0, abs(g[i])))
    return worst


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
    # each column of a (n, B) block of states, handed over as a list of
    # floats, gets float components, bit for bit those of the same column as
    # an array (numpy scalars), also at B = n
    rng = np.random.default_rng(8)
    for f in (coupled_cost(), make_quadratic([[1.3, 0.2], [0.2, 0.7]], [0.1, -0.3])):
        for B in (2, 3, 15):
            X = rng.standard_normal((2, B)) * 10.0 ** rng.integers(-6, 6, size=B)
            for i in range(B):
                g = f.gradient(X[:, i].tolist())
                assert all(type(v) is float for v in g)
                assert np.array_equal(g, f.gradient(X[:, i]))


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


def _left_to_right(a, b):
    """sum_i a[i] * b[i] on Python floats, from the first product on."""
    s = a[0] * b[0]
    for u, v in zip(a[1:], b[1:]):
        s = s + u * v
    return s


def test_row_dot_is_the_left_to_right_float_sum():
    # bit for bit the Python-float loop, on vectors and on blocks of width 1
    # to 5 (a fused multiply-add in a BLAS kernel would not be), a float for
    # two vectors, and a ValueError on widths that differ
    rng = np.random.default_rng(20)
    for width in range(1, 6):
        A = rng.standard_normal((4000, width)) * 10.0 ** rng.integers(-8, 8, size=(4000, width))
        B = rng.standard_normal((4000, width))
        want = [_left_to_right(a, b) for a, b in zip(A.tolist(), B.tolist())]
        assert np.array_equal(row_dot(A, B), want), width
        assert np.array_equal(row_dot(A, B[0]), [_left_to_right(a, B[0].tolist()) for a in A.tolist()]), width
        assert [row_dot(a, b) for a, b in zip(A[:200], B)] == want[:200], width
        with pytest.raises(ValueError):
            row_dot(A, np.zeros(width + 1))
        with pytest.raises(ValueError):
            row_dot(A[:, :-1] if width > 1 else np.zeros((3, 2)), B)
    assert type(row_dot(A[0], B[0])) is float


def test_quadratic_value_is_the_left_to_right_float_formula():
    # f(x) = 1/2 sum_i x_i (sum_j Q_ij x_j) + sum_i b_i x_i, every sum on
    # Python floats from its first term, bit for bit, on one state and on a
    # block, for the corpus and random positive definite Q of width 1 to 5
    rng = np.random.default_rng(21)
    terms = [([[0.25]], [0.0]), ([[1.0]], [0.0]), (np.eye(2), [0.0, 0.0]), (np.diag([1.0, 4.0]), [1.0, 0.0]),
             ([[2.0, 0.5], [0.5, 1.0]], [-1.0, 2.0])]
    for width in range(1, 6):
        M = rng.standard_normal((width, width))
        terms.append((M @ M.T + width * np.eye(width), rng.standard_normal(width)))
    for Q, b in terms:
        f = make_quadratic(Q, b)
        Q, b = np.asarray(Q, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
        X = rng.standard_normal((500, f.dim)) * 10.0 ** rng.integers(-6, 6, size=(500, f.dim))
        want = [0.5 * _left_to_right(x, [_left_to_right(q, x) for q in Q]) + _left_to_right(b, x)
                for x in X.tolist()]
        assert np.array_equal(f.value(X), want), Q
        assert [f.value(x) for x in X[:100]] == want[:100], Q
        assert type(f.value(X[0])) is float


# the only calls into BLAS or LAPACK that src/ makes, each by (module,
# top-level definition, call): make_quadratic's one-time constants and the
# discretization-order fit. Every other dot product, norm and squared
# distance goes through core.row_dot
_BLAS_ALLOWED = {
    ("core", "make_quadratic", "np.linalg.eigvalsh"),
    ("core", "make_quadratic", "np.linalg.solve"),
    ("core", "make_quadratic", "np.linalg.lstsq"),
    ("scenarios", "_run_discretization_order", "np.polyfit"),
}
_BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "polyfit"}


def test_no_blas_backed_call_in_src():
    package = os.path.dirname(compile_source.__code__.co_filename)
    found = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    found.add((name[:-3], owner, "@"))
                elif isinstance(node, ast.Attribute) and (
                        node.attr in _BLAS_NAMES or ast.unparse(node).startswith("np.linalg.")):
                    found.add((name[:-3], owner, ast.unparse(node)))
                elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                    found.add((name[:-3], owner, "from %s import" % node.module))
    assert found == _BLAS_ALLOWED


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
    assert TAG_NAMES[int(tr.tags[2])] == "jump"
    assert np.array_equal(tr.zs[:, 0], [1.0, 0.9, 0.9, 0.8])
    assert np.array_equal(tr.zs[:, -1], [1.0, 1.5, 1.0, 1.5])
    assert tr.zs[0, 0] == 1.0 and tr.zs[0, 1] == 1.0 and tr.zs[0, -1] == 1.0


def _rule(tr):
    return hybrid_time_fault(tr.ts, tr.js, tr.tags == TAG_JUMP, tr.tags == TAG_FAULT)


def test_validate_trace_accepts_well_formed():
    assert_recorded(_tiny_trace())


def test_validate_trace_rejects_time_going_backward():
    tr = _tiny_trace()
    tr.ts[3] = 0.25
    assert _rule(tr) == (3, "t never decreases and is never nan")


def test_validate_trace_rejects_nonfinite_state():
    tr = _tiny_trace()
    tr.zs[1, 0] = math.nan
    with pytest.raises(AssertionError, match="non-finite"):
        assert_recorded(tr)


def test_validate_trace_rejects_jump_count_skip():
    tr = _tiny_trace()
    tr.js[3] = 3
    assert _rule(tr) == (3, "j steps by 0 or 1")


def test_compile_source_shares_code_and_binds_names_per_call():
    # one text compiles once; each call still runs it in a namespace of
    # its own, so each function sees the names it was given
    text = "def pick(t):\n    return pos if t > 0.0 else neg\n"
    a = compile_source(text, "pick", pos=1.0, neg=-1.0)
    b = compile_source(text, "pick", pos=2.0, neg=-2.0)
    assert a is not b and a.__code__ is b.__code__
    assert (a(1.0), a(-1.0), b(1.0), b(-1.0)) == (1.0, -1.0, 2.0, -2.0)
    # a gradient called by name, as dynamics binds _grad, and a closure that
    # carries its components
    f = compile_components("g", 1, ["_grad([{0}])[0]"], _grad=lambda x: [x[0] * 2.0])
    g = compile_components("g", 1, ["_grad([{0}])[0]"], _grad=lambda x: [x[0] * 3.0])
    assert f.__code__ is g.__code__ and (f([1.0]), g([1.0])) == ([2.0], [3.0])
    p, q = compile_components("c", 1, ["{0} * 2.0"]), compile_components("c", 1, ["{0} * 2.0"])
    assert p is not q and p.__code__ is q.__code__
    p.components = ("changed",)
    assert q.components == ("{0} * 2.0",)


def test_repeated_run_compiles_no_source(tmp_path):
    # a second run of the same config in one process finds every generated
    # text compiled already
    cfg = parse_config({"scenario": "restart-sweep", "out_dir": "out/mini", "params": {"n_grid": 5},
                        "solver": {"t_end": 40.0}})
    run_scenario(cfg, out_dir=str(tmp_path / "a"), quiet=True)
    before = _compiled.cache_info()
    run_scenario(cfg, out_dir=str(tmp_path / "b"), quiet=True)
    after = _compiled.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
