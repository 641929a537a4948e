"""Core types shared by the simulation and analysis layers.

Costs are smooth convex functions with user-supplied gradients. All
numerics are float64, scalars are dim-1 vectors.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
import zlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "CostFunction",
    "HybridTime",
    "FaultRecord",
    "Trace",
    "SolverConfig",
    "make_quadratic",
    "example1_cost",
    "sphere_cost",
    "aniso_cost",
    "coupled_cost",
    "corpus",
    "hybrid_time_fault",
]

_SYM_TOL = 1e-12


def row_dot(a: np.ndarray, b: np.ndarray):
    """a . b along the last axis: numpy elementwise products summed column by
    column from the first, the generated gradient's order, with no BLAS
    kernel, so the bits are the same on every host. A float for two vectors,
    one value per row for blocks; a ValueError on widths that differ."""
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError("row_dot: widths %r and %r differ" % (a.shape[-1:], b.shape[-1:]))
    return per_row(sum((a[..., i] * b[..., i] for i in range(1, a.shape[-1])), a[..., 0] * b[..., 0]))


def scaled_norm(v) -> float:
    """|v| of a vector as top * sqrt(row_dot(u, u)), with top the largest
    |v_i| and u = v / top, so the squares of a tiny or huge v neither
    underflow to 0 nor overflow to inf; a top of 0, inf or nan is not
    divided by. For one component it is |v_i| exactly."""
    v = np.asarray(v, dtype=float)
    top = max(map(abs, v.tolist()))
    u = v / top if 0.0 < top < math.inf else v
    return top * math.sqrt(row_dot(u, u))


def per_row(v):
    """A certificate quantity as returned: a float for one state (a scalar
    or 0-d v), else the array of row values."""
    return float(v) if np.ndim(v) == 0 else v


@dataclass(frozen=True)
class CostFunction:
    """Smooth cost with optional convexity metadata.

    value takes a shape-(dim,) float64 vector, and make_quadratic's value
    also a block (rows, dim), one value per row, by value.on_components,
    the one expression, on dim components: floats or a block's columns.
    gradient takes a sequence of dim components and returns a sequence of
    dim components; the flow closures pass it a list of floats, or of numpy
    scalars in the engine's fallback step. mu and lipschitz are
    strong-convexity and gradient-Lipschitz constants when known;
    xstar/fstar are the minimizer and minimum, required by any
    sub-optimality reporting.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[Sequence], Sequence]
    mu: Optional[float] = None
    lipschitz: Optional[float] = None
    xstar: Optional[np.ndarray] = None
    fstar: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.mu is not None and self.lipschitz is not None:
            if not (0.0 < self.mu <= self.lipschitz):
                raise ValueError(
                    "need 0 < mu <= lipschitz, got mu=%g lipschitz=%g"
                    % (self.mu, self.lipschitz)
                )
        if self.xstar is not None:
            object.__setattr__(
                self, "xstar", np.asarray(self.xstar, dtype=float).reshape(self.dim)
            )

    def gap(self, x: np.ndarray):
        """Sub-optimality f(x) - fstar of a point (dim,) as a float, or of
        every row of a block (rows, dim) as an array. Requires fstar."""
        if self.fstar is None:
            raise ValueError("cost %r has no fstar; cannot report sub-optimality" % self.name)
        return per_row(self.value(x) - self.fstar)


class HybridTime(NamedTuple):
    """Point (t, j) in a hybrid time domain; tuple order is lexicographic."""

    t: float
    j: int


class FaultRecord(NamedTuple):
    """Simulation fault at hybrid time (t, j): kind is 'blowup' or 'escaped';
    the trace's fault row holds the last finite state."""

    t: float
    j: int
    kind: str
    detail: str


# recorded-point tags
TAG_FLOW = 0
TAG_JUMP = 1
TAG_FAULT = 2

TAG_NAMES = {TAG_FLOW: "flow", TAG_JUMP: "jump", TAG_FAULT: "fault"}


def hybrid_time_fault(t, j, jump, fault):
    """The first row whose hybrid time (t, j) cannot be a run's, as (row,
    the rule it breaks), or None when every row's can. t and j are a trace's
    columns, jump and fault boolean masks of its post-jump rows and its
    fault row.

    A run starts with a flow row at (0, 0). Then t never decreases (a nan is
    out of order) and j steps by 0 or 1: by 1 exactly onto the jump rows,
    which take no time, and by 0 onto a row at a strictly later t, or onto
    the fault row. A run writes at most one fault row, as its last row.
    """
    if not len(t):
        return None
    if not (t[0] == 0.0 and j[0] == 0) or jump[0] or fault[0]:
        return 0, "a run starts with a flow row at (0, 0)"
    dt, dj = np.diff(t), np.diff(j)
    misplaced = fault[1:].copy()
    misplaced[-1:] = False
    rules = (
        (~(dt >= 0.0), "t never decreases and is never nan"),
        ((dj < 0) | (dj > 1), "j steps by 0 or 1"),
        ((dj == 1) != jump[1:], "j steps by 1 exactly onto the jump rows"),
        ((dj == 1) & (dt != 0.0), "a jump takes no time"),
        ((dj == 0) & ~(dt > 0.0) & ~fault[1:], "t strictly increases along a flow"),
        (misplaced, "a run writes its one fault row last"),
    )
    broken = np.stack([mask for mask, _ in rules])
    bad = broken.any(axis=0)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return k + 1, rules[int(np.argmax(broken[:, k]))][1]


@dataclass
class Trace:
    """Recorded solution of a hybrid system.

    Packed rows zs[k] = [x1, x2, tau] at hybrid time (ts[k], js[k]); tags mark
    how each point was produced (flow sample, post-jump state, fault marker).
    The rows are the one record of each jump and fault: a jump row's
    predecessor is its pre-jump state, and the fault row holds the last
    finite state.
    """

    dim: int
    ts: np.ndarray
    js: np.ndarray
    zs: np.ndarray
    tags: np.ndarray
    meta: dict = field(default_factory=dict)
    termination: str = "horizon"
    fault: Optional[FaultRecord] = None

    def __len__(self):
        return len(self.ts)

    def time(self, k: int) -> HybridTime:
        return HybridTime(float(self.ts[k]), int(self.js[k]))

    @property
    def events(self) -> np.ndarray:
        """The row index k of each jump, in order: row k is the post-jump
        state at (t, j) and row k - 1 the pre-jump state at (t, j - 1)."""
        return np.flatnonzero(self.tags == TAG_JUMP)


_INTEGRATORS = ("euler", "heun", "midpoint", "rk4")
_JUMP_POLICIES = ("earliest", "latest", "uniform")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step solver settings.

    record_stride decouples memory from step count: flow samples are kept
    every record_stride steps, jumps and endpoints always.
    """

    h: float = 1e-3
    t_end: float = 10.0
    max_jumps: int = 10_000
    integrator: str = "euler"
    jump_policy: str = "latest"
    policy_seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ValueError("h must be positive and finite, got %r" % (self.h,))
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ValueError("t_end must be positive and finite, got %r" % (self.t_end,))
        if self.max_jumps < 0:
            raise ValueError("max_jumps must be >= 0, got %r" % (self.max_jumps,))
        if self.integrator not in _INTEGRATORS:
            raise ValueError(
                "unknown integrator %r (known: %s)" % (self.integrator, ", ".join(_INTEGRATORS))
            )
        if self.jump_policy not in _JUMP_POLICIES:
            raise ValueError(
                "unknown jump_policy %r (known: %s)" % (self.jump_policy, ", ".join(_JUMP_POLICIES))
            )
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1, got %r" % (self.record_stride,))


@functools.lru_cache(maxsize=None)
def _compiled(text: str, name: str):
    """The code object of text, compiled once and registered with linecache
    under its code filename, so a traceback or profile line inside generated
    code shows its source."""
    filename = "<%s %08x>" % (name, zlib.crc32(text.encode()))
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    return compile(text, filename, "exec")


def compile_source(text: str, name: str, **names):
    """Run text, Python source defining name, in a fresh namespace and
    return that object. The code is compiled once per text (see _compiled);
    each call binds its own names. The source sees math's inf and nan, and
    the given names.
    """
    namespace = {"inf": math.inf, "nan": math.nan, **names}
    exec(_compiled(text, name), namespace)
    return namespace[name]


def compile_components(name: str, width: int, components, factors=(), **names):
    """Closure name(x) on a sequence of width components, returning the list
    of the given component expressions, in which "{i}" stands for x[i] and
    "{f<j>}" for (factors[j]), an expression in the clock x[width - 1] alone
    (a ValueError names one that reads another input), used where its bare
    text parses the same: the engine computes it once per clock stage value
    or inlines it as written. Expressions that need no names beyond
    compile_source's own stand alone, and the closure carries them as its
    components and factors attributes, so the engine can inline them."""
    components, factors = tuple(components), tuple(factors)
    for f in factors:
        if set(re.findall(r"{(\w*)", f)) - {str(width - 1)}:
            raise ValueError("factor %r names an input other than the clock {%d}" % (f, width - 1))
    args = ["x[%d]" % i for i in range(width)]
    refs = {"f%d" % j: "(%s)" % f.format(*args) for j, f in enumerate(factors)}
    body = ", ".join(c.format(*args, **refs) for c in components)
    fn = compile_source("def %s(x):\n    return [%s]\n" % (name, body), name, **names)
    if not names:
        fn.components = components
        fn.factors = factors
    return fn


def make_quadratic(Q, b, name: str = "") -> CostFunction:
    """Quadratic cost f(x) = 0.5 x'Qx + b'x with analytic metadata.

    Q must be symmetric positive semidefinite (no silent symmetrization).
    For Q positive definite the minimizer and curvature bounds are attached;
    a singular consistent system gets fstar but no unique xstar; b outside
    the range of Q has no minimizer and is rejected. value and gradient sum
    Qx by row_dot's rule; mu, lipschitz, xstar and fstar come from LAPACK
    (eigvalsh, solve, lstsq), so their last bits can depend on the host.
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square, got shape %r" % (Q.shape,))
    n = Q.shape[0]
    if b.shape != (n,):
        raise ValueError("b must have shape (%d,), got %r" % (n, b.shape))
    scale = max(1.0, float(np.abs(Q).max()))
    if not np.all(np.abs(Q - Q.T) <= _SYM_TOL * scale):
        raise ValueError("Q must be symmetric (asymmetry is rejected, not symmetrized)")

    eigs = np.linalg.eigvalsh(Q)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min < -_SYM_TOL * scale:
        raise ValueError("Q must be positive semidefinite, smallest eigenvalue %g" % lam_min)

    # the value as one expression on the components x[0..n-1], summed in
    # row_dot's order; a list of floats takes it with no array built
    def dot(terms):
        return "(%s)" % " + ".join(terms)

    xs = ["x[%d]" % i for i in range(n)]
    on_components = compile_source("def value(x):\n    return 0.5 * %s + %s\n" % (
        dot("%s * %s" % (xk, dot("%s * %r" % (xi, q) for xi, q in zip(xs, row))) for xk, row in zip(xs, Q.tolist())),
        dot("%s * %r" % (xk, bk) for xk, bk in zip(xs, b.tolist()))), "value")

    def value(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (n,):
            raise ValueError("value: expected %d components, got shape %r" % (n, x.shape))
        return per_row(on_components(np.moveaxis(x, -1, 0)))
    value.on_components = on_components

    # component i is row_dot(Q[i], x) + b[i], written out; a coefficient 1.0
    # is not multiplied: 1.0 * x is x for every float
    gradient = compile_components("gradient", n, [
        "".join("%s%s{%d}" % (" + " if j else "", "" if qj == 1.0 else "%r * " % qj, j) for j, qj in enumerate(q))
        + " + %r" % bi for q, bi in zip(Q.tolist(), b.tolist())])

    singular = lam_min <= _SYM_TOL * scale
    if not singular:
        xstar = np.linalg.solve(Q, -b)
        return CostFunction(dim=n, value=value, gradient=gradient, mu=lam_min, lipschitz=lam_max,
                            xstar=xstar, fstar=value(xstar), name=name)

    # singular: a minimizer exists iff the stationarity system Qx = -b is consistent
    x_ls, residual, _, _ = np.linalg.lstsq(Q, -b, rcond=None)
    if not np.allclose(row_dot(Q, x_ls), -b, atol=1e-9 * max(scale, float(np.abs(b).max(initial=1.0)))):
        raise ValueError("singular Q with b outside range(Q): cost has no minimizer")
    return CostFunction(dim=n, value=value, gradient=gradient, lipschitz=lam_max, fstar=value(x_ls), name=name)


def example1_cost() -> CostFunction:
    """Scalar quadratic x^2/8 (curvature 1/4); the unstable-ODE demo cost."""
    return make_quadratic([[0.25]], [0.0], name="example1")


def sphere_cost(dim: int = 1, curvature: float = 1.0) -> CostFunction:
    """Isotropic quadratic 0.5*curvature*|x|^2."""
    return make_quadratic(curvature * np.eye(dim), np.zeros(dim), name="sphere%d" % dim)


def aniso_cost() -> CostFunction:
    """Axis-aligned 2-d quadratic with spread spectrum and shifted minimizer."""
    return make_quadratic(np.diag([1.0, 4.0]), [1.0, 0.0], name="aniso2")


def coupled_cost() -> CostFunction:
    """2-d quadratic with off-diagonal coupling, minimizer away from origin."""
    return make_quadratic([[2.0, 0.5], [0.5, 1.0]], [-1.0, 2.0], name="coupled2")


def corpus() -> dict:
    """Bundled strongly convex quadratics used by tests and scenarios."""
    costs = [example1_cost(), sphere_cost(1), sphere_cost(2), aniso_cost(), coupled_cost()]
    return {c.name: c for c in costs}
