"""Core types shared by the simulation and analysis layers.

Costs are smooth convex functions with user-supplied gradients; finite
differences are used only to cross-check gradients, never to drive dynamics.
All numerics are float64, scalars are dim-1 vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "CostFunction",
    "HybridTime",
    "JumpRecord",
    "FaultRecord",
    "Trace",
    "SolverConfig",
    "make_quadratic",
    "grad_check",
    "example1_cost",
    "sphere_cost",
    "aniso_cost",
    "coupled_cost",
    "corpus",
    "validate_trace",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class CostFunction:
    """Smooth cost with optional convexity metadata.

    value takes a shape-(dim,) float64 vector. gradient takes a sequence of
    dim components and returns a sequence of dim components; the flow
    closures pass it a list of floats, or the rows of a (dim, B) block, so a
    gradient computed component by component serves both. mu and lipschitz
    are strong-convexity and gradient-Lipschitz constants when known;
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

    def gap(self, x: np.ndarray) -> float:
        """Sub-optimality f(x) - fstar. Requires fstar."""
        if self.fstar is None:
            raise ValueError("cost %r has no fstar; cannot report sub-optimality" % self.name)
        return float(self.value(x)) - self.fstar


class HybridTime(NamedTuple):
    """Point (t, j) in a hybrid time domain; tuple order is lexicographic."""

    t: float
    j: int


class JumpRecord(NamedTuple):
    """One jump event: pre/post packed states at hybrid time (t, j_pre)."""

    t: float
    j_pre: int
    z_pre: np.ndarray
    z_post: np.ndarray


class FaultRecord(NamedTuple):
    """Simulation fault: kind is 'blowup' or 'escaped', state is the last finite one."""

    t: float
    j: int
    kind: str
    detail: str
    z_last: np.ndarray


# recorded-point tags
TAG_FLOW = 0
TAG_JUMP = 1
TAG_FAULT = 2

TAG_NAMES = {TAG_FLOW: "flow", TAG_JUMP: "jump", TAG_FAULT: "fault"}


@dataclass
class Trace:
    """Recorded solution of a hybrid system.

    Packed rows zs[k] = [x1, x2, tau] at hybrid time (ts[k], js[k]); tags mark
    how each point was produced (flow sample, post-jump state, fault marker);
    events holds one JumpRecord per jump.
    """

    dim: int
    ts: np.ndarray
    js: np.ndarray
    zs: np.ndarray
    tags: np.ndarray
    events: list
    meta: dict = field(default_factory=dict)
    termination: str = "horizon"
    fault: Optional[FaultRecord] = None

    def __len__(self):
        return len(self.ts)

    def time(self, k: int) -> HybridTime:
        return HybridTime(float(self.ts[k]), int(self.js[k]))

    def tag_name(self, k: int) -> str:
        return TAG_NAMES[int(self.tags[k])]

    def x1s(self) -> np.ndarray:
        return self.zs[:, : self.dim]

    def x2s(self) -> np.ndarray:
        return self.zs[:, self.dim : 2 * self.dim]

    def taus(self) -> np.ndarray:
        return self.zs[:, -1]


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


def make_quadratic(Q, b, name: str = "") -> CostFunction:
    """Quadratic cost f(x) = 0.5 x'Qx + b'x with analytic metadata.

    Q must be symmetric positive semidefinite (no silent symmetrization).
    For Q positive definite the minimizer and curvature bounds are attached;
    a singular consistent system gets fstar but no unique xstar; b outside
    the range of Q has no minimizer and is rejected.
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

    def value(x, _Q=Q, _b=b):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x.dot(_Q.dot(x)) + _b.dot(x))

    # component i is sum_j Q[i][j] x[j] taken left to right, then + b[i]; on
    # the corpus costs every product is exact, so this equals Q.dot(x) + b
    # bit for bit whatever order a BLAS kernel sums in
    terms = [(q[0], tuple(enumerate(q))[1:], bi) for q, bi in zip(Q.tolist(), b.tolist())]

    def gradient(x, _terms=terms):
        x0 = x[0]
        g = []
        for q0, rest, bi in _terms:
            s = q0 * x0
            for j, qj in rest:
                s = s + qj * x[j]
            g.append(s + bi)
        return g

    singular = lam_min <= _SYM_TOL * scale
    if not singular:
        xstar = np.linalg.solve(Q, -b)
        return CostFunction(
            dim=n,
            value=value,
            gradient=gradient,
            mu=lam_min,
            lipschitz=lam_max,
            xstar=xstar,
            fstar=value(xstar),
            name=name,
        )

    # singular: a minimizer exists iff the stationarity system Qx = -b is consistent
    x_ls, residual, _, _ = np.linalg.lstsq(Q, -b, rcond=None)
    if not np.allclose(Q.dot(x_ls), -b, atol=1e-9 * max(scale, float(np.abs(b).max(initial=1.0)))):
        raise ValueError("singular Q with b outside range(Q): cost has no minimizer")
    return CostFunction(
        dim=n,
        value=value,
        gradient=gradient,
        mu=None,
        lipschitz=lam_max,
        xstar=None,
        fstar=value(x_ls),
        name=name,
    )


def grad_check(f: CostFunction, x, fd_step: float = 1e-6) -> float:
    """Worst relative mismatch between f.gradient and central differences at x.

    Per coordinate: |cd_i - g_i| / max(1, |g_i|). Validation only; the
    dynamics never consume finite-difference gradients.
    """
    if not (fd_step > 0.0):
        raise ValueError("fd_step must be positive")
    x = np.asarray(x, dtype=float).reshape(f.dim)
    g = np.asarray(f.gradient(x), dtype=float).reshape(f.dim)
    worst = 0.0
    for i in range(f.dim):
        e = np.zeros(f.dim)
        e[i] = fd_step
        cd = (f.value(x + e) - f.value(x - e)) / (2.0 * fd_step)
        err = abs(cd - g[i]) / max(1.0, abs(g[i]))
        worst = max(worst, err)
    return worst


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


def validate_trace(trace: Trace, rel_tol: float = 1e-9) -> None:
    """Check hybrid-time well-formedness of a recorded trace.

    Raises ValueError on: non-finite recorded coordinates, hybrid times not
    lexicographically nondecreasing, t changing at a jump, j changing without
    a jump, or unequal flow strides inside a segment (the final sample of a
    segment may close a partial stride).
    """
    ts, js, zs = trace.ts, trace.js, trace.zs
    if len(ts) == 0:
        raise ValueError("empty trace")
    if not np.all(np.isfinite(zs)):
        raise ValueError("recorded state has non-finite coordinates")
    h = trace.meta.get("h")
    for k in range(1, len(ts)):
        dt = float(ts[k] - ts[k - 1])
        dj = int(js[k] - js[k - 1])
        if dj == 0:
            if dt <= 0.0:
                raise ValueError("t must strictly increase along flows (k=%d, dt=%g)" % (k, dt))
            if h is not None:
                steps = dt / h
                if abs(steps - round(steps)) > rel_tol * max(1.0, steps):
                    raise ValueError(
                        "flow stride at k=%d is not a whole number of steps (dt=%g, h=%g)" % (k, dt, h)
                    )
        elif dj == 1:
            if abs(dt) > rel_tol * max(1.0, abs(float(ts[k]))):
                raise ValueError("t must not advance across a jump (k=%d, dt=%g)" % (k, dt))
        else:
            raise ValueError("j must increase by exactly 1 per jump (k=%d, dj=%d)" % (k, dj))
    # segment strides: equal spacing except the final (possibly partial) gap
    if h is not None:
        seg_start = 0
        for k in range(1, len(ts) + 1):
            if k == len(ts) or js[k] != js[seg_start]:
                dts = np.diff(ts[seg_start:k])
                if len(dts) > 2 and not np.allclose(dts[:-1], dts[0], rtol=1e-9, atol=1e-12):
                    raise ValueError(
                        "unequal recording stride inside flow segment starting at row %d" % seg_start
                    )
                seg_start = k
    for rec in trace.events:
        if rec.z_pre.shape != rec.z_post.shape:
            raise ValueError("jump record shapes disagree")
