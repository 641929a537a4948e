"""Continuous-time fields: the time-varying accelerated-gradient ODE in its two
state-space forms, disturbance signals, and the damping-integral diagnostic
behind the non-uniformity probe. The timer-based restarting flow is the
averaged form at p = 2 (ell = 3) with the restartable timer tau in place of
the clock t: make_rep2_flow(OdeParams(c=c), f).

Each field (velocity form, averaged form) is built by its make_* factory as
one closure F(z) on packed states z = [x1, x2, tau or clock] that returns the
2*dim + 1 field components as a list, computed component by component on a
list of floats (numpy scalars where the engine redoes a step that raised).
The factory writes each component as an expression from its constants and
compiles F from that text, which F carries as its components for the engine
to inline. A coefficient in the timer or clock alone (ell/t, (ell-1)/t,
c p^2 t^(p-2), -c p^2 t^(p-1)/(ell-1)) is declared as a clock factor,
carried as F.factors, which the engine computes once per stage value of the
clock. The closures assume in-domain states (positive timer or clock); the
engine is their caller and applies the disturbance channels around them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import CostFunction, compile_components, row_dot, scaled_norm

__all__ = [
    "OdeParams",
    "DisturbanceSpec",
    "make_signal",
    "make_rep1_flow",
    "make_rep2_flow",
    "limiting_integral",
]


@dataclass(frozen=True)
class OdeParams:
    """Parameters of x'' + (ell/t) x' + c p^2 t^(p-2) grad f(x) = 0.

    ell defaults to p + 1. At p = 2 (ell = 3) the averaged form on z =
    [x1, x2, tau] is the restarting flow, dz = ((2/tau)(x2 - x1),
    -2 c tau grad f(x1), 1), with the timer tau in place of the clock t.
    """

    p: float = 2.0
    c: float = 1.0
    ell: Optional[float] = None
    t0: float = 1.0

    def __post_init__(self):
        if self.ell is None:
            object.__setattr__(self, "ell", self.p + 1.0)
        if self.p < 2.0:
            raise ValueError("p must be >= 2, got %r" % (self.p,))
        if not (self.c > 0.0):
            raise ValueError("c must be positive, got %r" % (self.c,))
        if not (self.ell > 1.0):
            raise ValueError("ell must be > 1, got %r" % (self.ell,))
        if not (self.t0 > 0.0):
            raise ValueError("t0 must be positive, got %r" % (self.t0,))


_KINDS = ("zero", "constant", "square_wave", "sinusoid", "uniform_random")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Bounded deterministic signal e: t >= 0 -> R^dim with sup |e(t)| <= eps.

    Signals are constructed under the bound, never clipped. uniform_random is
    a pure function of (seed, floor(t / hold)): piecewise-constant draws from
    the radius-eps ball, reproducible across runs.
    """

    kind: str
    dim: int
    eps: float = 0.0
    period: float = 0.0
    axis: Optional[np.ndarray] = None
    value: Optional[np.ndarray] = None
    seed: int = 0
    hold: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown disturbance kind %r (known: %s)" % (self.kind, ", ".join(_KINDS)))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.eps < 0.0:
            raise ValueError("eps must be >= 0")
        if self.kind in ("square_wave", "sinusoid"):
            if not (self.period > 0.0):
                raise ValueError("%s needs period > 0" % self.kind)
            axis = np.asarray(self.axis, dtype=float).reshape(self.dim)
            norm = math.sqrt(row_dot(axis, axis))
            if abs(norm - 1.0) > 1e-9:
                raise ValueError("axis must be a unit vector, |axis| = %g" % norm)
            object.__setattr__(self, "axis", axis)
        if self.kind == "constant":
            value = np.asarray(self.value, dtype=float).reshape(self.dim)
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "eps", scaled_norm(value))  # a tiny |value| does not underflow to 0
        if self.kind == "uniform_random" and not (self.hold > 0.0):
            raise ValueError("uniform_random needs hold > 0")

    @staticmethod
    def constant(value) -> "DisturbanceSpec":
        value = np.asarray(value, dtype=float)
        return DisturbanceSpec(kind="constant", dim=value.size, value=value)

    @staticmethod
    def square_wave(dim: int, eps: float, period: float, axis) -> "DisturbanceSpec":
        return DisturbanceSpec(kind="square_wave", dim=dim, eps=eps, period=period, axis=axis)

    @staticmethod
    def sinusoid(dim: int, eps: float, period: float, axis) -> "DisturbanceSpec":
        return DisturbanceSpec(kind="sinusoid", dim=dim, eps=eps, period=period, axis=axis)

    @staticmethod
    def uniform_random(dim: int, eps: float, seed: int, hold: float = 1.0) -> "DisturbanceSpec":
        return DisturbanceSpec(kind="uniform_random", dim=dim, eps=eps, seed=seed, hold=hold)

    def is_zero(self) -> bool:
        return self.kind == "zero" or self.eps == 0.0


def _switch_steps(key, until, k: int, h: float, n: int) -> int:
    """The least i in [1, n] with key((k + i) * h) != key(k * h), else n,
    searched from the step of until(k * h), the next time the key can
    change: down while the step before is at or after it or has a changed
    key, then up to the first changed key. The walk down is exact because
    the key changes value at most once before until, however it rounds (the
    square wave's until is at most t + P/2, and a uniform key never returns
    to a value it left)."""
    t = k * h
    was, u = key(t), until(t)
    i = min(n, max(1, int(min(u / h, k + n)) - k))
    while i > 1:
        t = (k + i - 1) * h
        if t < u and key(t) == was:
            break
        i -= 1
    while i < n and key((k + i) * h) == was:
        i += 1
    return i


def make_signal(spec: DisturbanceSpec) -> Callable[[float], np.ndarray]:
    """Closure t -> e(t). Returned arrays are internal buffers; callers read,
    never mutate. A piecewise-constant signal carries steps(k, h, n): the
    steps from t = k * h over which its value holds, at most n; n for zero
    and constant signals, else the first step at which its key (the square
    wave's half period, the uniform draw's hold interval) changes."""
    dim = spec.dim
    if spec.kind in ("zero", "constant") or spec.eps == 0.0:
        value = spec.value.copy() if spec.kind == "constant" else np.zeros(dim)

        def constant(t):
            return value

        constant.steps = lambda k, h, n: n
        return constant
    if spec.kind == "square_wave":
        # +eps on [0, P/2), -eps on [P/2, P), repeating; phase 0 at t = 0
        pos = spec.eps * spec.axis
        neg = -pos
        period, half = float(spec.period), float(0.5 * spec.period)

        def high(t):
            return math.fmod(t, period) < half

        def square(t):
            return pos if high(t) else neg

        # t + (half - fmod(t, half)) is at most t + half, so no float at or
        # after the second switch from t lies below it
        square.steps = functools.partial(_switch_steps, high, lambda t: t + (half - math.fmod(t, half)))
        return square
    if spec.kind == "sinusoid":
        amp = spec.eps * spec.axis
        w = 2.0 * math.pi / spec.period
        return lambda t: amp * math.sin(w * t)
    # uniform_random: redraw per hold interval, cache the last interval
    hold = float(spec.hold)

    def interval(t):
        return math.floor(t / hold)

    state = {"k": None, "v": np.zeros(dim)}
    eps, seed = spec.eps, spec.seed

    def uniform(t):
        k = interval(t)
        if state["k"] != k:
            rng = np.random.default_rng((seed, k))
            g = rng.standard_normal(dim)
            norm = math.sqrt(row_dot(g, g))
            if norm == 0.0:
                state["v"] = np.zeros(dim)
            else:
                radius = eps * rng.random() ** (1.0 / dim)
                state["v"] = (radius / norm) * g
            state["k"] = k
        return state["v"]

    uniform.steps = functools.partial(_switch_steps, interval, lambda t: (interval(t) + 1.0) * hold)
    return uniform


def _gradient_components(f: CostFunction):
    """Component expressions of f.gradient in "{j}" = x1[j], and the names
    they need: a gradient without expressions is called once per component."""
    comps = getattr(f.gradient, "components", None)
    if comps is not None:
        return comps, {}
    x1 = ", ".join("{%d}" % j for j in range(f.dim))
    return ["_grad([%s])[%d]" % (x1, i) for i in range(f.dim)], {"_grad": f.gradient}


def _make_rep_flow(params: OdeParams, f: CostFunction, rep1: bool) -> Callable:
    """Shared factory for the two ODE forms on packed z = [x1, x2, clock].

    The clock power t ** e is numpy's: a negative float clock (reachable
    only through a state disturbance) with a fractional e gives nan, where
    Python's power would give a complex number."""
    n = f.dim
    p, c, ell = float(params.p), float(params.c), float(params.ell)
    grad, names = _gradient_components(f)
    t = "{%d}" % (2 * n)

    def power(e):
        if e == 1.0:
            return t
        if float(e).is_integer():
            return "%s ** %r" % (t, e)
        return "(nan if -inf < %s < 0.0 else %s ** %r)" % (t, t, e)

    # coef * t ** e without the factors that cannot change a bit (t ** 0.0
    # is 1.0 for every float, and 1.0 * x is x); a clock factor unless t or constant
    coef, e = (c * p * p, p - 2.0) if rep1 else (-(c * p * p / (ell - 1.0)), p - 1.0)
    scale = " * ".join(([] if coef == 1.0 else [repr(coef)]) + ([] if e == 0.0 else [power(e)]))
    factors = ["-(%r / %s)" % (ell, t) if rep1 else "%r / %s" % (ell - 1.0, t)]
    if t in scale and scale != t:
        factors.append(scale)
        scale = "{f1}"
    forces = ["%s(%s)" % (scale + " * " if scale else "", g) for g in grad]
    if rep1:
        comps = ["{%d}" % (n + i) for i in range(n)]
        comps += ["{f0} * {%d} - %s" % (n + i, force) for i, force in enumerate(forces)]
    else:
        comps = ["{f0} * ({%d} - {%d})" % (n + i, i) for i in range(n)] + forces
    return compile_components("rep1_flow" if rep1 else "rep2_flow", 2 * n + 1, comps + ["1.0"], factors, **names)


def make_rep1_flow(params: OdeParams, f: CostFunction) -> Callable:
    """F(z) for the velocity form on z = [x1, x2, t], t the absolute
    time: dz = (x2, -(ell/t) x2 - c p^2 t^(p-2) grad f(x1), 1)."""
    return _make_rep_flow(params, f, rep1=True)


def make_rep2_flow(params: OdeParams, f: CostFunction) -> Callable:
    """F(z) for the averaged form on z = [x1, x2, t]:
    dz = (((ell-1)/t)(x2 - x1), -(c p^2 t^(p-1)/(ell-1)) grad f(x1), 1)."""
    return _make_rep_flow(params, f, rep1=False)


def limiting_integral(ell2: float, s_k: float, r: float) -> float:
    """Damping mass ell2 * ln((s_k + r + 1)/(s_k + 1)) over a window [s_k, s_k + r].

    Decreases to zero as the window start s_k grows with r fixed, which is the
    vanishing-damping mechanism behind the loss of uniform asymptotic
    stability of the time-varying ODE.
    """
    if not (ell2 > 1.0):
        raise ValueError("ell2 must exceed 1, got %r" % (ell2,))
    if s_k < 0.0:
        raise ValueError("window start must be >= 0, got %r" % (s_k,))
    if r < 0.0:
        raise ValueError("window length must be >= 0, got %r" % (r,))
    if r == 0.0:
        return 0.0
    return ell2 * math.log1p(r / (s_k + 1.0))
