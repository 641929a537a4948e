"""Continuous-time fields: the time-varying accelerated-gradient ODE in its two
state-space forms, the timer-based restarting flow, disturbance signals, and
the damping-integral diagnostic behind the non-uniformity probe.

Each field (restarting flow, velocity form, averaged form) is built by its
make_* factory as one closure F(z) on packed states z = [x1, x2, tau or
clock] that returns the 2*dim + 1 field components as a list, computed
component by component: simulate passes a list of floats, simulate_batch the
rows of a (2*dim + 1, B) block, and each column of the block result equals
the float result bit for bit. The closures assume in-domain states (positive
timer or clock); the engine is their caller and applies the disturbance
channels around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import CostFunction

__all__ = [
    "OdeParams",
    "DisturbanceSpec",
    "make_signal",
    "make_rep1_flow",
    "make_rep2_flow",
    "make_hand_flow",
    "limiting_integral",
]


@dataclass(frozen=True)
class OdeParams:
    """Parameters of x'' + (ell/t) x' + c p^2 t^(p-2) grad f(x) = 0.

    ell defaults to p + 1, the value under which the restarting flow is the
    frozen-time specialization of the second state-space form.
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
            norm = float(np.linalg.norm(axis))
            if abs(norm - 1.0) > 1e-9:
                raise ValueError("axis must be a unit vector, |axis| = %g" % norm)
            object.__setattr__(self, "axis", axis)
        if self.kind == "constant":
            value = np.asarray(self.value, dtype=float).reshape(self.dim)
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "eps", float(np.linalg.norm(value)))
        if self.kind == "uniform_random" and not (self.hold > 0.0):
            raise ValueError("uniform_random needs hold > 0")

    @staticmethod
    def zero(dim: int) -> "DisturbanceSpec":
        return DisturbanceSpec(kind="zero", dim=dim)

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


def make_signal(spec: DisturbanceSpec) -> Callable[[float], np.ndarray]:
    """Closure t -> e(t). Returned arrays are internal buffers; callers read,
    never mutate."""
    dim = spec.dim
    if spec.kind == "zero" or (spec.eps == 0.0 and spec.kind != "constant"):
        zero = np.zeros(dim)
        return lambda t: zero
    if spec.kind == "constant":
        val = spec.value.copy()
        return lambda t: val
    if spec.kind == "square_wave":
        pos = spec.eps * spec.axis
        neg = -pos
        period = spec.period
        half = 0.5 * period
        # +eps on [0, P/2), -eps on [P/2, P), repeating; phase 0 at t = 0

        def square(t, _pos=pos, _neg=neg, _period=period, _half=half):
            return _pos if math.fmod(t, _period) < _half else _neg

        return square
    if spec.kind == "sinusoid":
        amp = spec.eps * spec.axis
        w = 2.0 * math.pi / spec.period
        return lambda t: amp * math.sin(w * t)
    # uniform_random: redraw per hold interval, cache the last interval
    state = {"k": None, "v": np.zeros(dim)}
    eps, seed, hold = spec.eps, spec.seed, spec.hold

    def uniform(t):
        k = int(math.floor(t / hold))
        if state["k"] != k:
            rng = np.random.default_rng((seed, k))
            g = rng.standard_normal(dim)
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                state["v"] = np.zeros(dim)
            else:
                radius = eps * rng.random() ** (1.0 / dim)
                state["v"] = (radius / norm) * g
            state["k"] = k
        return state["v"]

    return uniform


def make_hand_flow(c: float, f: CostFunction) -> Callable[[Sequence], list]:
    """Restarting field F(z) on packed z = [x1, x2, tau]:

        dz = ((2/tau)(x2 - x1), -2 c tau grad f(x1), 1)
    """
    n = f.dim
    if not (c > 0.0):
        raise ValueError("c must be positive, got %r" % (c,))
    grad = f.gradient
    two_c = 2.0 * c

    def flow(z, _grad=grad, _two_c=two_c, _n=n, _r=range(n)):
        tau = z[2 * _n]
        s = 2.0 / tau
        k = -_two_c * tau
        out = []
        for i in _r:
            out.append(s * (z[_n + i] - z[i]))
        for g in _grad(z[:_n]):
            out.append(k * g)
        out.append(1.0)
        return out

    return flow


def _make_rep_flow(params: OdeParams, f: CostFunction, rep1: bool) -> Callable:
    """Shared factory for the two ODE forms on packed z = [x1, x2, clock].

    The clock power t ** e is numpy's: a negative float clock (reachable
    only through a state disturbance) with a fractional e gives nan, where
    Python's power would give a complex number."""
    n = f.dim
    p, c, ell = params.p, params.c, params.ell
    grad = f.gradient
    if rep1:
        coef = c * p * p

        def r1(z, _grad=grad, _coef=coef, _ell=ell, _e=p - 2.0, _n=n):
            t = z[2 * _n]
            tp = t ** _e
            if tp.__class__ is complex:
                tp = math.nan
            d = _ell / t
            k = _coef * tp
            x2 = z[_n : 2 * _n]
            out = list(x2)
            for v, g in zip(x2, _grad(z[:_n])):
                out.append(-d * v - k * g)
            out.append(1.0)
            return out

        return r1

    coef = c * p * p / (ell - 1.0)

    def r2(z, _grad=grad, _coef=coef, _ell=ell, _e=p - 1.0, _n=n, _r=range(n)):
        t = z[2 * _n]
        tp = t ** _e
        if tp.__class__ is complex:
            tp = math.nan
        s = (_ell - 1.0) / t
        k = -_coef * tp
        out = []
        for i in _r:
            out.append(s * (z[_n + i] - z[i]))
        for g in _grad(z[:_n]):
            out.append(k * g)
        out.append(1.0)
        return out

    return r2


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
