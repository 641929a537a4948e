"""Constructors for the two timer-based restarting hybrid systems.

Both flow the restarting field while the timer tau is inside [t_min, t_max]
and reset the timer to t_min on jumps. The two differ in the jump set and in
what the jump does to the state:

  variant 1: jumps allowed anywhere in tau in [t_med, t_max]; the jump keeps
             (x1, x2) and only resets the timer.
  variant 2: jumps exactly at tau = t_max; the jump also resets the momentum
             variable to the current position (x2+ = x1), which under strong
             convexity contracts the cost gap by a fixed factor per period
             provided the timer window satisfies the dwell condition
             t_max^2 - t_min^2 > 1/(mu c).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CostFunction, compile_source, per_row, row_dot
from .dynamics import make_hand_flow
from .engine import HybridSystem

__all__ = [
    "HandParams",
    "hand1",
    "hand2",
    "validate_dwell",
    "target_distance",
    "target_distance_fn",
]


@dataclass(frozen=True)
class HandParams:
    """Timer window and gradient weight: 0 < t_min < t_max, c > 0.

    t_med (variant-1 only) is the earliest timer value at which a restart may
    fire; it defaults to t_max, which makes restarts periodic.
    """

    t_min: float = 1.0
    t_max: float = 2.0 * math.e
    c: float = 1.0
    t_med: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max):
            raise ValueError(
                "timer window needs 0 < t_min < t_max, got t_min=%g t_max=%g" % (self.t_min, self.t_max)
            )
        if not math.isfinite(self.t_max):
            raise ValueError("t_max must be finite")
        if not (self.c > 0.0):
            raise ValueError("c must be positive, got %r" % (self.c,))
        if self.t_med is not None and not (self.t_min < self.t_med <= self.t_max):
            raise ValueError(
                "need t_min < t_med <= t_max, got t_min=%g t_med=%g t_max=%g"
                % (self.t_min, self.t_med, self.t_max)
            )


def _timer_test(name: str, condition: str):
    """Membership test name(z, inflation=0.0) compiled from condition, an
    expression in {tau} and {inflation} that it carries as its condition
    attribute, so the engine can inline it."""
    test = compile_source("def %s(z, inflation=0.0):\n    return %s\n"
                          % (name, condition.format(tau="z[-1]", inflation="inflation")), name)
    test.condition = condition
    return test


def _timer_sets(params: HandParams, d_lo: float, d_hi: float, point_jump: bool):
    window = "%r - {inflation} <= {tau} <= %r + {inflation}"
    in_C = _timer_test("in_C", window % (float(params.t_min), float(params.t_max)))
    d_lo, d_hi = float(d_lo), float(d_hi)
    if point_jump:
        # the timer accumulates fixed steps in floating point, so an exact
        # deadline is reached only up to roundoff; the band keeps deadline
        # hits from slipping one step per period
        tol = 1e-9 * max(1.0, d_hi)
        return in_C, _timer_test("in_D", "-({inflation} + %r) <= {tau} - %r <= {inflation} + %r" % (tol, d_hi, tol))
    return in_C, _timer_test("in_D", window % (d_lo, d_hi))


def hand1(f: CostFunction, params: HandParams) -> HybridSystem:
    """Timer-reset restarting system: jumps keep the state, reset the timer.

    Jumps may fire anywhere in tau in [t_med, t_max] (policy decides where);
    the attractor is {xstar} x {xstar} x [t_min, t_max].
    """
    t_med = params.t_med if params.t_med is not None else params.t_max
    if not (params.t_min < t_med <= params.t_max):
        raise ValueError("need t_min < t_med <= t_max")
    n = f.dim
    flow = make_hand_flow(params.c, f)

    def G(z, _t_min=params.t_min):
        return [*z[:-1], _t_min]

    in_C, in_D = _timer_sets(params, t_med, params.t_max, point_jump=False)
    meta = {
        "kind": "hand1",
        "t_min": params.t_min,
        "t_med": t_med,
        "t_max": params.t_max,
        "c": params.c,
        "cost": f.name,
    }
    return HybridSystem(dim=n, F=flow, G=G, in_C=in_C, in_D=in_D, meta=meta)


def hand2(f: CostFunction, params: HandParams) -> HybridSystem:
    """Momentum-reset restarting system: at tau = t_max, set x2+ = x1 and
    reset the timer.

    Exponential contraction needs strong convexity and the dwell condition;
    construction warns rather than rejects when either is unavailable, since
    the simulation itself is still well defined.
    """
    if params.t_med is not None and params.t_med != params.t_max:
        raise ValueError("momentum-reset variant jumps only at t_max; t_med must be unset or equal t_max")
    if f.mu is None:
        warnings.warn("cost %r has no strong convexity constant; dwell condition unchecked" % f.name)
    elif not validate_dwell(params, f.mu):
        mu_c = f.mu * params.c
        warnings.warn(
            "timer window too short for guaranteed contraction: t_max^2 - t_min^2 = %g <= 1/(mu c) = %g"
            % (params.t_max * params.t_max - params.t_min * params.t_min, 1.0 / mu_c if mu_c else math.inf)
        )
    n = f.dim
    flow = make_hand_flow(params.c, f)

    def G(z, _n=n, _t_min=params.t_min):
        return [*z[:_n], *z[:_n], _t_min]

    in_C, in_D = _timer_sets(params, params.t_max, params.t_max, point_jump=True)
    meta = {
        "kind": "hand2",
        "t_min": params.t_min,
        "t_med": params.t_max,
        "t_max": params.t_max,
        "c": params.c,
        "cost": f.name,
    }
    return HybridSystem(dim=n, F=flow, G=G, in_C=in_C, in_D=in_D, meta=meta)


def validate_dwell(params: HandParams, mu: float) -> bool:
    """Dwell condition t_max^2 - t_min^2 > 1/(mu c) for per-period contraction.
    A product mu c that underflows to 0 makes 1/(mu c) +inf, which no window
    exceeds."""
    if mu is None or not (mu > 0.0):
        raise ValueError("strong convexity constant mu > 0 required, got %r" % (mu,))
    mu_c = mu * params.c
    return mu_c > 0.0 and params.t_max * params.t_max - params.t_min * params.t_min > 1.0 / mu_c


def target_distance(z: np.ndarray, xstar: np.ndarray, params: HandParams):
    """Distance to the attractor {xstar} x {xstar} x [t_min, t_max] of a
    packed state (2n+1,) as a float, or of every row of a block (rows, 2n+1)
    as an array.

    Euclidean in (x1, x2) when the timer is inside its window; otherwise the
    timer's distance to the window enters in quadrature.
    """
    z = np.asarray(z, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    n = xstar.shape[0]
    if z.shape[-1:] != (2 * n + 1,):
        raise ValueError("packed state must have length %d, got shape %r" % (2 * n + 1, z.shape))
    d1, d2 = z[..., :n] - xstar, z[..., n : 2 * n] - xstar
    dx2 = row_dot(d1, d1) + row_dot(d2, d2)
    tau = z[..., -1]
    d_tau = np.maximum(np.maximum(params.t_min - tau, 0.0), tau - params.t_max)
    return per_row(np.sqrt(dx2 + d_tau * d_tau))


def target_distance_fn(f: CostFunction, params: HandParams):
    """Closure z -> distance to the attractor, for stop conditions and
    traces; z is a packed state or a block of rows, as in target_distance."""
    if f.xstar is None:
        raise ValueError("cost %r has no minimizer; target distance undefined" % f.name)
    xstar = f.xstar

    def dist(z, _xs=xstar, _params=params):
        return target_distance(z, _xs, _params)

    return dist
